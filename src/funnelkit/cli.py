"""Command line front end.

Four subcommands:

* ``check``     recognize a funnel, print a labeling or a witness
* ``distance``  arc deletion distance (exact, approximate, lower bound)
* ``generate``  write benchmark instances to disk
* ``bench``     run a generated grid and emit a CSV report

Exit codes: 0 on success (for ``check``: the input is a funnel), 1 when
``check`` rejects the input, 2 on malformed input or bad arguments, and
141 when stdout closes before the output is written; that exit is quiet.
All output is deterministic for fixed inputs and seeds; wall-clock
timings only appear behind ``--times``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import IO, Sequence

from . import __version__
from .analysis import find_forbidden_witness, funnel_labeling
from .bench import GridSpec, analyze, parse_time_limit, run_grid, summarize, write_csv
from .generator import (
    GenParams,
    InvalidFormula,
    NotEnoughSlots,
    parse_dimacs,
    planted_instance,
    reduce_3sat,
)
from .graph import (
    Dag,
    GraphError,
    condense_scc,
    emit_edge_list,
    parse_edge_list,
    read_arc_list,
)
from .labeling import Labeling

GEN_SCHEMA = "funnelkit-gen/2"

EXIT_OK = 0
EXIT_NOT_FUNNEL = 1
EXIT_INPUT = 2
EXIT_PIPE = 141  # what a shell reports for a process ended by SIGPIPE


class InputError(Exception):
    """Raised for any problem with user-supplied files or arguments."""


def _time_limit_arg(text: str) -> float:
    try:
        return parse_time_limit(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_source(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: invalid UTF-8 at byte {exc.start}") from exc


def _load_dag(path: str, condense: bool) -> Dag:
    text = _read_source(path)
    try:
        if condense:
            count, arcs = read_arc_list(text)
            dag, _ = condense_scc(arcs, count)
            return dag
        return parse_edge_list(text)
    except GraphError as exc:
        raise InputError(f"{path}: {exc}") from exc


def cmd_check(args: argparse.Namespace, out: IO[str]) -> int:
    dag = _load_dag(args.path, args.condense)
    witness = find_forbidden_witness(dag)
    if witness is None:
        print("funnel", file=out)
        text = funnel_labeling(dag).to_text()
        if text:
            print(text, file=out)
        return EXIT_OK
    print("not a funnel", file=out)
    parts = [f"{u}->{v}" for u, v in sorted(witness.arcs())]
    print("witness: " + " ".join(parts), file=out)
    return EXIT_NOT_FUNNEL


def cmd_distance(args: argparse.Namespace, out: IO[str]) -> int:
    dag = _load_dag(args.path, args.condense)
    report = analyze(
        dag,
        instance=args.path,
        mode=args.mode,
        time_limit_ms=args.time_limit_ms,
    )
    payload = report.to_json_dict(with_times=args.times)
    print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    return EXIT_OK


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_generate(args: argparse.Namespace, out: IO[str]) -> int:
    labeling: Labeling | None = None
    if args.cnf is not None:
        try:
            formula = parse_dimacs(_read_source(args.cnf))
            dag, target = reduce_3sat(formula)
        except InvalidFormula as exc:
            raise InputError(f"{args.cnf}: {exc}") from exc
        meta = {
            "schema": GEN_SCHEMA,
            "tool": f"funnelkit {__version__}",
            "kind": "cnf3",
            "num_vars": formula.num_vars,
            "num_clauses": len(formula.clauses),
            "target": target,
        }
    else:
        if args.n is None:
            raise InputError("generate needs either --n or --cnf")
        try:
            params = GenParams(n=args.n, p=args.p, s=args.s, seed=args.seed)
            dag, labeling = planted_instance(params)
        except (ValueError, NotEnoughSlots) as exc:
            raise InputError(str(exc)) from exc
        meta = {
            "schema": GEN_SCHEMA,
            "tool": f"funnelkit {__version__}",
            "kind": "planted",
            **dataclasses.asdict(params),
        }

    _write_text(args.out + ".edges", emit_edge_list(dag))
    if labeling is not None:
        _write_text(args.out + ".labels", labeling.to_text() + "\n")
    meta_text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    _write_text(args.out + ".json", meta_text)
    print(meta_text, end="", file=out)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace, out: IO[str]) -> int:
    if args.grid is not None:
        try:
            spec = GridSpec.from_file(args.grid)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise InputError(f"{args.grid}: {exc}") from exc
    elif args.large_grid:
        spec = GridSpec.large_scale()
    else:
        spec = GridSpec()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.time_limit_ms is not None:
        overrides["time_limit_ms"] = args.time_limit_ms
    if overrides:
        spec = dataclasses.replace(spec, **overrides)

    try:
        reports = run_grid(spec)
    except (ValueError, NotEnoughSlots) as exc:
        raise InputError(str(exc)) from exc
    csv_text = write_csv(reports, with_times=args.times)
    if args.out is not None:
        _write_text(args.out, csv_text)
    else:
        print(csv_text, end="", file=out)
    stats = summarize(reports)
    print(
        "instances={instances} solved={solved} solved_pct={solved_pct:.1f}".format(
            **stats
        ),
        file=out,
    )
    if stats["solved"]:
        print(
            "mean_ratio={mean_ratio:.6f} ratio_eq_1_pct={ratio_eq_1_pct:.1f}".format(
                **stats
            ),
            file=out,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funnelkit",
        description="funnel recognition and arc deletion distance tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="recognize a funnel")
    check.add_argument("path", help="arc list file, or - for stdin")
    check.add_argument(
        "--condense",
        action="store_true",
        help="contract strongly connected components first",
    )
    check.set_defaults(func=cmd_check)

    distance = sub.add_parser("distance", help="arc deletion distance")
    distance.add_argument("path", help="arc list file, or - for stdin")
    distance.add_argument(
        "--mode",
        choices=("exact", "approx", "lower", "all"),
        default="all",
        help="which solvers to run (default: all)",
    )
    distance.add_argument(
        "--time-limit-ms",
        type=_time_limit_arg,
        default=None,
        metavar="MS",
        help="soft deadline for the exact solver",
    )
    distance.add_argument("--condense", action="store_true")
    distance.add_argument(
        "--times",
        action="store_true",
        help="include wall-clock timings in the JSON",
    )
    distance.set_defaults(func=cmd_distance)

    generate = sub.add_parser("generate", help="write instances to disk")
    generate.add_argument("--n", type=int, help="planted funnel size")
    generate.add_argument(
        "--p", type=float, default=0.5, help="cross arc density (default 0.5)"
    )
    generate.add_argument(
        "--s", type=int, default=0, help="noise arcs to add (default 0)"
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--cnf",
        metavar="FILE",
        help="build the reduction gadget for a DIMACS 3-CNF formula",
    )
    generate.add_argument(
        "--out", required=True, metavar="PREFIX", help="output file prefix"
    )
    generate.set_defaults(func=cmd_generate)

    bench = sub.add_parser("bench", help="run a generated grid")
    bench.add_argument("--grid", metavar="FILE", help="grid spec as JSON")
    bench.add_argument(
        "--large-grid",
        action="store_true",
        help="use the large preset instead of the desk-sized default",
    )
    bench.add_argument("--seed", type=int, default=None, help="override grid seed")
    bench.add_argument(
        "--time-limit-ms", type=_time_limit_arg, default=None, metavar="MS"
    )
    bench.add_argument("--out", metavar="FILE", help="write the CSV here")
    bench.add_argument(
        "--times", action="store_true", help="include timing columns"
    )
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # The reader went away (``funnelkit check FILE | head -1``).  Output
        # still buffered would fail again at shutdown, so it goes to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

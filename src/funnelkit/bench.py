"""Instance reports and the benchmark grid runner.

A report is one instance's numbers.  JSON reports and CSV rows contain no
wall-clock data unless timings are requested explicitly, so equal seeds
reproduce byte-identical output.  The invariant chain

    lower_bound <= exact_size <= approx_size <= 2 * exact_size

is checked on every report (it holds even for timed-out exact runs, whose
size is the incumbent upper bound).

CSV rows hold the columns of ``CSV_COLUMNS``, in order.  A trailing block
of '#'-prefixed lines summarizes solved percentages and the distribution of
approximation ratios.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .analysis import is_funnel_degree
from .approx import approximate_addf
from .exact import lower_bound, solve_addf
from .generator import GenParams, derive_seed, planted_instance
from .graph import MAX_GRID_ROWS, Dag

REPORT_SCHEMA = "funnelkit-report/1"
WORKERS_ENV = "FUNNELKIT_WORKERS"

CSV_COLUMNS = [
    "instance",
    "n",
    "m",
    "seed",
    "gen_n",
    "gen_p",
    "gen_s",
    "is_funnel",
    "lower_bound",
    "approx_size",
    "exact_size",
    "timed_out",
    "approx_ratio",
    "lower_ms",
    "approx_ms",
    "exact_ms",
]

RATIO_BUCKETS = [1.0, 1.1, 1.25, 1.5, 2.0]


@dataclass
class Report:
    instance: str
    n: int
    m: int
    is_funnel: bool
    seed: Optional[int] = None
    gen: Optional[GenParams] = None
    lower_bound: Optional[int] = None
    approx_size: Optional[int] = None
    exact_size: Optional[int] = None
    timed_out: bool = False
    approx_ratio: Optional[float] = None
    timings_ms: dict = field(default_factory=dict)

    def check(self) -> "Report":
        lo, hi, mid = self.lower_bound, self.approx_size, self.exact_size
        if lo is not None and mid is not None and lo > mid:
            raise RuntimeError(f"{self.instance}: lower bound {lo} above exact {mid}")
        if mid is not None and hi is not None and not mid <= hi <= 2 * mid:
            raise RuntimeError(f"{self.instance}: approx {hi} outside [{mid}, {2 * mid}]")
        return self

    def to_json_dict(self, with_times: bool = False) -> dict:
        """``{"schema": ...}`` plus every field that is not ``None``.

        ``timed_out`` is kept only with ``exact_size``, ``timings_ms`` only
        under ``with_times`` (rounded to 3 places), and ``gen`` is the field
        dict of its :class:`~funnelkit.generator.GenParams`.
        """
        out = {"schema": REPORT_SCHEMA}
        out.update((k, v) for k, v in asdict(self).items() if v is not None)
        if self.exact_size is None:
            del out["timed_out"]
        if with_times:
            out["timings_ms"] = {k: round(v, 3) for k, v in self.timings_ms.items()}
        else:
            del out["timings_ms"]
        return out


def analyze(
    dag: Dag,
    instance: str,
    mode: str = "all",
    time_limit_ms: Optional[float] = None,
    seed: Optional[int] = None,
    gen: Optional[GenParams] = None,
) -> Report:
    """Run the requested solvers on one instance and assemble its report.

    Modes ``exact`` and ``all`` make one :func:`~funnelkit.exact.solve_addf`
    call, which certifies 201 of the 270 rows of the default grid at the
    root.  ``all`` passes its approximation in and reads the lower bound and
    its time back, so each is computed once; its ``exact_ms`` omits the bound.
    """
    if mode not in ("exact", "approx", "lower", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    report = Report(
        instance=instance,
        n=dag.vertex_count,
        m=dag.arc_count,
        is_funnel=is_funnel_degree(dag),
        seed=seed,
        gen=gen,
    )
    if mode == "lower":
        start = time.perf_counter()
        report.lower_bound = lower_bound(dag)
        report.timings_ms["lower"] = (time.perf_counter() - start) * 1000
    approx = None
    if mode in ("approx", "all"):
        start = time.perf_counter()
        approx = approximate_addf(dag)
        report.approx_size = approx.size
        report.timings_ms["approx"] = (time.perf_counter() - start) * 1000
    if mode in ("exact", "all"):
        start = time.perf_counter()
        result = solve_addf(dag, incumbent=approx, time_limit_ms=time_limit_ms)
        exact_ms = (time.perf_counter() - start) * 1000
        report.exact_size = result.distance
        report.timed_out = result.stats.timed_out
        if mode == "all":
            report.lower_bound = result.stats.lower_bound
            report.timings_ms["lower"] = result.stats.lower_bound_ms
            exact_ms -= result.stats.lower_bound_ms
        report.timings_ms["exact"] = exact_ms
    if approx is not None and report.exact_size is not None and not report.timed_out:
        report.approx_ratio = (
            report.approx_size / report.exact_size if report.exact_size else 1.0
        )
    return report.check()


def parse_time_limit(value: str | float) -> float:
    """``value`` as a time limit in ms; ValueError unless finite and >= 0.

    A NaN limit would never expire and a negative one would expire at once.
    """
    limit = float(value)
    if not (0 <= limit < math.inf):
        raise ValueError(f"time limit must be a finite number >= 0 ms, got {value!r}")
    return limit


@dataclass(frozen=True)
class GridSpec:
    """Cartesian benchmark grid over (n, p, s) with seeded replicates."""

    ns: tuple[int, ...] = (50, 100, 200)
    ps: tuple[float, ...] = (0.15, 0.5, 0.85)
    ss: tuple[int, ...] = (5, 15, 25)
    replicates: int = 10
    time_limit_ms: float = 10_000.0
    seed: int = 1

    def __post_init__(self):
        # derive_seed masks to 64 bits, so a wider seed would alias another.
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"grid seed must lie in 0..2**64-1, got {self.seed}")
        if len(self.ns) * len(self.ps) * len(self.ss) * self.replicates > MAX_GRID_ROWS:
            raise ValueError(f"grid has more than {MAX_GRID_ROWS} rows")

    @classmethod
    def large_scale(cls) -> "GridSpec":
        return cls(
            ns=(250, 300, 500, 1000),
            ps=(0.15, 0.5, 0.85),
            ss=(125, 150, 175),
            replicates=30,
            time_limit_ms=600_000.0,
        )

    @classmethod
    def from_file(cls, path: str) -> "GridSpec":
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError("grid spec must be a JSON object")
        base = cls()
        given = {f.name: raw.pop(f.name, getattr(base, f.name)) for f in fields(cls)}
        if raw:
            raise ValueError("unknown grid keys: " + ", ".join(sorted(raw)))
        for key, kinds in (("ns", int), ("ps", (int, float)), ("ss", int)):
            if not isinstance(given[key], (list, tuple)) or not given[key]:
                raise ValueError(f"grid key {key!r} must be a non-empty list")
            given[key] = tuple(given[key])
            for item in given[key]:
                if isinstance(item, bool) or not isinstance(item, kinds):
                    raise ValueError(f"grid key {key!r} holds non-numeric {item!r}")
        for key in ("replicates", "seed"):
            item = given[key]
            if isinstance(item, bool) or not isinstance(item, int):
                raise ValueError(f"grid key {key!r} must be an integer, got {item!r}")
        if given["replicates"] < 1:
            raise ValueError("grid key 'replicates' must be >= 1")
        limit = given["time_limit_ms"]
        if isinstance(limit, bool) or not isinstance(limit, (int, float)):
            raise ValueError(f"grid time limit must be a JSON number, got {limit!r}")
        given["time_limit_ms"] = parse_time_limit(limit)
        return cls(**given)

    def instances(self):
        grid = itertools.product(self.ns, self.ps, self.ss, range(self.replicates))
        for index, (n, p, s, rep) in enumerate(grid):
            yield (
                f"n{n}-p{p}-s{s}-r{rep}",
                GenParams(n=n, p=p, s=s, seed=derive_seed(self.seed, index)),
            )


def _bench_task(args: tuple[str, GenParams, float]) -> Report:
    instance, params, time_limit_ms = args
    dag, _ = planted_instance(params)
    return analyze(
        dag, instance, time_limit_ms=time_limit_ms, seed=params.seed, gen=params
    )


def run_grid(spec: GridSpec, workers: Optional[int] = None) -> list[Report]:
    """Generate and analyze the whole grid, in its deterministic order.

    Parallel workers (default from the FUNNELKIT_WORKERS variable, which
    must be a positive integer) only spread instances over processes; the
    report order is always the grid order, so output files do not depend on
    scheduling.  At most one worker per instance and per CPU is started.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    tasks = [
        (instance, params, spec.time_limit_ms) for instance, params in spec.instances()
    ]
    # The pool starts all its workers at once under fork, so a count is
    # capped before it reaches the pool.
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [_bench_task(task) for task in tasks]
    # Imported here, so that CLI calls, which never run a parallel grid, do
    # not load multiprocessing at start-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_bench_task, tasks))


def summarize(reports: list[Report]) -> dict:
    solved = [r for r in reports if r.exact_size is not None and not r.timed_out]
    ratios = [r.approx_ratio for r in solved if r.approx_ratio is not None]
    histogram = []
    for bucket in RATIO_BUCKETS:
        histogram.append((bucket, sum(1 for x in ratios if x <= bucket)))
    return {
        "instances": len(reports),
        "solved": len(solved),
        "solved_pct": 100.0 * len(solved) / len(reports) if reports else 0.0,
        "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
        "ratio_eq_1_pct": (
            100.0 * sum(1 for x in ratios if x == 1.0) / len(ratios) if ratios else None
        ),
        "ratio_histogram": histogram,
    }


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".6f")
    return str(value)


def write_csv(reports: list[Report], with_times: bool = False) -> str:
    """Render reports as CSV text with the trailing summary block."""
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        row = dict(vars(r))
        if r.gen is not None:
            row.update((f"gen_{k}", v) for k, v in vars(r.gen).items())
        if with_times:
            row.update((f"{k}_ms", f"{v:.3f}") for k, v in r.timings_ms.items())
        writer.writerow([_csv_value(row.get(column)) for column in CSV_COLUMNS])
    summary = summarize(reports)
    sink.write(f"# instances={summary['instances']} solved={summary['solved']}")
    sink.write(f" solved_pct={summary['solved_pct']:.6f}\n")
    if summary["mean_ratio"] is not None:
        sink.write(f"# mean_ratio={summary['mean_ratio']:.6f}")
        sink.write(f" ratio_eq_1_pct={summary['ratio_eq_1_pct']:.6f}\n")
        buckets = " ".join(f"{b:.6f}:{c}" for b, c in summary["ratio_histogram"])
        sink.write(f"# ratio_histogram {buckets}\n")
    return sink.getvalue()

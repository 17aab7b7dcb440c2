"""Regenerate ``desk_optima.json``, the desk-grid's pinned optima.

    python3 perfbench/pin_desk_optima.py

For each grid seed 0..PIN_SEEDS-1 it solves the default 270-row
``GridSpec`` and records every row's exact distance.  The committed file was
made at the commit that defined the benchmark.  Optima cannot move under a
correct change, so regenerate it only if the grid itself changes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import run


def _optima(grid_seed: int) -> list[int]:
    run._import_funnelkit()
    import workloads

    return workloads.desk_optima(grid_seed)


def main() -> int:
    run._import_funnelkit()
    import workloads

    seeds = range(workloads.PIN_SEEDS)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=os.cpu_count(), mp_context=context) as pool:
        optima = dict(zip((str(s) for s in seeds), pool.map(_optima, seeds)))
    payload = {
        "grid": "GridSpec() with seed replaced",
        "commit": run.git_commit(run.ROOT),
        "optima": optima,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    workloads.DESK_PINS.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {workloads.DESK_PINS} for {len(optima)} grid seeds", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

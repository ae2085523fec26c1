"""Rebuild pools.json: the cost of every pool member's request, the ranking
that workloads.request_list stratifies on.

A member's cost is the wall time of its ``cli.main`` call in one warmed
process: the median of three calls for a request under 0.5 s, else one
call. Run from the repository root against the commit the benchmark was
defined on, on an otherwise idle machine (the stored file was made that
way; it takes about 15 minutes):

    python3 perfbench/make_pools.py
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from worker import import_program, time_request  # noqa: E402


def measure(cli, request: dict, workdir: Path) -> float:
    argv, _ = workloads.argv_for(request, workdir, "member")
    times = []
    while not times or (times[0] < 0.5 and len(times) < 3):
        code, seconds = time_request(cli, argv)
        if code != 0:
            raise SystemExit(f"request failed: {argv}")
        times.append(seconds)
    return float(np.median(times))


def main():
    cli = import_program()["cli"]
    cost = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        workdir = Path(tmp)
        for workload in ("bound_mix", "simulate_mix"):
            for request in workloads.warmup_requests(workload):
                measure(cli, request, workdir)
        pools = {**workloads.BOUND_POOLS, **workloads.SIMULATE_POOLS}
        for pool, (size, _) in pools.items():
            cost[pool] = [round(measure(cli, workloads.pool_member(pool, i), workdir), 6)
                          for i in range(size)]
            print(f"{pool}: {sum(cost[pool]):.1f} s", file=sys.stderr)
    doc = {"master_seed": workloads.MASTER_SEED, "cost_s": cost}
    (HERE / "pools.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()

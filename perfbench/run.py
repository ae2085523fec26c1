"""capdetect benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload figures|bound_mix|simulate_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory. ``--trace 0`` prints the end-to-end metrics, measured
without tracing; ``--trace 1`` prints the per-layer metrics from a traced
run. The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it restate the
metrics with their units, the ratios that may be zero, and the run's
provenance. See README.md in this directory for the workloads and for the
layer-to-metric map.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figures", "bound_mix", "simulate_mix")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20260917
SETUP_RUNS = 5
# The speed probe's median time (worker.probe_s) on the reference machine.
# wall_s, req_p50_ms and req_tail_ms are scaled by PROBE_REF_S over the
# probe's median time in the run: they are times at the reference speed.
PROBE_REF_S = 0.010
DEADLINE_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# the solver counters the traced self-check requires to repeat exactly
COUNTER_PREFIXES = ("infotheory.ba_matrices", "infotheory.ba_iters_",
                    "infotheory.ba_unconverged", "infotheory.batch_rounds")

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from capdetect import cli; sys.exit(cli.main(sys.argv[2:]))"
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def git_commit():
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Bench:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.env = child_env()
        self.workdir = ROOT / ".perfbench_work" / str(os.getpid())

    def remaining(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 1.0:
            raise BenchError("out of time before the run finished")
        return left

    def measure_setup(self) -> list:
        """Wall time of fresh interpreters that import capdetect.cli and
        complete the workload's warm-up request."""
        sys.path.insert(0, str(HERE))
        import workloads

        argv, _ = workloads.argv_for(workloads.warmup_requests(self.args.workload)[0],
                                     self.workdir, "setup")
        times = []
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_CODE, str(ROOT / "src"), *argv],
                env=self.env, stdout=subprocess.DEVNULL, timeout=self.remaining(),
            )
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise BenchError(f"set-up request exited with {proc.returncode}")
        return times

    def worker(self, mode: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--mode", mode, "--workdir", str(self.workdir)]
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE, text=True,
                                  timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker did not finish in time")
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run(self) -> dict:
        if self.args.trace:
            return self.traced()
        return self.end_to_end()

    def end_to_end(self) -> dict:
        setup = self.measure_setup()
        rep = self.worker("timed")
        speed = PROBE_REF_S / rep["probe_s"]
        lat = [speed * t for t in rep["latency_s"]]
        n = len(lat)
        # the highest percentile with at least 10 samples beyond it
        tail_q = (n - 10) / n if n > 10 else 1.0
        tail = hd_quantile(lat, tail_q) if n > 10 else max(lat)
        tail_label = f"p{100.0 * tail_q:.0f}" if n > 10 else "max"
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(lat), "s"),
            "req_p50_ms": (1e3 * hd_quantile(lat, 0.5), "ms"),
            "req_tail_ms": (1e3 * tail, "ms"),
            "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
        }
        self.print_summary(metrics, rep)
        timings = rep["timings"]
        print(f"req_tail_ms is {tail_label} of {n} distinct requests; each request's "
              f"time is the median of its {min(timings)} to {max(timings)} timings "
              f"(median {statistics.median(timings):g})")
        print(f"speed factor {speed:.4f}: the probe's median time was "
              f"{1e3 * rep['probe_s']:.3f} ms over {rep['probes']} probes, "
              f"{1e3 * PROBE_REF_S:g} ms on the reference machine; unscaled wall_s "
              f"{sum(rep['latency_s']):.6g} s")
        print(f"setup_s runs: {', '.join(f'{t:.4f}' for t in setup)}")
        return self.result(rep["attempted"], rep["failed"], metrics)

    def traced(self) -> dict:
        first = self.worker("traced")
        again = self.worker("traced-only")
        a, b = first["ba_counters"], again["ba_counters"]
        mismatches = sorted(k for k in a if k.startswith(COUNTER_PREFIXES) and a[k] != b.get(k))
        for k in mismatches:
            print(f"benchmark defect: counter {k} was {a[k]} and {b.get(k)} in two traced runs",
                  file=sys.stderr)
        metrics = {k: (v, unit_of(k)) for k, v in first["layers"].items()}
        metrics["trace.wall_s"] = (first["traced_wall_s"], "s")
        metrics["trace.untraced_wall_s"] = (first["untraced_wall_s"], "s")
        metrics["trace.overhead_s"] = (first["traced_wall_s"] - first["untraced_wall_s"], "s")
        metrics["trace.counter_mismatches"] = (len(mismatches), "count")
        both = dict(first, failures=first["failures"] + again["failures"])
        for key in ("attempted", "failed", "bound_attempted", "unconverged"):
            both[key] = first[key] + again[key]
        self.print_summary(metrics, both)
        return self.result(both["attempted"], both["failed"], metrics, extra_defects=len(mismatches))

    def print_summary(self, metrics, rep):
        w = self.args.workload
        for name, (value, unit) in metrics.items():
            print(f"{w} {name} {value:.6g} {unit}")
        print(f"{w} fail_ratio {rep['failed']}/{rep['attempted']} = "
              f"{rep['failed'] / rep['attempted']:.6g} ratio")
        if rep["bound_attempted"]:
            print(f"{w} unconverged_ratio {rep['unconverged']}/{rep['bound_attempted']} = "
                  f"{rep['unconverged'] / rep['bound_attempted']:.6g} ratio")
        else:
            print(f"{w} unconverged_ratio n/a (no bound requests)")
        for f in rep["failures"]:
            print(f"{w} failed request {f['request']}: {f['reason']}", file=sys.stderr)
        prov = dict(rep["provenance"], git_commit=git_commit(), workload=w,
                    seed=self.args.seed, seconds=self.args.seconds, requests=rep["requests"])
        print("provenance " + json.dumps(prov, sort_keys=True))

    def result(self, attempted, failed, metrics, extra_defects=0) -> dict:
        return {
            "correct": failed == 0 and extra_defects == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta(q(n+1), (1-q)(n+1))
    weighted mean of the order statistics. The requests' latencies cluster
    by channel kind, and the plain order statistic jumped between clusters
    from run to run; the weighted mean moves smoothly."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = (np.arange(200_000) + 0.5) / 200_000
    logpdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(logpdf - logpdf.max()))))
    cdf /= cdf[-1]
    weights = np.diff(cdf[np.round(np.arange(n + 1) / n * 200_000).astype(int)])
    return float(weights @ x)


def unit_of(name: str) -> str:
    if name.endswith("_s") or ".ba_s." in name or ".figure_s." in name:
        return "s"
    if name.endswith("_ratio") or name.endswith("per_request"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=36.0,
                    help="measuring time; the first pass over the request list always completes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "capdetect" / "cli.py").is_file():
        print(f"run.py: no capdetect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run unwinds like an interrupted one: subprocess.run kills
    # and reaps the running child, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(args)
    bench.workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = bench.run()
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
        try:
            bench.workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

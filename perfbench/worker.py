"""One workload process: runs a pass over the request list through
``capdetect.cli.main`` and prints a JSON report as its last stdout line.

Modes:
  timed        one untraced pass, then extra untraced timings until --seconds
               have elapsed
  traced       one untraced pass, then one traced pass in the same process
  traced-only  one traced pass (the repeat run of the counter self-check)

Run by run.py; the program is imported from ``src`` of the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def import_program() -> dict:
    import capdetect
    from capdetect import channels, cli, detect, infotheory, protocol_sim, qcore

    origin = Path(capdetect.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"capdetect imported from {origin}, not from {ROOT / 'src'}")
    return {"cli": cli, "channels": channels, "detect": detect, "infotheory": infotheory,
            "protocol_sim": protocol_sim, "qcore": qcore}


# A timed run first times every request once, then times the requests
# again in rounds until --seconds are used up, and keeps the median of each
# request's timings. On a shared 2-vCPU machine one timing of the same
# 40 ms request ranged from 0.4 to 1.8 times its median within one run, so
# the fast requests that set the percentiles need many timings; a slow
# request averages the noise over its own length.
MAX_TIMINGS = 30

# The machine's speed during the run, for run.py to scale the times by: a
# fixed pure-Python loop, the benchmark's own code, timed between requests
# at most every PROBE_PERIOD_S. The speed drifts by 10-40% over minutes,
# which no statistic within one run removes; the probe's median time
# followed that drift in the program's times from run to run, and scaling
# by it cut their spread by a third or more. A small numpy loop and the
# probe's fastest time tracked it less well.
PROBE_PERIOD_S = 0.25
PROBE_LOOPS = 100_000


def probe_s() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += (i * i) % 7
    return time.perf_counter() - t0


def time_request(cli, argv) -> tuple:
    """(exit code, seconds) of one ``cli.main(argv)`` call."""
    t0 = time.perf_counter()
    code = cli.main(argv)
    return code, time.perf_counter() - t0


def plan_repeats(times: list, have: list, budget: float) -> list:
    """More timings per request, to fill ``budget`` seconds: request i,
    typically ``times[i]`` long with ``have[i]`` timings, is brought up to
    ``level / sqrt(times[i])`` timings, at most MAX_TIMINGS, for the
    largest ``level`` whose extra timings fit in the budget. The time spent
    on a request then grows with the square root of its length: the fast
    requests that set the percentiles get many timings, and the slow ones
    that make up ``wall_s`` still get a few."""
    def plan(level):
        return [max(0, min(MAX_TIMINGS, int(level // math.sqrt(t))) - k) if t > 0 else 0
                for t, k in zip(times, have)]

    def cost(extra):
        return sum(e * t for e, t in zip(extra, times))

    lo, hi = 0.0, MAX_TIMINGS * math.sqrt(max(times, default=0.0))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cost(plan(mid)) <= budget else (lo, mid)
    return plan(lo)


class Runner:
    def __init__(self, workload, seed, workdir, modules):
        self.workload = workload
        self.modules = modules
        self.cli = modules["cli"]
        self.tracer = None
        self.requests = workloads.request_list(workload, seed)
        self.argvs = [workloads.argv_for(r, workdir, f"r{i}") for i, r in enumerate(self.requests)]
        self.latency = [[] for _ in self.requests]
        self.digests = [None] * len(self.requests)
        self.verdicts = [None] * len(self.requests)
        self.converged = [True] * len(self.requests)
        self.probes = []
        self.last_probe = 0.0
        self.failures = {}
        self.attempted = 0
        self.failed = 0
        self.unconverged = 0
        self.bound_attempted = 0

    def _check(self, i, out_path):
        """Checks request i's output. A later timing's output must be
        byte-identical to the first, so only the first is checked in full."""
        request = self.requests[i]
        data = out_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digests[i] is None:
            self.digests[i] = digest
            text = data.decode()
            if request["command"] == "reproduce":
                self.verdicts[i] = checks.check_figure(request["figure"], text)
            elif request["command"] == "bound":
                self.verdicts[i] = checks.check_bound(request["spec"], text, self.modules)
                self.converged[i] = json.loads(text)["converged"] is not False
            else:
                self.verdicts[i] = checks.check_simulate(request, text)
        elif self.digests[i] != digest:
            return "output differs from the same request's output in an earlier timing"
        if request["command"] == "bound":
            self.bound_attempted += 1
            self.unconverged += not self.converged[i]
        return self.verdicts[i]

    def _fail(self, i, reason):
        self.failed += 1
        self.failures.setdefault(reason, i)

    def run_request(self, i) -> float:
        """Times request i once and checks its output; returns the time.
        The check runs outside the timed call and untraced."""
        argv, out_path = self.argvs[i]
        self.attempted += 1
        try:
            code, dt = time_request(self.cli, argv)
        except Exception as exc:  # a crash is a failed request, not a benchmark abort
            self._fail(i, f"{type(exc).__name__}: {exc}")
            return 0.0
        self.latency[i].append(dt)
        if self.probes is not None and time.perf_counter() - self.last_probe >= PROBE_PERIOD_S:
            self.probes.append(probe_s())
            self.last_probe = time.perf_counter()
        if code != 0:
            self._fail(i, f"exit code {code}")
            return dt
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            reason = self._check(i, out_path)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
        if reason:
            self._fail(i, reason)
        return dt

    def one_pass(self) -> float:
        """Runs every request once; returns the summed request time."""
        return sum(self.run_request(i) for i in range(len(self.requests)))

    def timed_run(self, seconds: float):
        """One pass, then rounds of extra timings planned by
        :func:`plan_repeats` until ``seconds`` have passed. A request's
        first timing runs slower than later ones, so a plan made from the
        timings so far ends early, and the time left is planned again. A
        request that raised is not timed again."""
        start = time.perf_counter()

        def left():
            return seconds - (time.perf_counter() - start)

        self.one_pass()
        while True:
            times = [float(np.median(v)) if v else 0.0 for v in self.latency]
            extra = plan_repeats(times, [len(v) for v in self.latency], left())
            if not any(extra):
                return
            for r in range(1, max(extra) + 1):
                for i in (i for i, k in enumerate(extra) if k >= r):
                    if left() <= 0:
                        return
                    self.run_request(i)

    def rerun_check(self):
        """The cheapest simulate request, re-run with the same seed after
        the timed calls, must give byte-identical JSON."""
        order = sorted(range(len(self.requests)), key=lambda i: min(self.latency[i], default=0.0))
        for i in order:
            r = self.requests[i]
            if r["command"] == "simulate" and self.digests[i] is not None:
                argv, out_path = self.argvs[i]
                self.attempted += 1
                if (self.cli.main(argv) != 0
                        or hashlib.sha256(out_path.read_bytes()).hexdigest() != self.digests[i]):
                    self._fail(i, "re-run with the same seed changed the JSON")
                return

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": [{"request": i, "reason": reason} for reason, i in self.failures.items()],
            "bound_attempted": self.bound_attempted,
            "unconverged": self.unconverged,
            # per distinct request: the median of its timings
            "latency_s": [float(np.median(v)) for v in self.latency if v],
            "timings": [len(v) for v in self.latency if v],
        }


def warm_up(runner, workdir):
    for k, request in enumerate(workloads.warmup_requests(runner.workload)):
        argv, _ = workloads.argv_for(request, workdir, f"warmup{k}")
        if runner.cli.main(argv) != 0:
            raise SystemExit(f"warm-up request {k} failed")


def provenance(modules) -> dict:
    import scipy

    cli = modules["cli"]
    max_workers = getattr(cli, "_max_workers", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "capdetect_threads_env": os.environ.get("CAPDETECT_THREADS"),
        "effective_workers": max_workers() if max_workers else 1,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "traced", "traced-only"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    modules = import_program()
    workdir = Path(args.workdir)
    runner = Runner(args.workload, args.seed, workdir, modules)
    warm_up(runner, workdir)
    out = {"requests": len(runner.requests), "provenance": provenance(modules)}

    if args.mode == "timed":
        runner.timed_run(args.seconds)
        runner.rerun_check()
        out["probe_s"] = float(np.median(runner.probes))
        out["probes"] = len(runner.probes)
    else:
        runner.probes = None
        if args.mode == "traced":
            out["untraced_wall_s"] = runner.one_pass()
        runner.tracer = Tracer(modules)
        runner.tracer.install()
        out["traced_wall_s"] = runner.one_pass()
        runner.tracer.uninstall()
        out["layers"] = runner.tracer.metrics()
        out["ba_counters"] = runner.tracer.ba_counters()
    out.update(runner.report())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""Run one benchmark workload against the borelline checkout in the current directory.

    python3 perfbench/run.py --workload lab-proof --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: the next request is sent when
the previous response is back. Requests go to one fresh worker process
(perfbench/worker.py), which empties the program's caches before each
request, so a request costs the same wherever the seed puts it. A run sends a fixed number of rounds, sized from --seconds by each
workload's nominal round time, so every run of a workload does the same work.

--trace 0 prints the end-to-end metrics. --trace 1 sends one round twice, to
an untraced and then to a traced worker, and prints the per-layer metrics
with the tracing overhead; spans go to .bench_work/.

Times are host-scaled. The host is a few shared cores whose speed drifts by
tens of percent within seconds and between minutes, for the program and for
any other code alike. So this process, the worker and the worker's children
share one CPU, and between requests the worker times a fixed calibration
loop there (worker.py). Each request's wall and CPU time is multiplied by
CALIBRATION_NOMINAL_S / (the mean time of the loops run within
LOCAL_WINDOW_S of it), and each setup spawn's time likewise by loops run
just before and after it: they read in seconds at the host speed at which
the loop takes its nominal time. The loop calls no borelline code, so a
change to the program moves the scaled times as it moves the raw ones. A
missed deadline is not scaled: it costs the deadline whatever the host's
speed. The raw figures and the run's mean scale are printed too.

Latency percentiles are taken over distinct requests: a request sent more
than once in a run (same argv, same documents) is one sample, the median of
its sends, so that a single preempted send does not set the tail.

Every response is checked against its golden and known answers (see
workloads.py). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `correct` is false when any
request fails other than the documented known defects, which stay counted
in `failed` until they are fixed.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import layer_metrics
from worker import Calibration

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
SETUP_SPAWNS = 11
TAIL_BEYOND = 10
# The calibration loop's median wall time on an unloaded 2-vCPU Xeon host
# (Python 3.11); scaled times read in seconds at that speed.
CALIBRATION_NOMINAL_S = 0.0058
LOCAL_WINDOW_S = 0.5


class Session:
    """One worker process; `setup_s` is spawn-to-ready wall time."""

    def __init__(self, root, trace_dir=None):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        cmd = [sys.executable, str(HERE / "worker.py")]
        if trace_dir is not None:
            cmd += ["--trace", str(trace_dir)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not ready:
            self.close()
            raise RuntimeError("worker exited before it was ready")
        self.files = root / ".bench_work" / "in"
        self.files.mkdir(parents=True, exist_ok=True)
        self._next_id = 0

    def argv(self, req):
        """The request's argv with its documents written to files."""
        paths = {}
        for name, text in req.files:
            path = self.files / f"{req.key}-{name}.json"
            if not path.exists():
                path.write_text(text, encoding="utf-8")
            paths["@" + name] = str(path)
        return [paths.get(a, a) for a in req.argv]

    def _send(self, msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited mid-run")
        return json.loads(line)

    def request(self, req, mode, deadline, argv=None):
        self._next_id += 1
        return self._send({"op": "request", "id": self._next_id,
                           "argv": self.argv(req) if argv is None else argv,
                           "mode": mode, "deadline": deadline})

    def stats(self):
        return self._send({"op": "stats"})

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


def run_stream(root, requests, workload, trace_dir=None):
    """Send every request in order.

    Returns (responses, wall seconds, worker stats, setup seconds); the wall
    time leaves out the worker's calibration loops.
    """
    session = Session(root, trace_dir)
    try:
        argvs = [session.argv(r) for r in requests]   # documents are written untimed
        start = time.perf_counter()
        responses = [session.request(r, workload.mode, workload.deadline, argv)
                     for r, argv in zip(requests, argvs)]
        wall = time.perf_counter() - start
        stats = session.stats()
    finally:
        session.close()
    return responses, wall - stats["calibration"]["wall_s"], stats, session.setup_s


def trimmed_mean(xs, cut=0.1):
    xs = sorted(xs)
    k = int(len(xs) * cut)
    return statistics.fmean(xs[k:len(xs) - k])


def spawn_time(root):
    """Spawn-to-ready seconds of one worker: (raw, host-scaled by the
    calibration loops run here just before and after it)."""
    cal = Calibration()
    for _ in range(2):
        cal.sample()
    session = Session(root)
    session.close()
    for _ in range(2):
        cal.sample()
    return session.setup_s, session.setup_s * CALIBRATION_NOMINAL_S / statistics.fmean(cal.samples)


def host_scale(stats):
    """Factor that takes this run's times to the nominal host speed.

    A mean rather than a median: the loop's time flips between a fast and a
    slow mode, and the program's time follows the share of each.
    """
    return CALIBRATION_NOMINAL_S / trimmed_mean(stats["calibration"]["samples"])


def local_scales(responses, stats):
    """Per request, the host scale from the calibration loops run within
    LOCAL_WINDOW_S of it (the nearest one if none is): the host's speed
    also flips within a run, and a long request should be scaled by the
    speed around it rather than the run's average."""
    at, samples = stats["calibration"]["at"], stats["calibration"]["samples"]
    out = []
    for resp in responses:
        start, end = resp["at"]
        lo = bisect.bisect_left(at, start - LOCAL_WINDOW_S)
        hi = bisect.bisect_right(at, end + LOCAL_WINDOW_S)
        if lo == hi:
            lo = min((i for i in (lo - 1, lo) if 0 <= i < len(at)),
                     key=lambda i: min(abs(at[i] - start), abs(at[i] - end)))
            hi = lo + 1
        out.append(CALIBRATION_NOMINAL_S / statistics.fmean(samples[lo:hi]))
    return out


def latency_samples(requests, responses, scales=None):
    """One latency per distinct request: the median of its sends, each
    multiplied by its scale unless it missed its deadline, which costs the
    deadline whatever the host's speed."""
    sends = {}
    for i, (req, resp) in enumerate(zip(requests, responses)):
        lat = resp["latency"]
        if scales is not None and resp["error"] != "deadline":
            lat *= scales[i]
        sends.setdefault(req.key, []).append(lat)
    return [statistics.median(v) for v in sends.values()]


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def _beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(samples, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of the order statistics with Beta((n+1)p, (n+1)(1-p))
    weights. Unlike a single order statistic it moves smoothly when the
    host's speed flips between modes during a run.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # weights beyond 12 standard deviations of the rank are below 1e-30
    sd = math.sqrt(p * (1 - p) / (n + 2))
    lo = max(0, math.floor(n * (p - 12 * sd)))
    hi = min(n, math.ceil(n * (p + 12 * sd)))
    total, prev = 0.0, _beta_cdf(a, b, lo / n)
    for i in range(lo, hi):
        cur = _beta_cdf(a, b, (i + 1) / n)
        total += (cur - prev) * xs[i]
        prev = cur
    return total


def tail_level(n):
    """The highest quantile level with at least TAIL_BEYOND samples beyond it."""
    return max(0.5, (n - TAIL_BEYOND) / n)


def check_all(requests, responses, goldens):
    failures = []
    for req, resp in zip(requests, responses):
        reason = workloads.check_response(req, resp, goldens)
        if reason:
            failures.append((req, reason))
    correct = all(req.defect for req, _ in failures)
    return failures, correct


def end_to_end(requests, responses, wall, stats, setup_samples, scale=1.0, scales=None):
    """The end-to-end metrics, host-scaled.

    Each request's wall and CPU time is multiplied by its entry of `scales`
    (default: `scale`), the rest of the run's (IPC, the worker's own work)
    by `scale`. A missed deadline is never scaled, nor is setup_s, a
    process start.
    """
    n = len(requests)
    scales = [scale] * n if scales is None else scales
    lat = latency_samples(requests, responses, scales)
    waited = served = busy = req_cpu = scaled_cpu = 0.0
    for resp, k in zip(responses, scales):
        if resp["error"] == "deadline":
            waited += resp["latency"]
            k = 1.0
        else:
            served += resp["latency"]
            busy += k * resp["latency"]
        req_cpu += resp.get("cpu", 0.0)
        scaled_cpu += k * resp.get("cpu", 0.0)
    total_cpu = stats["cpu_s"] + stats["child_cpu_s"]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "requests_per_s": (n / (busy + waited + scale * (wall - waited - served)), "1/s"),
        "latency_p50_s": (quantile(lat, 0.5), "s"),
        "latency_tail_s": (quantile(lat, tail_level(len(lat))), "s"),
        "cpu_s_per_request": ((scaled_cpu + scale * (total_cpu - req_cpu)) / n, "s"),
        "peak_rss_mb": (max(stats["maxrss_kb"], stats["child_maxrss_kb"]) / 1024, "MB"),
    }
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    # This process, the worker and every process the worker starts share one
    # CPU with the calibration loops that scale their times: on a shared
    # host one vCPU can be slowed while the other is not.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (root / "src" / "borelline" / "__init__.py").is_file():
        print(f"error: no borelline source under {root / 'src'}; "
              "run from the root of a borelline checkout", file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))["goldens"]
    workload = workloads.WORKLOADS[args.workload]
    rounds = 1 if args.trace else workloads.rounds_for(workload, args.seconds)
    requests = [r for batch in workload.rounds(args.seed, rounds) for r in batch]

    if args.trace:
        trace_dir = root / ".bench_work" / f"trace-{args.workload}-{args.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        plain, plain_wall, _, _ = run_stream(root, requests, workload)
        responses, wall, stats, _ = run_stream(root, requests, workload, trace_dir)
        # both passes are checked: tracing must not change a single byte
        checked = (requests + requests, plain + responses)
        metrics = layer_metrics(stats["trace"])
        plain_rps, traced_rps = len(requests) / plain_wall, len(requests) / wall
        metrics["trace.untraced_requests_per_s"] = (plain_rps, "1/s")
        metrics["trace.traced_requests_per_s"] = (traced_rps, "1/s")
        metrics["trace.overhead_ratio"] = (plain_rps / traced_rps, "ratio")
        notes = [f"spans: {trace_dir / 'spans.jsonl'}"]
    else:
        setup = [spawn_time(root) for _ in range(SETUP_SPAWNS)]
        responses, wall, stats, _ = run_stream(root, requests, workload)
        measured = host_scale(stats)
        metrics = end_to_end(requests, responses, wall, stats, [s for _, s in setup],
                             measured, local_scales(responses, stats))
        raw = end_to_end(requests, responses, wall, stats, [r for r, _ in setup])
        checked = (requests, responses)
        distinct = len(latency_samples(requests, responses))
        notes = [f"latency_tail_s is p{100 * tail_level(distinct):.1f} of {distinct} "
                 f"distinct requests ({TAIL_BEYOND} beyond it)",
                 f"host scale {measured:.4f} ({len(stats['calibration']['samples'])} "
                 "calibration loops, trimmed mean "
                 f"{1e3 * trimmed_mean(stats['calibration']['samples']):.4f} ms); unscaled: "
                 + ", ".join(
                     f"{k} {v:.6g}" for k, (v, _) in raw.items() if k != "peak_rss_mb")]

    failures, correct = check_all(*checked, goldens)
    attempted = len(checked[0])
    print(f"workload {args.workload} seed {args.seed}: rounds {rounds}, "
          f"requests {len(requests)}, closed loop, 1 client; host: "
          f"nproc {os.cpu_count()}, Python {platform.python_version()}, {platform.platform()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  {'failed_share':34s} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted})")
    for note in notes:
        print(f"  {note}")
    for req, reason in failures:
        tag = f" [known defect: {req.defect}]" if req.defect else ""
        print(f"  FAILED {req.label()}: {reason}{tag}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

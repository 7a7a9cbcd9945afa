"""Benchmark worker: one process per run, serving requests one at a time.

Started by run.py with the checkout's `src` on PYTHONPATH. It imports
borelline, prints one "ready" line, then reads JSON lines from stdin:

  {"op": "request", "id": 3, "argv": [...], "mode": "inproc", "deadline": 60}
  {"op": "stats"}   -> CPU time, peak RSS, calibration samples and (traced)
                       layer totals; then exit

An "inproc" request runs `borelline.cli.main(argv)` in this process with
stdout and stderr captured; a SIGALRM timer enforces the deadline. Before
it, the worker empties every lru cache in borelline's modules and collects
what they held, so each request finds the program's caches as a fresh
`python -m borelline` would, whatever ran before it in the seeded order.
A "proc" request runs `python -m borelline argv` as a child and kills it at
the deadline. Either way a missed deadline is reported with its latency
capped at the deadline. Each response carries its wall and CPU time and
when it ran.

Between requests, at most every CALIBRATE_EVERY_S seconds (and several
times after a long request), the worker times a fixed pure-Python loop that
calls no borelline code. The host's speed drifts, and the loop's time
drifts with it; run.py scales each request's times by the loops run near it
(see `local_scales` there). The loop's own wall and CPU time are reported
so that run.py leaves them out.

`python worker.py --cli TRACE_FILE -- ARGV...` is the traced stand-in for
`python -m borelline ARGV...`: it runs the CLI under the tracer and writes the
layer totals and spans to TRACE_FILE when the process ends.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


CALIBRATE_EVERY_S = 0.2
CALIBRATE_WARMUP = 5
CALIBRATE_CATCH_UP = 5


def calibration_loop():
    """Fixed interpreter work: integer arithmetic, a dict, method calls.

    It makes no object the garbage collector tracks, and Calibration.sample
    keeps the collector off while it runs, so the program's heap cannot
    slow it.
    """
    acc, table = 0, {}
    for i in range(15000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + (i & 7)
        acc = (acc * 31 + key) % 1000003
    return acc + len(table)


class Calibration:
    def __init__(self):
        self.samples, self.at, self.wall_s, self.cpu_s = [], [], 0.0, 0.0
        self.last = -CALIBRATE_EVERY_S

    def sample(self):
        gc.disable()
        cpu, start = time.process_time(), time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        gc.enable()
        self.samples.append(end - start)
        self.at.append((start + end) / 2)
        self.wall_s += end - start
        self.cpu_s += time.process_time() - cpu
        self.last = end

    def due(self):
        """Sample once per CALIBRATE_EVERY_S since the last sample, at most
        CALIBRATE_CATCH_UP times, so that long requests weigh in too."""
        owed = int((time.perf_counter() - self.last) / CALIBRATE_EVERY_S)
        for _ in range(min(owed, CALIBRATE_CATCH_UP)):
            self.sample()


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler; not an Exception, so the CLI cannot catch it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def program_caches():
    """The lru caches of borelline's modules (make_tower's towers live in one)."""
    found = {id(obj): obj for name, mod in sorted(sys.modules.items())
             if name.startswith("borelline.") for obj in vars(mod).values()
             if isinstance(obj, functools._lru_cache_wrapper)}
    return list(found.values())


def empty_caches(caches):
    if any(c.cache_info().currsize for c in caches):
        for c in caches:
            c.cache_clear()
        gc.collect()


def run_inproc(cli, argv, deadline, tracer=None, request_id=None):
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    if tracer is not None:
        tracer.begin_request(request_id)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    cpu, start = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except DeadlineExceeded:
        error = "deadline"
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught exception is a failed request
        error = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        latency = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        cpu = time.process_time() - cpu
    if tracer is not None:
        tracer.end_request(code)
    if error == "deadline":
        latency = deadline
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
            "latency": latency, "cpu": cpu, "error": error}


def run_proc(argv, deadline, trace_file=None):
    if trace_file is None:
        cmd = [sys.executable, "-m", "borelline", *argv]
    else:
        cmd = [sys.executable, str(HERE / "worker.py"), "--cli", trace_file, "--", *argv]
    used = _child_cpu()
    start = time.perf_counter()
    child = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    error = None
    try:
        out, err = child.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        error = "deadline"
        child.terminate()   # lets a traced child write its totals
        try:
            out, err = child.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            child.kill()
            out, err = child.communicate()
    latency = deadline if error else time.perf_counter() - start
    return {"exit": None if error else child.returncode, "stdout": out,
            "stderr": err[-2000:], "latency": latency, "cpu": _child_cpu() - used,
            "error": error}


def _child_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _usage():
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": self_ru.ru_utime + self_ru.ru_stime,
        "maxrss_kb": self_ru.ru_maxrss,
        "child_cpu_s": child_ru.ru_utime + child_ru.ru_stime,
        "child_maxrss_kb": child_ru.ru_maxrss,
    }


def serve(trace_dir):
    from borelline import cli

    caches = program_caches()   # before the tracer wraps them
    tracer = None
    if trace_dir is not None:
        from tracer import Tracer, merge
        tracer = Tracer()
        tracer.install()
        child_totals, child_spans = {}, []
    signal.signal(signal.SIGALRM, _on_alarm)
    reply = sys.stdout
    reply.write(json.dumps({"ready": True}) + "\n")
    reply.flush()
    base = _usage()
    calibration = Calibration()
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["op"] == "request":
            if not calibration.samples:
                for _ in range(CALIBRATE_WARMUP):
                    calibration.sample()
            calibration.due()
            began = time.perf_counter()
            if msg["mode"] == "inproc":
                empty_caches(caches)
                resp = run_inproc(cli, msg["argv"], msg["deadline"], tracer, msg["id"])
            else:
                trace_file = None
                if tracer is not None:
                    trace_file = str(Path(trace_dir) / f"child-{msg['id']}.json")
                resp = run_proc(msg["argv"], msg["deadline"], trace_file)
                if trace_file is not None and os.path.exists(trace_file):
                    with open(trace_file, encoding="utf-8") as fh:
                        data = json.load(fh)
                    os.unlink(trace_file)
                    merge(child_totals, data["totals"])
                    child_spans += [dict(s, request=msg["id"]) for s in data["spans"]]
            resp["id"] = msg["id"]
            resp["at"] = [began, time.perf_counter()]
            reply.write(json.dumps(resp) + "\n")
            reply.flush()
        elif msg["op"] == "stats":
            now = _usage()
            stats = {k: now[k] - base[k] for k in ("cpu_s", "child_cpu_s")}
            stats["cpu_s"] -= calibration.cpu_s
            stats["calibration"] = {"samples": calibration.samples, "at": calibration.at,
                                    "wall_s": calibration.wall_s}
            stats["maxrss_kb"] = now["maxrss_kb"]
            stats["child_maxrss_kb"] = now["child_maxrss_kb"]
            if tracer is not None:
                stats["trace"] = tracer.snapshot()
                if child_totals:
                    merge(stats["trace"], child_totals)
                with open(Path(trace_dir) / "spans.jsonl", "w", encoding="utf-8") as fh:
                    for span in tracer.span_records() + child_spans:
                        fh.write(json.dumps(span) + "\n")
            reply.write(json.dumps(stats) + "\n")
            reply.flush()
            return


def traced_cli(trace_file, argv):
    """`python -m borelline` under the tracer; totals land in trace_file."""
    from borelline import cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()

    def on_term(signum, frame):
        raise SystemExit(143)

    signal.signal(signal.SIGTERM, on_term)
    tracer.begin_request(0)
    code = 1
    try:
        code = cli.main(argv)
    finally:
        tracer.end_request(code)
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"totals": tracer.snapshot(), "spans": tracer.span_records()}, fh)
    sys.exit(code)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--cli":
        traced_cli(sys.argv[2], sys.argv[4:])
    else:
        serve(sys.argv[2] if len(sys.argv) > 2 and sys.argv[1] == "--trace" else None)

"""One client session: requests sent in process to ``rankcrank.cli.main``.

Reads a job as one JSON object on stdin, sends the job's passes one
request after another (a closed loop: the next request only after the
previous verdict), and writes one JSON line per pass on stdout as the
pass ends, then one line with what the session measured as a whole
(peak RSS, spans, profile).  run.py starts each session in a fresh
interpreter with ``src`` and ``bench`` on PYTHONPATH.

Job keys: ``workload`` and ``seed`` select the plan (see workloads.py);
the session runs at least ``min_passes`` and at most ``max_passes``
(null: no limit) passes, starting no new pass once ``seconds`` have
gone by.  ``mode`` is ``plain``, ``trace`` (spans around layer
entries) or ``profile`` (the profiled pass).

Each request's output is summarized as soon as its verdict is in,
outside its timing, and then dropped: a verify request keeps its
check ids and statuses, any other request the SHA-256 of its stdout.
run.py compares them with the stored references.  Passes leave the
session as they end, so its peak RSS is rankcrank's own plus a small
client that does not grow with the number of requests.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

try:  # CPython's own SHA-256; hashlib maps OpenSSL, ~3.5 MiB of RSS that is not rankcrank's
    from _sha256 import sha256
except ImportError:  # an interpreter without the module
    from hashlib import sha256

from rankcrank import cli

import workloads

# Runs of the reference loop per reference time.
REFERENCE_REPEATS = 8


def execute(argv) -> dict:
    """Send one request; return its exit code, latency, CPU time and raw stdout."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flags by exiting
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a request that raises is a failed operation, not a dead session
        error = traceback.format_exc(limit=-3)
    latency = time.perf_counter() - start
    return {"argv": argv, "rc": rc, "latency_s": latency, "cpu_s": cpu_seconds() - cpu0,
            "error": error, "stdout": out.getvalue()}


def summarize(record: dict) -> dict:
    """Replace a request's stdout by what the output check compares."""
    record = dict(record)
    stdout = record.pop("stdout")
    record["stdout_sha256"] = sha256(stdout.encode()).hexdigest()
    record["checks"] = None
    if record["argv"][0] == "verify":
        try:
            record["checks"] = {c["id"]: c["status"] for c in json.loads(stdout)["checks"]}
        except (ValueError, KeyError, TypeError):
            pass  # not a report: the check reports it as a failure
    return record


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_kib() -> int:
    """This interpreter's own peak resident set size.

    Linux carries ``ru_maxrss`` over exec, so it would also count the
    process that started this one; the address space's high-water mark
    counts only this interpreter.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass  # no procfs: fall back to what the OS reports
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _reference_work() -> int:
    total = 0
    row = list(range(64))
    for i in range(60_000):
        row[i & 63] += i
        total += row[(i * 7) & 63] % 5
    return total


def reference_s() -> float:
    """Seconds per run of a fixed pure-Python loop that uses no rankcrank code.

    The host's speed drifts by tens of percent over minutes as other
    tenants load it; timing this loop next to each pass measures the
    speed the pass ran at, so a pass's time in reference units stays
    put while its seconds move.
    """
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        _reference_work()
    return (time.perf_counter() - start) / REFERENCE_REPEATS


def run_passes(job: dict, emit, tracer=None) -> None:
    """Run the job's passes; time each, and the reference loop before and after it.

    Each pass goes to `emit` as it ends.  A pass's wall and CPU time
    are the sums over its requests from sending to verdict: the closed
    loop's span without the client's bookkeeping between requests.
    """
    max_passes = job["max_passes"]
    started = time.perf_counter()
    done = 0
    request_id = 0
    ref_before = reference_s()
    for requests in workloads.passes(job["workload"], job["seed"]):
        records = []
        for argv in requests:
            if tracer is not None:
                tracer.request_id = request_id
            records.append(summarize(execute(argv)))
            request_id += 1
        ref_after = reference_s()
        emit({"wall_s": sum(r["latency_s"] for r in records),
              "cpu_s": sum(r.pop("cpu_s") for r in records),
              "ref_s": (ref_before + ref_after) / 2, "requests": records})
        ref_before = ref_after
        done += 1
        if max_passes is not None and done >= max_passes:
            break
        if done >= job["min_passes"] and time.perf_counter() - started >= job["seconds"]:
            break


def run_job(job: dict, emit) -> dict:
    """Run a job, passing each pass to `emit`; return what the session measured."""
    result: dict = {}
    if job["mode"] == "plain":
        run_passes(job, emit)
    else:
        import tracing  # the profiler's modules would add to a plain session's RSS

        if job["mode"] == "trace":
            with tracing.Tracer() as tracer:
                run_passes(job, emit, tracer)
            result["spans"] = tracer.spans
        else:
            wall0 = time.perf_counter()
            _, result["profile"] = tracing.profiled(lambda: run_passes(job, emit))
            result["profile_wall_s"] = time.perf_counter() - wall0
    result["peak_rss_kib"] = peak_rss_kib()
    return result


def _write_line(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


if __name__ == "__main__":
    _write_line(run_job(json.load(sys.stdin), _write_line))

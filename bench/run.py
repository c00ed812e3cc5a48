"""rankcrank benchmark: drive the CLI from outside, check every verdict, report metrics.

    python3 bench/run.py --workload {oracle,maps,desk,all} --seed N --seconds S --trace {0,1}

A single-threaded client sends `rankcrank.cli.main(argv)` requests in
process, in a closed loop, one pass of the workload's plan after
another (workloads.py says what each workload stresses).  ``oracle``
and ``maps`` run each pass in a fresh interpreter, as a shell user
does, so nothing kept from an earlier pass can skip a pass's work;
``desk`` keeps one interpreter for the whole loop, as a library or
notebook caller does.  Passes repeat until ``--seconds`` have gone by
(at least three).

``--trace 0`` prints the end-to-end metrics, timed without tracing:
wall and CPU time per pass and request latency percentiles, each in
units of a fixed reference loop timed before and after every pass
(see session.reference_s; the seconds go to provenance), set-up time
of a fresh interpreter, peak RSS, and the share of operations that
succeeded.  ``--trace 1`` splits ``--seconds`` between an untraced
and a traced loop over the same passes, then profiles the first pass,
and prints the per-layer metrics (see tracing.py).  Once per ``desk``
run, outside the timed loop, a probe sends an ospt request that the
CLI accepts and then works on for hours; past its deadline it is
killed and counts as one failed operation.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Provenance (python
version, cores, seed, request digest, table reuse, failures, spans)
goes to bench/out/.  ``--workload all`` runs the three workloads and
prints one table of their metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPREAD = BENCH / "spread.json"

RUN_BUDGET_S = 170.0   # every run must end within 180 s
MIN_PASSES = 3
SETUP_REPEATS = 9
# Workloads whose requests share one long-lived interpreter; the others
# get a fresh interpreter per pass.
LONG_LIVED = ("desk",)

# Times in "ref" units are divided by the reference loop's time, taken
# next to each pass (session.reference_s); the seconds go to provenance.
END_TO_END = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ops_ok_ratio": "ratio",
    "request_p50_ref": "ref",
    "request_p90_ref": "ref",
}
PER_LAYER = {
    **{f"{name}.{m}": unit for name in tracing.SPAN_NAMES
       for m, unit in (("busy_s", "s"), ("calls", "count"))},
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    tracing.YIELD_COUNT: "count",
    **{name: "count" for name in tracing.PROFILE_COUNTS},
    "report.format_per_expect": "ratio",
}

# Provenance fields repeated on stderr after each run.
PROVENANCE_SUMMARY = ("python", "nproc", "seed", "passes", "requests", "requests_sha256",
                      "seconds_per_pass", "table_reuse", "probe")

# Imports the CLI, builds its parser and draws the first pass: what a
# fresh interpreter pays before its first request.
SETUP_CODE = ("import sys, rankcrank.cli, workloads; rankcrank.cli.build_parser(); "
              "next(workloads.passes(sys.argv[1], int(sys.argv[2])))")


class BenchError(Exception):
    """The benchmark itself could not finish a run."""


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded its {RUN_BUDGET_S:g} s budget")
        return left

    def session(self, mode: str, min_passes: int, max_passes: int | None,
                seconds: float) -> dict:
        job = {"workload": self.workload, "seed": self.seed, "mode": mode,
               "min_passes": min_passes, "max_passes": max_passes, "seconds": seconds}
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "session.py")],
                                  input=json.dumps(job), capture_output=True, text=True,
                                  timeout=self.remaining(), env=self.env, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"session {job} exceeded the run budget") from None
        if proc.returncode != 0:
            raise BenchError(f"session {job} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        *passes, result = map(json.loads, proc.stdout.splitlines())
        return {"passes": passes, **result}

    def loop(self, mode: str, seconds: float, passes: int | None = None) -> list[dict]:
        """Run passes in sessions; `passes` fixes their number, else `seconds` bounds it."""
        if self.workload in LONG_LIVED:
            return [self.session(mode, passes or MIN_PASSES, passes, 0 if passes else seconds)]
        started = time.monotonic()
        sessions = []
        while True:
            sessions.append(self.session(mode, 1, 1, 0))
            if passes is not None:
                if len(sessions) == passes:
                    return sessions
            elif len(sessions) >= MIN_PASSES and time.monotonic() - started >= seconds:
                return sessions

    def setup_times(self) -> list[float]:
        cmd = [sys.executable, "-c", SETUP_CODE, self.workload, str(self.seed)]
        times = []
        for i in range(SETUP_REPEATS + 1):
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL)
            # A blocking wait sees the exit at once; waiting with a timeout
            # polls, which would round the time up by up to 50 ms.
            watchdog = threading.Timer(self.remaining(), proc.kill)
            watchdog.start()
            try:
                returncode = proc.wait()
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
            if returncode != 0:
                raise BenchError(f"set-up command exited {returncode}")
            if i:  # the first run only warms the bytecode cache
                times.append(elapsed)
        return times

    def probe(self) -> dict:
        cmd = [sys.executable, "-m", "rankcrank", *checks.PROBE_ARGV]
        return checks.run_probe(cmd, checks.PROBE_DEADLINE_S, env=self.env, cwd=ROOT)


def passes_of(sessions: list[dict]) -> list[dict]:
    return [p for s in sessions for p in s["passes"]]


def merged_spans(sessions: list[dict]) -> list[list]:
    """All sessions' spans with span and request ids made unique across them."""
    out: list[list] = []
    request_base = 0
    for s in sessions:
        base = len(out)
        for span_id, parent, request_id, name, start, end in s["spans"]:
            out.append([span_id + base, None if parent is None else parent + base,
                        request_id + request_base, name, start, end])
        request_base += sum(len(p["requests"]) for p in s["passes"])
    return out


def timings(passes: list[dict], per_ref: bool) -> dict[str, float]:
    """Mean wall and CPU time per pass (the sums over its requests from
    sending to verdict) and request latency percentiles, in seconds or,
    with `per_ref`, in units of each pass's reference time."""
    def scaled(p: dict, seconds: float) -> float:
        return seconds / p["ref_s"] if per_ref else seconds

    latencies = [scaled(p, r["latency_s"]) for p in passes for r in p["requests"]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "wall": statistics.mean(scaled(p, p["wall_s"]) for p in passes),
        "cpu": statistics.mean(scaled(p, p["cpu_s"]) for p in passes),
        "p50": deciles[4],
        "p90": deciles[8],
        "samples": len(latencies),
        "above_p90": sum(x > deciles[8] for x in latencies),
    }


def per_layer_metrics(plain: list[dict], traced: list[dict], spans: list[list],
                      profile: dict) -> dict[str, float]:
    traced_passes = passes_of(traced)
    count = len(traced_passes)
    totals = tracing.span_totals(spans)
    metrics: dict[str, float] = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.busy_s"] = totals[name]["busy_s"] / count
        metrics[f"{name}.calls"] = totals[name]["calls"] / count
    metrics["cli.main.self_s"] = totals[tracing.REQUEST_SPAN]["self_s"] / count
    # A mean, like the span figures above, so that busy_s / trace.wall_s is a share.
    metrics["trace.wall_s"] = timings(traced_passes, per_ref=False)["wall"]
    metrics["trace.overhead_ratio"] = (timings(traced_passes, per_ref=True)["wall"]
                                       / timings(passes_of(plain), per_ref=True)["wall"])
    metrics.update(profile["profile"])
    return metrics


def desk_table_reuse(passes: list[dict]) -> dict:
    built: set = set()
    table_requests = reused = 0
    for p in passes:
        for r in p["requests"]:
            key = workloads.desk_table_key(r["argv"])
            if key is None:
                continue
            table_requests += 1
            reused += key in built
            built.add(key)
    return {"table_requests": table_requests, "reused": reused,
            "share": reused / table_requests if table_requests else 0.0}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    refs = checks.load_references()
    runner = Runner(workload, seed)
    setup = [] if trace else runner.setup_times()
    plain = runner.loop("plain", seconds / 2 if trace else seconds)
    sessions = list(plain)
    traced = spans = profile = None
    if trace:
        traced = runner.loop("trace", 0, passes=len(passes_of(plain)))
        spans = merged_spans(traced)
        profile = runner.session("profile", 1, 1, 0)
        sessions += traced + [profile]
    probe = runner.probe() if workload == "desk" else None

    records = [r for s in sessions for p in s["passes"] for r in p["requests"]]
    failures = []
    for r in records:
        reason = checks.check_request(r, refs)
        if reason is not None:
            failures.append({"request": checks.request_key(r["argv"]), "reason": reason})
    attempted = len(records) + (probe is not None)
    failed = len(failures) + (probe is not None and not probe["ok"])

    timed = passes_of(plain)
    requests = [r["argv"] for p in timed for r in p["requests"]]
    in_seconds = timings(timed, per_ref=False)
    if trace:
        metrics = per_layer_metrics(plain, traced, spans, profile)
        units = PER_LAYER
    else:
        per_ref = timings(timed, per_ref=True)
        metrics = {
            "wall_ref": per_ref["wall"],
            "cpu_ref": per_ref["cpu"],
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(s["peak_rss_kib"] for s in plain) / 1024,
            "ops_ok_ratio": (attempted - failed) / attempted,
            "request_p50_ref": per_ref["p50"],
            "request_p90_ref": per_ref["p90"],
        }
        units = END_TO_END
    spreads = json.loads(SPREAD.read_text()) if SPREAD.is_file() else {}
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "passes": len(timed), "requests": len(requests),
        "requests_sha256": hashlib.sha256(json.dumps(requests).encode()).hexdigest(),
        "seconds_per_pass": {"wall_s": in_seconds["wall"], "cpu_s": in_seconds["cpu"],
                             "request_p50_ms": in_seconds["p50"] * 1000,
                             "request_p90_ms": in_seconds["p90"] * 1000},
        "pass_wall_s": [p["wall_s"] for p in timed],
        "pass_cpu_s": [p["cpu_s"] for p in timed],
        "pass_ref_s": [p["ref_s"] for p in timed],
        "latency_samples": in_seconds["samples"],
        "samples_above_p90": in_seconds["above_p90"],
        "nmax_per_pass": [[workloads.request_nmax(r["argv"]) for r in p["requests"]]
                          for p in timed],
        "setup_s_samples": setup,
        "probe": probe,
        "failures": failures,
        "spread_bounds_rest_on": spreads.get(workload),
    }
    if workload == "desk":
        provenance["table_reuse"] = desk_table_reuse(timed)
    if trace:
        provenance["profile_wall_s"] = profile["profile_wall_s"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"provenance": provenance, "result": result}
    if trace:
        record["spans"] = spans
        record["span_requests"] = [r["argv"] for p in passes_of(traced) for r in p["requests"]]
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"provenance and spans: {path}", file=sys.stderr)
    return result, provenance


def print_table(rows, file) -> None:
    for workload, result in rows:
        for name, m in result["metrics"].items():
            print(f"{workload:8} {name:38} {m['value']:>16.6g} {m['unit']}", file=file)
        print(f"{workload:8} {'attempted / failed':38} {result['attempted']:>10} / "
              f"{result['failed']} (correct: {str(result['correct']).lower()})", file=file)


def run_all(seed: int, seconds: int, trace: int) -> int:
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    print_table(results.items(), sys.stdout)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "rankcrank" / "cli.py").is_file() or not checks.REFERENCES.is_file():
        print(f"no rankcrank source under {SRC} or no {checks.REFERENCES.name}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result, provenance = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_table([(args.workload, result)], sys.stderr)
    print("provenance: " + json.dumps({k: provenance.get(k) for k in PROVENANCE_SUMMARY}),
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks against stored references, and the hang probe.

A request fails when it raises, returns an exit code other than the
reference's, or its output differs from the reference: for ``verify``
the set of check ids with their statuses (not the whole JSON, so that
fields added to reports later do not break it) and every status must
be ``pass``; for ``table`` and ``ospt`` the SHA-256 of stdout.
references.json is written by make_references.py.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import time
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Accepted by the CLI, which then builds the enumeration table through
# n = 100: ~1.6e9 partitions, hours of work.
PROBE_ARGV = ("ospt", "--max-n", "100", "--methods", "moments,genfun")
# Over ten times the desk p90 latency (~0.2 s), far below a hang.
PROBE_DEADLINE_S = 3.0


def load_references(path: Path = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def request_key(argv) -> str:
    return " ".join(argv)


def check_request(record: dict, refs: dict) -> str | None:
    """Why a summarized request failed its output check, or None if it passed."""
    if record["error"] is not None:
        return "raised: " + record["error"].strip().splitlines()[-1]
    ref = refs["requests"].get(request_key(record["argv"]))
    if ref is None:
        return "no stored reference for this request"
    if record["rc"] != ref["exit"]:
        return f"exit code {record['rc']}, reference {ref['exit']}"
    if "check_set" in ref:
        checks = record["checks"]
        if checks is None:
            return "stdout is not a verify report"
        if any(status != "pass" for status in checks.values()):
            return "report is not ok"
        if checks != refs["check_sets"][ref["check_set"]]:
            return "check ids or statuses differ from the reference"
    elif record["stdout_sha256"] != ref["stdout_sha256"]:
        return "stdout digest differs from the reference"
    return None


def run_probe(cmd, deadline_s: float, env=None, cwd=None) -> dict:
    """Run `cmd` in its own process group; kill the group at the deadline.

    Succeeds on exit 0 with an ``AGREE`` verdict, or on exit 2 (the
    CLI's out-of-range refusal), within the deadline.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, cwd=cwd, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # it ended between the timeout and the kill
        proc.communicate()
        return {"ok": False, "outcome": f"killed after the {deadline_s:g} s deadline",
                "returncode": proc.returncode, "elapsed_s": time.perf_counter() - started}
    ok = (proc.returncode == 0 and b"verdict: AGREE" in out) or proc.returncode == 2
    return {"ok": ok, "outcome": f"exit {proc.returncode}", "returncode": proc.returncode,
            "elapsed_s": time.perf_counter() - started}

"""Write references.json: the expected output of every benchmark request.

    PYTHONPATH=src python3 bench/make_references.py

Runs each request any workload can send (about half a minute) and
stores its exit code and either its verify check set or its stdout
digest.  It refuses to store a failing verdict.  Rerun it only when a
change is meant to alter what the CLI prints.
"""

from __future__ import annotations

import hashlib
import json
import sys

import checks
import session
import workloads


def main() -> int:
    refs: dict = {"requests": {}, "check_sets": {}}
    for argv in workloads.every_request():
        record = session.summarize(session.execute(argv))
        key = checks.request_key(argv)
        if record["error"] is not None or record["rc"] != 0:
            print(f"{key}: exit {record['rc']} {record['error'] or ''}", file=sys.stderr)
            return 1
        ref: dict = {"exit": record["rc"]}
        if record["checks"] is not None:
            if any(status != "pass" for status in record["checks"].values()):
                print(f"{key}: report is not ok", file=sys.stderr)
                return 1
            body = json.dumps(record["checks"], sort_keys=True)
            name = f"{argv[2]}-{hashlib.sha256(body.encode()).hexdigest()[:12]}"
            refs["check_sets"][name] = record["checks"]
            ref["check_set"] = name
        else:
            ref["stdout_sha256"] = record["stdout_sha256"]
        refs["requests"][key] = ref
        print(f"{key}: {record['latency_s']:.3f} s", file=sys.stderr)
    with open(checks.REFERENCES, "w", encoding="utf-8") as fp:
        json.dump(refs, fp, indent=1, sort_keys=True)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

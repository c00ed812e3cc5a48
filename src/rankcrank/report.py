"""Verification reports: a uniform pass/fail shape for every suite.

Each suite (identities, injections, tau, bounds, genfun) runs a batch
of named checks over a range and reports one `CheckResult` per check:
status "pass" or "fail", and for failures a witness dict pinning down
the first counterexample.  A suite states each check once per scope:
a weight in the identities and bounds suites, the whole range of n in
the genfun suite, a weight and tie-break in the tau suite, and a
weight and m in the injection suite.  Where the instances of a scope
lie in aligned lists (the m of one weight, the n of the genfun range,
the stretches of one tau map on which its crank and rank stay
constant, the symbols of one (n, m)), the check is one
`CheckRecorder.expect_each` call, which scans for the first failure
only when the scope did not pass.  Otherwise it is one
`CheckRecorder.expect` call; the tau window check clears its positions
by a streamed comparison first.  A check is listed only once it ran on
some instance: an `expect_each` scope with no instances records
nothing, so a check whose every scope is empty is absent from the
report rather than a pass.  The recorder also times the suite and
assembles its report.  Checks and reports are named tuples; a report's
JSON form lists each check as its `_asdict()`.
"""

from __future__ import annotations

import json
import time
from operator import and_, eq
from typing import Any, NamedTuple, Sequence


class CheckResult(NamedTuple):
    id: str
    status: str  # "pass" or "fail"
    witness: dict[str, Any] | None = None


class VerifyReport(NamedTuple):
    suite: str
    range: dict[str, Any]
    checks: Sequence[CheckResult] = ()
    elapsed_ms: int = 0
    info: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "suite": self.suite,
            "range": self.range,
            "checks": [c._asdict() for c in self.checks],
            "elapsed_ms": self.elapsed_ms,
        }
        if self.info is not None:
            out["info"] = self.info
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "VerifyReport":
        for c in data["checks"]:
            if c["status"] not in ("pass", "fail"):
                raise ValueError(f"check {c['id']!r} has status {c['status']!r}")
        checks = [
            CheckResult(id=c["id"], status=c["status"], witness=c.get("witness"))
            for c in data["checks"]
        ]
        return cls(
            suite=data["suite"],
            range=data["range"],
            checks=checks,
            elapsed_ms=data["elapsed_ms"],
            info=data.get("info"),
        )

    @classmethod
    def from_json(cls, text: str) -> "VerifyReport":
        return cls.from_dict(json.loads(text))

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            mark = "ok  " if c.status == "pass" else "FAIL"
            suffix = "" if c.witness is None else f"  {c.witness}"
            lines.append(f"  {mark} {c.id}{suffix}")
        verdict = "all checks passed" if self.ok else "CHECKS FAILED"
        lines.append(f"suite {self.suite}: {verdict} ({len(self.checks)} checks, {self.elapsed_ms} ms)")
        return lines


class CheckRecorder:
    """Accumulates named checks, keeping only the first counterexample.

    `expect(id, condition, witness)` marks the check failed on the
    first false condition; `witness` may be a dict or a zero-argument
    callable producing one, and is read only for the first failure of
    each check.  `expect_each` states a check over a list of instances
    once: a passing scope registers the id and builds no witness, and an
    empty scope records nothing, neither the id nor a witness.  The
    suite's clock starts when the recorder is made, and `report` reads
    it.
    """

    def __init__(self) -> None:
        self._started = time.monotonic()
        self._failures: dict[str, dict[str, Any]] = {}
        self._seen: dict[str, None] = {}

    def expect(self, check_id: str, condition: bool, witness: Any = None) -> None:
        self._seen[check_id] = None
        if not condition and check_id not in self._failures:
            self._failures[check_id] = witness() if callable(witness) else dict(witness or {})

    def expect_each(self, check_id: str, m0: int, relation, lhs: list, rhs: list,
                    witness, relation2=None, rhs2: list | None = None) -> None:
        """Check `relation(lhs[i], rhs[i])`, and `relation2(rhs[i], rhs2[i])`
        when given, for every i; the lists have one length, and index i
        stands for instance m0 + i: an m, an n, a tau position, or a
        symbol's index in its scope.

        A scope whose lists are all empty records nothing.  A passing scope
        is cleared at C level (`lhs == rhs` when `relation` is
        `operator.eq`).  Otherwise the check fails with `witness(m0 + i)`,
        called at once for the first failing i.
        """
        if not (lhs or rhs or rhs2):
            return
        self._seen[check_id] = None
        if ((lhs == rhs if relation is eq else all(map(relation, lhs, rhs)))
                and (relation2 is None or all(map(relation2, rhs, rhs2)))
                or check_id in self._failures):
            return
        # lists of two lengths never pass under eq, so they always reach this test
        if len(lhs) != len(rhs) or relation2 is not None and len(rhs2) != len(rhs):
            raise ValueError(f"{check_id}: instance lists differ in length")
        flags = list(map(relation, lhs, rhs))
        if relation2 is not None:
            flags = list(map(and_, flags, map(relation2, rhs, rhs2)))
        self._failures[check_id] = witness(m0 + flags.index(False))

    def results(self) -> list[CheckResult]:
        out = []
        for check_id in sorted(self._seen):
            if check_id in self._failures:
                out.append(CheckResult(check_id, "fail", self._failures[check_id]))
            else:
                out.append(CheckResult(check_id, "pass"))
        return out

    def report(self, suite: str, range: dict[str, Any],
               info: dict[str, Any] | None = None) -> VerifyReport:
        """The suite's report: its sorted checks and the time since the recorder was made."""
        return VerifyReport(suite=suite, range=range, checks=self.results(),
                            elapsed_ms=int((time.monotonic() - self._started) * 1000),
                            info=info)

"""The crank-to-rank re-ordering of the partitions of n.

List the partitions of n twice: once by ascending crank, once by
ascending rank, breaking ties inside equal statistic values by a fixed
order on part sequences.  Pairing the two listings position by
position defines a bijection tau on the partitions of n; tau sends the
i-th smallest crank to the i-th smallest rank.

The point of tau is how little it moves the statistic: with
d(lambda) = crank(lambda) - rank(tau(lambda)),

  d = 0            when crank(lambda) = 0,
  d in {0, +1}     when crank(lambda) > 0,
  d in {0, -1}     when crank(lambda) < 0,

and the number of partitions with d = 1 is exactly ospt(n).  Both
facts, plus the bracketing of each position inside its cumulative
count window and the transfer of the positive-rank sum, are checked
here for every n in range under both tie-break orders.

tau needs n >= 2: the weight-1 crank table convention has no partition
listing behind it, so tau is undefined there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .partitions import Partition, enumerate_partitions
from .report import CheckRecorder, VerifyReport
from .statistics import crank, rank

TIE_BREAKS = ("lex-descending", "lex-ascending")


@dataclass
class ReorderingMap:
    """tau for one weight: pairs[i] = (lambda, tau(lambda)), crank-ascending."""

    n: int
    tie_break: str
    pairs: list[tuple[Partition, Partition]]
    _lookup: dict[Partition, Partition] | None = field(default=None, repr=False)

    def apply(self, partition: Partition) -> Partition:
        """tau(partition); raises KeyError for a partition of the wrong weight."""
        if self._lookup is None:
            self._lookup = {lam: mu for lam, mu in self.pairs}
        return self._lookup[Partition(partition)]


def build_tau(n: int, tie_break: str = "lex-descending") -> ReorderingMap:
    """Materialize tau for weight n (n >= 2).

    The enumeration order is already lexicographically decreasing, so
    the chosen tie-break is applied by optionally reversing before the
    stable sorts by crank and by rank.
    """
    if n < 2:
        raise ValueError("tau needs n >= 2; the weight-1 table row is a convention only")
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    base = list(enumerate_partitions(n))
    if tie_break == "lex-ascending":
        base.reverse()
    by_crank = sorted(base, key=crank)
    by_rank = sorted(base, key=rank)
    return ReorderingMap(n=n, tie_break=tie_break, pairs=list(zip(by_crank, by_rank)))


def ospt_via_tau(rmap: ReorderingMap) -> int:
    """Count the pairs with crank(lambda) - rank(tau(lambda)) = 1."""
    return sum(1 for lam, mu in rmap.pairs if crank(lam) - rank(mu) == 1)


def fixed_point_check(rmap: ReorderingMap) -> bool:
    """tau must fix the one-part partition (n), which maximizes both statistics."""
    top = Partition([rmap.n])
    return rmap.apply(top) == top


def case_condition_holds(lam_crank: int, difference: int) -> bool:
    """The three-way constraint on d = crank(lambda) - rank(tau(lambda))."""
    if lam_crank == 0:
        return difference == 0
    if lam_crank > 0:
        return difference in (0, 1)
    return difference in (0, -1)


def verify_reordering(nmax: int, table=None) -> VerifyReport:
    """The full tau suite for 2 <= n <= nmax under both tie-breaks.

    Checks, per weight and tie-break: the case condition; that tau is a
    bijection fixing (n); that position i sits inside both cumulative
    windows, M(<= a-1, n) < i <= M(<= a, n) for a = crank(lambda_i) and
    the rank analogue for its image; the membership chain
    rank(tau) > 0 => crank > 0 => rank(tau) >= 0; the transfer of the
    positive-rank sum through tau; and that ospt via tau matches the
    moment route (hence is tie-break independent).
    """
    from . import tables as tables_mod

    if nmax < 2:
        raise ValueError("the tau suite needs nmax >= 2")
    if table is None:
        table = tables_mod.build(nmax)
    if table.nmax < nmax:
        raise ValueError(f"table covers n <= {table.nmax}, need {nmax}")
    started = time.monotonic()
    rec = CheckRecorder()
    for n in range(2, nmax + 1):
        everything = set(enumerate_partitions(n))
        ospt_values = set()
        for tie_break in TIE_BREAKS:
            rmap = build_tau(n, tie_break)
            rec.expect(
                "tau-is-bijection",
                {lam for lam, _ in rmap.pairs} == everything
                and {mu for _, mu in rmap.pairs} == everything,
                {"n": n, "tie_break": tie_break},
            )
            rec.expect(
                "tau-fixes-single-row-partition",
                fixed_point_check(rmap),
                {"n": n, "tie_break": tie_break},
            )
            positive_rank_sum = 0
            via_tau = 0
            ok_case = ok_bracket = ok_chain = True
            witness_case = witness_bracket = witness_chain = None
            for i, (lam, mu) in enumerate(rmap.pairs, start=1):
                a, b = crank(lam), rank(mu)
                if ok_case and not case_condition_holds(a, a - b):
                    ok_case = False
                    witness_case = {"n": n, "tie_break": tie_break,
                                    "partition": list(lam), "image": list(mu),
                                    "crank": a, "rank_of_image": b}
                if ok_bracket and not (
                        table.cum_crank(a - 1, n) < i <= table.cum_crank(a, n)
                        and table.cum_rank(b - 1, n) < i <= table.cum_rank(b, n)):
                    ok_bracket = False
                    witness_bracket = {"n": n, "tie_break": tie_break, "position": i,
                                       "partition": list(lam), "image": list(mu)}
                if ok_chain and ((b > 0 and not a > 0) or (a > 0 and not b >= 0)):
                    ok_chain = False
                    witness_chain = {"n": n, "tie_break": tie_break,
                                     "partition": list(lam), "image": list(mu),
                                     "crank": a, "rank_of_image": b}
                if a > 0:
                    positive_rank_sum += b
                if a - b == 1:
                    via_tau += 1
            rec.expect("tau-case-condition", ok_case, witness_case)
            rec.expect("tau-position-in-cumulative-window", ok_bracket, witness_bracket)
            rec.expect("tau-membership-chain", ok_chain, witness_chain)
            expected_sum = sum(m * table.rank_count(m, n) for m in range(1, n + 1))
            rec.expect(
                "tau-transfers-positive-rank-sum",
                positive_rank_sum == expected_sum,
                {"n": n, "tie_break": tie_break, "via_tau": positive_rank_sum,
                 "via_moments": expected_sum},
            )
            ospt_values.add(via_tau)
            rec.expect(
                "ospt-tau-matches-moments",
                via_tau == table.ospt_moments(n),
                {"n": n, "tie_break": tie_break, "via_tau": via_tau,
                 "via_moments": table.ospt_moments(n)},
            )
        rec.expect(
            "ospt-tau-tie-break-independent",
            len(ospt_values) == 1,
            {"n": n, "values": sorted(ospt_values)},
        )
    elapsed = int((time.monotonic() - started) * 1000)
    return VerifyReport(
        suite="tau",
        range={"nmin": 2, "nmax": nmax, "tie_breaks": list(TIE_BREAKS)},
        checks=rec.results(),
        elapsed_ms=elapsed,
    )

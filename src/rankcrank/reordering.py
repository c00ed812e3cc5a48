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

from dataclasses import dataclass, field
from itertools import accumulate

from .partitions import Partition, enumerate_partitions, partition_count
from .report import CheckRecorder, VerifyReport
from .statistics import crank, rank

TIE_BREAKS = ("lex-descending", "lex-ascending")


@dataclass
class ReorderingMap:
    """tau for one weight, held as positions into the weight's listing.

    The i-th pair, crank-ascending, is (lambda, tau(lambda)) =
    (partitions[by_crank[i]], partitions[by_rank[i]]), with
    cranks[i] = crank(lambda) and ranks[i] = rank(tau(lambda)).  The
    list `pairs` is built on demand from those positions.
    """

    n: int
    tie_break: str
    partitions: list[Partition] = field(repr=False)
    by_crank: list[int] = field(repr=False)
    by_rank: list[int] = field(repr=False)
    cranks: list[int] = field(repr=False)
    ranks: list[int] = field(repr=False)

    @property
    def pairs(self) -> list[tuple[Partition, Partition]]:
        """[(lambda, tau(lambda)), ...] in crank-ascending order."""
        partitions = self.partitions
        return [(partitions[i], partitions[k]) for i, k in zip(self.by_crank, self.by_rank)]


_Listing = tuple[list[Partition], list[int], list[int]]


def _listing(n: int) -> _Listing:
    """The partitions of n in enumeration order, with their cranks and ranks."""
    partitions = list(enumerate_partitions(n))
    return partitions, list(map(crank, partitions)), list(map(rank, partitions))


def _tau(n: int, tie_break: str, listing: _Listing) -> ReorderingMap:
    """tau from a weight's listing: stable sorts of its positions by crank
    and by rank, each statistic computed once per partition."""
    partitions, cranks, ranks = listing
    # both sorts reorder the one list of positions, so the two position
    # lists share its int objects
    order = list(range(len(partitions)))
    if tie_break == "lex-ascending":
        order = order[::-1]
    by_crank = sorted(order, key=cranks.__getitem__)
    by_rank = sorted(order, key=ranks.__getitem__)
    return ReorderingMap(
        n=n,
        tie_break=tie_break,
        partitions=partitions,
        by_crank=by_crank,
        by_rank=by_rank,
        cranks=list(map(cranks.__getitem__, by_crank)),
        ranks=list(map(ranks.__getitem__, by_rank)),
    )


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
    return _tau(n, tie_break, _listing(n))


def ospt_via_tau(rmap: ReorderingMap) -> int:
    """Count the pairs with crank(lambda) - rank(tau(lambda)) = 1."""
    return sum(1 for a, b in zip(rmap.cranks, rmap.ranks) if a - b == 1)


def fixed_point_check(rmap: ReorderingMap) -> bool:
    """tau must fix the one-part partition (n), which maximizes both statistics."""
    top = Partition([rmap.n])
    partitions = rmap.partitions
    # (n) alone has the largest crank, so its pair is normally the last one
    return any(partitions[i] == top and partitions[k] == top
               for i, k in zip(reversed(rmap.by_crank), reversed(rmap.by_rank)))


def case_condition_holds(lam_crank: int, difference: int) -> bool:
    """The three-way constraint on d = crank(lambda) - rank(tau(lambda))."""
    if lam_crank == 0:
        return difference == 0
    if lam_crank > 0:
        return difference in (0, 1)
    return difference in (0, -1)


def _scan(rmap: ReorderingMap, cum_crank: list[int], cum_rank: list[int]) -> tuple:
    """One pass over the crank-ascending statistics of tau: the first
    failing position (1-based, 0 for none) of the case condition, the
    cumulative windows and the membership chain, the positive-rank sum
    through tau, and ospt via tau.  It reads only `rmap.cranks`,
    `rmap.ranks` and the weight's cumulative columns."""
    n = rmap.n
    positive_rank_sum = 0
    bad_case = bad_bracket = bad_chain = 0
    for i, (a, b) in enumerate(zip(rmap.cranks, rmap.ranks), start=1):
        if not bad_case and not case_condition_holds(a, a - b):
            bad_case = i
        if not bad_bracket and not (
                cum_crank[a + n] < i <= cum_crank[a + n + 1]
                and cum_rank[b + n] < i <= cum_rank[b + n + 1]):
            bad_bracket = i
        if not bad_chain and ((b > 0 and not a > 0) or (a > 0 and not b >= 0)):
            bad_chain = i
        if a > 0:
            positive_rank_sum += b
    return bad_case, bad_bracket, bad_chain, positive_rank_sum, ospt_via_tau(rmap)


def verify_reordering(nmax: int, table) -> VerifyReport:
    """The full tau suite for 2 <= n <= nmax under both tie-breaks.

    Checks, per weight and tie-break: the case condition; that tau is a
    bijection fixing (n) on a listing of each of the p(n) partitions
    exactly once, with both position orders permutations of that
    listing; that position i sits inside both cumulative
    windows, M(<= a-1, n) < i <= M(<= a, n) for a = crank(lambda_i) and
    the rank analogue for its image; the membership chain
    rank(tau) > 0 => crank > 0 => rank(tau) >= 0; the transfer of the
    positive-rank sum through tau; and that ospt via tau matches the
    moment route (hence is tie-break independent).  Each weight is
    listed once, with its cranks and ranks, for both tie-breaks.  Both
    tie-breaks should sort the same statistic values into the same
    ascending lists, so the statistics scan is reused for the second
    tie-break when its crank and rank lists equal the first's, and runs
    again when they differ.  The cumulative counts are running sums of
    each weight's crank and rank rows of `table`, and the positive-rank
    sum and ospt are read from its cells and moments; `table` must cover
    n <= nmax.
    """
    if nmax < 2:
        raise ValueError("the tau suite needs nmax >= 2")
    if table.nmax < nmax:
        raise ValueError(f"table covers n <= {table.nmax}, need {nmax}")
    rec = CheckRecorder()
    for n in range(2, nmax + 1):
        listing = _listing(n)
        partitions = listing[0]
        # the listing must hold each of the p(n) partitions exactly once
        listed, distinct, pn = len(partitions), len(set(partitions)), partition_count(n)
        positions = list(range(pn))
        # M(<= a, n) and N(<= a, n) at index a + n + 1, for -n - 1 <= a <= n,
        # each from one whole-row read
        cum_crank = [0, *accumulate(table.crank_row(n))]
        cum_rank = [0, *accumulate(table.rank_row(n))]
        expected_sum = sum(m * table.rank_count(m, n) for m in range(1, n + 1))
        ospt_moments = table.ospt_moments(n)
        ospt_values = set()
        scanned = scan = None
        for tie_break in TIE_BREAKS:
            rmap = _tau(n, tie_break, listing)
            by_crank, by_rank = rmap.by_crank, rmap.by_rank
            rec.expect(
                "tau-is-bijection",
                listed == pn == distinct
                and sorted(by_crank) == positions and sorted(by_rank) == positions,
                lambda: {"n": n, "tie_break": tie_break, "listed": listed,
                         "distinct": distinct, "p": pn},
            )
            rec.expect(
                "tau-fixes-single-row-partition",
                fixed_point_check(rmap),
                lambda: {"n": n, "tie_break": tie_break},
            )
            # the scan reads only the two statistic lists, so a map whose
            # lists equal the last scanned map's shares its verdicts
            if scanned != (rmap.cranks, rmap.ranks):
                scanned = rmap.cranks, rmap.ranks
                scan = _scan(rmap, cum_crank, cum_rank)
            bad_case, bad_bracket, bad_chain, positive_rank_sum, via_tau = scan

            def statistics_witness(i: int) -> dict:
                return {"n": n, "tie_break": tie_break,
                        "partition": list(partitions[by_crank[i - 1]]),
                        "image": list(partitions[by_rank[i - 1]]),
                        "crank": rmap.cranks[i - 1], "rank_of_image": rmap.ranks[i - 1]}

            rec.expect("tau-case-condition", not bad_case,
                       lambda: statistics_witness(bad_case))
            rec.expect(
                "tau-position-in-cumulative-window",
                not bad_bracket,
                lambda: {"n": n, "tie_break": tie_break, "position": bad_bracket,
                         "partition": list(partitions[by_crank[bad_bracket - 1]]),
                         "image": list(partitions[by_rank[bad_bracket - 1]])},
            )
            rec.expect("tau-membership-chain", not bad_chain,
                       lambda: statistics_witness(bad_chain))
            rec.expect(
                "tau-transfers-positive-rank-sum",
                positive_rank_sum == expected_sum,
                lambda: {"n": n, "tie_break": tie_break, "via_tau": positive_rank_sum,
                         "via_moments": expected_sum},
            )
            ospt_values.add(via_tau)
            rec.expect(
                "ospt-tau-matches-moments",
                via_tau == ospt_moments,
                lambda: {"n": n, "tie_break": tie_break, "via_tau": via_tau,
                         "via_moments": ospt_moments},
            )
            # free this tie-break's map, all but the scanned lists, before
            # the next one is built
            del rmap, by_crank, by_rank
        rec.expect(
            "ospt-tau-tie-break-independent",
            len(ospt_values) == 1,
            lambda: {"n": n, "values": sorted(ospt_values)},
        )
        # free this weight's listing and lists before the next weight is listed
        del listing, partitions, positions, scanned
    return rec.report("tau", {"nmin": 2, "nmax": nmax, "tie_breaks": list(TIE_BREAKS)})

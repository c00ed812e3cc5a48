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

The suite holds no partitions and no list in listing order.  One
streamed pass per weight distributes the listing positions by crank
and by rank as it goes (distribution counting): each batch's positions
join the runs of their values.  The pass also keeps the positions that
hold (n) and whether the listing strictly lex-decreases, which shows
that no partition is listed twice.  Both tie-breaks' position orders
are read from the runs, with no sort.  Every verdict is read from
those lists; the weight is listed again only to count its distinct
partitions when the listing does not strictly decrease, and for the
witness of a failing check.  `build_tau`, which the `tau` command
reads, is the same pass for one weight and tie-break; its map lists
the partitions on each read.

tau needs n >= 2: the weight-1 crank table convention has no partition
listing behind it, so tau is undefined there.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import countOf, eq, gt, ne, sub
from typing import NamedTuple

from .partitions import enumerate_partitions, partition_count
from .report import CheckRecorder, VerifyReport
from .statistics import crank, rank

TIE_BREAKS = ("lex-descending", "lex-ascending")

# partitions held at once by the streamed pass
_BATCH = 4096


class ReorderingMap(NamedTuple):
    """tau for one weight, held as positions into the weight's listing.

    The i-th pair, crank-ascending, is (lambda, tau(lambda)) =
    (partitions[by_crank[i]], partitions[by_rank[i]]), with
    cranks[i] = crank(lambda) and ranks[i] = rank(tau(lambda)); `tops`
    are the listing positions that hold (n).  The map holds no
    partitions: `partitions` lists the weight again on each read, so a
    reader reads it once.
    """

    n: int
    tops: list[int]
    by_crank: list[int]
    by_rank: list[int]
    cranks: list[int]
    ranks: list[int]

    @property
    def partitions(self) -> list[tuple[int, ...]]:
        """The weight's listing, in the enumeration order the positions index."""
        return list(enumerate_partitions(self.n))


# (runs of listing positions by ascending value, the values in ascending order)
_Runs = tuple[list[list[int]], list[int]]
# (crank runs, rank runs, positions of (n))
_Distributed = tuple[_Runs, _Runs, list[int]]


def stream_statistics(n: int) -> tuple[_Distributed, bool]:
    """The partitions of n distributed by crank and by rank as they
    stream (distribution counting), the listing positions that hold (n),
    and whether the listing strictly lex-decreases: one pass that holds
    a batch of partitions at a time.

    For each statistic, the runs of listing positions that hold each
    value, in ascending value order and each run in listing order, and
    the statistic in ascending order.  Each batch's positions are one
    list that both statistics append from, so the runs share its int
    objects."""
    partitions = enumerate_partitions(n)
    # keyed by the values that occur, so any int a statistic returns has a run
    crank_runs, rank_runs, tops = defaultdict(list), defaultdict(list), []
    top = (n,)
    descending, last, listed = True, (n + 1,), 0  # (n + 1) sorts above every partition of n
    while batch := list(islice(partitions, _BATCH)):
        positions = list(range(listed, listed + len(batch)))
        listed += len(batch)
        tops += compress(positions, map(eq, batch, repeat(top)))
        deque(map(list.append, map(crank_runs.__getitem__, map(crank, batch)), positions),
              maxlen=0)
        deque(map(list.append, map(rank_runs.__getitem__, map(rank, batch)), positions),
              maxlen=0)
        descending = descending and all(map(gt, chain((last,), batch), batch))
        last = batch[-1]
        # one batch of tuples at a time: the position ints kept from each
        # batch hold open the memory of the tuples listed next to them, so
        # a second live batch raises the peak (1.8 MiB at nmax 50)
        del batch
    return (_ascending_runs(crank_runs), _ascending_runs(rank_runs), tops), descending


def _ascending_runs(runs: dict[int, list[int]]) -> _Runs:
    """A statistic's runs in ascending value order, and the statistic ascending."""
    values = sorted(runs)
    return [runs[v] for v in values], _ascending({v: len(runs[v]) for v in values})


def _ascending(counts: dict[int, int]) -> list[int]:
    """Each counted value, smallest first, repeated its count."""
    values = sorted(counts)
    return list(chain.from_iterable(map(repeat, values, map(counts.__getitem__, values))))


def _tau(n: int, tie_break: str, distributed: _Distributed) -> ReorderingMap:
    """tau from a weight's distributed listing, with no sort: the stable
    order of the listing by a statistic is its runs chained in ascending
    value order, and the stable order of the reversed listing (the
    lex-ascending tie-break) chains each run reversed.  Both tie-breaks
    share the ascending statistic lists."""
    (crank_runs, cranks), (rank_runs, ranks), tops = distributed
    if tie_break == "lex-ascending":
        crank_runs, rank_runs = map(reversed, crank_runs), map(reversed, rank_runs)
    return ReorderingMap(
        n=n,
        tops=tops,
        by_crank=list(chain.from_iterable(crank_runs)),
        by_rank=list(chain.from_iterable(rank_runs)),
        cranks=cranks,
        ranks=ranks,
    )


def build_tau(n: int, tie_break: str = "lex-descending") -> ReorderingMap:
    """tau for weight n (n >= 2), from the suite's own streamed pass; the
    partitions are listed on each read.

    The enumeration order is already lexicographically decreasing, so
    the listing distributed by crank and by rank gives the lex-descending
    tie-break as it stands and the lex-ascending one with each run of
    equal values reversed.
    """
    if n < 2:
        raise ValueError("tau needs n >= 2; the weight-1 table row is a convention only")
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    return _tau(n, tie_break, stream_statistics(n)[0])


def _ospt(cranks: list[int], ranks: list[int]) -> int:
    """The positions i with cranks[i] - ranks[i] = 1: ospt, when the
    lists are a weight's cranks and ranks in ascending order."""
    return countOf(map(sub, cranks, ranks), 1)


def ospt_via_tau(rmap: ReorderingMap) -> int:
    """Count the pairs with crank(lambda) - rank(tau(lambda)) = 1."""
    return _ospt(rmap.cranks, rmap.ranks)


def _ospt_by_counts(crank_counts: dict[int, int], rank_counts: dict[int, int]) -> int:
    """`_ospt(_ascending(crank_counts), _ascending(rank_counts))` from the
    counts: crank a fills the ascending positions C(a - 1) <= i < C(a) and
    rank a - 1 fills R(a - 2) <= i < R(a - 1), C and R the cumulative counts,
    so entry i of the maps below is the overlap at a = values[i + 2]."""
    values = range(min(keys := [*crank_counts, *rank_counts]) - 1, max(keys) + 1)
    c, r = (list(accumulate(map(t.get, values, repeat(0)))) for t in (crank_counts, rank_counts))
    return sum(map(max, repeat(0), map(sub, map(min, c[2:], r[1:]), map(max, c[1:], r))))


def ospt_via_statistics(n: int) -> int:
    """`ospt_via_tau(build_tau(n))` from a batched pass that only counts the
    cranks and ranks, as tau pairs the i-th smallest crank and rank."""
    crank_counts, rank_counts, partitions = Counter(), Counter(), enumerate_partitions(n)
    while batch := list(islice(partitions, _BATCH)):
        crank_counts.update(map(crank, batch))
        rank_counts.update(map(rank, batch))
    return _ospt_by_counts(crank_counts, rank_counts)


def fixed_point_check(rmap: ReorderingMap) -> bool:
    """tau must fix the one-part partition (n), which maximizes both statistics."""
    tops = rmap.tops
    # (n) alone has the largest crank, so its pair is normally the last one
    return any(i in tops and k in tops
               for i, k in zip(reversed(rmap.by_crank), reversed(rmap.by_rank)))


def case_condition_holds(lam_crank: int, difference: int) -> bool:
    """The three-way constraint on d = crank(lambda) - rank(tau(lambda))."""
    if lam_crank == 0:
        return difference == 0
    if lam_crank > 0:
        return difference in (0, 1)
    return difference in (0, -1)


def _membership_chain_holds(lam_crank: int, image_rank: int) -> bool:
    """rank(tau(lambda)) > 0 => crank(lambda) > 0 => rank(tau(lambda)) >= 0."""
    return (image_rank <= 0 or lam_crank > 0) and (lam_crank <= 0 or image_rank >= 0)


def _window_values(row: list[int], n: int):
    """The statistic at positions 1, 2, ... of a listing of weight n in
    ascending order whose value counts are `row` (value a at index a + n):
    a repeated row[a + n] times, then None past the listing's end."""
    return chain(chain.from_iterable(map(repeat, range(-n, n + 1), row)), repeat(None))


def _is_permutation(positions: list[int], length: int) -> bool:
    """Whether `positions` holds each of 0, ..., length - 1 exactly once:
    `length` positions in that range mark every byte of a `length`-byte
    map only when none repeats.  A set of the positions would peak near
    100 bytes a position, which shows in the suite's peak memory."""
    if (len(positions) != length or min(positions, default=0) < 0
            or max(positions, default=-1) >= length):
        return False
    seen = bytearray(length)
    for i in positions:
        seen[i] = 1
    return 0 not in seen


def _run_intersections(cranks: list[int], ranks: list[int]) -> list[int]:
    """Where each maximal stretch of positions on which both lists are
    constant starts: at most 4n + 2 stretches for two ascending lists
    with values in -n..n."""
    changed = map(ne, zip(islice(cranks, 1, None), islice(ranks, 1, None)), zip(cranks, ranks))
    return [0, *compress(count(1), changed)] if cranks else []


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
    moment route (hence is tie-break independent).

    Each weight is streamed once (`stream_statistics`), which
    distributes its positions by crank and by rank and gives both
    tie-breaks' maps; every check is one statement per weight and
    tie-break, read from the weight's crank and rank lists.  A listing
    of p(n) entries that strictly lex-decreases holds each of them once;
    any other listing is listed again to count its distinct partitions.  tau fixes (n) when one
    position pairs two listing positions that hold (n).  Position i
    lies in both windows exactly when the i-th crank and rank equal the
    i-th values of the weight's crank and rank rows of `table` expanded
    in ascending order, a streamed comparison.  The case condition and
    the membership chain read only the two values at a position, so
    they are evaluated once per stretch on which both values stay
    constant (once per intersection of a crank run with a rank run),
    and the first failing stretch starts at the first failing position.
    The statistics checks run for the second tie-break only when its
    lists differ from the first's, which on the shared ascending lists
    takes no pass over them.  A failing check lists the weight
    again for its witness.  The positive-rank sum and ospt are read
    from the cells and moments of `table`, which must cover n <= nmax.
    """
    if nmax < 2:
        raise ValueError("the tau suite needs nmax >= 2")
    if table.nmax < nmax:
        raise ValueError(f"table covers n <= {table.nmax}, need {nmax}")
    rec = CheckRecorder()
    for n in range(2, nmax + 1):
        distributed, descending = stream_statistics(n)
        # the listing must hold each of the p(n) partitions exactly once
        listed, pn = len(distributed[0][1]), partition_count(n)
        distinct = listed if descending else len(set(enumerate_partitions(n)))
        crank_row, rank_row = table.crank_row(n), table.rank_row(n)
        expected_sum = sum(m * table.rank_count(m, n) for m in range(1, n + 1))
        ospt_moments = table.ospt_moments(n)
        ospt_values = set()
        checked = None
        for tie_break in TIE_BREAKS:
            rmap = _tau(n, tie_break, distributed)
            by_crank, by_rank, cranks, ranks = rmap.by_crank, rmap.by_rank, rmap.cranks, rmap.ranks
            rec.expect(
                "tau-is-bijection",
                listed == pn == distinct
                and _is_permutation(by_crank, pn) and _is_permutation(by_rank, pn),
                lambda: {"n": n, "tie_break": tie_break, "listed": listed,
                         "distinct": distinct, "p": pn},
            )
            rec.expect(
                "tau-fixes-single-row-partition",
                fixed_point_check(rmap),
                lambda: {"n": n, "tie_break": tie_break},
            )
            # the statistics checks read only the two statistic lists, so a
            # map whose lists equal the last checked map's has its verdicts
            if checked != (cranks, ranks):
                checked = cranks, ranks

                def statistics_witness(i: int) -> dict:
                    partitions = rmap.partitions
                    return {"n": n, "tie_break": tie_break,
                            "partition": list(partitions[by_crank[i]]),
                            "image": list(partitions[by_rank[i]]),
                            "crank": cranks[i], "rank_of_image": ranks[i]}

                def window_witness() -> dict:
                    expected = zip(_window_values(crank_row, n), _window_values(rank_row, n))
                    position = next(compress(count(1), map(ne, zip(cranks, ranks), expected)))
                    partitions = rmap.partitions
                    return {"n": n, "tie_break": tie_break, "position": position,
                            "partition": list(partitions[by_crank[position - 1]]),
                            "image": list(partitions[by_rank[position - 1]])}

                starts = _run_intersections(cranks, ranks)
                run_cranks = list(map(cranks.__getitem__, starts))
                run_ranks = list(map(ranks.__getitem__, starts))
                rec.expect_each("tau-case-condition", 0, case_condition_holds,
                                run_cranks, list(map(sub, run_cranks, run_ranks)),
                                lambda j: statistics_witness(starts[j]))
                rec.expect("tau-position-in-cumulative-window",
                           all(map(eq, cranks, _window_values(crank_row, n)))
                           and all(map(eq, ranks, _window_values(rank_row, n))),
                           window_witness)
                rec.expect_each("tau-membership-chain", 0, _membership_chain_holds,
                                run_cranks, run_ranks, lambda j: statistics_witness(starts[j]))
                positive_rank_sum = sum(compress(ranks, map(gt, cranks, repeat(0))))
                rec.expect(
                    "tau-transfers-positive-rank-sum",
                    positive_rank_sum == expected_sum,
                    lambda: {"n": n, "tie_break": tie_break, "via_tau": positive_rank_sum,
                             "via_moments": expected_sum},
                )
                via_tau = ospt_via_tau(rmap)
                ospt_values.add(via_tau)
                rec.expect(
                    "ospt-tau-matches-moments",
                    via_tau == ospt_moments,
                    lambda: {"n": n, "tie_break": tie_break, "via_tau": via_tau,
                             "via_moments": ospt_moments},
                )
            # free this tie-break's map, all but the checked lists, before
            # the next one is built
            del rmap, by_crank, by_rank, cranks, ranks
        rec.expect(
            "ospt-tau-tie-break-independent",
            len(ospt_values) == 1,
            lambda: {"n": n, "values": sorted(ospt_values)},
        )
        # free this weight's lists before the next weight is streamed
        del distributed, checked
    return rec.report("tau", {"nmin": 2, "nmax": nmax, "tie_breaks": list(TIE_BREAKS)})

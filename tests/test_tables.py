import random
from itertools import accumulate

import pytest

from oracles import smallest_part_count
from rankcrank import partitions, tables
from rankcrank.partitions import enumerate_partitions, partition_count
from rankcrank.statistics import crank, rank, rank_set_contains

# spt and ospt reference values, small range
SPT = [None, 1, 3, 5, 10, 14, 26, 35, 57, 80, 119]
OSPT = [None, 1, 1, 1, 2, 2, 4, 5, 7, 10, 13]


def q_count_direct(m: int, n: int) -> int:
    """Oracle for q(m, n): literally test every partition's rank-set."""
    return sum(1 for lam in enumerate_partitions(n) if rank_set_contains(lam, m))


def spt_direct(n: int) -> int:
    """Oracle for spt(n): sum the smallest-part multiplicities directly."""
    return sum(smallest_part_count(lam) for lam in enumerate_partitions(n))


def test_rank_rows_small():
    t = tables.build(4)
    assert [t.rank_count(m, 1) for m in (-1, 0, 1)] == [0, 1, 0]
    assert [t.rank_count(m, 2) for m in (-2, -1, 0, 1, 2)] == [0, 1, 0, 1, 0]
    assert [t.rank_count(m, 3) for m in range(-3, 4)] == [0, 1, 0, 1, 0, 1, 0]
    assert [t.rank_count(m, 4) for m in range(-4, 5)] == [0, 1, 0, 1, 1, 1, 0, 1, 0]


def test_crank_rows_small():
    t = tables.build(4)
    # weight-1 row follows the standard sign convention
    assert [t.crank_count(m, 1) for m in (-1, 0, 1)] == [1, -1, 1]
    assert [t.crank_count(m, 2) for m in (-2, -1, 0, 1, 2)] == [1, 0, 0, 0, 1]
    assert [t.crank_count(m, 3) for m in range(-3, 4)] == [1, 0, 0, 1, 0, 0, 1]
    assert [t.crank_count(m, 4) for m in range(-4, 5)] == [1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_row_sums_and_out_of_band():
    for t in (tables.build(6), tables.build_accelerated(6)):
        for n in range(1, 7):
            p = partition_count(n)
            assert t.cum_rank(n, n) == p
            assert t.cum_crank(n, n) == p
            for m in (-10**6, 10**6):
                assert t.rank_count(m, n) == t.crank_count(m, n) == 0, (m, n)
        assert t.rank_count(7, 6) == 0
        assert t.crank_count(-9, 6) == 0
        # the row reads return new lists: mutating one changes no later read
        for read, cell in ((t.rank_row, t.rank_count), (t.crank_row, t.crank_count)):
            row = read(5)
            before = [cell(m, 5) for m in range(-5, 6)]
            assert row == before
            row[:] = [99] * len(row)
            assert read(5) == before == [cell(m, 5) for m in range(-5, 6)]
        assert t.cum_rank(5, 5) == t.cum_crank(5, 5) == t.moment_crank(0, 5) == 7


def test_q_rows_small():
    for t in (tables.build(4), tables.build_accelerated(4)):
        assert [t.q_count(m, 4) for m in range(-6, 7)] == \
            [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5]
        # clamped outside the stored band
        assert t.q_count(-7, 4) == 0
        assert t.q_count(7, 4) == 5
        for n in range(1, 5):
            assert t.q_count(-10**6, n) == 0, n
            assert t.q_count(10**6, n) == partition_count(n), n


def test_build_matches_direct_tally():
    # Row n of build(n) and of build(30) against one pass over the
    # partitions of n, for every n <= 30.  Each level s <= 30 of build(30)
    # seeds mu = (s) at weight s, and each s <= 15 also moves weight
    # u - s's tallies to u for 2s <= u <= 30, so rows n <= 30 meet every
    # level in both cases; the ones are credited to every row in closed
    # form.
    t30 = tables.build(30)
    for n in range(1, 31):
        ranks, cranks, points = [0] * (2 * n + 1), [0] * (2 * n + 1), [0] * (2 * n + 3)
        tails = [0] * (n + 3)  # tails[L]: partitions of length L
        spt = 0
        for lam in enumerate_partitions(n):
            ranks[rank(lam) + n] += 1
            cranks[crank(lam) + n] += 1
            spt += smallest_part_count(lam)
            # the rank-set: the points k - lam_k (k < L, all below L) and every m >= L
            for k, v in enumerate(lam):
                points[k - v + n] += 1
            tails[len(lam)] += 1
        q_row = [a + b for a, b in zip(points, [0] * n + list(accumulate(tails)))]
        if n == 1:
            cranks = [tables.WEIGHT_ONE_CRANK_ROW[m] for m in (-1, 0, 1)]
        for t in (tables.build(n), t30):
            assert t.rank_row(n) == ranks, n
            assert t.crank_row(n) == cranks, n
            assert [t.q_count(m, n) for m in range(-n, n + 3)] == q_row, n
            assert t.spt_tally(n) == spt, n


def test_rows_match_across_nmax_above_direct_tally_range():
    # the level tallies are sized by weight and the sweep's runs by nmax,
    # so a trimming fault shows as a row that depends on nmax
    t45, t60 = tables.build(45), tables.build(60)
    for n in (31, 44, 45):
        own = tables.build(n)
        for t in (t45, t60):
            assert (t._rank[n], t._crank[n], t._q[n], t._spt[n]) == \
                (own._rank[n], own._crank[n], own._q[n], own._spt[n]), n


def test_build_takes_only_the_level_steps_that_hold_partitions(monkeypatch):
    # no partition of 0 < w < s has parts >= s, so level s moves weight
    # u - s into u only for u = s and 2s <= u <= nmax: a step with such a w
    # adds zeros and leaves every row as it is, so only the step count
    # shows it.  The level loop calls zip once per (s, u) step, and build
    # calls it nowhere else.
    steps = []

    def counting_zip(*args):
        steps.append(None)
        return zip(*args)

    monkeypatch.setattr(tables, "zip", counting_zip, raising=False)
    for nmax, expected in ((1, 0), (2, 1), (7, 12), (50, 625)):
        steps.clear()
        tables.build(nmax)
        assert len(steps) == expected == sum(1 + max(0, nmax + 1 - 2 * s)
                                             for s in range(2, nmax + 1)), nmax


def test_build_lists_no_partitions_and_reads_no_series(monkeypatch, table30):
    # the oracle walks its own partitions and stays apart from the series backend
    def refuse(*args):
        raise AssertionError("build called a partition lister or the series backend")

    assert "enumerate_partitions" not in vars(tables)
    monkeypatch.setattr(partitions, "enumerate_partitions", refuse)
    monkeypatch.setattr(partitions, "partition_count_series", refuse)
    monkeypatch.setattr(tables, "partition_count_series", refuse)
    monkeypatch.setattr(tables, "_rows_from_series", refuse)
    t = tables.build(30)
    assert (t._rank, t._crank, t._q, t._spt) == \
        (table30._rank, table30._crank, table30._q, table30._spt)


def test_rows_do_not_depend_on_nmax():
    small, large = tables.build(12), tables.build(25)
    for n in range(1, 13):
        assert small._rank[n] == large._rank[n], n
        assert small._crank[n] == large._crank[n], n
        assert small._q[n] == large._q[n], n
        assert small._spt[n] == large._spt[n], n
    assert [tables.build(1).crank_count(m, 1) for m in (-1, 0, 1)] == [1, -1, 1]


def test_q_against_direct_count():
    t = tables.build(14)
    for n in range(1, 15):
        for m in range(-n - 2, n + 3):
            assert t.q_count(m, n) == q_count_direct(m, n), (m, n)


def test_cumulative_and_tail():
    for t in (tables.build(6), tables.build_accelerated(6)):
        assert t.cum_rank(-7, 4) == 0
        assert t.cum_rank(4, 4) == 5
        assert t.p_ge(-5, 4) == 5
        assert t.p_ge(0, 4) == 3
        assert t.p_ge(5, 4) == 0
        for n in range(1, 7):
            p = partition_count(n)
            for m in range(-n - 1, n + 2):
                assert t.cum_rank(m, n) + t.p_ge(m + 1, n) == p
                assert t.cum_rank(m, n) == sum(t.rank_count(i, n) for i in range(-n, m + 1))
                assert t.cum_crank(m, n) == sum(t.crank_count(i, n) for i in range(-n, m + 1))
            # far past the band the cumulations and the tail sit at 0 or p(n)
            assert (t.cum_rank(-10**6, n), t.cum_crank(-10**6, n), t.p_ge(10**6, n)) == (0, 0, 0)
            assert (t.cum_rank(10**6, n), t.cum_crank(10**6, n), t.p_ge(-10**6, n)) == (p, p, p)


def test_moments():
    t = tables.build(8)
    # odd moments vanish by symmetry
    for n in (2, 5, 8):
        assert t.moment_rank(1, n) == 0
        assert t.moment_crank(3, n) == 0
    assert t.moment_crank(2, 4) == 40  # 2 * 4 * p(4)
    assert t.moment_rank(2, 4) == 20
    for n in range(1, 9):
        assert t.moment_crank(2, n) == 2 * n * partition_count(n)
    assert t.abs_crank_moment(4) == 12


def test_spt_three_routes():
    t = tables.build(10)
    for n in range(1, 11):
        assert t._spt_from_moment(n, t.moment_rank(2, n)) == (SPT[n], None)
        assert t.spt_tally(n) == SPT[n]
        assert spt_direct(n) == SPT[n]
        # moment identity route
        assert 2 * SPT[n] == t.moment_crank(2, n) - t.moment_rank(2, n)


def test_ospt_moment_route():
    t = tables.build(10)
    for n in range(1, 11):
        assert t.ospt_moments(n) == OSPT[n]


def test_bounds_on_n():
    t = tables.build(8)
    with pytest.raises(ValueError):
        t.rank_count(0, 9)
    with pytest.raises(ValueError):
        t.spt_tally(0)
    with pytest.raises(ValueError):
        tables.build(0)
    for nmax in (0, -1):
        with pytest.raises(ValueError, match="nmax must be >= 1"):
            tables.build_accelerated(nmax)
    # a table built directly with no weights
    with pytest.raises(ValueError, match="nmax must be >= 1"):
        tables.StatTable(0, [None], [None], lambda: [None], None, "enumerated")


CELL_READS = ("rank_count", "crank_count", "q_count", "cum_rank", "cum_crank", "p_ge")
WEIGHT_READS = ("rank_row", "crank_row", "abs_crank_moment", "spt_tally", "ospt_moments")


@pytest.mark.parametrize("build_table", [tables.build, tables.build_accelerated])
@pytest.mark.parametrize("n", [0, -1, 9])
def test_every_reader_rejects_n_outside_range(build_table, n):
    # n = -1 would read the top weight's row if a reader indexed before checking
    t = build_table(8)
    reads = [lambda name=name: getattr(t, name)(0, n) for name in CELL_READS]
    reads += [lambda name=name: getattr(t, name)(n) for name in WEIGHT_READS]
    reads += [lambda: t.moment_rank(2, n), lambda: t.moment_crank(2, n)]
    for read in reads:
        with pytest.raises(ValueError, match="n must be in 1..8"):
            read()


def test_build_accelerated_matches_enumeration():
    te = tables.build(25)
    ta = tables.build_accelerated(25)
    assert ta.provenance == "accelerated"
    for n in range(1, 26):
        for m in range(-n - 2, n + 3):
            assert te.rank_count(m, n) == ta.rank_count(m, n), (m, n)
            assert te.crank_count(m, n) == ta.crank_count(m, n), (m, n)
            assert te.q_count(m, n) == ta.q_count(m, n), (m, n)


def test_accelerated_q_matches_rectangle_sum(accel100):
    # literal per-cell sum over m-Durfee rectangles, above the enumeration range
    nmax = 100
    pb = [[1] + [0] * nmax]  # pb[k][a]: partitions of a with parts <= k
    for k in range(1, nmax + 1):
        row = []
        for a in range(nmax + 1):
            row.append(pb[k - 1][a] + (row[a - k] if a >= k else 0))
        pb.append(row)

    def q_ref(m, n):
        if m < 0:
            return partition_count(n) - q_ref(-m - 1, n)
        total = pb[min(m, n)][n]
        j = 1
        while j * (m + j + 1) <= n:
            r = n - j * (m + j + 1)
            side, under = pb[m + j], pb[j]
            total += sum(side[a] * under[r - a] for a in range(r + 1))
            j += 1
        return total

    for n in (61, 79, 100):
        for m in range(-n - 2, n + 3):
            assert accel100.q_count(m, n) == q_ref(m, n), (m, n)


def test_accelerated_rank_and_crank_match_series_sum(accel100):
    # literal per-cell alternating sums of p(n - e) - p(n - e - k), above
    # the enumeration range; m < 0 reads m's mirror cell
    def p(i):
        return partition_count(i) if i >= 0 else 0

    def series_sum(n, m, e):
        total, k = 0, 1
        while e(k, m) <= n:
            total += (-1) ** (k - 1) * (p(n - e(k, m)) - p(n - e(k, m) - k))
            k += 1
        return total

    rank_e = lambda k, m: k * (3 * k - 1) // 2 + m * k
    crank_e = lambda k, m: k * (k - 1) // 2 + m * k
    for n in (61, 79, 100):
        for m in range(-n - 3, n + 4):
            assert accel100.rank_count(m, n) == series_sum(n, abs(m), rank_e), (m, n)
            assert accel100.crank_count(m, n) == series_sum(n, abs(m), crank_e), (m, n)


def test_accelerated_rows_do_not_depend_on_nmax(accel100):
    small = tables.build_accelerated(37)
    for n in range(1, 38):
        assert small._rank[n] == accel100._rank[n], n
        assert small._crank[n] == accel100._crank[n], n
        assert small._q[n] == accel100._q[n], n
    # every nmax to 12: none or one rectangle width fits, and widths 1, 2, 3 first fit at 2, 6, 12
    for k in range(1, 13):
        small = tables.build_accelerated(k)
        for n in range(1, k + 1):
            assert small._q[n] == accel100._q[n], (k, n)


def test_accelerated_has_no_tally():
    ta = tables.build_accelerated(10)
    with pytest.raises(ValueError):
        ta.spt_tally(5)
    # the moment route still works
    assert ta._spt_from_moment(5, ta.moment_rank(2, 5)) == (14, None)


def test_statistics_match_table_rows(table30):
    # direct tally over every partition, desk-scale slice
    for n in (7, 13, 20):
        rank_tally = {}
        crank_tally = {}
        for p in enumerate_partitions(n):
            rank_tally[rank(p)] = rank_tally.get(rank(p), 0) + 1
            crank_tally[crank(p)] = crank_tally.get(crank(p), 0) + 1
        for m in range(-n, n + 1):
            assert table30.rank_count(m, n) == rank_tally.get(m, 0)
            assert table30.crank_count(m, n) == crank_tally.get(m, 0)


def test_verify_identities_suite(table30):
    rep = tables.verify_identities(table30)
    assert rep.suite == "identities"
    assert rep.range == {"nmin": 1, "nmax": 30, "backend": "enumerated"}
    for check in rep.checks:
        assert check.status == "pass", (check.id, check.witness)
    ids = {c.id for c in rep.checks}
    assert "crank-cum-equals-rank-set-count" in ids
    assert "rank-row-sums-to-p" in ids
    assert "spt-moment-routes-agree" in ids


def test_verify_bounds_suite(table30):
    rep = tables.verify_bounds(table30)
    assert rep.ok
    assert rep.info and "asymptotic-trend-ratios" in rep.info
    ids = {c.id for c in rep.checks}
    assert "ospt-at-most-half-crank-zero-gap" in ids
    assert "spt-at-most-sqrt-n-p" in ids


@pytest.mark.parametrize("nmax", [1, 2])
def test_verify_bounds_trend_ratios_stop_at_nmax(nmax):
    # one ratio row per m in -1, -2, -3 with -m <= nmax
    rows = tables.verify_bounds(tables.build(nmax)).info["asymptotic-trend-ratios"]
    assert [row["m"] for row in rows] == [-1, -2][:nmax]
    assert {row["n"] for row in rows} == {nmax}


def test_failure_reporting_is_witnessed():
    # corrupt one cell and make sure the suite pinpoints it
    t = tables.build(6)
    t._rank[4][2 + 4 + 3] += 1  # N(2, 4), at index m + n + 3
    rep = tables.verify_identities(t)
    assert not rep.ok
    bad = [c for c in rep.checks if c.status == "fail"]
    assert bad
    assert all(c.witness is not None for c in bad)
    assert any(c.witness.get("n") == 4 for c in bad if isinstance(c.witness, dict))


# The rank rows' complement, tail and chain witnesses all sit at weight 6,
# and a rank change at m = +-6 moves N_2(6) by 36, keeping spt integral.
RANK_EDGE_FAILURES = {
    "cum-difference-transfer": {"n": 6, "m": -8},
    "rank-cum-complement": {"n": 6, "m": -8},
    "rank-row-sums-to-p": {"n": 6, "total": 12, "p": 11},
    "rank-symmetric-in-m": {"n": 6, "m": 6},
    "spt-tally-matches-moments": {"n": 6, "tally": 26, "moments": 8},
}


@pytest.mark.parametrize("row, m, failures", [
    ("q", 8, {"crank-cum-equals-rank-set-count": {"n": 6, "m": 8, "cum_crank": 11, "q": 12}}),
    ("q", -6, {
        "crank-cum-complement": {"n": 6, "m": 5},
        "crank-cum-equals-rank-set-count": {"n": 6, "m": -6, "cum_crank": 1, "q": 2},
        "cum-difference-transfer": {"n": 6, "m": 5},
    }),
    ("rank", 6, {
        **RANK_EDGE_FAILURES,
        "cum-chain-nonnegative-m": {"n": 6, "m": 7, "cum_rank_prev": 12, "cum_crank": 11,
                                    "cum_rank": 12},
        "rank-first-moment-vanishes": {"n": 6, "N1": 6},
        "rank-set-count-dominates-rank-tail": {"n": 6, "m": 2, "q": 8, "p_ge": 9},
    }),
    ("rank", -6, {
        **RANK_EDGE_FAILURES,
        "cum-chain-negative-m": {"n": 6, "m": -5, "cum_rank": 2, "cum_crank": 1,
                                 "cum_rank_next": 2},
        "cum-chain-nonnegative-m": {"n": 6, "m": 2, "cum_rank_prev": 9, "cum_crank": 8,
                                    "cum_rank": 10},
        "rank-first-moment-vanishes": {"n": 6, "N1": -6},
        "rank-set-count-dominates-rank-tail": {"n": 6, "m": 7, "q": 11, "p_ge": 12},
    }),
], ids=["q-top", "q-bottom", "rank-top", "rank-bottom"])
def test_verify_identities_witnesses_at_range_ends(row, m, failures):
    # +1 on the first or last stored cell of weight 6 (q at m = -n and
    # n + 2, rank at m = +-n): each per-m scan must name the same first
    # failing m
    t = tables.build(6)
    n = 6
    if row == "q":
        t._q[n][m + n + 3] += 1
    else:
        t._rank[n][m + n + 3] += 1
    rep = tables.verify_identities(t)
    assert {c.id: c.witness for c in rep.checks if c.status == "fail"} == failures


# Each per-m identity as (its m range at weight n, holds(t, m, n, p)), stated
# through the per-cell accessors, one call per cell.
PER_M_IDENTITIES = {
    "rank-symmetric-in-m": (
        lambda n: range(1, n + 1),
        lambda t, m, n, p: t.rank_count(m, n) == t.rank_count(-m, n)),
    "crank-symmetric-in-m": (
        lambda n: range(1, n + 1),
        lambda t, m, n, p: t.crank_count(m, n) == t.crank_count(-m, n)),
    "crank-cum-equals-rank-set-count": (
        lambda n: range(-n - 2, n + 3),
        lambda t, m, n, p: t.cum_crank(m, n) == t.q_count(m, n)),
    "rank-cum-complement": (
        lambda n: range(-n - 2, n + 1),
        lambda t, m, n, p: t.cum_rank(m + 1, n) == p - t.p_ge(m + 2, n)),
    "crank-cum-complement": (
        lambda n: range(-n - 2, n + 1),
        lambda t, m, n, p: t.cum_crank(m, n) == p - t.q_count(-m - 1, n)),
    "cum-difference-transfer": (
        lambda n: range(-n - 2, n + 1),
        lambda t, m, n, p: (t.cum_rank(m + 1, n) - t.cum_crank(m, n)
                            == t.q_count(-m - 1, n) - t.p_ge(m + 2, n))),
    "rank-set-count-dominates-rank-tail": (
        lambda n: range(0, n + 3),
        lambda t, m, n, p: t.q_count(m, n) >= t.p_ge(-m + 1, n)),
    "cum-chain-negative-m": (
        lambda n: range(-n - 2, 0),
        lambda t, m, n, p: t.cum_rank(m, n) <= t.cum_crank(m, n) <= t.cum_rank(m + 1, n)),
    "cum-chain-nonnegative-m": (
        lambda n: range(0, n + 3),
        lambda t, m, n, p: t.cum_rank(m - 1, n) <= t.cum_crank(m, n) <= t.cum_rank(m, n)),
}


def test_per_m_witness_is_the_smallest_failing_m_under_random_corruptions():
    # one cell of one stored row moved, padding cells included: every
    # per-m identity that fails names the corrupted weight and the
    # smallest m at which the accessors see it fail
    rng = random.Random(20171)
    t = tables.build_accelerated(10)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 10)
        row = getattr(t, rng.choice(("_rank", "_crank", "_q")))[n]
        i = rng.randrange(len(row))
        delta = rng.choice((-2, -1, 1, 2))
        row[i] += delta
        p = partition_count(n)
        expected = {}
        for check_id, (m_range, holds) in PER_M_IDENTITIES.items():
            bad = [m for m in m_range(n) if not holds(t, m, n, p)]
            if bad:
                expected[check_id] = (n, bad[0])
        got = {c.id: (c.witness["n"], c.witness["m"])
               for c in tables.verify_identities(t).checks
               if c.status == "fail" and c.id in PER_M_IDENTITIES}
        row[i] -= delta
        assert got == expected, (n, i, delta)
        seen.update(got)
    assert seen == set(PER_M_IDENTITIES)


def test_odd_spt_numerator_fails_spt_checks_without_raising():
    # +1 on the rank cell m = 3 of weight 6 moves N_2(6) by 9, so
    # 2n p(n) - N_2(n) = 43 is odd: every check reading spt(6) fails with
    # that value, and neither suite raises
    t = tables.build(6)
    t._rank[6][3 + 6 + 3] += 1
    odd = {"n": 6, "2np-N2": 43}
    identities = tables.verify_identities(t)
    assert {c.id: c.witness for c in identities.checks if c.status == "fail"} == {
        "cum-chain-nonnegative-m": {"n": 6, "m": 4, "cum_rank_prev": 11, "cum_crank": 10,
                                    "cum_rank": 11},
        "cum-difference-transfer": {"n": 6, "m": -8},
        "rank-cum-complement": {"n": 6, "m": -8},
        "rank-first-moment-vanishes": {"n": 6, "N1": 3},
        "rank-row-sums-to-p": {"n": 6, "total": 12, "p": 11},
        "rank-set-count-dominates-rank-tail": {"n": 6, "m": 2, "q": 8, "p_ge": 9},
        "rank-symmetric-in-m": {"n": 6, "m": 3},
        "spt-moment-routes-agree": odd,
        "spt-tally-matches-moments": odd,
    }
    bounds = tables.verify_bounds(t)
    assert {c.id: c.witness for c in bounds.checks if c.status == "fail"} == {
        "spt-at-least-sqrt-6n-over-pi-p": odd,
        "spt-at-most-abs-crank-sum": odd,
        "spt-at-most-sqrt-2n-p": odd,
        "spt-at-most-sqrt-n-p": odd,
    }


READS = ("rank_count", "crank_count", "cum_rank", "cum_crank", "q_count", "p_ge")


@pytest.mark.parametrize("build_table", [tables.build, tables.build_accelerated])
def test_whole_weight_reads_match_cell_accessors(build_table):
    # the lists verify_identities reads, against one accessor call per cell
    t = build_table(30)
    for n in range(1, 31):
        cells = range(-n - 3, n + 4)
        lists = t._padded_reads(n)
        for name, got in zip(READS, lists):
            assert got == [getattr(t, name)(m, n) for m in cells], (name, n)
        assert t.rank_row(n) == [t.rank_count(m, n) for m in range(-n, n + 1)], n
        assert t.crank_row(n) == [t.crank_count(m, n) for m in range(-n, n + 1)], n


def assert_moments_match_definitions(t, weights):
    for n in weights:
        ms = range(-n, n + 1)
        for k in range(7):
            assert t.moment_rank(k, n) == sum(m**k * t.rank_count(m, n) for m in ms), (k, n)
            assert t.moment_crank(k, n) == sum(m**k * t.crank_count(m, n) for m in ms), (k, n)
        assert t.abs_crank_moment(n) == sum(abs(m) * t.crank_count(m, n) for m in ms), n
        assert t.ospt_moments(n) == sum(m * (t.crank_count(m, n) - t.rank_count(m, n))
                                        for m in range(1, n + 1)), n


def test_moments_match_per_cell_definitions(table60, accel100):
    assert_moments_match_definitions(table60, range(1, 61))
    assert_moments_match_definitions(accel100, range(1, 61))
    # negative cells, as a corrupt row may hold, count with their sign
    t = tables.build(8)
    t._rank[7][3 + 7 + 3] = -4
    t._crank[7][-5 + 7 + 3] = -9
    assert_moments_match_definitions(t, [7])


def test_moments_read_in_interleaved_weight_order(table60, accel100):
    # every weight reads its slice of one m^k list per k, in any order
    assert_moments_match_definitions(accel100, [5, 100, 5, 1, 100])
    assert_moments_match_definitions(table60, [5, 60, 5, 1])
    for t in (accel100, table60):
        nmax, held = t.nmax, dict(t._powers)
        assert set(range(7)) <= set(held)
        for k, powers in held.items():
            assert len(powers) == 2 * nmax + 7, k
            assert powers == [(i - nmax - 3)**k for i in range(len(powers))], k
        # the moments of other weights read the same lists, formed once
        assert_moments_match_definitions(t, [7, nmax - 1])
        tables.verify_bounds(t)
        assert all(t._powers[k] is powers for k, powers in held.items())

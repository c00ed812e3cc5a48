"""Acceptance gate: one test per shipped guarantee, each run at its
stated range.  `pytest tests/test_acceptance.py -v` gives one verdict
line per criterion.
"""

import time

from rankcrank import qseries, reordering, tables
from rankcrank.cli import main
from rankcrank.partitions import partition_count
from rankcrank.statistics import crank


def test_criterion_01_reordering_table_weight_4(capsys):
    # the five rows of the worked weight-4 re-ordering, emitted by the
    # CLI in under a second
    started = time.monotonic()
    code = main(["tau", "--n", "4", "--format", "csv"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "partition,crank,image,rank,diff",
        "1+1+1+1,-4,1+1+1+1,-3,-1",
        "2+1+1,-2,2+1+1,-1,-1",
        "3+1,0,2+2,0,0",
        "2+2,2,3+1,1,1",
        "4,4,4,3,1",
    ]
    assert elapsed < 1.0


def test_criterion_02_cumulative_chain_negative_m(table60, accel100):
    # N(<=m,n) <= M(<=m,n) <= N(<=m+1,n) for every m < 0; default range
    # n <= 60 enumerated, extended range n <= 100 on the arithmetic
    # backend
    started = time.monotonic()
    for table, nmax in ((table60, 60), (accel100, 100)):
        for n in range(1, nmax + 1):
            for m in range(-n - 2, 0):
                lo = table.cum_rank(m, n)
                mid = table.cum_crank(m, n)
                hi = table.cum_rank(m + 1, n)
                assert lo <= mid <= hi, (m, n, lo, mid, hi)
    assert time.monotonic() - started < 120


def test_criterion_03_crank_cumulative_counts_rank_sets(table60):
    # M(<=m,n) = q(m,n) exactly, |m| <= n+1, n <= 45, weight-1
    # convention row included
    for n in range(1, 46):
        for m in range(-n - 1, n + 2):
            assert table60.cum_crank(m, n) == table60.q_count(m, n), (m, n)


def test_criterion_04_complement_identities(table60):
    # difference transfer N(<=m+1,n) - M(<=m,n) = q(-m-1,n) - p_ge(m+2,n)
    # and both complements, m in [-n-2, n], n <= 45
    for n in range(1, 46):
        pn = partition_count(n)
        for m in range(-n - 2, n + 1):
            n_hi = table60.cum_rank(m + 1, n)
            m_mid = table60.cum_crank(m, n)
            assert n_hi - m_mid == table60.q_count(-m - 1, n) - table60.p_ge(m + 2, n)
            assert n_hi == pn - table60.p_ge(m + 2, n)
            assert m_mid == pn - table60.q_count(-m - 1, n)


def test_criterion_05_injection_suite(table60):
    # exhaustive class/injection verification, 0 <= m <= 6, 2 <= n <= 30
    from rankcrank.injections import verify_injections

    started = time.monotonic()
    rep = verify_injections(6, 30, table=table60)
    elapsed = time.monotonic() - started
    for check in rep.checks:
        assert check.status == "pass", (check.id, check.witness)
    assert rep.range == {"mmax": 6, "nmin": 2, "nmax": 30}
    assert elapsed < 60


def test_criterion_06_case_condition_both_tie_breaks(table60):
    # crank/rank difference cases hold for 2 <= n <= 40 under both
    # tie-break orders
    rep = reordering.verify_reordering(40, table=table60)
    for check in rep.checks:
        assert check.status == "pass", (check.id, check.witness)
    assert rep.range["tie_breaks"] == ["lex-descending", "lex-ascending"]
    assert rep.range["nmax"] == 40


def test_criterion_07_ospt_three_routes(table60):
    # moment route = pairing route for 2 <= n <= 40; both = series
    # coefficient for 2 <= n <= 60
    series = qseries.ospt_series(60)
    for n in range(2, 41):
        via_tau = reordering.ospt_via_tau(reordering.build_tau(n))
        assert via_tau == table60.ospt_moments(n), n
    for n in range(2, 61):
        assert series[n] == table60.ospt_moments(n), n


def test_criterion_08_moment_identities(table60):
    # M2 = 2 n p(n); spt via moments = direct tally; even crank moments
    # dominate even rank moments for k = 1, 2, 3; all n <= 60
    for n in range(1, 61):
        pn = partition_count(n)
        m2 = table60.moment_crank(2, n)
        n2 = table60.moment_rank(2, n)
        assert m2 == 2 * n * pn
        assert 2 * table60.spt_tally(n) == 2 * n * pn - n2
        for k in (1, 2, 3):
            assert table60.moment_crank(2 * k, n) > table60.moment_rank(2 * k, n)


def test_criterion_09_bound_chain(table60):
    # counting bounds, integer-exact throughout n <= 60
    for n in range(2, 61):
        pn = partition_count(n)
        ospt_n = table60.ospt_moments(n)
        assert ospt_n > 0
        assert 2 * ospt_n <= pn - table60.crank_count(0, n)
        if n == 4:
            assert ospt_n == 2
            assert pn - table60.crank_count(0, n) == 4  # tight here
    for n in range(1, 61):
        pn = partition_count(n)
        spt_n = table60.spt_tally(n)
        assert spt_n * spt_n <= 2 * n * pn * pn
        # weight-1 row carries the sign convention; the actual
        # statistic sum there is |crank((1))| = 1
        abs_sum = table60.abs_crank_moment(n) if n >= 2 else abs(crank((1,)))
        assert spt_n <= abs_sum
        assert abs_sum * abs_sum <= 2 * n * pn * pn
    for n in range(5, 61):
        pn = partition_count(n)
        spt_n = table60.spt_tally(n)
        assert spt_n * spt_n <= n * pn * pn
        assert (6 * n * pn * pn * tables.PI_SQ_LO_DEN
                <= tables.PI_SQ_LO_NUM * spt_n * spt_n)


def test_criterion_10_asymptotic_trend_substitute(table60):
    # the limit statements have no desk-scale content beyond sign
    # behavior plus the informational ratio report
    rep = tables.verify_bounds(table60)
    assert rep.ok
    assert rep.info and rep.info["asymptotic-trend-ratios"]
    for entry in rep.info["asymptotic-trend-ratios"]:
        assert entry["crank-rank-gap-over-main-term"] > 0
        assert entry["shifted-rank-crank-gap-over-main-term"] > 0
    for n in range(1, 61):
        for m in range(-n - 2, 0):
            assert table60.cum_crank(m, n) - table60.cum_rank(m, n) >= 0
            assert table60.cum_rank(m + 1, n) - table60.cum_crank(m, n) >= 0


def test_criterion_11_backend_agreement(table60, accel100):
    # arithmetic backend agrees with enumeration on every stored cell,
    # n <= 60
    for n in range(1, 61):
        for m in range(-n - 2, n + 3):
            assert table60.rank_count(m, n) == accel100.rank_count(m, n), (m, n)
            assert table60.crank_count(m, n) == accel100.crank_count(m, n), (m, n)
            assert table60.q_count(m, n) == accel100.q_count(m, n), (m, n)


def test_criterion_11_backend_agreement_through_100(table100, accel100):
    # the same over the arithmetic backend's whole range, on every stored
    # rank, crank and q row, and the enumeration's spt tally against the
    # moment route n p(n) - N_2(n) / 2 on the arithmetic rows
    enumerated = table100
    for n in range(1, 101):
        assert enumerated._rank[n] == accel100._rank[n], n
        assert enumerated._crank[n] == accel100._crank[n], n
        assert enumerated._q[n] == accel100._q[n], n
        assert (enumerated.spt_tally(n), None) == \
            accel100._spt_from_moment(n, accel100.moment_rank(2, n)), n

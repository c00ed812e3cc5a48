import random
from collections import Counter

import pytest

from oracles import first_outside_windows, tau_pairs
from test_mutants import RowShifted, listing_with_third_twice_at_5, listing_without_third_at_5
from rankcrank import reordering
from rankcrank.partitions import enumerate_partitions
from rankcrank.reordering import (
    TIE_BREAKS,
    build_tau,
    case_condition_holds,
    fixed_point_check,
    ospt_via_tau,
    verify_reordering,
)
from rankcrank.statistics import crank, rank


def test_tau_weight_4_worked_table():
    rmap = build_tau(4)
    got = [(tuple(lam), tuple(mu)) for lam, mu in tau_pairs(rmap)]
    assert got == [
        ((1, 1, 1, 1), (1, 1, 1, 1)),
        ((2, 1, 1), (2, 1, 1)),
        ((3, 1), (2, 2)),
        ((2, 2), (3, 1)),
        ((4,), (4,)),
    ]
    diffs = [crank(lam) - rank(mu) for lam, mu in tau_pairs(rmap)]
    assert diffs == [-1, -1, 0, 1, 1]


def test_tau_is_bijection_each_weight():
    for n in range(2, 26):
        rmap = build_tau(n)
        everything = set(enumerate_partitions(n))
        assert {lam for lam, _ in tau_pairs(rmap)} == everything
        assert {mu for _, mu in tau_pairs(rmap)} == everything


def test_tau_sorted_by_statistics():
    for n in (5, 9, 14):
        rmap = build_tau(n)
        cranks = [crank(lam) for lam, _ in tau_pairs(rmap)]
        ranks = [rank(mu) for _, mu in tau_pairs(rmap)]
        assert cranks == sorted(cranks)
        assert ranks == sorted(ranks)


def test_tau_fixes_single_row():
    for n in range(2, 16):
        rmap = build_tau(n)
        assert fixed_point_check(rmap)


def test_tau_case_condition():
    # crank 0 forces equal statistics; positive crank allows diff 0 or 1;
    # negative crank allows diff 0 or -1
    for n in range(2, 21):
        for lam, mu in tau_pairs(build_tau(n)):
            c = crank(lam)
            d = c - rank(mu)
            assert case_condition_holds(c, d), (n, tuple(lam), c, d)
            if c == 0:
                assert d == 0
            elif c > 0:
                assert d in (0, 1)
            else:
                assert d in (0, -1)


def test_case_condition_predicate():
    assert case_condition_holds(0, 0)
    assert not case_condition_holds(0, 1)
    assert case_condition_holds(3, 1)
    assert case_condition_holds(3, 0)
    assert not case_condition_holds(3, -1)
    assert case_condition_holds(-2, -1)
    assert not case_condition_holds(-2, 1)


def test_ospt_via_tau_matches_moments(table30):
    for n in range(2, 31):
        assert ospt_via_tau(build_tau(n)) == table30.ospt_moments(n)


def test_ospt_via_statistics_matches_tau():
    for n in range(2, 31):
        assert reordering.ospt_via_statistics(n) == ospt_via_tau(build_tau(n)), n


def test_ospt_by_counts_matches_ascending_lists():
    # count rows with gaps, single values far apart and ranks above or
    # below every crank; each pair has equal totals, as a weight's do
    pairs = [
        ({-3: 2, 0: 1, 4: 3}, {-7: 1, -4: 2, 3: 3}),  # ascending differences 4, 1, 4, 1, 1, 1
        ({5: 2}, {4: 2}),
        ({5: 2}, {-5: 2}),
        ({-5: 1, 9: 1}, {-6: 1, 20: 1}),
        ({0: 3}, {0: 3}),
        ({1: 1, 3: 1, 5: 1}, {0: 1, 2: 1, 4: 1}),
    ]
    rng = random.Random(33)
    for _ in range(300):
        values = rng.sample(range(-15, 16), rng.randint(1, 6))
        cranks = [rng.choice(values) for _ in range(rng.randint(1, 12))]
        ranks = [rng.choice(values) + rng.choice((-3, -1, 0, 1, 2)) for _ in cranks]
        pairs.append((Counter(cranks), Counter(ranks)))
    expected = [4, 2, 0, 1, 0, 3]
    for i, (crank_counts, rank_counts) in enumerate(pairs):
        want = reordering._ospt(reordering._ascending(crank_counts),
                                reordering._ascending(rank_counts))
        assert reordering._ospt_by_counts(crank_counts, rank_counts) == want, (crank_counts,
                                                                                rank_counts)
        if i < len(expected):
            assert want == expected[i], i


def test_tie_break_changes_pairs_not_counts():
    rmap_d = build_tau(6, "lex-descending")
    rmap_a = build_tau(6, "lex-ascending")
    assert tau_pairs(rmap_d) != tau_pairs(rmap_a)
    assert ospt_via_tau(rmap_d) == ospt_via_tau(rmap_a)


def test_tau_rejects_bad_input():
    with pytest.raises(ValueError):
        build_tau(1)
    with pytest.raises(ValueError):
        build_tau(0)
    with pytest.raises(ValueError):
        build_tau(5, "random")


@pytest.mark.parametrize("positions, length, expected", [
    ([2, 0, 1], 3, True),
    ([], 0, True),
    ([0, 1, 1], 3, False),   # a repeated position
    ([0, 3, 1], 3, False),   # a position equal to the length
    ([0, -1, 1], 3, False),  # a negative position
    ([1, 0], 3, False),      # a short list
    ([], 2, False),          # the empty list against a non-empty listing
    ([0], 0, False),
])
def test_is_permutation(positions, length, expected):
    assert reordering._is_permutation(positions, length) is expected


def test_verify_reordering_suite(table30):
    rep = verify_reordering(22, table=table30)
    assert rep.suite == "tau"
    for check in rep.checks:
        assert check.status == "pass", (check.id, check.witness)
    ids = {c.id for c in rep.checks}
    assert "tau-case-condition" in ids
    assert "tau-position-in-cumulative-window" in ids
    assert "ospt-tau-matches-moments" in ids
    assert "tau-is-bijection" in ids
    assert rep.range["tie_breaks"] == list(TIE_BREAKS)


def test_verify_reordering_rejects_small_table(table30):
    with pytest.raises(ValueError):
        verify_reordering(45, table=table30)
    with pytest.raises(ValueError):
        verify_reordering(1, table=table30)


def test_build_tau_matches_literal_sorts():
    for n in range(2, 13):
        for tie_break in TIE_BREAKS:
            base = list(enumerate_partitions(n))
            if tie_break == "lex-ascending":
                base.reverse()
            expected = list(zip(sorted(base, key=crank), sorted(base, key=rank)))
            rmap = build_tau(n, tie_break)
            assert tau_pairs(rmap) == expected, (n, tie_break)
            assert rmap.cranks == [crank(lam) for lam, _ in expected]
            assert rmap.ranks == [rank(mu) for _, mu in expected]


def listing_statistics(n):
    partitions = list(enumerate_partitions(n))
    return list(map(crank, partitions)), list(map(rank, partitions))


# (cranks, ranks) listings the counting pass must order as a sort would:
# an empty one, a one-value one, and ones with values a mutant statistic
# could return, some outside -n..n, over more positions (p(18) = 385) than
# CPython shares int objects for
CRANKS_18, RANKS_18 = listing_statistics(18)
HAND_MADE_LISTINGS = {
    "empty": ([], []),
    "single value": ([0] * 6, [-3] * 6),
    "every rank one higher": (CRANKS_18, [r + 1 for r in RANKS_18]),
    "every rank negated": (CRANKS_18, [-r for r in RANKS_18]),
    "outside -n..n": ([c * 1000 - 7 for c in CRANKS_18],
                      [(r * 37) % 11 - 10**20 for r in RANKS_18]),
}


@pytest.mark.parametrize("statistics", [
    *(pytest.param(listing_statistics(n), id=f"n-{n}") for n in range(1, 13)),
    *(pytest.param(listing, id=name) for name, listing in HAND_MADE_LISTINGS.items()),
])
def test_counting_order_matches_literal_sorts(monkeypatch, statistics):
    # the streamed pass lists stand-ins (i,) whose statistics are the i-th
    # entries, in batches of 5 so that runs cross batch boundaries
    cranks, ranks = statistics
    monkeypatch.setattr(reordering, "enumerate_partitions",
                        lambda n: iter([(i,) for i in range(len(cranks))]))
    monkeypatch.setattr(reordering, "crank", lambda lam: cranks[lam[0]])
    monkeypatch.setattr(reordering, "rank", lambda lam: ranks[lam[0]])
    monkeypatch.setattr(reordering, "_BATCH", 5)
    distributed, _ = reordering.stream_statistics(len(cranks))
    for tie_break in TIE_BREAKS:
        order = list(range(len(cranks)))
        if tie_break == "lex-ascending":
            order.reverse()
        by_crank = sorted(order, key=cranks.__getitem__)
        by_rank = sorted(order, key=ranks.__getitem__)
        rmap = reordering._tau(len(cranks), tie_break, distributed)
        assert rmap.by_crank == by_crank, tie_break
        assert rmap.by_rank == by_rank, tie_break
        assert rmap.cranks == [cranks[i] for i in by_crank], tie_break
        assert rmap.ranks == [ranks[k] for k in by_rank], tie_break
        # both position lists hold the one int object of each position
        held = {i: i for i in rmap.by_crank}
        assert all(held[k] is k for k in rmap.by_rank), tie_break


def test_verify_reordering_failure_witness(monkeypatch, table30):
    # the lazy witness must read the statistics of the failing pair itself
    monkeypatch.setattr(reordering, "case_condition_holds", lambda *_: False)
    rep = verify_reordering(6, table=table30)
    failed = {c.id: c.witness for c in rep.checks if c.status == "fail"}
    assert set(failed) == {"tau-case-condition"}
    witness = failed["tau-case-condition"]
    assert witness["crank"] == crank(witness["partition"])
    assert witness["rank_of_image"] == rank(witness["image"])
    assert witness == {"n": 2, "tie_break": "lex-descending", "partition": [1, 1],
                       "image": [1, 1], "crank": -2, "rank_of_image": -1}


def test_verify_reordering_lists_each_weight_once(monkeypatch, table30):
    # on correct code each weight is streamed once and never listed again
    listed = []
    real = reordering.enumerate_partitions
    monkeypatch.setattr(reordering, "enumerate_partitions",
                        lambda n: listed.append(n) or real(n))
    rep = verify_reordering(12, table=table30)
    assert rep.ok
    assert {c.id for c in rep.checks} == {
        "ospt-tau-matches-moments", "ospt-tau-tie-break-independent", "tau-case-condition",
        "tau-fixes-single-row-partition", "tau-is-bijection", "tau-membership-chain",
        "tau-position-in-cumulative-window", "tau-transfers-positive-rank-sum"}
    assert listed == list(range(2, 13))


@pytest.mark.parametrize("swap", ((2, 3), (0, 1)), ids=lambda swap: f"swap-{swap[0]}-{swap[1]}")
def test_reordered_listing_still_passes(monkeypatch, table30, swap):
    # a listing of 6 out of lex order, but with each partition once, is
    # still a listing: tau sorts it, so every check passes; swapping
    # positions 0 and 1 also moves (6) off the front
    real = reordering.enumerate_partitions

    def swapped(n):
        listing = list(real(n))
        if n == 6:
            i, k = swap
            listing[i], listing[k] = listing[k], listing[i]
        return iter(listing)

    monkeypatch.setattr(reordering, "enumerate_partitions", swapped)
    rep = verify_reordering(10, table=table30)
    assert len(rep.checks) == 8
    assert rep.ok, [(c.id, c.witness) for c in rep.checks if c.status == "fail"]


def test_fixed_point_needs_the_one_part_partition_itself(monkeypatch, table30):
    # (5) listed as (5, 0), which a rank blind to zero parts reads as (5):
    # the listing still descends and every statistic is intact, but tau
    # fixes no (5)
    real_listing, real_rank = reordering.enumerate_partitions, reordering.rank

    def padded(n):
        listing = list(real_listing(n))
        if n == 5:
            listing[0] = (5, 0)
        return iter(listing)

    monkeypatch.setattr(reordering, "enumerate_partitions", padded)
    monkeypatch.setattr(reordering, "rank", lambda lam: real_rank(tuple(filter(None, lam))))
    rep = verify_reordering(10, table=table30)
    assert {c.id: c.witness for c in rep.checks if c.status == "fail"} == {
        "tau-fixes-single-row-partition": {"n": 5, "tie_break": "lex-descending"}}


def test_tau_bijection_detects_bad_listing(monkeypatch, table30):
    # a listing that misses or repeats a partition must not pass as a bijection
    real = reordering.enumerate_partitions
    for fault, counts in (("drop", (6, 6, 7)), ("duplicate", (8, 7, 7))):
        def faulty(n, fault=fault):
            listing = list(real(n))
            if n == 5:
                if fault == "drop":
                    del listing[2]
                else:
                    listing.insert(2, listing[2])
            return iter(listing)

        monkeypatch.setattr(reordering, "enumerate_partitions", faulty)
        rep = verify_reordering(6, table=table30)
        check = {c.id: c for c in rep.checks}["tau-is-bijection"]
        assert check.status == "fail", fault
        witness = check.witness
        assert witness["n"] == 5, fault
        assert (witness["listed"], witness["distinct"], witness["p"]) == counts, fault


def test_verify_reordering_witnesses_pinned(monkeypatch, table30):
    # witnesses read the failing position's own partition and image
    real_case = reordering.case_condition_holds
    monkeypatch.setattr(reordering, "case_condition_holds",
                        lambda c, d: c != 2 and real_case(c, d))
    rep = verify_reordering(8, table=table30)
    assert {c.id: c.witness for c in rep.checks if c.status == "fail"} == {
        "tau-case-condition": {"n": 2, "tie_break": "lex-descending", "partition": [2],
                               "image": [2], "crank": 2, "rank_of_image": 1},
    }
    monkeypatch.setattr(reordering, "case_condition_holds", real_case)

    class OffByOne:
        # table30 with M(<= 1, 7) read one too high, through either read path
        def __getattr__(self, name):
            return getattr(table30, name)

        def cum_crank(self, m, n):
            return table30.cum_crank(m, n) + (m == 1 and n == 7)

        def crank_row(self, n):
            # M(1, 7) one high and M(2, 7) one low move M(<= a, 7) at a = 1 only
            row = table30.crank_row(n)
            if n == 7:
                row[1 + n] += 1
                row[2 + n] -= 1
            return row

    rep = verify_reordering(8, table=OffByOne())
    assert {c.id: c.witness for c in rep.checks if c.status == "fail"} == {
        "tau-position-in-cumulative-window": {
            "n": 7, "tie_break": "lex-descending", "position": 11,
            "partition": [2, 2, 2, 1], "image": [5, 1, 1]},
    }


def test_second_tie_break_is_checked(monkeypatch, table30):
    # under lex-ascending, tau's rank positions reversed with (n) kept last:
    # still a permutation fixing (n), but its ranks leave rank order
    real = reordering._tau

    def mutant(n, tie_break, listing):
        rmap = real(n, tie_break, listing)
        if tie_break == "lex-ascending":
            rmap = rmap._replace(by_rank=rmap.by_rank[-2::-1] + rmap.by_rank[-1:],
                                 ranks=rmap.ranks[-2::-1] + rmap.ranks[-1:])
        return rmap

    monkeypatch.setattr(reordering, "_tau", mutant)
    rep = verify_reordering(14, table=table30)
    failed = {c.id: c.witness for c in rep.checks if c.status == "fail"}
    witness = failed["tau-case-condition"]
    assert witness["crank"] == crank(witness["partition"])
    assert witness["rank_of_image"] == rank(witness["image"])
    assert failed == {
        "ospt-tau-matches-moments": {"n": 6, "tie_break": "lex-ascending",
                                     "via_tau": 2, "via_moments": 4},
        "ospt-tau-tie-break-independent": {"n": 6, "values": [2, 4]},
        "tau-case-condition": {"n": 3, "tie_break": "lex-ascending", "partition": [1, 1, 1],
                               "image": [2, 1], "crank": -3, "rank_of_image": 0},
        "tau-membership-chain": {"n": 4, "tie_break": "lex-ascending",
                                 "partition": [1, 1, 1, 1], "image": [3, 1], "crank": -4,
                                 "rank_of_image": 1},
        "tau-position-in-cumulative-window": {"n": 3, "tie_break": "lex-ascending",
                                              "position": 1, "partition": [1, 1, 1],
                                              "image": [2, 1]},
        "tau-transfers-positive-rank-sum": {"n": 4, "tie_break": "lex-ascending",
                                            "via_tau": 0, "via_moments": 4},
    }


def window_oracle(nmax, table):
    """The first (n, tie-break, position) outside the cumulative windows, by
    the literal bracket test over every tie-break's map, or None."""
    for n in range(2, nmax + 1):
        for tie_break in TIE_BREAKS:
            rmap = build_tau(n, tie_break)
            position = first_outside_windows(rmap.cranks, rmap.ranks, table.crank_row(n),
                                             table.rank_row(n), n)
            if position:
                return {"n": n, "tie_break": tie_break, "position": position}
    return None


def suite_window_verdict(nmax, table):
    check = {c.id: c for c in verify_reordering(nmax, table=table).checks}[
        "tau-position-in-cumulative-window"]
    if check.status == "pass":
        return None
    return {key: check.witness[key] for key in ("n", "tie_break", "position")}


def test_window_check_matches_the_bracket_oracle_under_row_corruptions(table30):
    # random +-1 moves of crank and rank cells, kept non-negative, through nmax 10
    rng = random.Random(20171004)
    failed = 0
    for _ in range(60):
        table = table30
        for _ in range(rng.randint(1, 3)):
            row_name, n = rng.choice(("crank_row", "rank_row")), rng.randint(2, 10)
            m = rng.randint(-n, n)
            delta = rng.choice((-1, 1)) if getattr(table, row_name)(n)[m + n] else 1
            table = RowShifted(table, row_name, n, m, delta)
        expected = window_oracle(10, table)
        assert suite_window_verdict(10, table) == expected
        failed += expected is not None
    assert failed > 30


@pytest.mark.parametrize("listing", (listing_without_third_at_5, listing_with_third_twice_at_5),
                         ids=lambda listing: listing.__name__)
def test_window_check_matches_the_bracket_oracle_on_bad_listings(monkeypatch, table30, listing):
    monkeypatch.setattr(reordering, "enumerate_partitions", listing)
    expected = window_oracle(8, table30)
    assert expected is not None
    assert suite_window_verdict(8, table30) == expected

import pytest
from hypothesis import given, strategies as st

from oracles import smallest_part_count
from rankcrank.partitions import conjugate, enumerate_partitions
from rankcrank.statistics import crank, rank, rank_set_contains


def ones_count(partition) -> int:
    """Oracle for the number of parts equal to 1: the suffix of ones."""
    i = len(partition)
    while i > 0 and partition[i - 1] == 1:
        i -= 1
    return len(partition) - i


def test_rank_known_values():
    assert rank((4,)) == 3
    assert rank((1, 1, 1, 1)) == -3
    assert rank((2, 2)) == 0
    assert rank((4, 2, 1, 1)) == 0
    assert rank((5, 4, 3, 2, 1)) == 0


def test_crank_no_ones_is_largest_part():
    assert crank((4,)) == 4
    assert crank((2, 2)) == 2
    assert crank((3, 2)) == 3


def test_crank_with_ones():
    # parts larger than the number of ones, minus the number of ones
    assert crank((1,)) == -1
    assert crank((1, 1, 1, 1)) == -4
    assert crank((2, 1, 1)) == -2
    assert crank((3, 1)) == 0
    assert crank((4, 2, 1, 1)) == -1
    assert crank((3, 3, 1)) == 1


def test_crank_matches_ones_count_definition():
    # crank counts the ones with count(1); ones_count reads the suffix
    for n in range(1, 26):
        for p in enumerate_partitions(n):
            omega = ones_count(p)
            expected = p[0] if omega == 0 else sum(1 for v in p if v > omega) - omega
            assert crank(p) == expected, tuple(p)


def test_statistics_reject_empty():
    for fn in (rank, crank):
        with pytest.raises(ValueError):
            fn(())
    with pytest.raises(ValueError):
        rank_set_contains((), 0)
    # plain counter, fine on the empty partition
    assert ones_count(()) == 0


def test_ones_and_smallest_part():
    assert ones_count((3, 1, 1)) == 2
    assert ones_count((3, 2)) == 0
    assert smallest_part_count((3, 2, 2)) == 2
    assert smallest_part_count((1, 1, 1)) == 3
    assert smallest_part_count((5,)) == 1


def test_rank_negates_under_conjugation():
    for n in range(1, 21):
        for p in enumerate_partitions(n):
            assert rank(conjugate(p)) == -rank(p)


def test_rank_set_small_cases():
    # (2,2): entries -2, -1, then 2, 3, 4, ...
    p = (2, 2)
    assert rank_set_contains(p, -2)
    assert rank_set_contains(p, -1)
    assert not rank_set_contains(p, 0)
    assert not rank_set_contains(p, 1)
    assert rank_set_contains(p, 2)
    assert rank_set_contains(p, 17)


def test_rank_set_single_row():
    # (n): entries -n, 1, 2, 3, ...
    assert rank_set_contains((5,), -5)
    assert not rank_set_contains((5,), -4)
    assert not rank_set_contains((5,), 0)
    assert rank_set_contains((5,), 1)


def test_rank_set_matches_definition():
    # brute-force the defining list: k - p[k] for k < len, then len, len+1, ...
    for n in range(1, 19):
        for p in enumerate_partitions(n):
            entries = {k - p[k] for k in range(len(p))}
            for m in range(-n - 3, n + 4):
                expected = m in entries or m >= len(p)
                assert rank_set_contains(p, m) == expected, (tuple(p), m)


def test_rank_set_conjugation_complement():
    # m is in the rank-set of p iff -m-1 is not in the rank-set of its
    # conjugate; exhaustive over the desk range
    for n in range(1, 26):
        for p in enumerate_partitions(n):
            q = conjugate(p)
            for m in range(-n - 2, n + 3):
                assert rank_set_contains(p, m) != rank_set_contains(q, -m - 1)


partitions_st = st.lists(st.integers(1, 12), min_size=1, max_size=12).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@given(partitions_st, st.integers(-20, 20))
def test_rank_set_complement_property(p, m):
    assert rank_set_contains(p, m) != rank_set_contains(conjugate(p), -m - 1)


def test_statistics_accept_plain_sequences():
    assert rank([3, 1]) == rank((3, 1)) == 1
    assert crank([3, 1]) == 0

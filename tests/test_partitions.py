import pytest
from hypothesis import given, strategies as st

from rankcrank.partitions import (
    conjugate,
    enumerate_partitions,
    partition_count,
    partition_count_series,
)

# first values of the counting function, long enough to catch an
# off-by-one in either recurrence direction
P_SMALL = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
           231, 297, 385, 490, 627]


def test_enumeration_order_n4():
    got = list(enumerate_partitions(4))
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumeration_order_n5():
    got = list(enumerate_partitions(5))
    assert got == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1),
                   (2, 1, 1, 1), (1, 1, 1, 1, 1)]


def test_enumeration_edge_cases():
    assert list(enumerate_partitions(0)) == [()]
    assert list(enumerate_partitions(1)) == [(1,)]
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


def test_enumeration_is_strictly_decreasing_lex():
    for n in range(2, 26):
        prev = None
        for p in enumerate_partitions(n):
            assert sum(p) == n
            if prev is not None:
                assert p < prev
            prev = p


def test_counts_match_enumeration():
    for n in range(0, 21):
        assert partition_count(n) == P_SMALL[n]
        assert sum(1 for _ in enumerate_partitions(n)) == P_SMALL[n]


def test_count_series():
    assert partition_count_series(20) == P_SMALL
    assert partition_count_series(0) == [1]


def test_large_counts():
    # classical reference values
    assert partition_count(100) == 190569292
    assert partition_count(200) == 3972999029388


def test_count_rejects_negative():
    with pytest.raises(ValueError):
        partition_count(-3)


def test_conjugate_known():
    assert conjugate((5, 5, 1)) == (3, 2, 2, 2, 2)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((1, 1, 1)) == (3,)


partitions_st = st.lists(st.integers(1, 15), max_size=12).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@given(partitions_st)
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p
    assert sum(conjugate(p)) == sum(p)


def test_conjugate_transposes_counts():
    # k-th column height counts parts >= k+1
    for n in range(1, 16):
        for p in enumerate_partitions(n):
            q = conjugate(p)
            for k in range(len(q)):
                assert q[k] == sum(1 for v in p if v >= k + 1)


def _lex_descending(n, largest):
    # every partition of n with parts <= largest, largest first part first
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _lex_descending(n - first, first):
            yield (first,) + rest


def test_enumeration_matches_recursive_generator():
    for n in range(0, 31):
        got = list(enumerate_partitions(n))  # compared only once the generator is done
        assert got == list(_lex_descending(n, n))
        assert all(type(p) is tuple and type(conjugate(p)) is tuple for p in got)
        assert len({id(p) for p in got}) == len(got)

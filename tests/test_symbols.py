import pytest
from hypothesis import given, strategies as st

from oracles import from_symbol
from rankcrank.partitions import conjugate, enumerate_partitions
from rankcrank.statistics import rank, rank_set_contains
from rankcrank.symbols import (
    MDurfeeSymbol,
    format_symbol,
    parse_symbol,
    rank_at_least,
    rank_set_has_m,
    to_symbol,
)


def test_worked_symbol_m1():
    # (5,4,3,2,1) with m = 1: 3x2 rectangle, staircase on both sides
    s = to_symbol((5, 4, 3, 2, 1), 1)
    assert s.m == 1 and s.j == 2
    assert s.alpha == (3, 2, 1)
    assert s.beta == (2, 1)
    assert s.weight == 15
    assert from_symbol(s) == (5, 4, 3, 2, 1)


def test_worked_symbol_m0_durfee_square():
    # m = 0 reduces to the square case
    s = to_symbol((4, 3, 3, 2), 0)
    assert s.j == 3
    assert s.m + s.j == 3 and s.j == 3
    assert s.weight == 12
    assert from_symbol(s) == (4, 3, 3, 2)


def test_symbol_j_zero():
    # fewer than m+1 parts: empty rectangle, everything in the top row
    s = to_symbol((4, 2), 3)
    assert s.j == 0
    assert s.beta == ()
    assert s.alpha == (2, 2, 1, 1)
    assert from_symbol(s) == (4, 2)


def test_symbol_empty_partition():
    s = to_symbol((), 2)
    assert s.j == 0 and s.alpha == () and s.beta == ()
    assert s.weight == 0
    assert from_symbol(s) == ()


def test_symbol_validation():
    with pytest.raises(ValueError):
        MDurfeeSymbol(m=1, j=2, alpha=(4,), beta=())  # alpha entry > m+j
    with pytest.raises(ValueError):
        MDurfeeSymbol(m=1, j=2, alpha=(), beta=(3,))  # beta entry > j
    with pytest.raises(ValueError):
        MDurfeeSymbol(m=-1, j=2, alpha=(), beta=())
    with pytest.raises(ValueError):
        MDurfeeSymbol(m=1, j=-1, alpha=(), beta=())
    with pytest.raises(ValueError):
        MDurfeeSymbol(m=1, j=0, alpha=(1,), beta=(1,))  # beta needs j >= 1
    with pytest.raises(ValueError):
        to_symbol((3, 1), -2)


@pytest.mark.parametrize("fields, message", [
    ((1, 2, (4,), ()), "alpha entries must be <= m + j = 3, got (4,)"),
    ((1, 2, (), (3,)), "beta entries must be <= j = 2, got (3,)"),
    ((-1, 2, (), ()), "m must be a non-negative integer, got -1"),
    ((1, -1, (), ()), "j must be a non-negative integer, got -1"),
    (("1", 2, (), ()), "m must be a non-negative integer, got '1'"),
    ((1, 2.0, (), ()), "j must be a non-negative integer, got 2.0"),
    ((1, 0, (1,), (1,)), "beta entries must be <= j = 0, got (1,)"),
    ((1, 2, (1, 2), ()), "alpha must be weakly decreasing, got (1, 2)"),
    ((1, 2, (), (2, 0)), "beta must be positive integers, got 0"),
    ((1, 2, (True,), ()), "alpha must be positive integers, got True"),
    ((1, 2, [2, 1], [1.5]), "beta must be positive integers, got 1.5"),
])
def test_symbol_construction_errors_name_the_bad_field(fields, message):
    with pytest.raises(ValueError) as info:
        MDurfeeSymbol(*fields)
    assert str(info.value) == message
    m, j, alpha, beta = fields
    with pytest.raises(ValueError) as info:
        MDurfeeSymbol(m=m, j=j, alpha=alpha, beta=beta)
    assert str(info.value) == message


def test_symbol_repr_names_every_field():
    s = MDurfeeSymbol(m=2, j=3, alpha=[4, 3, 3, 2], beta=(3, 2, 2, 2))
    assert repr(s) == "MDurfeeSymbol(m=2, j=3, alpha=(4, 3, 3, 2), beta=(3, 2, 2, 2))"


def test_symbol_is_an_immutable_tuple_of_its_fields():
    s = MDurfeeSymbol(m=2, j=3, alpha=(4, 3, 3, 2), beta=(3, 2, 2, 2))
    for field in ("m", "j", "alpha", "beta", "weight"):
        with pytest.raises(AttributeError):
            setattr(s, field, getattr(s, field))
    with pytest.raises(AttributeError):
        s.extra = 1
    assert s == (2, 3, (4, 3, 3, 2), (3, 2, 2, 2))
    assert hash(s) == hash((2, 3, (4, 3, 3, 2), (3, 2, 2, 2)))
    assert tuple(s) == (s.m, s.j, s.alpha, s.beta)


def test_to_symbol_equals_validated_symbol():
    # to_symbol skips re-validation; its symbols must be exactly the ones
    # the validating constructor accepts and builds from the same fields
    for n in range(0, 15):
        for p in enumerate_partitions(n):
            for m in range(0, 5):
                s = to_symbol(p, m)
                validated = MDurfeeSymbol(m, s.j, s.alpha, s.beta)
                assert type(s) is type(validated) is MDurfeeSymbol, (tuple(p), m)
                assert s == validated and hash(s) == hash(validated), (tuple(p), m)
                assert type(s.alpha) is tuple and type(s.beta) is tuple
                assert from_symbol(s) == p
    with pytest.raises(ValueError):
        MDurfeeSymbol(m=1, j=2, alpha=(1, 2), beta=())  # alpha not decreasing
    with pytest.raises(ValueError):
        MDurfeeSymbol(m=1, j=2, alpha=(), beta=(2, 0))  # beta entry not positive


def test_symbol_alpha_is_conjugate_slice():
    # every column right of the rectangle ends inside its m + j rows, so
    # alpha is the whole conjugate's tail right of column j, and to_symbol
    # equals the validated symbol built from the top m + j rows alone
    for n in range(0, 23):
        for p in enumerate_partitions(n):
            columns = conjugate(p)
            for m in range(0, 9):
                s = to_symbol(p, m)
                j = s.j
                assert s == MDurfeeSymbol(m, j, conjugate(p[:m + j])[j:], p[m + j:]), (tuple(p), m)
                assert s.alpha == columns[j:], (tuple(p), m)


def test_round_trip_exhaustive():
    for n in range(0, 26):
        for p in enumerate_partitions(n):
            for m in range(0, 9):
                s = to_symbol(p, m)
                assert s.weight == n
                assert from_symbol(s) == p, (tuple(p), m)


def test_any_valid_symbol_is_canonical():
    # every invariant-satisfying symbol comes back from its own partition
    for m in range(0, 4):
        for j in range(0, 4):
            for a1 in range(0, m + j + 1):
                for b1 in range(0, j + 1):
                    alpha = (a1,) if a1 else ()
                    beta = (b1,) if b1 else ()
                    s = MDurfeeSymbol(m=m, j=j, alpha=alpha, beta=beta)
                    assert to_symbol(from_symbol(s), m) == s


def test_rank_at_least_matches_rank():
    for n in range(1, 22):
        for p in enumerate_partitions(n):
            for m in range(0, 8):
                s = to_symbol(p, m)
                assert rank_at_least(s) == (rank(p) >= -m + 1), (tuple(p), m)


def test_rank_set_has_m_matches_membership():
    for n in range(1, 22):
        for p in enumerate_partitions(n):
            for m in range(0, 8):
                s = to_symbol(p, m)
                assert rank_set_has_m(s) == rank_set_contains(p, m), (tuple(p), m)


def test_symbol_rank_formula():
    # rank = -m + (len(alpha) - len(beta)) whenever the rectangle is nonempty
    for n in range(1, 22):
        for p in enumerate_partitions(n):
            for m in range(0, 6):
                s = to_symbol(p, m)
                if s.j >= 1:
                    assert rank(p) == -m + (len(s.alpha) - len(s.beta))


def test_format_and_parse():
    s = MDurfeeSymbol(m=2, j=3, alpha=(4, 3, 3, 2), beta=(3, 2, 2, 2))
    text = format_symbol(s)
    assert text == "[4,3,3,2 | 3,2,2,2]_(5x3)"
    assert parse_symbol(text) == s
    assert str(s) == text


def test_format_empty_rows():
    s = MDurfeeSymbol(m=2, j=0, alpha=(), beta=())
    assert format_symbol(s) == "[ | ]_(2x0)"
    assert parse_symbol("[ | ]_(2x0)") == s
    assert parse_symbol("[|]_(2x0)") == s
    # spaces around an entry are allowed
    assert parse_symbol("[ 4 ,3, 3 ,2 | 3 , 2,2,2 ]_(5x3)") == parse_symbol(
        "[4,3,3,2 | 3,2,2,2]_(5x3)")


def test_parse_rejects_garbage():
    for bad in ("", "[1 | 2]", "[1 | 2]_(1x2)", "[a | ]_(2x1)",
                "[1,2 | 1]_(2x1)", "[1 | 1]_2x1",
                # an entry is one integer: no inner space, no empty entry
                "[1 2 | ]_(13x1)", "[,1 | ]_(3x1)", "[1, | 1]_(2x1)"):
        with pytest.raises(ValueError):
            parse_symbol(bad)


def test_parse_rejects_cols_exceeding_rows():
    # rows = m + j >= j = cols is forced by m >= 0
    with pytest.raises(ValueError):
        parse_symbol("[1 | 1]_(1x2)")


partitions_st = st.lists(st.integers(1, 14), max_size=14).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@given(partitions_st, st.integers(0, 10))
def test_round_trip_property(p, m):
    s = to_symbol(p, m)
    assert from_symbol(s) == p
    assert parse_symbol(format_symbol(s)) == s

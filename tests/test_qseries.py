import pytest

from oracles import truncated_product
from rankcrank.partitions import partition_count
from rankcrank.qseries import (
    TruncatedSeries,
    euler_inverse,
    euler_product,
    ospt_numerator,
    ospt_series,
    verify_genfun,
)

OSPT = [0, 1, 1, 1, 2, 2, 4, 5, 7, 10, 13]


def test_construction_and_padding():
    s = TruncatedSeries(4, [1, 2])
    assert s.coeffs == [1, 2, 0, 0, 0]
    assert s[1] == 2 and s[4] == 0
    with pytest.raises(ValueError):
        TruncatedSeries(1, [1, 2, 3])
    with pytest.raises(ValueError):
        TruncatedSeries(-1)
    with pytest.raises(IndexError):
        s[5]
    with pytest.raises(IndexError):
        s[-1]


def test_zero_and_one():
    assert TruncatedSeries(3).coeffs == [0, 0, 0, 0]
    assert TruncatedSeries(3, [1]).coeffs == [1, 0, 0, 0]


def test_euler_product_pentagonal_signs():
    # sparse +-1 pattern at generalized pentagonal exponents
    assert euler_product(7).coeffs == [1, -1, -1, 0, 0, 1, 0, 1]
    s = euler_product(30)
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1}
    for n in range(31):
        assert s[n] == expected.get(n, 0)


def test_euler_inverse_counts_partitions():
    s = euler_inverse(100)
    assert s.coeffs[:6] == [1, 1, 2, 3, 5, 7]
    assert s[100] == 190569292
    for n in range(101):
        assert s[n] == partition_count(n)


def test_product_times_inverse_is_one():
    for order in range(41):
        one = truncated_product(euler_product(order).coeffs, euler_inverse(order).coeffs)
        assert one == [1] + [0] * order


def test_ospt_series_is_inverse_times_numerator():
    for order in range(41):
        expected = truncated_product(euler_inverse(order).coeffs, ospt_numerator(order).coeffs)
        assert ospt_series(order) == TruncatedSeries(order, expected)


def test_ospt_numerator_small():
    num = ospt_numerator(4)
    assert num.coeffs == [0, 1, 0, -1, 0]


def test_ospt_series_values():
    s = ospt_series(10)
    assert s[0] == 0
    for n in range(1, 11):
        assert s[n] == OSPT[n]


def test_ospt_series_matches_moments(table30):
    s = ospt_series(30)
    for n in range(1, 31):
        assert s[n] == table30.ospt_moments(n)


def test_verify_genfun_suite(table30):
    rep = verify_genfun(30, table30, tau_limit=10)
    assert rep.suite == "genfun"
    for check in rep.checks:
        assert check.status == "pass", (check.id, check.witness)
    ids = {c.id for c in rep.checks}
    assert "euler-inverse-counts-partitions" in ids
    assert "ospt-series-matches-moments" in ids
    assert "ospt-series-positive" in ids
    assert "ospt-series-matches-tau" in ids

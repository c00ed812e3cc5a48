from oracles import truncated_product
from rankcrank.partitions import partition_count
from rankcrank.qseries import (
    euler_inverse,
    euler_product,
    ospt_numerator,
    ospt_series,
    verify_genfun,
)

OSPT = [0, 1, 1, 1, 2, 2, 4, 5, 7, 10, 13]


def test_euler_product_pentagonal_signs():
    # sparse +-1 pattern at generalized pentagonal exponents
    assert euler_product(7) == [1, -1, -1, 0, 0, 1, 0, 1]
    s = euler_product(30)
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1}
    assert s == [expected.get(n, 0) for n in range(31)]


def test_euler_inverse_counts_partitions():
    s = euler_inverse(100)
    assert s[:6] == [1, 1, 2, 3, 5, 7]
    assert s[100] == 190569292
    assert s == [partition_count(n) for n in range(101)]


def test_product_times_inverse_is_one():
    for order in range(41):
        one = truncated_product(euler_product(order), euler_inverse(order))
        assert one == [1] + [0] * order


def test_ospt_series_is_inverse_times_numerator():
    for order in range(41):
        expected = truncated_product(euler_inverse(order), ospt_numerator(order))
        assert ospt_series(order) == expected


def test_ospt_numerator_small():
    assert ospt_numerator(4) == [0, 1, 0, -1, 0]


def test_ospt_series_values():
    assert ospt_series(10) == OSPT


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

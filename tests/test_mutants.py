"""Mutants of the injection, tau, identities, bounds and genfun suites:
every check must be able to fail.

Each map-suite row patches a map, a statistic or a table read with a
stateless stand-in; each table-suite row corrupts cells of a fresh
`build(8)`, whose stored rows are its whole state, so it reaches the
suites through whatever read path they take; each genfun row shifts one
coefficient of `euler_inverse` or `ospt_numerator`, or corrupts one
`build(8)` cell.  A row runs one suite at a small size and pins the
exact failing check ids with their first witnesses.
A change to a suite's loop must keep every row passing unchanged, and
a row is added for any check that no row makes fail yet.
"""

from typing import Callable, NamedTuple

import pytest

from rankcrank import injections, qseries, reordering, tables
from rankcrank.injections import verify_injections
from rankcrank.reordering import verify_reordering
from rankcrank.symbols import MDurfeeSymbol, to_symbol

real_theta2 = injections.theta2
real_theta3 = injections.theta3
real_classify = injections.classify
real_inj_rank = injections.rank
real_enumerate = reordering.enumerate_partitions
real_rank = reordering.rank
real_crank = reordering.crank
real_euler_inverse = qseries.euler_inverse
real_ospt_numerator = qseries.ospt_numerator


def identity(symbol):
    return symbol


def theta2_extra_one(symbol):
    # theta2's image with one more trailing 1 in delta: one too heavy
    image = real_theta2(symbol)
    return MDurfeeSymbol(image.m, image.j, image.alpha, image.beta + (1,))


def theta3_extra_one(symbol):
    # theta3's image with one more trailing 1 in delta: the P3 weight check
    image = real_theta3(symbol)
    return MDurfeeSymbol(image.m, image.j, image.alpha, image.beta + (1,))


def theta2_to_one_row(symbol):
    # every P2 member onto the symbol of (n), so two members of a scope collide
    return to_symbol((symbol.weight,), symbol.m)


def classify_j0_as_q2(symbol, side):
    # a rectangle-free Q1 symbol read as Q2; no map's own input has j = 0
    cls = real_classify(symbol, side)
    return "Q2" if cls == "Q1" and symbol.j == 0 else cls


def classify_misses_p_at_m0_n3(symbol, side):
    # the P members of weight 3 at m = 0 left without a class
    if side == "P" and symbol.m == 0 and symbol.weight == 3:
        return None
    return real_classify(symbol, side)


def coefficient_shifted(series, n, delta):
    """`series` (a function of the order) with coefficient n moved by `delta`."""
    def shifted(order):
        out = series(order)
        out[n] += delta
        return out
    return shifted


def listing_without_third_at_5(n):
    listing = list(real_enumerate(n))
    if n == 5:
        del listing[2]
    return iter(listing)


def listing_with_third_twice_at_5(n):
    listing = list(real_enumerate(n))
    if n == 5:
        listing.insert(3, listing[2])
    return iter(listing)


def listing_with_second_for_third_at_5(n):
    # p(5) entries with one repeat: a length test alone passes it
    listing = list(real_enumerate(n))
    if n == 5:
        listing[2] = listing[1]
    return iter(listing)


def listing_with_twin_at_10(n):
    # (4, 3, 3) listed as (4, 4, 2), which has its crank 4 and rank 1:
    # p(10) entries with every statistic list intact, and one repeat
    listing = list(real_enumerate(n))
    if n == 10:
        listing[21] = listing[19]
    return iter(listing)


class Shifted:
    """A table whose `method` reads one higher at the given arguments."""

    def __init__(self, table, method, at):
        self._table, self._method, self._at = table, method, at

    def __getattr__(self, name):
        read = getattr(self._table, name)
        if name != self._method:
            return read
        return lambda *args: read(*args) + (args == self._at)


class RowShifted:
    """A table whose whole-row read `method(n)` holds cell m moved by
    `delta`, one higher unless given, at weight `at_n`."""

    def __init__(self, table, method, at_n, m, delta=1):
        self._table, self._method, self._at_n, self._m = table, method, at_n, m
        self._delta = delta

    def __getattr__(self, name):
        read = getattr(self._table, name)
        if name != self._method:
            return read

        def shifted(n):
            row = read(n)
            if n == self._at_n:
                row[self._m + n] += self._delta
            return row
        return shifted


class Mutant(NamedTuple):
    name: str
    module: object
    patches: dict
    failures: dict  # check id -> first witness
    table: Callable = lambda table: table


INJECTION_MUTANTS = [
    Mutant("sigma returns its input", injections, {"sigma": identity},
           {"sigma-inverts-theta2": {"m": 0, "n": 2, "symbol": "[1 | ]_(1x1)"}}),
    Mutant("pi returns its input", injections, {"pi": identity},
           {"pi-inverts-theta3": {"m": 0, "n": 5, "symbol": "[1 | ]_(2x2)"}}),
    Mutant("theta2 and sigma return their input", injections,
           {"theta2": identity, "sigma": identity},
           {"theta-image-in-q": {"m": 0, "n": 2},
            "theta-lands-in-matching-class": {"m": 0, "n": 2, "symbol": "[1 | ]_(1x1)",
                                              "image": "[1 | ]_(1x1)"}}),
    Mutant("theta3 and pi return their input", injections,
           {"theta3": identity, "pi": identity},
           {"theta-image-in-q": {"m": 0, "n": 5},
            "theta-lands-in-matching-class": {"m": 0, "n": 5, "symbol": "[1 | ]_(2x2)",
                                              "image": "[1 | ]_(2x2)"},
            "theta3-image-marker": {"m": 0, "n": 5, "image": "[1 | ]_(2x2)"}}),
    # the real sigma and pi beside a faulty theta2 or theta3, and a faulty
    # classify: each map is applied only where the classes allow it
    Mutant("theta2 returns its input", injections, {"theta2": identity},
           {"theta-image-in-q": {"m": 0, "n": 2},
            "theta-lands-in-matching-class": {"m": 0, "n": 2, "symbol": "[1 | ]_(1x1)",
                                              "image": "[1 | ]_(1x1)"}}),
    Mutant("theta3 returns its input", injections, {"theta3": identity},
           {"theta-image-in-q": {"m": 0, "n": 5},
            "theta-lands-in-matching-class": {"m": 0, "n": 5, "symbol": "[1 | ]_(2x2)",
                                              "image": "[1 | ]_(2x2)"},
            "theta3-image-marker": {"m": 0, "n": 5, "image": "[1 | ]_(2x2)"}}),
    Mutant("P members of 3 at m 0 unclassified", injections,
           {"classify": classify_misses_p_at_m0_n3},
           {"p-classification-covers": {"m": 0, "n": 3, "symbol": "[1,1 | ]_(1x1)"}}),
    Mutant("theta2 adds a trailing 1", injections, {"theta2": theta2_extra_one},
           {"sigma-inverts-theta2": {"m": 0, "n": 2, "symbol": "[1 | ]_(1x1)"},
            "theta-image-in-q": {"m": 0, "n": 2},
            "theta-preserves-weight": {"m": 0, "n": 2, "symbol": "[1 | ]_(1x1)"}}),
    Mutant("theta3 adds a trailing 1", injections, {"theta3": theta3_extra_one},
           {"pi-inverts-theta3": {"m": 0, "n": 5, "symbol": "[1 | ]_(2x2)"},
            "theta-image-in-q": {"m": 0, "n": 5},
            "theta-preserves-weight": {"m": 0, "n": 5, "symbol": "[1 | ]_(2x2)"}}),
    Mutant("theta2 maps onto the one-row symbol", injections,
           {"theta2": theta2_to_one_row, "sigma": identity},
           {"sigma-inverts-theta2": {"m": 1, "n": 3, "symbol": "[1 | ]_(2x1)"},
            "theta-image-in-q": {"m": 0, "n": 2},
            "theta-injective": {"m": 1, "n": 3},
            "theta-lands-in-matching-class": {"m": 0, "n": 2, "symbol": "[1 | ]_(1x1)",
                                              "image": "[1 | ]_(1x1)"}}),
    Mutant("Q1 without a rectangle read as Q2", injections, {"classify": classify_j0_as_q2},
           {"p1-equals-q1": {"m": 1, "n": 2, "symbol": "[1,1 | ]_(1x0)"},
            "theta-lands-in-matching-class": {"m": 1, "n": 2, "symbol": "[1,1 | ]_(1x0)",
                                              "image": "[1,1 | ]_(1x0)"}}),
    Mutant("theta's P3 target read as Q2", injections,
           {"_MATCHING_Q": {"P1": "Q1", "P2": "Q2", "P3": "Q2"}},
           {"theta-lands-in-matching-class": {"m": 0, "n": 5, "symbol": "[1 | ]_(2x2)",
                                              "image": "[1 | 1,1,1]_(1x1)"}}),
    Mutant("every rank one lower", injections, {"rank": lambda lam: real_inj_rank(lam) - 1},
           {"count-gap-matches-tables": {"m": 0, "n": 2, "gap": 1, "q": 1, "p_ge": 1},
            "p-classification-covers": {"m": 0, "n": 2, "symbol": "[1 | ]_(1x1)"},
            "predicates-match-statistics": {"m": 0, "n": 2, "symbol": "[1 | ]_(1x1)"}}),
    Mutant("no rank-set holds m", injections, {"rank_set_contains": lambda lam, m: False},
           {"count-gap-matches-tables": {"m": 0, "n": 2, "gap": -1, "q": 1, "p_ge": 1},
            "count-gap-non-negative": {"m": 0, "n": 2, "gap": -1},
            "predicates-match-statistics": {"m": 0, "n": 2, "symbol": "[ | 1]_(1x1)"},
            "q-classification-covers": {"m": 0, "n": 2, "symbol": "[ | 1]_(1x1)"},
            "theta-image-in-q": {"m": 0, "n": 2}}),
    Mutant("symbol rank predicate always true", injections,
           {"rank_at_least": lambda symbol: True},
           {"predicates-match-statistics": {"m": 0, "n": 2, "symbol": "[ | 1]_(1x1)"}}),
    Mutant("table q(1, 7) one high", injections, {},
           {"count-gap-matches-tables": {"m": 1, "n": 7, "gap": 1, "q": 11, "p_ge": 9}},
           lambda table: Shifted(table, "q_count", (1, 7))),
]

TAU_MUTANTS = [
    Mutant("listing drops a partition of 5", reordering,
           {"enumerate_partitions": listing_without_third_at_5},
           {"ospt-tau-matches-moments": {"n": 5, "tie_break": "lex-descending",
                                         "via_tau": 1, "via_moments": 2},
            "tau-case-condition": {"n": 5, "tie_break": "lex-descending",
                                   "partition": [2, 2, 1], "image": [4, 1], "crank": 1,
                                   "rank_of_image": 2},
            "tau-is-bijection": {"n": 5, "tie_break": "lex-descending", "listed": 6,
                                 "distinct": 6, "p": 7},
            "tau-position-in-cumulative-window": {"n": 5, "tie_break": "lex-descending",
                                                  "position": 5, "partition": [2, 2, 1],
                                                  "image": [4, 1]},
            "tau-transfers-positive-rank-sum": {"n": 5, "tie_break": "lex-descending",
                                                "via_tau": 6, "via_moments": 7}}),
    Mutant("listing repeats a partition of 5", reordering,
           {"enumerate_partitions": listing_with_third_twice_at_5},
           {"tau-case-condition": {"n": 5, "tie_break": "lex-descending",
                                   "partition": [3, 2], "image": [3, 2], "crank": 3,
                                   "rank_of_image": 1},
            "tau-is-bijection": {"n": 5, "tie_break": "lex-descending", "listed": 8,
                                 "distinct": 7, "p": 7},
            "tau-position-in-cumulative-window": {"n": 5, "tie_break": "lex-descending",
                                                  "position": 6, "partition": [3, 2],
                                                  "image": [3, 2]},
            "tau-transfers-positive-rank-sum": {"n": 5, "tie_break": "lex-descending",
                                                "via_tau": 8, "via_moments": 7}}),
    Mutant("listing replaces the third partition of 5 by the second", reordering,
           {"enumerate_partitions": listing_with_second_for_third_at_5},
           {"ospt-tau-matches-moments": {"n": 5, "tie_break": "lex-descending",
                                         "via_tau": 1, "via_moments": 2},
            "tau-case-condition": {"n": 5, "tie_break": "lex-descending",
                                   "partition": [4, 1], "image": [4, 1], "crank": 0,
                                   "rank_of_image": 2},
            "tau-is-bijection": {"n": 5, "tie_break": "lex-descending", "listed": 7,
                                 "distinct": 6, "p": 7},
            "tau-membership-chain": {"n": 5, "tie_break": "lex-descending",
                                     "partition": [4, 1], "image": [4, 1], "crank": 0,
                                     "rank_of_image": 2},
            "tau-position-in-cumulative-window": {"n": 5, "tie_break": "lex-descending",
                                                  "position": 5, "partition": [4, 1],
                                                  "image": [4, 1]},
            "tau-transfers-positive-rank-sum": {"n": 5, "tie_break": "lex-descending",
                                                "via_tau": 6, "via_moments": 7}}),
    Mutant("listing replaces a partition of 10 by its crank and rank twin", reordering,
           {"enumerate_partitions": listing_with_twin_at_10},
           {"tau-is-bijection": {"n": 10, "tie_break": "lex-descending", "listed": 42,
                                 "distinct": 41, "p": 42}}),
    Mutant("every rank negated", reordering, {"rank": lambda lam: -real_rank(lam)},
           {"tau-fixes-single-row-partition": {"n": 2, "tie_break": "lex-descending"}}),
    Mutant("every rank one higher", reordering, {"rank": lambda lam: real_rank(lam) + 1},
           {"ospt-tau-matches-moments": {"n": 2, "tie_break": "lex-descending",
                                         "via_tau": 0, "via_moments": 1},
            "tau-case-condition": {"n": 2, "tie_break": "lex-descending", "partition": [1, 1],
                                   "image": [1, 1], "crank": -2, "rank_of_image": 0},
            "tau-membership-chain": {"n": 3, "tie_break": "lex-descending",
                                     "partition": [2, 1], "image": [2, 1], "crank": 0,
                                     "rank_of_image": 1},
            "tau-position-in-cumulative-window": {"n": 2, "tie_break": "lex-descending",
                                                  "position": 1, "partition": [1, 1],
                                                  "image": [1, 1]},
            "tau-transfers-positive-rank-sum": {"n": 2, "tie_break": "lex-descending",
                                                "via_tau": 2, "via_moments": 1}}),
    Mutant("crank 0 read as 1", reordering, {"crank": lambda lam: real_crank(lam) or 1},
           {"ospt-tau-matches-moments": {"n": 3, "tie_break": "lex-descending",
                                         "via_tau": 2, "via_moments": 1},
            "tau-position-in-cumulative-window": {"n": 3, "tie_break": "lex-descending",
                                                  "position": 2, "partition": [2, 1],
                                                  "image": [2, 1]}}),
    Mutant("table N(1, 5) one high", reordering, {},
           {"tau-transfers-positive-rank-sum": {"n": 5, "tie_break": "lex-descending",
                                                "via_tau": 7, "via_moments": 8}},
           lambda table: Shifted(table, "rank_count", (1, 5))),
    Mutant("table ospt(5) one high", reordering, {},
           {"ospt-tau-matches-moments": {"n": 5, "tie_break": "lex-descending",
                                         "via_tau": 2, "via_moments": 3}},
           lambda table: Shifted(table, "ospt_moments", (5,))),
    Mutant("table row M(0, 5) one high", reordering, {},
           {"tau-position-in-cumulative-window": {"n": 5, "tie_break": "lex-descending",
                                                  "position": 5, "partition": [2, 2, 1],
                                                  "image": [3, 2]}},
           lambda table: RowShifted(table, "crank_row", 5, 0)),
    Mutant("table row N(0, 6) one high", reordering, {},
           {"tau-position-in-cumulative-window": {"n": 6, "tie_break": "lex-descending",
                                                  "position": 7, "partition": [3, 2, 1],
                                                  "image": [4, 1, 1]}},
           lambda table: RowShifted(table, "rank_row", 6, 0)),
]


def _failures(monkeypatch, mutant, run):
    for name, stand_in in mutant.patches.items():
        monkeypatch.setattr(mutant.module, name, stand_in)
    report = run()
    return {c.id: c.witness for c in report.checks if c.status == "fail"}


@pytest.mark.parametrize("mutant", INJECTION_MUTANTS, ids=lambda mutant: mutant.name)
def test_injection_mutant(monkeypatch, table30, mutant):
    run = lambda: verify_injections(3, 12, table=mutant.table(table30))
    assert _failures(monkeypatch, mutant, run) == mutant.failures


@pytest.mark.parametrize("mutant", TAU_MUTANTS, ids=lambda mutant: mutant.name)
def test_tau_mutant(monkeypatch, table30, mutant):
    run = lambda: verify_reordering(10, table=mutant.table(table30))
    assert _failures(monkeypatch, mutant, run) == mutant.failures


def test_every_map_check_fails_under_some_mutant(table30):
    # the tie-break check is the tau suite's one id no row here reaches:
    # tests/test_reordering.py makes it fail with a second-tie-break mutant
    ids = {c.id for c in verify_injections(3, 12, table=table30).checks}
    ids |= {c.id for c in verify_reordering(10, table=table30).checks}
    failing = {check for mutant in INJECTION_MUTANTS + TAU_MUTANTS for check in mutant.failures}
    assert ids - failing == {"ospt-tau-tie-break-independent"}


class CellMutant(NamedTuple):
    name: str
    cells: tuple  # (row, m, n, delta); row "rank", "crank", "q" or "spt"
    failures: dict  # check id -> first witness


def corrupted(cells):
    """A fresh `build(8)` with `cells` shifted in its stored rows.

    Cell m of weight n sits at index m + n + 3 of the padded row; every
    read, cumulations included, is taken from the rows, so nothing else
    needs restoring.
    """
    table = tables.build(8)
    for row, m, n, delta in cells:
        if row == "spt":
            table._spt[n] += delta
        else:
            getattr(table, f"_{row}")[n][m + n + 3] += delta
    return table


# N(1, 2) + 1 moves N_2(2) by 1: 2n p(n) - N_2(n) = 5 is odd
ODD_AT_2 = {"n": 2, "2np-N2": 5}

IDENTITY_MUTANTS = [
    CellMutant("crank M(4, 4) one low", (("crank", 4, 4, -1),), {
        "crank-cum-complement": {"n": 4, "m": 4},
        "crank-cum-equals-rank-set-count": {"n": 4, "m": 4, "cum_crank": 4, "q": 5},
        "crank-row-sums-to-p": {"n": 4, "total": 4, "p": 5},
        "crank-second-moment-is-2np": {"n": 4, "M2": 24, "2np": 40},
        "crank-symmetric-in-m": {"n": 4, "m": 4},
        "cum-chain-nonnegative-m": {"n": 4, "m": 4, "cum_rank_prev": 5, "cum_crank": 4,
                                    "cum_rank": 5},
        "cum-difference-transfer": {"n": 4, "m": 4},
        "spt-moment-routes-agree": {"n": 4, "spt": 10, "M2-N2": 4}}),
    CellMutant("rank N(1, 2) one high", (("rank", 1, 2, 1),), {
        "cum-chain-nonnegative-m": {"n": 2, "m": 2, "cum_rank_prev": 3, "cum_crank": 2,
                                    "cum_rank": 3},
        "cum-difference-transfer": {"n": 2, "m": -4},
        "rank-cum-complement": {"n": 2, "m": -4},
        "rank-first-moment-vanishes": {"n": 2, "N1": 1},
        "rank-row-sums-to-p": {"n": 2, "total": 3, "p": 2},
        "rank-set-count-dominates-rank-tail": {"n": 2, "m": 0, "q": 1, "p_ge": 2},
        "rank-symmetric-in-m": {"n": 2, "m": 1},
        "spt-moment-routes-agree": ODD_AT_2,
        "spt-tally-matches-moments": ODD_AT_2}),
    CellMutant("rank N(+-8, 8) one high", (("rank", 8, 8, 1), ("rank", -8, 8, 1)), {
        "cum-chain-negative-m": {"n": 8, "m": -7, "cum_rank": 2, "cum_crank": 1,
                                 "cum_rank_next": 2},
        "cum-chain-nonnegative-m": {"n": 8, "m": 3, "cum_rank_prev": 18, "cum_crank": 17,
                                    "cum_rank": 20},
        "cum-difference-transfer": {"n": 8, "m": -10},
        "rank-cum-complement": {"n": 8, "m": -10},
        "rank-row-sums-to-p": {"n": 8, "total": 24, "p": 22},
        "rank-set-count-dominates-rank-tail": {"n": 8, "m": 3, "q": 17, "p_ge": 18},
        "spt-tally-matches-moments": {"n": 8, "tally": 57, "moments": -7}}),
    CellMutant("q(0, 3) one high", (("q", 0, 3, 1),), {
        "crank-cum-complement": {"n": 3, "m": -1},
        "crank-cum-equals-rank-set-count": {"n": 3, "m": 0, "cum_crank": 2, "q": 3},
        "cum-difference-transfer": {"n": 3, "m": -1}}),
    CellMutant("spt tally of 5 one high", (("spt", 0, 5, 1),), {
        "spt-tally-matches-moments": {"n": 5, "tally": 15, "moments": 14}}),
]

BOUNDS_MUTANTS = [
    CellMutant("rank N(+-8, 8) one high", (("rank", 8, 8, 1), ("rank", -8, 8, 1)), {
        "crank-even-moment-dominates-k1": {"n": 8, "k": 1, "M2k": 352, "N2k": 366},
        "crank-even-moment-dominates-k2": {"n": 8, "k": 2, "M2k": 13288, "N2k": 15150},
        "crank-even-moment-dominates-k3": {"n": 8, "k": 3, "M2k": 666952, "N2k": 802206},
        "ospt-positive": {"n": 8, "ospt": -1},
        "spt-at-least-sqrt-6n-over-pi-p": {"n": 8, "spt": -7, "p": 22}}),
    CellMutant("rank N(+-8, 8) one low", (("rank", 8, 8, -1), ("rank", -8, 8, -1)), {
        "ospt-at-most-half-crank-zero-gap": {"n": 8, "ospt": 15, "p": 22, "M0": 2},
        "spt-at-most-abs-crank-sum": {"n": 8, "spt": 121, "abs_crank_sum": 72},
        "spt-at-most-sqrt-2n-p": {"n": 8, "spt": 121, "p": 22},
        "spt-at-most-sqrt-n-p": {"n": 8, "spt": 121, "p": 22}}),
    CellMutant("rank N(1, 2) one high", (("rank", 1, 2, 1),), {
        "ospt-positive": {"n": 2, "ospt": 0},
        "spt-at-most-abs-crank-sum": ODD_AT_2,
        "spt-at-most-sqrt-2n-p": ODD_AT_2}),
    CellMutant("crank M(+-2, 2) two high", (("crank", 2, 2, 2), ("crank", -2, 2, 2)), {
        "abs-crank-sum-at-most-sqrt-2n-p": {"n": 2, "abs_crank_sum": 12, "p": 2},
        "ospt-at-most-half-crank-zero-gap": {"n": 2, "ospt": 5, "p": 2, "M0": 0}}),
    CellMutant("crank M(0, 4) one high", (("crank", 0, 4, 1),), {
        "ospt-at-most-half-crank-zero-gap": {"n": 4, "ospt": 2, "p": 5, "M0": 2}}),
]

GENFUN_MUTANTS = [
    Mutant("euler_inverse coefficient 5 one high", qseries,
           {"euler_inverse": coefficient_shifted(real_euler_inverse, 5, 1)},
           {"euler-inverse-counts-partitions": {"n": 5, "coefficient": 8, "p": 7},
            "ospt-series-matches-moments": {"n": 6, "coefficient": 5, "moments": 4},
            "ospt-series-matches-tau": {"n": 6, "coefficient": 5, "tau": 4}}),
    Mutant("ospt_numerator coefficient 3 one high", qseries,
           {"ospt_numerator": coefficient_shifted(real_ospt_numerator, 3, 1)},
           {"ospt-series-matches-moments": {"n": 3, "coefficient": 2, "moments": 1},
            "ospt-series-matches-tau": {"n": 3, "coefficient": 2, "tau": 1}}),
    # n = 9 lies past the table (nmax 8) and within the tau range (10)
    Mutant("ospt_numerator coefficient 9 one high", qseries,
           {"ospt_numerator": coefficient_shifted(real_ospt_numerator, 9, 1)},
           {"ospt-series-matches-tau": {"n": 9, "coefficient": 11, "tau": 10}}),
    # ospt(12) = 24 lowered to 0: positivity is strict
    Mutant("ospt_numerator coefficient 12 down 24", qseries,
           {"ospt_numerator": coefficient_shifted(real_ospt_numerator, 12, -24)},
           {"ospt-series-positive": {"n": 12, "coefficient": 0}}),
    Mutant("crank M(1, 6) one high", qseries, {},
           {"ospt-series-matches-moments": {"n": 6, "coefficient": 4, "moments": 5}},
           lambda table: corrupted((("crank", 1, 6, 1),))),
]


def genfun_at_20(table):
    return qseries.verify_genfun(20, table, tau_limit=10)


def _table_failures(report):
    return {c.id: c.witness for c in report.checks if c.status == "fail"}


@pytest.mark.parametrize("mutant", IDENTITY_MUTANTS, ids=lambda mutant: mutant.name)
def test_identities_mutant(mutant):
    assert _table_failures(tables.verify_identities(corrupted(mutant.cells))) == mutant.failures


@pytest.mark.parametrize("mutant", BOUNDS_MUTANTS, ids=lambda mutant: mutant.name)
def test_bounds_mutant(mutant):
    assert _table_failures(tables.verify_bounds(corrupted(mutant.cells))) == mutant.failures


@pytest.mark.parametrize("mutant", GENFUN_MUTANTS, ids=lambda mutant: mutant.name)
def test_genfun_mutant(monkeypatch, mutant):
    run = lambda: genfun_at_20(mutant.table(tables.build(8)))
    assert _failures(monkeypatch, mutant, run) == mutant.failures


def test_every_table_check_fails_under_some_mutant():
    table = tables.build(8)
    for suite, mutants in ((tables.verify_identities, IDENTITY_MUTANTS),
                           (tables.verify_bounds, BOUNDS_MUTANTS),
                           (genfun_at_20, GENFUN_MUTANTS)):
        ids = {c.id for c in suite(table).checks}
        assert ids == {check for mutant in mutants for check in mutant.failures}

import pytest

from oracles import from_symbol
from rankcrank import injections
from rankcrank.injections import (
    classify,
    pi,
    sigma,
    theta,
    theta2,
    theta3,
    verify_injections,
)
from rankcrank.partitions import enumerate_partitions
from rankcrank.symbols import (
    MDurfeeSymbol,
    parse_symbol,
    rank_at_least,
    rank_set_has_m,
    to_symbol,
)


def sym(m, j, alpha=(), beta=()):
    return MDurfeeSymbol(m=m, j=j, alpha=tuple(alpha), beta=tuple(beta))


def test_classify_p_side():
    assert classify(sym(1, 0), "P") == "P1"
    assert classify(sym(1, 2, (2, 1), (2,)), "P") == "P1"     # beta1 = j
    assert classify(sym(1, 2, (2, 1), (1,)), "P") == "P2"     # beta1 = j-1
    assert classify(sym(0, 1, (1,), ()), "P") == "P2"         # empty beta, j = 1
    assert classify(sym(1, 3, (3, 1), (1,)), "P") == "P3"     # beta1 <= j-2
    assert classify(sym(1, 2, (1,), (1, 1, 1)), "P") is None  # rank too small


def test_classify_q_side():
    # family membership needs j = 0 or a full-height first bottom entry
    assert classify(sym(2, 0), "Q") == "Q1"
    assert classify(sym(1, 1, (2, 1), (1,)), "Q") == "Q1"     # len gap <= -1
    assert classify(sym(1, 2, (1, 1), (2, 1, 1)), "Q") == "Q2"
    assert classify(sym(1, 2, (3,), (2,)), "Q") == "Q3"       # gamma1 = m+j
    assert classify(sym(1, 2, (2,), (1,)), "Q") is None       # m not in rank-set


def test_classify_rejects_bad_side():
    with pytest.raises(ValueError):
        classify(sym(1, 0), "X")


def test_theta2_worked_example():
    # top loses 1 from every entry, bottom gains 1 and pads with ones
    s = sym(1, 2, (2, 2, 1), (1,))
    assert sum(from_symbol(s)) == 12
    image = theta2(s)
    assert image == sym(1, 2, (1, 1), (2, 1, 1))
    assert image.weight == 12
    assert classify(image, "Q") == "Q2"
    assert sigma(image) == s


def test_theta2_minimal_example():
    # smallest P2 member: empty bottom row, one-column rectangle
    s = sym(0, 1, (1,), ())
    image = theta2(s)
    assert image == sym(0, 1, (), (1,))
    assert sigma(image) == s


def test_theta3_worked_example():
    # rectangle shrinks by one row and one column; both sides gain a
    # leading entry and the bottom pads with ones
    s = sym(1, 3, (3, 1), (1,))
    assert s.weight == 17
    assert sum(from_symbol(s)) == 17
    image = theta3(s)
    assert image == sym(1, 2, (3, 2), (2, 2, 1, 1))
    assert image.weight == 17
    assert classify(image, "Q") == "Q3"
    assert pi(image) == s


def test_theta3_minimal_example():
    # smallest P3 member: bare 2x2 rectangle plus one top entry
    s = sym(0, 2, (1,), ())
    assert s.weight == 5
    image = theta3(s)
    assert image == sym(0, 1, (1,), (1, 1, 1))
    assert image.weight == 5
    assert classify(image, "Q") == "Q3"
    assert pi(image) == s


def test_theta_dispatch():
    p1 = sym(1, 2, (2, 1), (2,))
    p2 = sym(1, 2, (2, 2, 1), (1,))
    p3 = sym(1, 3, (3, 1), (1,))
    p1_j0 = sym(2, 0, (2, 1))
    # identity on P1, with j >= 1 and with j = 0
    assert theta(p1, classify(p1, "P")) is p1
    assert theta(p1_j0, classify(p1_j0, "P")) is p1_j0
    assert theta(p2, classify(p2, "P")) == theta2(p2)
    assert theta(p3, classify(p3, "P")) == theta3(p3)
    outside = sym(1, 2, (1,), (1, 1, 1))  # outside the rank family
    with pytest.raises(ValueError):
        theta(outside, classify(outside, "P"))


def test_injection_preconditions():
    with pytest.raises(ValueError):
        theta2(sym(1, 2, (2, 1), (2,)))  # P1, not P2
    with pytest.raises(ValueError):
        theta3(sym(1, 2, (2, 1), (1,)))  # P2, not P3
    with pytest.raises(ValueError):
        sigma(sym(1, 2, (1, 1), (2, 2)))  # bottom does not end in 1
    with pytest.raises(ValueError):
        sigma(sym(1, 2, (1, 1), ()))  # empty bottom
    with pytest.raises(ValueError):
        pi(sym(1, 2, (3, 2), (2, 2)))  # missing the double-one marker
    with pytest.raises(ValueError):
        pi(sym(1, 2, (2, 1), (1, 1)))  # gamma1 < m+j, not a theta3 image


@pytest.mark.parametrize("op, symbol, message", [
    (theta2, sym(1, 2, (2, 1), (2,)), "theta2 needs a P2 symbol, got P1: [2,1 | 2]_(3x2)"),
    (theta2, sym(1, 2, (1,), (1, 1, 1)),
     "theta2 needs a P2 symbol, got non-member: [1 | 1,1,1]_(3x2)"),
    (theta3, sym(1, 2, (2, 1), (1,)), "theta3 needs a P3 symbol, got P2: [2,1 | 1]_(3x2)"),
    (sigma, sym(1, 2, (3,), (2,)), "sigma needs a Q2 symbol, got Q3: [3 | 2]_(3x2)"),
    (pi, sym(1, 2, (1, 1), (2, 1, 1)), "pi needs a Q3 symbol, got Q2: [1,1 | 2,1,1]_(3x2)"),
    (pi, sym(1, 2, (2, 1), (1, 1)), "pi needs a Q3 symbol, got non-member: [2,1 | 1,1]_(3x2)"),
])
def test_precondition_error_names_both_classes(op, symbol, message):
    with pytest.raises(ValueError) as info:
        op(symbol)
    assert str(info.value) == message


# Each guard of sigma and pi past its class check, with a symbol of the
# map's own Q class just outside the guard (rejected with this text) and
# the nearest one just inside it (mapped to this image).
@pytest.mark.parametrize("op, outside, message, inside, image", [
    (sigma, "[ | 2,2]_(3x2)", "sigma needs a trailing 1 in delta: [ | 2,2]_(3x2)",
     "[ | 2,1]_(3x2)", "[1,1 | 1]_(3x2)"),
    (pi, "[1 | 1]_(1x1)", "pi needs len(delta) - len(gamma) >= 1: [1 | 1]_(1x1)",
     "[1 | 1,1]_(1x1)", "[ | ]_(2x2)"),
    (pi, "[2 | 2,2]_(2x2)", "pi needs delta to end in two 1s: [2 | 2,2]_(2x2)",
     "[2 | 2,1,1]_(2x2)", "[1 | ]_(3x3)"),
    (pi, "[2 | 2,1]_(2x2)", "pi needs delta to end in two 1s: [2 | 2,1]_(2x2)",
     "[2 | 2,1,1]_(2x2)", "[1 | ]_(3x3)"),
])
def test_map_guard_boundaries(op, outside, message, inside, image):
    wanted = "Q2" if op is sigma else "Q3"
    assert classify(parse_symbol(outside), "Q") == classify(parse_symbol(inside), "Q") == wanted
    with pytest.raises(ValueError) as info:
        op(parse_symbol(outside))
    assert str(info.value) == message
    assert op(parse_symbol(inside)) == parse_symbol(image)


def test_theta_image_weights_and_classes_exhaustive():
    for n in range(2, 16):
        for p in enumerate_partitions(n):
            for m in range(0, 5):
                s = to_symbol(p, m)
                cls = classify(s, "P")
                assert (cls is not None) == rank_at_least(s)
                if cls is None:
                    continue
                image = theta(s, cls)
                assert image.weight == n
                assert rank_set_has_m(image)
                q_cls = classify(image, "Q")
                assert q_cls is not None
                assert q_cls[1:] == cls[1:]
                if cls == "P2":
                    assert sigma(image) == s
                elif cls == "P3":
                    assert pi(image) == s


def test_theta_injective_small():
    for n in range(2, 16):
        for m in range(0, 5):
            seen = {}
            for p in enumerate_partitions(n):
                s = to_symbol(p, m)
                cls = classify(s, "P")
                if cls is None:
                    continue
                image = theta(s, cls)
                assert image not in seen, (tuple(p), m)
                seen[image] = s


def test_verify_injections_suite(table30):
    rep = verify_injections(5, 22, table=table30)
    assert rep.suite == "injections"
    for check in rep.checks:
        assert check.status == "pass", (check.id, check.witness)
    ids = {c.id for c in rep.checks}
    assert "theta-injective" in ids
    assert "count-gap-matches-tables" in ids
    assert rep.ok


def test_verify_injections_lists_map_checks_only_where_a_member_exists(table30):
    # a per-symbol check over an empty list records nothing: through n = 4
    # no scope holds a P3 member, so neither P3 check is listed
    ids = {c.id for c in verify_injections(0, 4, table=table30).checks}
    assert ids == {"count-gap-matches-tables", "count-gap-non-negative",
                   "p-classification-covers", "p1-equals-q1", "predicates-match-statistics",
                   "q-classification-covers", "sigma-inverts-theta2", "theta-image-in-q",
                   "theta-injective", "theta-lands-in-matching-class",
                   "theta-preserves-weight"}
    ids_at_5 = {c.id for c in verify_injections(0, 5, table=table30).checks}
    assert ids_at_5 == ids | {"theta3-image-marker", "pi-inverts-theta3"}


def test_verify_injections_rejects_bad_range(table30):
    with pytest.raises(ValueError):
        verify_injections(3, 1, table=table30)


def test_verify_injections_failure_witness(monkeypatch, table30):
    # a sigma that returns its input never inverts theta2: the lazy witness
    # must name the P2 symbol it was given, not its image
    monkeypatch.setattr(injections, "sigma", lambda symbol: symbol)
    rep = verify_injections(2, 8, table=table30)
    failed = {c.id: c.witness for c in rep.checks if c.status == "fail"}
    assert set(failed) == {"sigma-inverts-theta2"}
    witness = failed["sigma-inverts-theta2"]
    assert set(witness) == {"m", "n", "symbol"}
    symbol = parse_symbol(witness["symbol"])
    assert symbol.weight == witness["n"] and symbol.m == witness["m"]
    assert classify(symbol, "P") == "P2"
    assert witness == {"m": 0, "n": 2, "symbol": "[1 | ]_(1x1)"}


def test_verify_injections_classifies_once_per_side(monkeypatch, table30):
    # the suite classifies each symbol once per side; past that, only a
    # P2/P3 member pays: the checking theta2/theta3, its image's Q class,
    # and the checking sigma/pi
    symbols = mapped = 0
    for n in range(2, 15):
        for p in enumerate_partitions(n):
            for m in range(0, 4):
                symbols += 1
                mapped += classify(to_symbol(p, m), "P") in ("P2", "P3")
    assert mapped > 0
    calls = 0
    real = injections.classify

    def counted(symbol, side):
        nonlocal calls
        calls += 1
        return real(symbol, side)

    monkeypatch.setattr(injections, "classify", counted)
    assert verify_injections(3, 14, table=table30).ok
    assert calls <= 2 * symbols + 3 * mapped


def classify_with_predicates(symbol, side):
    # classify as written before it inlined the membership tests: the
    # symbol predicates first, then the class split
    j = symbol.j
    if side == "P":
        if not rank_at_least(symbol):
            return None
        if j == 0:
            return "P1"
        b1 = symbol.beta[0] if symbol.beta else 0
        if b1 == j:
            return "P1"
        if b1 == j - 1:
            return "P2"
        return "P3"
    if not rank_set_has_m(symbol):
        return None
    if j == 0 or len(symbol.beta) - len(symbol.alpha) <= -1:
        return "Q1"
    g1 = symbol.alpha[0] if symbol.alpha else 0
    if g1 < symbol.m + j:
        return "Q2"
    return "Q3"


def test_classify_agrees_with_the_symbol_predicates():
    # classify tests family membership from the unpacked fields; it must
    # agree with the predicates and with the predicate-based split
    seen = set()
    for n in range(0, 15):
        for p in enumerate_partitions(n):
            for m in range(0, 5):
                s = to_symbol(p, m)
                for side, member in (("P", rank_at_least), ("Q", rank_set_has_m)):
                    cls = classify(s, side)
                    assert (cls is not None) == member(s), (tuple(p), m, side)
                    assert cls == classify_with_predicates(s, side), (tuple(p), m, side)
                    seen.add(cls)
    assert seen == {"P1", "P2", "P3", "Q1", "Q2", "Q3", None}

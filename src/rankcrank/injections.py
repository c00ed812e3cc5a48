"""Weight-preserving injections between rank-tail and rank-set symbol classes.

Fix m >= 0 and n >= 1, and write symbols for partitions of n via their
m-Durfee rectangle decomposition (alpha | beta)_(m+j)xj.  Two families:

* P(-m+1, n): symbols of partitions with rank >= -m + 1, split into
    P1: j = 0, or j >= 1 and beta[0] = j
    P2: j >= 1 and beta[0] = j - 1
    P3: j >= 2 and beta[0] <= j - 2
  (an empty beta reads as beta[0] = 0, so j = 1 with empty beta is P2);

* Q(m, n): symbols of partitions whose rank-set contains m, written
  (gamma | delta)_(m+j')xj' (so delta[0] = j' whenever j' >= 1), split into
    Q1: j' = 0, or j' >= 1 and len(delta) - len(gamma) <= -1
    Q2: j' >= 1, len(delta) - len(gamma) >= 0, and gamma[0] < m + j'
    Q3: j' >= 1, len(delta) - len(gamma) >= 0, and gamma[0] = m + j'
  (an empty gamma reads as gamma[0] = 0).

A class is its name: `classify` returns one of the six strings above
(or None), and the maps and the suite compare names with ``==``.

Each split is a disjoint cover of its family, P1 = Q1 as sets, and the
maps below send P2 into Q2 and P3 into Q3 injectively, preserving the
weight.  `theta` dispatches on the class (identity on P1), so it is a
weight-preserving injection of P(-m+1, n) into Q(m, n); the count gap
#Q - #P is therefore non-negative, which is the engine behind the
cumulation inequalities checked in the tables module.

Every map validates its precondition eagerly and raises ValueError on
a symbol outside its domain; nothing is silently coerced.
"""

from __future__ import annotations

from .partitions import conjugate, enumerate_partitions
from .report import CheckRecorder, VerifyReport
from .statistics import rank, rank_set_contains
from .symbols import MDurfeeSymbol, _symbol, format_symbol, rank_at_least, rank_set_has_m


def classify(symbol: MDurfeeSymbol, side: str) -> str | None:
    """The symbol's class, "P1"/"P2"/"P3" or "Q1"/"Q2"/"Q3", or None if not in the family.

    A class is its name, the string the command line's `--case` takes.
    side "P" requires membership in P(-m+1, n) (rank >= -m + 1);
    side "Q" requires membership in Q(m, n) (m in the rank-set).  The
    membership tests are `rank_at_least` and `rank_set_has_m`, read
    here from the unpacked fields.
    """
    m, j, alpha, beta = symbol
    if side == "P":
        if j == 0:
            return "P1"
        if len(beta) >= len(alpha):
            return None
        b1 = beta[0] if beta else 0
        if b1 == j:
            return "P1"
        if b1 == j - 1:
            return "P2"
        return "P3"
    if side == "Q":
        if j == 0:
            return "Q1"
        if not beta or beta[0] != j:
            return None
        if len(beta) < len(alpha):
            return "Q1"
        g1 = alpha[0] if alpha else 0
        if g1 < m + j:
            return "Q2"
        return "Q3"
    raise ValueError(f"side must be 'P' or 'Q', got {side!r}")


def _require(symbol: MDurfeeSymbol, wanted: str, op: str) -> None:
    got = classify(symbol, wanted[0])
    if got != wanted:
        raise ValueError(
            f"{op} needs a {wanted} symbol, got {got or 'non-member'}: {format_symbol(symbol)}")


def theta2(symbol: MDurfeeSymbol) -> MDurfeeSymbol:
    """P2 -> Q2, keeping the rectangle.

    Top row drops by one (zeros are removed); bottom row gains one on
    each entry and is padded with ones back up to the old top length:

      (a_1..a_s | b_1..b_t)  ->  (a_1-1..a_s-1 | b_1+1..b_t+1, 1^(s-t)).

    The new bottom leads with (j-1)+1 = j, so m enters the rank-set.
    """
    _require(symbol, "P2", "theta2")
    s, t = len(symbol.alpha), len(symbol.beta)
    gamma = [a - 1 for a in symbol.alpha if a > 1]
    delta = [b + 1 for b in symbol.beta] + [1] * (s - t)
    return MDurfeeSymbol(m=symbol.m, j=symbol.j, alpha=gamma, beta=delta)


def sigma(symbol: MDurfeeSymbol) -> MDurfeeSymbol:
    """Inverse of theta2 on its image: Q2 symbols whose delta ends in 1.

      (g_1..g_s' | d_1..d_t')  ->  (g_1+1..g_s'+1, 1^(t'-s') | d_1-1..d_t'-1)

    with zero bottom entries removed.
    """
    _require(symbol, "Q2", "sigma")
    if not symbol.beta or symbol.beta[-1] != 1:
        raise ValueError(f"sigma needs a trailing 1 in delta: {format_symbol(symbol)}")
    s, t = len(symbol.alpha), len(symbol.beta)
    alpha = [g + 1 for g in symbol.alpha] + [1] * (t - s)
    beta = [d - 1 for d in symbol.beta if d > 1]
    return MDurfeeSymbol(m=symbol.m, j=symbol.j, alpha=alpha, beta=beta)


def theta3(symbol: MDurfeeSymbol) -> MDurfeeSymbol:
    """P3 -> Q3, shrinking the rectangle to (m+j-1) x (j-1).

      (a_1..a_s | b_1..b_t)
        ->  (m+j-1, a_1-1..a_s-1 | j-1, b_1+1..b_t+1, 1^(s-t+1))

    (zero top entries removed).  The image is marked by its bottom row
    ending in two 1s, which `pi` requires.
    """
    _require(symbol, "P3", "theta3")
    s, t = len(symbol.alpha), len(symbol.beta)
    m, j = symbol.m, symbol.j
    gamma = [m + j - 1] + [a - 1 for a in symbol.alpha if a > 1]
    delta = [j - 1] + [b + 1 for b in symbol.beta] + [1] * (s - t + 1)
    return MDurfeeSymbol(m=m, j=j - 1, alpha=gamma, beta=delta)


def pi(symbol: MDurfeeSymbol) -> MDurfeeSymbol:
    """Inverse of theta3 on its image: Q3 symbols with len(delta) - len(gamma)
    >= 1 whose delta ends in two 1s.  The rectangle grows back to
    (m+j'+1) x (j'+1); the leading entries of both rows are consumed:

      (g_1..g_s' | d_1..d_t')
        ->  (g_2+1..g_s'+1, 1^(t'-s'-1) | d_2-1..d_t'-1)

    (zero bottom entries removed).
    """
    _require(symbol, "Q3", "pi")
    s, t = len(symbol.alpha), len(symbol.beta)
    if t - s < 1:
        raise ValueError(f"pi needs len(delta) - len(gamma) >= 1: {format_symbol(symbol)}")
    if t < 2 or symbol.beta[-1] != 1 or symbol.beta[-2] != 1:
        raise ValueError(f"pi needs delta to end in two 1s: {format_symbol(symbol)}")
    alpha = [g + 1 for g in symbol.alpha[1:]] + [1] * (t - s - 1)
    beta = [d - 1 for d in symbol.beta[1:] if d > 1]
    return MDurfeeSymbol(m=symbol.m, j=symbol.j + 1, alpha=alpha, beta=beta)


def theta(symbol: MDurfeeSymbol) -> MDurfeeSymbol:
    """The combined injection P(-m+1, n) -> Q(m, n): dispatch by class."""
    return _theta_by_class(symbol, classify(symbol, "P"))


def _theta_by_class(symbol: MDurfeeSymbol, cls: str | None) -> MDurfeeSymbol:
    # theta on a symbol whose P class `cls` is already known
    if cls == "P1":
        return symbol
    if cls == "P2":
        return theta2(symbol)
    if cls == "P3":
        return theta3(symbol)
    raise ValueError(f"theta needs rank >= -m + 1: {format_symbol(symbol)}")


# the Q class each P class lands in under theta
_MATCHING_Q = {"P1": "Q1", "P2": "Q2", "P3": "Q3"}


def verify_injections(mmax: int, nmax: int, table) -> VerifyReport:
    """Exhaustively verify the injection machinery for 0 <= m <= mmax, 2 <= n <= nmax.

    For every partition of every n, both families are built from the
    partition-level statistics (rank and rank-set membership) and
    cross-checked against the symbol-level predicates.  Checks: the
    class splits cover each family disjointly, P1 = Q1 as sets, theta2
    and theta3 land in Q2 and Q3 with weight preserved and round-trip
    through sigma and pi, theta is globally injective, and the count
    gap #Q - #P matches q(m, n) - p_ge(-m+1, n) from the given table.

    Each (n, m) is one scope.  Its symbols are scanned for each check's
    first failure, and each check is then recorded once per scope; the
    round-trip and marker checks only in scopes holding a P2 or P3
    member.  Each symbol is classified once per side, and theta is
    applied from its P class.  A P1 image is the symbol itself, so its
    Q class is the symbol's own; each P2/P3 image, built by the
    precondition-checking theta2/theta3, is classified once on the Q
    side.
    """
    if mmax < 0 or nmax < 2:
        raise ValueError("need mmax >= 0 and nmax >= 2")
    rec = CheckRecorder()
    for n in range(2, nmax + 1):
        partitions = list(enumerate_partitions(n))
        ranks = [rank(lam) for lam in partitions]
        # each symbol slices alpha from its partition's one conjugate
        columns = [conjugate(lam) for lam in partitions]
        for m in range(0, mmax + 1):
            p_floor = 1 - m
            # check id -> the symbols its first failure in this scope names
            first_bad: dict[str, dict[str, MDurfeeSymbol]] = {}
            # (symbol, P class, Q class) of each P member
            p_members: list[tuple[MDurfeeSymbol, str, str | None]] = []
            q_members: list[MDurfeeSymbol] = []
            for lam, lam_rank, lam_columns in zip(partitions, ranks, columns):
                sym = _symbol(lam, lam_columns, m)
                in_p = lam_rank >= p_floor
                in_q = rank_set_contains(lam, m)
                if rank_at_least(sym) != in_p or rank_set_has_m(sym) != in_q:
                    first_bad.setdefault("predicates-match-statistics", {"symbol": sym})
                p_cls = classify(sym, "P")
                q_cls = classify(sym, "Q")
                if (p_cls is not None) != in_p:
                    first_bad.setdefault("p-classification-covers", {"symbol": sym})
                if (q_cls is not None) != in_q:
                    first_bad.setdefault("q-classification-covers", {"symbol": sym})
                if in_p:
                    p_members.append((sym, p_cls, q_cls))
                if in_q:
                    q_members.append(sym)
                if (p_cls == "P1") != (q_cls == "Q1"):
                    first_bad.setdefault("p1-equals-q1", {"symbol": sym})
            images = []
            has_p2 = has_p3 = False
            for sym, cls, sym_q_cls in p_members:
                if cls == "P1":
                    # a P1 image is the symbol itself, whose Q class is known
                    image, image_cls = sym, sym_q_cls
                    weight_kept = sym.weight == n
                else:
                    image = _theta_by_class(sym, cls)
                    image_cls = classify(image, "Q")
                    weight_kept = image.weight == sym.weight == n
                images.append(image)
                if not weight_kept:
                    first_bad.setdefault("theta-preserves-weight", {"symbol": sym})
                if image_cls != _MATCHING_Q[cls]:
                    first_bad.setdefault("theta-lands-in-matching-class",
                                         {"symbol": sym, "image": image})
                if cls == "P2":
                    has_p2 = True
                    if sigma(image) != sym:
                        first_bad.setdefault("sigma-inverts-theta2", {"symbol": sym})
                elif cls == "P3":
                    has_p3 = True
                    if not (len(image.beta) >= 2 and image.beta[-1] == image.beta[-2] == 1):
                        first_bad.setdefault("theta3-image-marker", {"image": image})
                    if pi(image) != sym:
                        first_bad.setdefault("pi-inverts-theta3", {"symbol": sym})
            # each check is recorded in the scopes holding an instance of it
            checks = ["predicates-match-statistics", "p-classification-covers",
                      "q-classification-covers", "p1-equals-q1"]
            if p_members:
                checks += ("theta-preserves-weight", "theta-lands-in-matching-class")
            if has_p2:
                checks.append("sigma-inverts-theta2")
            if has_p3:
                checks += ("theta3-image-marker", "pi-inverts-theta3")
            for check in checks:
                bad = first_bad.get(check)
                rec.expect(check, bad is None, None if bad is None else {
                    "m": m, "n": n, **{key: format_symbol(s) for key, s in bad.items()}})
            image_set = set(images)
            rec.expect(
                "theta-injective",
                len(image_set) == len(images),
                lambda: {"m": m, "n": n},
            )
            rec.expect(
                "theta-image-in-q",
                image_set <= set(q_members),
                lambda: {"m": m, "n": n},
            )
            gap = len(q_members) - len(p_members)
            rec.expect(
                "count-gap-non-negative",
                gap >= 0,
                lambda: {"m": m, "n": n, "gap": gap},
            )
            rec.expect(
                "count-gap-matches-tables",
                gap == table.q_count(m, n) - table.p_ge(-m + 1, n),
                lambda: {"m": m, "n": n, "gap": gap,
                         "q": table.q_count(m, n), "p_ge": table.p_ge(-m + 1, n)},
            )
    return rec.report("injections", {"mmax": mmax, "nmin": 2, "nmax": nmax})

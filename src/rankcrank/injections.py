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
weight.  `theta` dispatches on the P class (identity on P1), so it is a
weight-preserving injection of P(-m+1, n) into Q(m, n); the count gap
#Q - #P is therefore non-negative, which is the engine behind the
cumulation inequalities checked in the tables module.

Every map validates its precondition eagerly and raises ValueError on
a symbol outside its domain; nothing is silently coerced.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import eq, ge, is_not

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


def theta(symbol: MDurfeeSymbol, cls: str | None) -> MDurfeeSymbol:
    """The combined injection P(-m+1, n) -> Q(m, n), dispatched on `cls`,
    the symbol's P class as `classify(symbol, "P")` gives it."""
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

    Each (n, m) is one scope, whose symbols, P members and P2 and P3
    members lie in aligned lists, so each check is one statement per
    scope.  A check over an empty list records nothing: the round-trip
    and marker checks are listed only for scopes holding a P2 or P3
    member.  Each symbol is classified once per side, and each map is
    applied only where those classes put its input in its domain, so a
    fault fails checks instead of raising.  Every symbol of a partition
    of n weighs n.  A P1 image is the symbol itself, so its Q class is
    the symbol's own and its weight is n; each P2/P3 image is classified
    once on the Q side and its weight summed once.
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
            symbols = list(map(_symbol, partitions, columns, repeat(m)))
            # P(-m+1, n) holds the symbols of rank >= -m + 1
            in_p = list(map(ge, ranks, repeat(1 - m)))
            in_q = list(map(rank_set_contains, partitions, repeat(m)))
            p_classes = list(map(classify, symbols, repeat("P")))
            q_classes = list(map(classify, symbols, repeat("Q")))
            p_classified = list(map(is_not, p_classes, repeat(None)))
            members = list(compress(symbols, p_classified))
            classes = list(compress(p_classes, p_classified))
            images = list(map(theta, members, classes))
            image_classes = [q_cls if cls == "P1" else classify(image, "Q") for image, cls, q_cls
                             in zip(images, classes, compress(q_classes, p_classified))]
            # every symbol of a partition of n weighs n, and so does a P1 image
            image_weights = [n if cls == "P1" else image.weight
                             for image, cls in zip(images, classes)]
            is_p2 = list(map(eq, classes, repeat("P2")))
            is_p3 = list(map(eq, classes, repeat("P3")))
            p2_members, p2_images = list(compress(members, is_p2)), list(compress(images, is_p2))
            p3_members, p3_images = list(compress(members, is_p3)), list(compress(images, is_p3))
            # sigma and pi only on their own Q class; any other image is compared as it is
            p2_recovered = [sigma(image) if cls == "Q2" else image for image, cls
                            in zip(p2_images, compress(image_classes, is_p2))]
            p3_recovered = [pi(image) if cls == "Q3" else image for image, cls
                            in zip(p3_images, compress(image_classes, is_p3))]

            def naming(**lists):
                # the witness formatting the failing index's entry of each list
                return lambda i: {"m": m, "n": n, **{key: format_symbol(listed[i])
                                                     for key, listed in lists.items()}}

            rec.expect_each("predicates-match-statistics", 0, eq,
                            list(zip(map(rank_at_least, symbols), map(rank_set_has_m, symbols))),
                            list(zip(in_p, in_q)), naming(symbol=symbols))
            rec.expect_each("p-classification-covers", 0, eq, p_classified, in_p,
                            naming(symbol=symbols))
            rec.expect_each("q-classification-covers", 0, eq,
                            list(map(is_not, q_classes, repeat(None))), in_q,
                            naming(symbol=symbols))
            rec.expect_each("p1-equals-q1", 0, eq, list(map(eq, p_classes, repeat("P1"))),
                            list(map(eq, q_classes, repeat("Q1"))), naming(symbol=symbols))
            rec.expect_each("theta-preserves-weight", 0, eq, image_weights, [n] * len(images),
                            naming(symbol=members))
            rec.expect_each("theta-lands-in-matching-class", 0, eq, image_classes,
                            list(map(_MATCHING_Q.get, classes)),
                            naming(symbol=members, image=images))
            rec.expect_each("sigma-inverts-theta2", 0, eq, p2_recovered,
                            p2_members, naming(symbol=p2_members))
            rec.expect_each("theta3-image-marker", 0, eq,
                            [image.beta[-2:] for image in p3_images], [(1, 1)] * len(p3_images),
                            naming(image=p3_images))
            rec.expect_each("pi-inverts-theta3", 0, eq, p3_recovered,
                            p3_members, naming(symbol=p3_members))
            image_set = set(images)
            rec.expect(
                "theta-injective",
                len(image_set) == len(images),
                lambda: {"m": m, "n": n},
            )
            rec.expect(
                "theta-image-in-q",
                image_set <= set(compress(symbols, in_q)),
                lambda: {"m": m, "n": n},
            )
            gap = sum(in_q) - sum(in_p)
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

"""Truncated formal power series in q with exact integer coefficients.

A series truncated at order N is a plain list of its N + 1
coefficients of q^0 .. q^N.  It never rounds: coefficients are Python
ints, so arithmetic cannot overflow or wrap.

The module builds the two series this package cares about: the
reciprocal Euler product, whose n-th coefficient is p(n), and the
two-parameter theta-like sum whose reciprocal-Euler multiple generates
the ospt values.  Both are cross-checked coefficient by coefficient
against the table machinery in the verification suite.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, eq, gt, mul, sub

from . import reordering
from .partitions import partition_count
from .report import CheckRecorder, VerifyReport


def euler_product(order: int) -> list[int]:
    """prod_{k=1..order} (1 - q^k), the Euler product truncated at `order`.

    Computed by literal multiplication, one slice subtraction per factor;
    the pentagonal sparsity of the result is a test oracle, not an input.
    """
    c = [1] + [0] * order
    for k in range(1, order + 1):
        # map stops at the end of c[k:]; list() reads c before the slice changes
        c[k:] = list(map(sub, c[k:], c))
    return c


def euler_inverse(order: int) -> list[int]:
    """1 / prod (1 - q^k); coefficient n is p(n).

    Obtained by inverting the literal product, whose constant term is 1:
    coefficient k is minus the sum, over the product's nonzero terms a q^i
    with 1 <= i <= k, of a times coefficient k - i.  Agreement with the
    pentagonal-recurrence p(n) is then a genuine two-route check.
    """
    terms = [(i, a) for i, a in enumerate(euler_product(order)) if i and a]
    inv = [1] + [0] * order
    for k in range(1, order + 1):
        inv[k] = -sum(a * inv[k - i] for i, a in terms if i <= k)
    return inv


def ospt_numerator(order: int) -> list[int]:
    """The double sum whose reciprocal-Euler multiple generates ospt(n).

    Sum over i, j >= 0 of

      q^(6i^2+8ij+2j^2+7i+5j+2) (1 - q^(4i+2)) (1 - q^(4i+2j+3))
    + q^(6i^2+8ij+2j^2+5i+3j+1) (1 - q^(2i+1)) (1 - q^(4i+2j+2)).

    Iteration stops once a family's base exponent exceeds the order;
    within a term, the four monomials clip individually, so widening
    the bounds can never change a kept coefficient.
    """
    c = [0] * (order + 1)

    def add_term(base: int, e1: int, e2: int) -> None:
        # q^base (1 - q^e1)(1 - q^e2), each monomial clipped to the order
        for exponent, sign in ((base, 1), (base + e1, -1), (base + e2, -1),
                               (base + e1 + e2, 1)):
            if exponent <= order:
                c[exponent] += sign

    i = 0
    while 6 * i * i + 7 * i + 2 <= order:
        j = 0
        while (base := 6 * i * i + 8 * i * j + 2 * j * j + 7 * i + 5 * j + 2) <= order:
            add_term(base, 4 * i + 2, 4 * i + 2 * j + 3)
            j += 1
        i += 1
    i = 0
    while 6 * i * i + 5 * i + 1 <= order:
        j = 0
        while (base := 6 * i * i + 8 * i * j + 2 * j * j + 5 * i + 3 * j + 1) <= order:
            add_term(base, 2 * i + 1, 4 * i + 2 * j + 2)
            j += 1
        i += 1
    return c


def ospt_series(order: int) -> list[int]:
    """Generating function of ospt: euler_inverse times ospt_numerator.

    Each nonzero numerator term c q^e adds c times the p-series, shifted
    to start at q^e, to a slice of the result at C level.
    """
    ps = euler_inverse(order)
    out = [0] * (order + 1)
    for e, c in enumerate(ospt_numerator(order)):
        if c:
            out[e:] = map(add, out[e:], map(mul, repeat(c), ps))
    return out


def verify_genfun(order: int, table, tau_limit: int = 0) -> VerifyReport:
    """Check the q-series layer against the table (and optionally tau) routes.

    * euler_inverse coefficients equal the pentagonal-recurrence p(n);
    * ospt_series coefficients equal the crank/rank moment difference
      for 1 <= n <= min(order, table.nmax) (weight 1 included: both
      routes give 1 there under the weight-1 table conventions);
    * coefficients are strictly positive for n >= 2;
    * if tau_limit >= 2, coefficients also match the re-ordering count
      of crank-rank difference 1 for 2 <= n <= tau_limit.
    """
    rec = CheckRecorder()
    nmax = min(order, table.nmax)
    coeffs = euler_inverse(order)
    p = [partition_count(n) for n in range(order + 1)]
    rec.expect_each("euler-inverse-counts-partitions", 0, eq, coeffs, p,
                    lambda n: {"n": n, "coefficient": coeffs[n], "p": p[n]})
    ospt = ospt_series(order)
    moments = [table.ospt_moments(n) for n in range(1, nmax + 1)]
    rec.expect_each("ospt-series-matches-moments", 1, eq, ospt[1:nmax + 1], moments,
                    lambda n: {"n": n, "coefficient": ospt[n], "moments": moments[n - 1]})
    rec.expect_each("ospt-series-positive", 2, gt, ospt[2:], [0] * (order - 1),
                    lambda n: {"n": n, "coefficient": ospt[n]})
    tau = [reordering.ospt_via_statistics(n) for n in range(2, tau_limit + 1)]
    rec.expect_each("ospt-series-matches-tau", 2, eq, ospt[2:tau_limit + 1], tau,
                    lambda n: {"n": n, "coefficient": ospt[n], "tau": tau[n - 2]})
    return rec.report(
        "genfun", {"order": order, "moment_nmax": nmax, "tau_nmax": tau_limit})

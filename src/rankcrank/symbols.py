"""m-Durfee rectangle symbols: a rectangle-anchored view of a partition.

Fix m >= 0.  The m-Durfee rectangle of a partition is the largest
(m+j) x j rectangle of cells fitting in the upper-left corner of its
Ferrers diagram (j maximal; j = 0 when the partition has at most m
parts, giving a degenerate m x 0 rectangle).  What remains splits into

* alpha: the columns strictly to the right of the rectangle, read as
  column heights, each <= m + j.  Each of those columns ends inside
  the rectangle's m + j rows, so alpha is the conjugate's tail right
  of column j, and
* beta: the rows strictly below the rectangle, each <= j.

The triple is written (alpha | beta) with the rectangle as a subscript,
serialized here as ``[4,3,3,2 | 3,2,2,2]_(5x3)``.  The weight satisfies
n = j(m+j) + sum(alpha) + sum(beta), and the correspondence with
partitions is a bijection once m is fixed.

A symbol is a validated tuple (m, j, alpha, beta): its constructor
checks the invariants `MDurfeeSymbol` lists, and its hashing,
equality and field reads are the tuple's own, run at C level, so a
symbol compares equal to the plain tuple of its fields.

Two predicates make the symbol useful.  With j >= 1:

* rank(lambda) = -m + (len(alpha) - len(beta)), so
  rank(lambda) >= -m + 1 iff j = 0 or len(beta) + 1 <= len(alpha);
* m belongs to the rank-set of lambda iff j = 0 or beta[0] = j
  (an empty beta counts as beta[0] = 0).

Both equivalences are verified exhaustively in the test suite.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .partitions import conjugate


def _weakly_decreasing_positive(parts: Iterable[int], label: str) -> tuple[int, ...]:
    """`parts` as a plain tuple, checked to be weakly decreasing positive
    integers; an error names the checked sequence by `label`."""
    t = tuple(parts)
    prev = t[0] if t else 0
    for v in t:
        # an exact int passes the type test at once; bool is an int subclass
        if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)) or v < 1:
            raise ValueError(f"{label} must be positive integers, got {v!r}")
        if v > prev:
            raise ValueError(f"{label} must be weakly decreasing, got {t}")
        prev = v
    return t


class MDurfeeSymbol(namedtuple("MDurfeeSymbol", "m j alpha beta")):
    """An m-Durfee rectangle symbol (alpha | beta) with rectangle (m+j) x j.

    A validated, immutable tuple (m, j, alpha, beta).  Invariants
    enforced on construction: m >= 0, j >= 0, alpha weakly decreasing
    positive with entries <= m + j, beta weakly decreasing positive
    with entries <= j (so j = 0 forces beta empty).  alpha and beta may
    be given as any iterables of ints; they are stored as tuples.

    Hashing, equality and field reads are the tuple's own, so a symbol
    compares equal to the plain tuple (m, j, alpha, beta).  The
    inherited `_make` and `_replace` are private and skip validation.
    """

    __slots__ = ()

    def __new__(cls, m: int, j: int, alpha: Iterable[int],
                beta: Iterable[int]) -> MDurfeeSymbol:
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"m must be a non-negative integer, got {m!r}")
        if not isinstance(j, int) or j < 0:
            raise ValueError(f"j must be a non-negative integer, got {j!r}")
        alpha = _weakly_decreasing_positive(alpha, "alpha")
        beta = _weakly_decreasing_positive(beta, "beta")
        if alpha and alpha[0] > m + j:
            raise ValueError(f"alpha entries must be <= m + j = {m + j}, got {alpha}")
        if beta and beta[0] > j:
            raise ValueError(f"beta entries must be <= j = {j}, got {beta}")
        return tuple.__new__(cls, (m, j, alpha, beta))

    @property
    def weight(self) -> int:
        """Weight of the underlying partition: j(m+j) + |alpha| + |beta|."""
        return self.j * (self.m + self.j) + sum(self.alpha) + sum(self.beta)

    def __str__(self) -> str:
        return format_symbol(self)


def to_symbol(partition: Sequence[int], m: int) -> MDurfeeSymbol:
    """Decompose a partition against its m-Durfee rectangle.

    beta is the rows below the rectangle; alpha is the tail of the
    partition's conjugate right of column j, since every column past
    the rectangle ends inside its m + j rows.  The partition is taken
    as valid, so the symbol is built without re-checking the invariants
    its construction already guarantees.

    >>> str(to_symbol((7, 7, 6, 4, 3, 3, 2, 2, 2), 2))
    '[4,3,3,2 | 3,2,2,2]_(5x3)'
    >>> str(to_symbol((5, 5, 1), 3))
    '[3,2,2,2,2 | ]_(3x0)'
    """
    if m < 0:
        raise ValueError("the rectangle offset m must be >= 0")
    return _symbol(tuple(partition), conjugate(partition), m)


def _symbol(partition: tuple[int, ...], columns: tuple[int, ...], m: int) -> MDurfeeSymbol:
    # `to_symbol` for a tuple and m >= 0 with columns = conjugate(partition)
    # given, so a caller trying several m conjugates each partition once
    length = len(partition)
    j = 0
    if length > m:
        j = 1
        while m + j + 1 <= length and partition[m + j] >= j + 1:
            j += 1
    # the plain tuples below meet every invariant: no re-validation
    return tuple.__new__(MDurfeeSymbol, (m, j, columns[j:], partition[m + j:]))


def rank_at_least(symbol: MDurfeeSymbol) -> bool:
    """Whether rank(lambda) >= -m + 1, read off the symbol alone.

    For j >= 1 the rank equals -m + (len(alpha) - len(beta)).
    """
    return symbol.j == 0 or len(symbol.beta) + 1 <= len(symbol.alpha)


def rank_set_has_m(symbol: MDurfeeSymbol) -> bool:
    """Whether m belongs to the rank-set of lambda, read off the symbol."""
    return symbol.j == 0 or (bool(symbol.beta) and symbol.beta[0] == symbol.j)


def format_symbol(symbol: MDurfeeSymbol) -> str:
    """Serialize to the two-row text form, e.g. ``[4,3,3,2 | 3,2,2,2]_(5x3)``."""
    top = ",".join(map(str, symbol.alpha))
    bottom = ",".join(map(str, symbol.beta))
    return f"[{top} | {bottom}]_({symbol.m + symbol.j}x{symbol.j})"


_SYMBOL_RE = re.compile(
    r"^\s*\[\s*(?P<top>[0-9,\s]*?)\s*\|\s*(?P<bottom>[0-9,\s]*?)\s*\]"
    r"\s*_\s*\(\s*(?P<rows>\d+)\s*x\s*(?P<cols>\d+)\s*\)\s*$"
)


def parse_symbol(text: str) -> MDurfeeSymbol:
    """Parse the two-row text form back into a symbol.

    >>> parse_symbol("[4,3,3,2 | 3,2,2,2]_(5x3)").weight
    36
    """
    match = _SYMBOL_RE.match(text)
    if match is None:
        raise ValueError(f"not a symbol: {text!r} (expected '[a,b | c,d]_(RxC)')")
    rows = int(match.group("rows"))
    cols = int(match.group("cols"))
    if rows < cols:
        raise ValueError(f"rectangle {rows}x{cols} has more columns than rows")

    def read(group: str) -> tuple[int, ...]:
        # each comma-separated entry is one integer; spaces only around it
        body = match.group(group).strip()
        if not body:
            return ()
        tokens = [tok.strip() for tok in body.split(",")]
        for tok in tokens:
            if not tok.isdigit():
                raise ValueError(f"not a symbol: {text!r} (entry {tok!r} is not one integer)")
        return tuple(map(int, tokens))

    return MDurfeeSymbol(m=rows - cols, j=cols, alpha=read("top"), beta=read("bottom"))

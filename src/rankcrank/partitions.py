"""Integer partitions: representation, enumeration, conjugation, counting.

A partition of n is a weakly decreasing sequence of positive integers
summing to n.  Partitions here are plain tuples of parts, so they hash,
compare lexicographically, and cost nothing to copy.  None is validated:
outside input enters as a symbol, validated where it is built.  The
empty partition (of 0) is a value, but the statistics reject it.

Counting is done two independent ways on purpose: `partition_count`
uses the pentagonal-number recurrence, while `enumerate_partitions`
streams every partition explicitly.  Tests cross-check one against the
other.  The listing is made a block at a time over a table of tails,
the partitions of every weight <= 20 (2,714 tuples, about 0.3 MiB),
which the first listing builds; beyond the reader's batch a listing
holds only that table and one block's slice of it, at most p(20)
references.  The map suites (injections, reordering) list partitions
with `enumerate_partitions`; the table checks and the series backend
read p(n) from the recurrence, and the enumeration table builder uses
neither: it tallies its partitions one part size at a time.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, repeat
from operator import add


def conjugate(partition: Sequence[int]) -> tuple[int, ...]:
    """Transpose the Ferrers diagram.

    Part k of the conjugate counts the parts of `partition` that are
    >= k.  Conjugation is an involution and preserves the weight.

    >>> conjugate((5, 5, 1))
    (3, 2, 2, 2, 2)
    """
    if not partition:
        return ()
    out = []
    count = len(partition)
    for k in range(1, partition[0] + 1):
        while partition[count - 1] < k:
            count -= 1
        out.append(count)
    return tuple(out)


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Every partition of n exactly once, lexicographically decreasing.

    The first partition is (n,), the last is (1,)*n.  The listing is a
    chain of blocks.  A depth-first walk over prefixes, largest next
    part first and each part at most the one before and the weight
    left, stops at a prefix once the weight left fits the tail table.
    The partitions of that weight with no part above the prefix's last
    are a suffix of the table's listing, and the whole suffix is
    appended to the prefix in one C-level `map`; a prefix ending in 1
    has the one completion by ones.  Each tuple is made as the reader
    takes it, so weights with millions of partitions stream fine.

    >>> list(enumerate_partitions(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    _grow_tails(min(n, _TAIL_WEIGHT))
    if n <= _TAIL_WEIGHT:
        return iter(_TAILS[n])
    return chain.from_iterable(_blocks(n))


def _blocks(n: int) -> Iterator[Iterable[tuple[int, ...]]]:
    """The partitions of n > _TAIL_WEIGHT in listing order, a block at a time."""
    # (prefix, weight left, largest next part): the prefixes still to walk,
    # each leaving more weight than the table holds; the top comes first
    stack = [((), n, n)]
    while stack:
        prefix, rest, cap = stack.pop()
        if cap == 1:
            yield (prefix + (1,) * rest,)
            continue
        low = rest - _TAIL_WEIGHT  # a next part >= low leaves a tail
        for part in range(cap, low - 1, -1):
            yield map(add, repeat(prefix + (part,)), _tails(rest - part, part))
        if low > 1:
            stack.append((prefix + (1,), rest - 1, 1))
            stack += [(prefix + (part,), rest - part, min(part, rest - part))
                      for part in range(2, min(cap + 1, low))]


# The tail table: _TAILS[w] lists the partitions of w lexicographically
# decreasing, and those with no part above k start at _STARTS[w][k], k <= w.
# The first listings grow it; importing the module does not.
_TAIL_WEIGHT = 20
_TAILS: list[list[tuple[int, ...]]] = [[()]]
_STARTS: list[list[int]] = [[0]]


def _tails(weight: int, cap: int) -> list[tuple[int, ...]]:
    """The partitions of `weight` with no part above `cap`, from the table."""
    return _TAILS[weight][_STARTS[weight][min(cap, weight)]:]


def _grow_tails(weight: int) -> None:
    """Extend the tail table through `weight`, each weight from the smaller ones."""
    while len(_TAILS) <= weight:
        w = len(_TAILS)
        tails, starts = [], [0] * (w + 1)
        for first in range(w, 0, -1):
            starts[first] = len(tails)
            tails += map(add, repeat((first,)), _tails(w - first, first))
        starts[0] = len(tails)
        _TAILS.append(tails)
        _STARTS.append(starts)


_PCOUNT = [1]  # p(0..k), grown on demand


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n, by the pentagonal recurrence.

    p(n) = sum over k >= 1 of (-1)^(k-1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)].

    Exact for any n that fits in memory; values are cached.

    >>> partition_count(7)
    15
    >>> partition_count(100)
    190569292
    """
    if n < 0:
        raise ValueError("p(n) requires n >= 0")
    while len(_PCOUNT) <= n:
        target = len(_PCOUNT)
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > target:
                break
            sign = 1 if k % 2 else -1
            total += sign * _PCOUNT[target - g]
            g += k  # second pentagonal number k(3k+1)/2
            if g <= target:
                total += sign * _PCOUNT[target - g]
            k += 1
        _PCOUNT.append(total)
    return _PCOUNT[n]


def partition_count_series(nmax: int) -> list[int]:
    """The list [p(0), p(1), ..., p(nmax)]."""
    partition_count(nmax)
    return _PCOUNT[: nmax + 1]

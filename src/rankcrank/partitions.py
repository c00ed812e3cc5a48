"""Integer partitions: representation, enumeration, conjugation, counting.

A partition of n is a weakly decreasing sequence of positive integers
summing to n.  Partitions here are plain tuples of parts, so they hash,
compare lexicographically, and cost nothing to copy.  None is validated:
outside input enters as a symbol, validated where it is built.  The
empty partition (of 0) is a value, but the statistics reject it.

Counting is done two independent ways on purpose: `partition_count`
uses the pentagonal-number recurrence, while `enumerate_partitions`
streams every partition explicitly.  Tests cross-check one against the
other.  The map suites (injections, reordering) list partitions with
`enumerate_partitions`; the table checks and the series backend read
p(n) from the recurrence, and the enumeration table builder uses
neither: it tallies its partitions one part size at a time.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence


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
    """Yield every partition of n exactly once, lexicographically decreasing.

    The first partition is (n,), the last is (1,)*n, and each successor
    is computed in place: decrement the last part bigger than 1, then
    redistribute the freed weight greedily.  When that part is a 2, the
    successor only splits it into 1, 1, an O(1) step (as in Zoghbi and
    Stojmenovic's ZS1).  Nothing is materialized, so weights with
    millions of partitions stream fine.

    >>> list(enumerate_partitions(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n == 0:
        yield ()
        return
    x = [n]
    h = 0 if n > 1 else -1  # index of the last part exceeding 1
    while True:
        yield tuple(x)
        if h < 0:
            return
        v = x[h] - 1
        if v == 1:  # a trailing 2 splits into 1, 1 in place
            x[h] = 1
            x.append(1)
            h -= 1
            continue
        budget = x[h] + (len(x) - 1 - h)  # freed weight: this part plus trailing ones
        del x[h:]
        q, rem = divmod(budget, v)
        x.extend([v] * q)
        if rem:
            x.append(rem)
        h = h + q - 1 + (1 if rem >= 2 else 0)


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

"""Integer partitions: representation, enumeration, conjugation, counting.

A partition of n is a weakly decreasing sequence of positive integers
summing to n.  Partitions here are immutable tuples of parts, so they
hash, compare lexicographically, and cost nothing to copy.  The empty
partition (of 0) is allowed as a value but the statistics defined on
partitions elsewhere in this package reject it.

Counting is done two independent ways on purpose: `partition_count`
uses the pentagonal-number recurrence, while `enumerate_partitions`
streams every partition explicitly.  Tests cross-check one against the
other, and the table builders lean on both.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


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


class Partition(tuple):
    """An integer partition stored as a tuple of weakly decreasing parts.

    >>> Partition([3, 1]).weight
    4
    >>> Partition([3, 1]) > Partition([2, 2])
    True
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        return tuple.__new__(cls, _weakly_decreasing_positive(parts, "parts"))

    @property
    def weight(self) -> int:
        """The number being partitioned: the sum of the parts."""
        return sum(self)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"


def conjugate(partition: Sequence[int]) -> Partition:
    """Transpose the Ferrers diagram.

    Part k of the conjugate counts the parts of `partition` that are
    >= k.  Conjugation is an involution and preserves the weight.

    >>> conjugate(Partition([5, 5, 1]))
    Partition([3, 2, 2, 2, 2])
    """
    if not partition:
        return Partition()
    out = []
    count = len(partition)
    for k in range(1, partition[0] + 1):
        while partition[count - 1] < k:
            count -= 1
        out.append(count)
    return tuple.__new__(Partition, out)  # the counts fall as k grows: no re-validation


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, lexicographically decreasing.

    The first partition is (n,), the last is (1,)*n, and each successor
    is computed in place: decrement the last part bigger than 1, then
    redistribute the freed weight greedily.  When that part is a 2, the
    successor only splits it into 1, 1, an O(1) step (as in Zoghbi and
    Stojmenovic's ZS1).  Nothing is materialized, so weights with
    millions of partitions stream fine.

    >>> [tuple(p) for p in enumerate_partitions(4)]
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n == 0:
        yield Partition()
        return
    x = [n]
    h = 0 if n > 1 else -1  # index of the last part exceeding 1
    new = tuple.__new__  # x is sorted: one copy, no re-validation
    while True:
        yield new(Partition, x)
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

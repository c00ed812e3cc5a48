"""Per-partition statistics: rank, crank and rank-set membership.

Conventions, fixed once here and relied on everywhere else:

* rank(lambda) = largest part - number of parts.
* crank(lambda) = largest part if lambda has no ones; otherwise
  (number of parts larger than omega) - omega, where omega is the
  number of ones.
* The rank-set of lambda = (l1, ..., lk) is the integer sequence
  [-l1, 1 - l2, ..., (k-1) - lk, k, k+1, k+2, ...]; membership is
  decided arithmetically, the infinite sequence is never built.

All three statistics reject the empty partition: there is no largest
part to read.  Note the crank of the single partition of 1 is -1 under
this definition; the weight-1 counting conventions used by the tables
module are a table-level adjustment, not a change to the statistic.

Functions accept any weakly decreasing sequence of positive parts;
validity of the sequence is the caller's business.
"""

from __future__ import annotations

from collections.abc import Sequence


def rank(partition: Sequence[int]) -> int:
    """Largest part minus number of parts.

    >>> rank((4,))
    3
    >>> rank((2, 2))
    0
    >>> rank((1, 1, 1, 1))
    -3
    """
    if not partition:
        raise ValueError("rank is undefined for the empty partition")
    return partition[0] - len(partition)


def crank(partition: Sequence[int]) -> int:
    """The crank statistic.

    With omega = number of ones: the largest part when omega = 0, and
    #{parts > omega} - omega otherwise.

    >>> crank((3, 1))
    0
    >>> crank((2, 1, 1))
    -2
    >>> crank((2, 2, 1))
    1
    """
    if not partition:
        raise ValueError("crank is undefined for the empty partition")
    # the ones are a suffix, so counting them anywhere is exact
    omega = partition.count(1)
    if omega == 0:
        return partition[0]
    big = 0
    for v in partition:
        if v <= omega:
            break
        big += 1
    return big - omega


def rank_set_contains(partition: Sequence[int], m: int) -> bool:
    """Whether m lies in the rank-set of the partition.

    Every integer >= the number of parts belongs; below that, m belongs
    exactly when m = k - partition[k] for some 0-based index k.  Those
    values strictly increase with k, so the scan stops early.

    >>> [m for m in range(-4, 5) if rank_set_contains((3, 1), m)]
    [-3, 0, 2, 3, 4]
    """
    if not partition:
        raise ValueError("the empty partition has no rank-set")
    if m >= len(partition):
        return True
    for k, v in enumerate(partition):
        d = k - v
        if d >= m:
            return d == m
    return False

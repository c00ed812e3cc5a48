"""Test oracles: direct definitions that the package itself has no use for.

Each is the plain reading of a definition, kept here to check the
package's faster or indirect routes against.
"""

from itertools import accumulate

from rankcrank.partitions import conjugate


def smallest_part_count(partition) -> int:
    """Multiplicity of the smallest part.

    >>> smallest_part_count((3, 2, 2))
    2
    """
    if not partition:
        raise ValueError("the empty partition has no smallest part")
    return partition.count(partition[-1])


def from_symbol(symbol) -> tuple:
    """The partition an m-Durfee symbol came from (inverse of `to_symbol`):
    the rectangle's rows lengthened by the column heights alpha, then the
    rows beta below it.

    >>> from rankcrank.symbols import MDurfeeSymbol
    >>> from_symbol(MDurfeeSymbol(2, 3, (4, 3, 3, 2), (3, 2, 2, 2)))
    (7, 7, 6, 4, 3, 3, 2, 2, 2)
    """
    heights = conjugate(symbol.alpha)
    if symbol.j == 0:
        return heights
    rows = [symbol.j + (heights[i] if i < len(heights) else 0)
            for i in range(symbol.m + symbol.j)]
    return tuple(rows) + symbol.beta


def truncated_product(a, b) -> list:
    """The product of two coefficient lists of one length, truncated to
    that length: coefficient k is the plain sum of a[i] * b[k - i].

    >>> truncated_product([1, 1, 0], [1, -1, 0])
    [1, 0, -1]
    """
    if len(a) != len(b):
        raise ValueError("the factors must have one truncation order")
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def first_outside_windows(cranks, ranks, crank_row, rank_row, n) -> int:
    """The first position of a tau listing outside its cumulative windows,
    or 0 if there is none.

    Position i (1-based) passes when cum[a + n] < i <= cum[a + n + 1]
    with cum = [0, *accumulate(crank_row)] and a = cranks[i - 1], and
    likewise for ranks[i - 1] over the rank row.

    Weight 2: (1, 1) has crank -2 and rank -1, (2) crank 2 and rank 1;
    listing (2) twice puts position 3 past both windows.

    >>> first_outside_windows([-2, 2], [-1, 1], [1, 0, 0, 0, 1], [0, 1, 0, 1, 0], 2)
    0
    >>> first_outside_windows([-2, 2, 2], [-1, 1, 1], [1, 0, 0, 0, 1], [0, 1, 0, 1, 0], 2)
    3
    """
    cum_crank = [0, *accumulate(crank_row)]
    cum_rank = [0, *accumulate(rank_row)]
    for i, (a, b) in enumerate(zip(cranks, ranks), start=1):
        if not (cum_crank[a + n] < i <= cum_crank[a + n + 1]
                and cum_rank[b + n] < i <= cum_rank[b + n + 1]):
            return i
    return 0


def tau_pairs(rmap) -> list:
    """[(lambda, tau(lambda)), ...] of a `ReorderingMap`, crank-ascending."""
    partitions = rmap.partitions
    return [(partitions[i], partitions[k]) for i, k in zip(rmap.by_crank, rmap.by_rank)]

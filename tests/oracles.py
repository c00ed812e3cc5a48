"""Test oracles: direct definitions that the package itself has no use for.

Each is the plain reading of a definition, kept here to check the
package's faster or indirect routes against.
"""

from rankcrank.partitions import Partition, conjugate


def smallest_part_count(partition) -> int:
    """Multiplicity of the smallest part.

    >>> smallest_part_count((3, 2, 2))
    2
    """
    if not partition:
        raise ValueError("the empty partition has no smallest part")
    return partition.count(partition[-1])


def from_symbol(symbol) -> Partition:
    """The partition an m-Durfee symbol came from (inverse of `to_symbol`):
    the rectangle's rows lengthened by the column heights alpha, then the
    rows beta below it.

    >>> from rankcrank.symbols import MDurfeeSymbol
    >>> from_symbol(MDurfeeSymbol(2, 3, (4, 3, 3, 2), (3, 2, 2, 2)))
    Partition([7, 7, 6, 4, 3, 3, 2, 2, 2])
    """
    heights = conjugate(symbol.alpha)
    if symbol.j == 0:
        return heights
    rows = [symbol.j + (heights[i] if i < len(heights) else 0)
            for i in range(symbol.m + symbol.j)]
    return Partition(rows + list(symbol.beta))


def truncated_product(a, b) -> list:
    """The product of two coefficient lists of one length, truncated to
    that length: coefficient k is the plain sum of a[i] * b[k - i].

    >>> truncated_product([1, 1, 0], [1, -1, 0])
    [1, 0, -1]
    """
    if len(a) != len(b):
        raise ValueError("the factors must have one truncation order")
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]

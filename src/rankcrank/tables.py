"""Exact rank/crank count tables, cumulations, moments, and their checks.

`StatTable` holds, for every 1 <= n <= nmax:

* N(m, n): partitions of n with rank m,
* M(m, n): partitions of n with crank m, and
* q(m, n): partitions of n whose rank-set contains m,

densely over |m| <= n (the q row over -n <= m <= n + 2).  The rows
are all a table stores, but for one list of m^k over the table's whole
band per exponent k that a moment has read and, until a q cell is
first read, the function that forms the q rows (see `StatTable`).
Each row is padded with three zeros on either side (the q row below
only), so cell m of weight n sits at index m + n + 3, and a read
clamps m's index to the row's ends, where the row is constant (0, or
p(n) at the top of a q row).  Cumulations are sums over a slice of the
row.  All entries are Python ints, so counts and moments are exact at
any size: arithmetic cannot overflow or wrap, it just grows.

Readers that want a whole weight take it whole: `rank_row` and
`crank_row` copy a stored row, `verify_identities` reads each weight's
six lists once, and every moment is one C-level dot product over the
stored row.  The per-cell accessors are for single lookups.

Weight-1 convention: the crank row of n = 1 is M(0, 1) = -1 and
M(-1, 1) = M(1, 1) = 1.  This is a counting convention applied at the
table level only; `statistics.crank` still maps the partition (1) to
-1, and rows for n >= 2 are plain tallies.

Two builders with recorded provenance:

* `build` tallies the partitions mu into parts >= 2 of each weight
  <= nmax, one part size s at a time: those of weight u into parts
  >= s are those into parts > s plus those of weight u - s with an s
  appended, so the tallies of u grow by slice adds of those of u - s.
  The (k, mu_k) tallies are held by part index k, one row over the
  values mu_k per k; row 0 is the largest-part tally.  An appended s
  leaves every earlier part where it was, so each level step is one
  slice add per row.  Every partition of n is such a mu plus a block
  of ones, and the rank, crank, rank-set and smallest-part count of
  mu + 1^omega follow in closed form from mu's tallies and omega.  It
  is the required backend and the oracle for everything else, and it
  lists no partition: it neither calls `enumerate_partitions` nor
  reads the series backend.
* `build_accelerated` computes the same cells arithmetically: rank and
  crank rows from sparse alternating series against the reciprocal
  Euler product (which reproduces the weight-1 crank convention by
  itself), summed column by column, one column over n per m, each term
  one shared difference series p(i) - p(i - k), and read back into
  rows; q rows, formed on the table's first q read, for m >= 0 from a
  sum over m-Durfee rectangles of filling series
  F_{m,j} = 1/((q)_{m+j} (q)_j), carried as one running series per
  width j: F_{m,0} counts partitions with parts <= m, and one in-place
  division turns F_{m-1,j} into F_{m,j}.  Negative-m q cells use the
  fact that conjugation complements rank-sets: m is in the rank-set of
  a partition iff -m - 1 is not in the rank-set of its conjugate
  (verified exhaustively in the tests).  The accelerated table carries
  no smallest-part tally.

The two backends must agree cell for cell; the acceptance suite checks
this through n = 100.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, islice, repeat
from operator import add, eq, ge, itemgetter, le, mul, sub

from .partitions import partition_count, partition_count_series
from .report import CheckRecorder, VerifyReport

# Rational lower bound for pi^2, used to check sqrt(6n)/pi bounds in
# pure integer arithmetic: PI_SQ_LO_NUM / PI_SQ_LO_DEN < pi^2.
PI_SQ_LO_NUM = 9_869_604_401_089_358
PI_SQ_LO_DEN = 10**15

WEIGHT_ONE_CRANK_ROW = {-1: 1, 0: -1, 1: 1}


class StatTable:
    """Dense exact tables of N(m, n), M(m, n), and q(m, n) for n <= nmax.

    The stored rows are the whole state, but for the power lists: one
    list of m^k over -nmax - 3 <= m <= nmax + 3 per exponent k, formed
    when a moment first reads k and read by every weight.  Both
    builders hand over the q rows as a zero-argument function that
    returns them; the first q read calls it once, pads its rows and
    drops it, so a table nothing asks q of never forms them.  Each
    weight's rank and crank rows carry three zeros on each side and its
    q row three zeros below, so cell m of weight n sits at index
    m + n + 3 of every row.  One read checks n and clamps m's index to
    the row's own ends: beyond its band a row is constant, 0 for rank
    and crank, and for q 0 below -n and q(n + 2, n) = p(n) above.  Every
    reader takes its row through it, so every reader raises ValueError
    for n outside 1..nmax.
    """

    def __init__(self, nmax, rank_rows, crank_rows, make_q_rows, spt_tallies, provenance):
        if nmax < 1:
            raise ValueError("nmax must be >= 1")
        self.nmax = nmax
        self.provenance = provenance  # "enumerated" or "accelerated"
        pad = [0, 0, 0]
        self._rank = [None] + [pad + row + pad for row in rank_rows[1:]]  # 2n + 7 cells
        self._crank = [None] + [pad + row + pad for row in crank_rows[1:]]
        self._make_q_rows = make_q_rows  # () -> the q rows, called on the first q read
        self._spt = spt_tallies  # _spt[n]: smallest-part tally, or None
        self._powers = {}  # {k: m^k over -nmax - 3 <= m <= nmax + 3}

    @cached_property
    def _q(self) -> list:
        """The padded q rows, formed on first read; 2n + 6 cells, to m = n + 2."""
        q_rows = self._make_q_rows()
        del self._make_q_rows
        return [None] + [[0, 0, 0] + row for row in q_rows[1:]]

    def _read(self, rows: list, n: int, m: int = 0) -> tuple:
        """Row n of `rows` and the index of cell m in it, clamped to the row."""
        if not 1 <= n <= self.nmax:
            raise ValueError(f"n must be in 1..{self.nmax}, got {n}")
        row = rows[n]
        return row, min(max(m + n + 3, 0), len(row) - 1)

    # -- cell accessors ------------------------------------------------

    def rank_count(self, m: int, n: int) -> int:
        """N(m, n); zero outside |m| <= n."""
        row, i = self._read(self._rank, n, m)
        return row[i]

    def crank_count(self, m: int, n: int) -> int:
        """M(m, n); zero outside |m| <= n."""
        row, i = self._read(self._crank, n, m)
        return row[i]

    def q_count(self, m: int, n: int) -> int:
        """q(m, n), the number of partitions of n whose rank-set contains m.

        Zero below -n; the total count for m >= n (every rank-set
        contains all integers from its partition's length upward).
        """
        row, i = self._read(self._q, n, m)
        return row[i]

    # -- whole-weight reads -----------------------------------------------

    def rank_row(self, n: int) -> list:
        """[N(-n, n), ..., N(n, n)], a new list with N(m, n) at index m + n."""
        return self._read(self._rank, n)[0][3:-3]

    def crank_row(self, n: int) -> list:
        """[M(-n, n), ..., M(n, n)], a new list with M(m, n) at index m + n."""
        return self._read(self._crank, n)[0][3:-3]

    def _padded_reads(self, n: int) -> tuple:
        """The lists rank, crank, cum_rank, cum_crank, q and p_ge of weight n
        over -n - 3 <= m <= n + 3, each with m at index m + n + 3.

        Entry m of each list is what `rank_count(m, n)`, `crank_count`,
        `cum_rank`, `cum_crank`, `q_count` and `p_ge` return, out-of-range
        values included, read from the stored rows with no call per cell.
        """
        rank, crank, q = self._read(self._rank, n)[0], self._crank[n], self._q[n]
        cum_rank = list(accumulate(rank))
        return (rank, crank, cum_rank, list(accumulate(crank)), q + q[-1:],
                list(map(sub, repeat(cum_rank[-1]), [0] + cum_rank[:-1])))

    # -- cumulative queries ---------------------------------------------

    def cum_rank(self, m: int, n: int) -> int:
        """N(<= m, n) = sum of N(r, n) over r <= m."""
        row, i = self._read(self._rank, n, m)
        return sum(row[:i + 1])

    def cum_crank(self, m: int, n: int) -> int:
        """M(<= m, n) = sum of M(r, n) over r <= m."""
        row, i = self._read(self._crank, n, m)
        return sum(row[:i + 1])

    def p_ge(self, m: int, n: int) -> int:
        """Number of partitions of n with rank >= m."""
        row, i = self._read(self._rank, n, m)
        return sum(row[i:])

    # -- moments ----------------------------------------------------------

    # Each moment is one dot product of the stored row with the list of
    # m^k (or |m|), taken at C level: exact ints, whatever the cells hold.
    # The table keeps one m^k list per k over its whole band, where m sits
    # at index m + nmax + 3, so row n's cell m at index m + n + 3 pairs
    # with it from offset nmax - n, and the product stops at the row's end.

    def _power_list(self, k: int, n: int) -> islice:
        """The table's m^k list from m = -n - 3 on, where row n's padding starts."""
        if k not in self._powers:
            self._powers[k] = list(map(pow, range(-self.nmax - 3, self.nmax + 4), repeat(k)))
        return islice(self._powers[k], self.nmax - n, None)

    def moment_rank(self, k: int, n: int) -> int:
        """N_k(n) = sum over m of m^k N(m, n), exactly."""
        row = self._read(self._rank, n)[0]
        return sum(map(mul, self._power_list(k, n), row))

    def moment_crank(self, k: int, n: int) -> int:
        """M_k(n) = sum over m of m^k M(m, n), exactly."""
        row = self._read(self._crank, n)[0]
        return sum(map(mul, self._power_list(k, n), row))

    def abs_crank_moment(self, n: int) -> int:
        """Sum over m of |m| M(m, n): the total absolute crank."""
        row = self._read(self._crank, n)[0]
        return sum(map(mul, map(abs, range(-n - 3, n + 4)), row))

    def _spt_from_moment(self, n: int, rank_moment_2: int) -> tuple:
        """(spt(n), None) from N_2(n) = `rank_moment_2`, by n p(n) - N_2(n)/2.

        An odd 2n p(n) - N_2(n) means a corrupt rank row: the pair is then
        (its floor half, the witness {"n": n, "2np-N2": numerator}), and
        every check reading spt(n) fails with that witness.
        """
        two_spt = 2 * n * partition_count(n) - rank_moment_2
        return two_spt // 2, None if two_spt % 2 == 0 else {"n": n, "2np-N2": two_spt}

    def spt_tally(self, n: int) -> int:
        """spt(n) as tallied during enumeration (enumerated tables only)."""
        self._read(self._rank, n)  # checks n
        if self._spt is None:
            raise ValueError(f"{self.provenance!r} table carries no smallest-part tally")
        return self._spt[n]

    def ospt_moments(self, n: int) -> int:
        """ospt(n) = sum over m >= 1 of m (M(m, n) - N(m, n))."""
        crank = self._read(self._crank, n)[0]
        return sum(map(mul, range(1, n + 1), map(sub, crank[n + 4:], self._rank[n][n + 4:])))


def build(nmax: int) -> StatTable:
    """Tally every table cell from per-weight tallies of the partitions mu
    into parts >= 2, made one part size at a time.

    Every partition of n is mu + 1^omega with mu free of ones, so each mu
    of weight w <= nmax is credited to all the rows n = w + omega,
    w <= n <= nmax, in closed form.  With L = len(mu), mu' its conjugate,
    and every count stored at index m + n:

    * rank: mu_1 - L - omega, so index mu_1 - L + w for every omega
      (for mu = () the row-n partition is 1^n, rank index 1);
    * crank: mu_1 at omega = 0 (index mu_1 + w); for omega >= 1 it is
      mu'_(omega+1) - omega, index mu'_(omega+1) + w, which starts at
      L + w and drops by one as omega reaches each part;
    * spt: the multiplicity of the smallest part at omega = 0, and
      omega otherwise;
    * rank-set: the points k - mu_k (0-based k < L) for every omega,
      plus [L, oo) at omega = 0 and, for omega >= 1, [L - 1, oo)
      minus the single cell m = L - 1 + omega.  The ones block ends
      one short of the tail, so the two never join into one interval;
      the missing cell sits at the constant n - m = w - L + 1.

    So each weight w needs the mu tallied by (mu_1 - L), L and (k, mu_k),
    their count and their summed smallest-part multiplicity.  The
    (k, mu_k) tallies are held by part index k: row k of weight u counts
    the mu with mu_k = v at index v <= u // (k + 1), and row 0 is the
    largest-part tally.  Level s = nmax, ..., 2 holds these for the
    partitions into parts >= s.  Such a partition of u has no s, and
    was in level s + 1, or is one of weight w = u - s with an s
    appended: L grows by one, mu_1 stays (the empty partition's becomes
    s) and the new s sits at index its old L, so row L of u gains, at
    v = s, the partitions of w of length L.  The parts before it stay
    where they were, so each row k < w // s of u gains row k of w over
    v >= s: one slice add per row.  The appended s is the smallest
    part, so u's multiplicity sum gains the s's of those partitions:
    one each, plus the s's the partitions of u - s already hold.

    One sweep over n sums the credits, which start at the row of the
    weight w (and, for the crank, step down at w + mu_k): each row k
    spreads its points k - v with one reversed slice.  The sweep frees
    each weight's tallies once it has read them.

    >>> build(4).crank_count(0, 4)
    1
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    width = 2 * nmax + 1
    q_off = nmax + 2  # rank-set cell m sits at m + q_off
    # Indexed by the weight u, each trimmed to the values that occur.
    rank_at = [[0] * (2 * u) for u in range(nmax + 1)]  # by mu_1 - L + u
    length_at = [[1]] + [[0] * (u // 2 + 1) for u in range(1, nmax + 1)]  # by L
    # parts_at[u][k][v]: the mu with mu_k = v, for k < u // 2 and v <= u // (k + 1);
    # row 0 tallies mu_1
    parts_at = [[[0] * (u // (k + 1) + 1) for k in range(u // 2)] for u in range(nmax + 1)]
    counts = [1] + [0] * nmax
    smallest_at = [0] * (nmax + 1)  # smallest-part multiplicities
    for s in range(nmax, 1, -1):
        s_count = [0] * (nmax + 1)  # the s's summed over the partitions of u into parts >= s
        for u in range(s, nmax + 1):
            w = u - s
            s_count[u] = counts[w] + s_count[w]
            smallest_at[u] += s_count[u]
            counts[u] += counts[w]
            if w:
                dst = rank_at[u]
                dst[s - 1:s - 1 + 2 * w] = map(add, dst[s - 1:], rank_at[w])
            else:  # mu = (s)
                rank_at[u][2 * s - 1] += 1
            top = w // s  # the most parts a partition of w into parts >= s has
            lengths = length_at[w][:top + 1]
            dst = length_at[u]
            dst[1:top + 2] = map(add, dst[1:], lengths)
            rows = parts_at[u]
            for row, count in zip(rows, lengths):  # the new s at index L
                row[s] += count
            for k in range(top):  # mu_k over v >= s
                dst = rows[k]
                dst[s:w // (k + 1) + 1] = map(add, dst[s:], parts_at[w][k][s:])
    # crank_step[n][c]: cranks in row n whose index drops from c + 1 to c
    # (a step at n = w + mu_k > nmax is never read, so it is not credited)
    crank_step = [[0] * (2 * n + 1) for n in range(nmax + 1)]

    rank_rows: list = [None]
    crank_rows: list = [None]
    q_rows: list = [None]
    spt_tallies: list = [None]
    # Running sums over the mu that contribute to row n.
    rank_run = [0] * width
    crank_run = [0] * (width + 1)  # omega >= 1 only
    point_run = [0] * (width + 4)
    tail_run = [0] * (nmax + 3)    # by the tail's first cell, to m = nmax + 2
    gap_run = [0] * (nmax + 2)     # by n - m of the missing cell
    rank_run[1] = tail_run[0] = 1  # mu = (): length 0, and 1^n has rank index 1
    with_ones = 0   # mu of weight < n: one partition of n with ones each
    ones_total = 0  # spt summed over the partitions of n with ones
    for n in range(1, nmax + 1):
        rank_run[:2 * n] = map(add, rank_run, rank_at[n])
        tail_run[:n // 2 + 1] = map(add, tail_run, length_at[n])
        rows = parts_at[n]
        for k, row in enumerate(rows):  # the points k - v for v = n // (k + 1), ..., 2
            start = k + q_off - n // (k + 1)
            point_run[start:k + q_off - 1] = map(add, point_run[start:], row[:1:-1])
        for v in range(2, min(n, nmax - n) + 1):  # mu_k = v steps down at n + v
            dst = crank_step[n + v]
            dst[n:n + n // v] = map(add, dst[n:], map(itemgetter(v), rows[:n // v]))
        # omega = 1 for the mu of weight n - 1
        for size, count in enumerate(length_at[n - 1]):
            if count:
                crank_run[size + n - 1] += count
                point_run[size - 1 + q_off] += count
                gap_run[n - size] += count
        with_ones += counts[n - 1]
        ones_total += with_ones
        step = crank_step[n]
        crank_run[:2 * n + 1] = map(add, crank_run, step)
        crank_run[1:2 * n + 2] = map(sub, crank_run[1:], step)
        crank_row = crank_run[:2 * n + 1]
        if n == 1:
            crank_row = [WEIGHT_ONE_CRANK_ROW[m] for m in (-1, 0, 1)]
        else:  # omega = 0: crank mu_1
            crank_row[n:] = map(add, crank_row[n:], rows[0])
        q_row = point_run[q_off - n:q_off + n + 3]
        q_row[n:] = map(add, q_row[n:], accumulate(tail_run[:n + 3]))
        q_row[n:2 * n] = map(sub, q_row[n:2 * n], gap_run[n:0:-1])  # gap d at index 2n - d
        rank_rows.append(rank_run[:2 * n + 1])
        crank_rows.append(crank_row)
        q_rows.append(q_row)
        spt_tallies.append(smallest_at[n] + ones_total)
        # the tallies read for the last time
        rank_at[n] = parts_at[n] = crank_step[n] = length_at[n - 1] = None
    return StatTable(nmax, rank_rows, crank_rows, lambda: q_rows, spt_tallies, "enumerated")


def _rows_from_series(nmax: int, base_exponent) -> list:
    """Shared engine for the rank and crank series rows.

    For m >= 0 the number of partitions of n with statistic value m is

      sum over k >= 1 of (-1)^(k-1) d_k(n - e(k)),  d_k(i) = p(i) - p(i - k),

    where e(k) = k(3k-1)/2 + mk for the rank and e(k) = k(k-1)/2 + mk
    for the crank (`base_exponent` maps (k, m) to e(k)).  The difference
    series d_k over 0 <= i <= nmax is formed once per k and serves every
    m.  Each m gets one column over 0 <= n <= nmax, and each term adds or
    subtracts d_k from a slice of it at C level.  Every term starts at
    n >= e >= m, so the column vanishes below n = m.  Row n reads the
    columns at n for 0 <= m <= n and is completed by the m <-> -m
    symmetry.  Note the crank series yields the weight-1 convention row
    on its own.
    """
    ps = partition_count_series(nmax)
    diffs = [None]  # diffs[k]: d_k over 0 <= i <= nmax
    cols = []  # cols[m][n]: the count at (m, n), 0 <= m, n <= nmax
    for m in range(0, nmax + 1):
        col = [0] * (nmax + 1)
        k = 1
        while (e := base_exponent(k, m)) <= nmax:
            if k == len(diffs):
                diffs.append(ps[:k] + list(map(sub, ps[k:], ps)))
            col[e:] = map(add if k % 2 else sub, col[e:], diffs[k])
            k += 1
        cols.append(col)
    at = list(zip(*cols))  # at[n][m] = cols[m][n]
    return [None] + [list(at[n][n:0:-1] + at[n][:n + 1]) for n in range(1, nmax + 1)]


def _q_rows(nmax: int) -> list:
    """The q rows [q(-n, n), ..., q(n + 2, n)] for 1 <= n <= nmax, at index n.

    For m >= 0 the q counts q(m, n), n <= nmax, are the coefficients of
    a sum over the m-Durfee rectangle widths j >= 0:

      sum over j of q^(j(m+j+1)) F_{m,j},   F_{m,j} = 1/((q)_{m+j} (q)_j).

    The term j places a rectangle of m + j rows and j columns with a row
    of exactly j under it (weight j(m + j + 1)); F_{m,j} fills the
    columns beside the rectangle (parts <= m + j) and the rows under it
    (parts <= j).  The j = 0 term is the partitions with parts <= m.
    One running series carries F_{m,0} across all m, divided in place by
    1 - q^(m+1) once the column of m is done.  A second carries
    F_{0,j} = 1/((q)_j)^2 across the widths j, two divisions by 1 - q^j
    per width, and a third carries each width's F_{m,j} across m from
    F_{0,j}, one division by 1 - q^(m+j) per step.  Each division is in
    place and truncated to the coefficients that term j can still place
    at some n <= nmax.
    Entries for m < 0 use the conjugation complement
    q(m, n) = p(n) - q(-m - 1, n).
    """
    ps = partition_count_series(nmax)
    bounded = [1] + [0] * nmax  # F_{m,0}: the partitions with parts <= m
    q_cols = []  # q_cols[m][n] = q(m, n) for 0 <= m <= nmax + 2
    for m in range(nmax + 3):
        q_cols.append(bounded[:])
        for a in range(m + 1, nmax + 1):
            bounded[a] += bounded[a - m - 1]
    square = [1] + [0] * nmax  # F_{0,j}, from j = 0
    j = 1
    # Term j of m starts at n = j(m + j + 1) = nmax - top + jm, so it reads
    # F_{m,j} to the coefficient top - jm, and m runs while that is >= 0.
    while (top := nmax - j * (j + 1)) >= 0:
        del square[top + 1:]
        for _ in (1, 2):
            for a in range(j, top + 1):
                square[a] += square[a - j]
        fill = square[:]  # F_{m,j}, from m = 0
        for m in range(top // j + 1):
            if m:
                del fill[top - j * m + 1:]
                for a in range(m + j, len(fill)):
                    fill[a] += fill[a - m - j]
            col = q_cols[m]
            col[-len(fill):] = map(add, col[-len(fill):], fill)  # from n = j(m + j + 1)
        j += 1
    at = list(zip(*q_cols))  # at[n][m] = q(m, n) for 0 <= m <= nmax + 2
    # m < 0 reads q(-m - 1, n), from m = -n (index n - 1) up to m = -1 (index 0)
    return [None] + [list(map(sub, repeat(ps[n]), at[n][n - 1::-1])) + list(at[n][:n + 3])
                     for n in range(1, nmax + 1)]


def build_accelerated(nmax: int) -> StatTable:
    """Compute the same tables arithmetically; no enumeration, no tally.

    Rank/crank rows come from `_rows_from_series`.  The q rows come
    from `_q_rows`, which the table calls the first time a q cell is
    read, so a table that is never asked for q never forms them.

    >>> [build_accelerated(10).q_count(m, 10) for m in (-3, 0, 1, 2)]
    [12, 23, 26, 30]
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    rank_rows = _rows_from_series(nmax, lambda k, m: k * (3 * k - 1) // 2 + m * k)
    crank_rows = _rows_from_series(nmax, lambda k, m: k * (k - 1) // 2 + m * k)
    return StatTable(nmax, rank_rows, crank_rows, lambda: _q_rows(nmax), None, "accelerated")


def verify_identities(table: StatTable) -> VerifyReport:
    """Exact identity checks across the table, 1 <= n <= table.nmax.

    Covered: row sums against the pentagonal-recurrence p(n); the
    m <-> -m symmetries; the crank-cumulation/rank-set equality
    M(<= m, n) = q(m, n); the complement identities
    N(<= m+1, n) = p(n) - p_ge(m+2, n) and M(<= m, n) = p(n) - q(-m-1, n)
    and their difference form; the rank-set tail domination
    q(m, n) >= p_ge(-m+1, n) for m >= 0; the interlacing chains
    N(<= m, n) <= M(<= m, n) <= N(<= m+1, n) for m < 0 and its
    equivalent non-negative-m form, checked independently; and the
    moment identities N_1 = 0, M_2 = 2n p, and the two spt routes
    (plus the tallied route when the table carries one).
    """
    nmax = table.nmax
    rec = CheckRecorder()
    # The per-m witnesses are made once: each reads the weight in hand (n, o
    # and its lists) when a check fails at m.
    at_m = lambda m: {"n": n, "m": m}
    cum_at_m = lambda m: {"n": n, "m": m, "cum_crank": cum_crank[o + m], "q": q[o + m]}
    tail_at_m = lambda m: {"n": n, "m": m, "q": q[o + m], "p_ge": p_ge[o - m + 1]}
    chain_below_at_m = lambda m: {"n": n, "m": m, "cum_rank": cum_rank[o + m],
                                  "cum_crank": cum_crank[o + m],
                                  "cum_rank_next": cum_rank[o + m + 1]}
    chain_above_at_m = lambda m: {"n": n, "m": m, "cum_rank_prev": cum_rank[o + m - 1],
                                  "cum_crank": cum_crank[o + m], "cum_rank": cum_rank[o + m]}
    for n in range(1, nmax + 1):
        pn = partition_count(n)
        # The weight's six lists are read whole, once; m sits at index m + o.
        o = n + 3
        rank, crank, cum_rank, cum_crank, q, p_ge = table._padded_reads(n)
        rank_total, crank_total = cum_rank[-1], cum_crank[-1]
        rec.expect("rank-row-sums-to-p", rank_total == pn,
                   lambda: {"n": n, "total": rank_total, "p": pn})
        rec.expect("crank-row-sums-to-p", crank_total == pn,
                   lambda: {"n": n, "total": crank_total, "p": pn})
        # Each per-m check is one scan over aligned slices (index i of every
        # list holds m = i - o); m0 is the m of the slices' first entry.
        rec.expect_each("rank-symmetric-in-m", 1, eq, rank[o + 1:o + n + 1], rank[o - 1:2:-1], at_m)
        rec.expect_each("crank-symmetric-in-m", 1, eq, crank[o + 1:o + n + 1], crank[o - 1:2:-1],
                        at_m)
        rec.expect_each("crank-cum-equals-rank-set-count", -n - 2, eq, cum_crank[1:-1], q[1:-1],
                        cum_at_m)
        # over -n - 2 <= m <= n: N(<= m+1) + p_ge(m+2) and M(<= m) + q(-m-1)
        rank_sums = list(map(add, cum_rank[2:-2], p_ge[3:-1]))
        crank_sums = list(map(add, cum_crank[1:-3], q[-3:1:-1]))
        all_p = [pn] * len(rank_sums)
        rec.expect_each("rank-cum-complement", -n - 2, eq, rank_sums, all_p, at_m)
        rec.expect_each("crank-cum-complement", -n - 2, eq, crank_sums, all_p, at_m)
        rec.expect_each("cum-difference-transfer", -n - 2, eq, rank_sums, crank_sums, at_m)
        rec.expect_each("rank-set-count-dominates-rank-tail", 0, ge, q[o:-1], p_ge[o + 1:1:-1],
                        tail_at_m)
        # N(<= m) <= M(<= m) <= N(<= m+1), and N(<= m-1) <= M(<= m) <= N(<= m)
        rec.expect_each("cum-chain-negative-m", -n - 2, le, cum_rank[1:o], cum_crank[1:o],
                        chain_below_at_m, le, cum_rank[2:o + 1])
        rec.expect_each("cum-chain-nonnegative-m", 0, le, cum_rank[o - 1:-2], cum_crank[o:-1],
                        chain_above_at_m, le, cum_rank[o:-1])
        rec.expect("rank-first-moment-vanishes", table.moment_rank(1, n) == 0,
                   lambda: {"n": n, "N1": table.moment_rank(1, n)})
        m2_rank = table.moment_rank(2, n)
        m2_crank = table.moment_crank(2, n)
        rec.expect("crank-second-moment-is-2np", m2_crank == 2 * n * pn,
                   lambda: {"n": n, "M2": m2_crank, "2np": 2 * n * pn})
        # an odd 2n p(n) - N_2(n) fails every check reading spt(n)
        spt_from_rank, odd = table._spt_from_moment(n, m2_rank)
        rec.expect("spt-moment-routes-agree",
                   odd is None and 2 * spt_from_rank == m2_crank - m2_rank,
                   odd or (lambda: {"n": n, "spt": spt_from_rank, "M2-N2": m2_crank - m2_rank}))
        if table._spt is not None:
            rec.expect("spt-tally-matches-moments",
                       odd is None and table.spt_tally(n) == spt_from_rank,
                       odd or (lambda: {"n": n, "tally": table.spt_tally(n),
                                        "moments": spt_from_rank}))
    return rec.report("identities", {"nmin": 1, "nmax": nmax, "backend": table.provenance})


def verify_bounds(table: StatTable) -> VerifyReport:
    """Inequality checks for 1 <= n <= table.nmax, integer-exact wherever
    the bound is algebraic.

    Square-root bounds compare squares; the sqrt(6n)/pi lower bound
    multiplies through by a rational lower approximation of pi^2, which
    is sufficient because the inequality is strict with room at desk
    scale.  The report's `info` block carries the asymptotic trend
    ratios (no pass/fail semantics): the cumulation gaps at the largest
    n in range divided by their predicted main terms.
    """
    nmax = table.nmax
    rec = CheckRecorder()
    for n in range(1, nmax + 1):
        pn = partition_count(n)
        # an odd 2n p(n) - N_2(n) fails every spt check; N_2(n) serves k = 1 below
        m2_rank = table.moment_rank(2, n)
        spt_n, odd = table._spt_from_moment(n, m2_rank)
        abs_crank = table.abs_crank_moment(n)
        if n >= 2:
            ospt_n = table.ospt_moments(n)
            rec.expect("ospt-positive", ospt_n > 0, lambda: {"n": n, "ospt": ospt_n})
            rec.expect("ospt-at-most-half-crank-zero-gap",
                       2 * ospt_n <= pn - table.crank_count(0, n),
                       lambda: {"n": n, "ospt": ospt_n, "p": pn, "M0": table.crank_count(0, n)})
        rec.expect("spt-at-most-sqrt-2n-p",
                   odd is None and spt_n * spt_n <= 2 * n * pn * pn,
                   odd or (lambda: {"n": n, "spt": spt_n, "p": pn}))
        if n >= 5:
            rec.expect("spt-at-least-sqrt-6n-over-pi-p",
                       odd is None
                       and 6 * n * pn * pn * PI_SQ_LO_DEN <= PI_SQ_LO_NUM * spt_n * spt_n,
                       odd or (lambda: {"n": n, "spt": spt_n, "p": pn}))
            rec.expect("spt-at-most-sqrt-n-p",
                       odd is None and spt_n * spt_n <= n * pn * pn,
                       odd or (lambda: {"n": n, "spt": spt_n, "p": pn}))
        rec.expect("spt-at-most-abs-crank-sum",
                   odd is None and spt_n <= abs_crank,
                   odd or (lambda: {"n": n, "spt": spt_n, "abs_crank_sum": abs_crank}))
        if n >= 2:
            # Cauchy-Schwarz over the crank row needs every entry
            # nonnegative; the weight-1 convention row has a -1, so the
            # squared-sum bound starts at n = 2.
            rec.expect("abs-crank-sum-at-most-sqrt-2n-p",
                       abs_crank * abs_crank <= 2 * n * pn * pn,
                       lambda: {"n": n, "abs_crank_sum": abs_crank, "p": pn})
        for k in (1, 2, 3):
            m2k_crank = table.moment_crank(2 * k, n)
            n2k_rank = m2_rank if k == 1 else table.moment_rank(2 * k, n)
            rec.expect(f"crank-even-moment-dominates-k{k}", m2k_crank > n2k_rank,
                       lambda: {"n": n, "k": k, "M2k": m2k_crank, "N2k": n2k_rank})
    ratios = []
    pn = partition_count(nmax)
    for m in (-1, -2, -3):
        if -m > nmax:
            continue
        gap_within = table.cum_crank(m, nmax) - table.cum_rank(m, nmax)
        gap_shift = table.cum_rank(m + 1, nmax) - table.cum_crank(m, nmax)
        main_within = -(1 + 2 * m) * math.pi**2 / (96 * nmax) * pn
        main_shift = math.pi / (4 * math.sqrt(6 * nmax)) * pn
        ratios.append({
            "m": m,
            "n": nmax,
            "crank-rank-gap-over-main-term": round(gap_within / main_within, 6),
            "shifted-rank-crank-gap-over-main-term": round(gap_shift / main_shift, 6),
        })
    return rec.report("bounds", {"nmin": 1, "nmax": nmax, "backend": table.provenance},
                      info={"asymptotic-trend-ratios": ratios})

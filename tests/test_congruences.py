"""Classical congruences on the exact rows of both backends through n = 100.

Neither backend encodes these theorems, so they can fail where the two
backends agree cell for cell, as under a convention both share:

* the rank's residues mod 5 and 7 are equidistributed on the weights
  5k + 4 and 7k + 5 (Dyson 1944; Atkin and Swinnerton-Dyer 1954);
* the crank's residues mod 5, 7 and 11 are equidistributed on the
  weights 5k + 4, 7k + 5 and 11k + 6 (Andrews and Garvan 1988);
* spt(5k + 4), spt(7k + 5) and spt(13k + 6) are divisible by 5, 7 and
  13 (Andrews 2008).
"""

import pytest

from rankcrank.partitions import partition_count

NMAX = 100


@pytest.fixture(params=["enumerated", "accelerated"])
def table(request, table100, accel100):
    return table100 if request.param == "enumerated" else accel100


def weights(modulus: int, residue: int) -> range:
    """The weights residue, residue + modulus, ... up to NMAX."""
    return range(residue, NMAX + 1, modulus)


def residue_counts(row: list, n: int, modulus: int) -> list:
    """The row's counts summed by m mod `modulus`; m sits at index m + n."""
    counts = [0] * modulus
    for i, count in enumerate(row):
        counts[(i - n) % modulus] += count
    return counts


def assert_equidistributed(read_row, modulus: int, residue: int):
    for n in weights(modulus, residue):
        share = partition_count(n) // modulus
        assert residue_counts(read_row(n), n, modulus) == [share] * modulus, n


@pytest.mark.parametrize("modulus, residue", [(5, 4), (7, 5)])
def test_rank_residues_equidistributed(table, modulus, residue):
    assert_equidistributed(table.rank_row, modulus, residue)


@pytest.mark.parametrize("modulus, residue", [(5, 4), (7, 5), (11, 6)])
def test_crank_residues_equidistributed(table, modulus, residue):
    assert_equidistributed(table.crank_row, modulus, residue)


SPT_CONGRUENCES = [(5, 4), (7, 5), (13, 6)]


@pytest.mark.parametrize("modulus, residue", SPT_CONGRUENCES)
def test_spt_from_moment_divisible(table, modulus, residue):
    for n in weights(modulus, residue):
        spt, odd = table._spt_from_moment(n, table.moment_rank(2, n))
        assert odd is None and spt % modulus == 0, (n, spt)


@pytest.mark.parametrize("modulus, residue", SPT_CONGRUENCES)
def test_spt_tally_divisible(table100, modulus, residue):
    for n in weights(modulus, residue):
        spt = table100.spt_tally(n)
        assert spt % modulus == 0, (n, spt)

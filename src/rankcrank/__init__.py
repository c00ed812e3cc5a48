"""Exact rank/crank partition statistics, their tables, and the
combinatorial machinery relating them: rank-set membership, rectangle
symbols, the three weight-preserving injections with their inverses,
the crank-to-rank re-ordering of each weight class, and truncated
series for the generating functions.  Everything is integer-exact;
floats appear only in informational asymptotic summaries.
"""

from .injections import SymbolClass, classify, pi, sigma, theta, theta1, theta2, theta3, verify_injections
from .partitions import Partition, conjugate, enumerate_partitions, partition_count, partition_count_series
from .qseries import TruncatedSeries, euler_inverse, euler_product, ospt_numerator, ospt_series, verify_genfun
from .reordering import ReorderingMap, build_tau, ospt_via_tau, verify_reordering
from .report import CheckRecorder, CheckResult, VerifyReport
from .statistics import crank, rank, rank_set_contains, smallest_part_count
from .symbols import MDurfeeSymbol, format_symbol, from_symbol, parse_symbol, rank_at_least, rank_set_has_m, to_symbol
from .tables import StatTable, build, build_accelerated, verify_bounds, verify_identities

__version__ = "0.1.0"

__all__ = [
    "CheckRecorder",
    "CheckResult",
    "MDurfeeSymbol",
    "Partition",
    "ReorderingMap",
    "StatTable",
    "SymbolClass",
    "TruncatedSeries",
    "VerifyReport",
    "build",
    "build_accelerated",
    "build_tau",
    "classify",
    "conjugate",
    "crank",
    "enumerate_partitions",
    "euler_inverse",
    "euler_product",
    "format_symbol",
    "from_symbol",
    "ospt_numerator",
    "ospt_series",
    "ospt_via_tau",
    "parse_symbol",
    "partition_count",
    "partition_count_series",
    "pi",
    "rank",
    "rank_at_least",
    "rank_set_contains",
    "rank_set_has_m",
    "sigma",
    "smallest_part_count",
    "theta",
    "theta1",
    "theta2",
    "theta3",
    "to_symbol",
    "verify_bounds",
    "verify_genfun",
    "verify_identities",
    "verify_injections",
    "verify_reordering",
]

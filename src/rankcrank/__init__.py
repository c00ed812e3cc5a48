"""Exact rank/crank partition statistics, their tables, and the
combinatorial machinery relating them: rank-set membership, rectangle
symbols, the three weight-preserving injections with their inverses,
the crank-to-rank re-ordering of each weight class, and the generating
functions as truncated coefficient lists.  Everything is integer-exact;
floats appear only in informational asymptotic summaries.
"""

__version__ = "0.1.0"

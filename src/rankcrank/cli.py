"""Command-line front end.

Machine-readable output (tables, JSON reports, comparison rows) goes
to stdout; narration goes to stderr.  Exit codes: 0 when everything
asked for passed, 1 when a verification or comparison failed, 2 for
usage errors (bad flags, out-of-range parameters).

`main` parses every request of a process with one parser, built on its
first call; `build_parser` builds a fresh one each time it is called.

Every supported range (lowest, default and highest nmax of each
request, and its clamp under `verify --suite all`) lives in `RANGES`
below; anything outside its row exits 2 before any work starts.  A
`verify` run builds at most two tables before its first suite; a
series table forms its q rows later, when a suite first reads them
(identities and injections do, inside their own timing).  The table
suites read the chosen backend's table.  The map suites (injections,
tau) compare the partitions they list with the arithmetic table, so
they never build an enumeration table: they share one accelerated
table, which on the arithmetic backend is also the table suites' own.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import NamedTuple

from . import injections, qseries, reordering, tables
from .report import VerifyReport
from .symbols import MDurfeeSymbol, format_symbol, parse_symbol

SUITES = ("identities", "injections", "tau", "bounds", "genfun", "all")
# The map suites list partitions and check them against the arithmetic
# (series) table on either backend; the other three read the chosen
# backend's table and share one range row.
MAP_SUITES = ("injections", "tau")
TABLE_SUITES = "verify identities/bounds/genfun"


class Range(NamedTuple):
    lowest: int
    default: int | None
    highest: int
    highest_in_all: int | None = None  # the clamp under `verify --suite all`


# (command or "verify <suite family>", backend or ospt method) -> nmax
# range.  A verify suite's backend is "extended" under --extended; a row
# keyed None serves every backend.
RANGES = {
    ("table", "enumerated"): Range(1, None, 60),
    ("table", "accelerated"): Range(1, None, 100),
    (TABLE_SUITES, "enumerated"): Range(1, 60, 60, 60),
    (TABLE_SUITES, "accelerated"): Range(1, 60, 100, 100),
    (TABLE_SUITES, "extended"): Range(1, 100, 100, 100),
    ("verify tau", None): Range(2, 40, 60, 40),
    ("verify injections", None): Range(2, 30, 40, 30),
    ("tau", None): Range(2, None, 60),
    ("inject", None): Range(1, None, 80),
    ("ospt", "moments"): Range(2, 40, 60),
    ("ospt", "tau"): Range(2, 40, 60),
    ("ospt", "genfun"): Range(2, 40, 100),
}
OSPT_METHODS = tuple(method for command, method in RANGES if command == "ospt")


class UsageError(Exception):
    pass


def _nmax(key: tuple[str, str | None], wanted: int | None, clamp: bool = False) -> int:
    """`wanted` (the row's default when None), clamped under --suite all,
    checked against the RANGES row for `key`."""
    row = RANGES[key]
    value = row.default if wanted is None else wanted
    if clamp:
        value = min(value, row.highest_in_all)
    if not row.lowest <= value <= row.highest:
        label = " ".join(part for part in key if part)
        raise UsageError(f"{label} serves nmax {row.lowest}..{row.highest}, got {value}")
    return value


def _narrate(*parts) -> None:
    print(*parts, file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankcrank",
        description="Exact rank/crank partition tables, injections, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit N(m,n)/M(m,n) tables")
    p_table.add_argument("--stat", choices=("rank", "crank", "both"), default="both")
    scope = p_table.add_mutually_exclusive_group(required=True)
    scope.add_argument("--nmax", type=int, help="all rows 1..nmax")
    scope.add_argument("--n", type=int, help="single weight")
    p_table.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p_table.add_argument("--backend", choices=("enumerated", "accelerated"),
                         default="enumerated")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--nmax", type=int, default=None)
    p_verify.add_argument("--extended", action="store_true",
                          help="run the table suites on the arithmetic backend, "
                               "over its whole range by default")
    p_verify.add_argument("--backend", choices=("enumerated", "accelerated"), default=None)

    p_tau = sub.add_parser("tau", help="print the crank-to-rank re-ordering of weight n")
    p_tau.add_argument("--n", type=int, required=True)
    p_tau.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_tau.add_argument("--seed-order", choices=reordering.TIE_BREAKS,
                       default="lex-descending", help="tie-break inside equal statistic values")

    p_inject = sub.add_parser("inject", help="demonstrate one injection case")
    p_inject.add_argument("--m", type=int, required=True)
    p_inject.add_argument("--n", type=int, required=True)
    p_inject.add_argument("--case", choices=("P2", "P3"), required=True)
    p_inject.add_argument("--symbol", type=str, default=None,
                          help="symbol text like '[2,1 | 1]_(3x2)'; default: first member")

    p_ospt = sub.add_parser("ospt", help="compare ospt(n) across computation routes")
    p_ospt.add_argument("--max-n", type=int, default=None)
    p_ospt.add_argument("--methods", type=str, default=",".join(OSPT_METHODS),
                        help=f"comma-separated subset of {','.join(OSPT_METHODS)}")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser `main` reuses: parsing leaves no state on it."""
    return build_parser()


# -- table ---------------------------------------------------------------


def _table(nmax: int, backend: str) -> tables.StatTable:
    """The `backend` table through nmax, checked against its range row."""
    _nmax(("table", backend), nmax)
    return (tables.build if backend == "enumerated" else tables.build_accelerated)(nmax)


def cmd_table(args) -> int:
    single = args.n is not None
    nmax = args.n if single else args.nmax
    table = _table(nmax, args.backend)
    weights = [nmax] if single else range(1, nmax + 1)
    columns, reads = {
        "rank": (("N",), (table.rank_row,)),
        "crank": (("M",), (table.crank_row,)),
        "both": (("N", "M"), (table.rank_row, table.crank_row)),
    }[args.stat]
    # each weight's rows are read once and written with one call
    if args.format == "csv":
        sys.stdout.write("n,m," + ",".join(columns) + "\n")
        for n in weights:
            line = f"{n},{{}}" + ",{}" * len(reads) + "\n"
            sys.stdout.write("".join(map(line.format, range(-n, n + 1),
                                         *[read(n) for read in reads])))
    elif args.format == "json":
        out = {} if single else {"nmax": nmax}
        out["provenance"] = table.provenance
        for column, read in zip(columns, reads):
            out["rank" if column == "N" else "crank"] = {
                str(n): dict(zip(map(str, range(-n, n + 1)), read(n))) for n in weights}
        if single:
            out["n"] = nmax
        json.dump(out, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        header = f"{'m':>5}  " + "  ".join(f"{c:>8}" for c in columns) + "\n"
        line = "{:>5}" + "  {:>8}" * len(reads) + "\n"
        for n in weights:
            rows = zip(range(-n, n + 1), *[read(n) for read in reads])
            sys.stdout.write(("" if single else f"-- n = {n}\n") + header + "".join(
                line.format(*row) for row in rows if any(row[1:])))
    _narrate(f"table: stat={args.stat} n<={nmax} backend={table.provenance}")
    return 0


# -- verify --------------------------------------------------------------


def cmd_verify(args) -> int:
    backend = args.backend
    if args.extended and backend == "enumerated":
        raise UsageError("--extended needs the accelerated backend")
    if backend is None:
        backend = "accelerated" if args.extended else "enumerated"
    variant = "extended" if args.extended else backend
    # every component is checked before the first table is built
    plan = {suite: _nmax((f"verify {suite}", None) if suite in MAP_SUITES
                         else (TABLE_SUITES, variant), args.nmax, args.suite == "all")
            for suite in (SUITES[:-1] if args.suite == "all" else (args.suite,))}
    # At most two tables.  The table suites share the chosen backend's table
    # at their one nmax.  The map suites share one series table at the
    # larger of their nmax (their rows n <= nmax do not depend on the
    # table's own nmax).  On the arithmetic backend that is the table
    # suites' own table: under --suite all their nmax is never the smaller.
    table_nmax = next((nmax for suite, nmax in plan.items() if suite not in MAP_SUITES), None)
    series_nmax = max((nmax for suite, nmax in plan.items() if suite in MAP_SUITES),
                      default=None)
    started = time.monotonic()
    table = series = None
    if table_nmax is not None:
        table = _table(table_nmax, backend)
    if series_nmax is not None:
        series = (table if backend == "accelerated" and table is not None
                  else _table(series_nmax, "accelerated"))
    run = {
        "identities": lambda nmax: tables.verify_identities(table),
        "bounds": lambda nmax: tables.verify_bounds(table),
        "injections": lambda nmax: injections.verify_injections(
            mmax=6, nmax=nmax, table=series),
        "tau": lambda nmax: reordering.verify_reordering(nmax, table=series),
        "genfun": lambda nmax: qseries.verify_genfun(
            nmax, table, tau_limit=min(nmax, RANGES[("verify tau", None)].default)),
    }
    reports = []
    for suite, nmax in plan.items():
        _narrate(f"running suite {suite} (nmax={nmax})...")
        reports.append(run[suite](nmax))
    if args.suite == "all":
        merged = VerifyReport(
            suite="all",
            range={"components": {r.suite: r.range for r in reports}},
            checks=[type(c)(f"{r.suite}:{c.id}", c.status, c.witness)
                    for r in reports for c in r.checks],
            elapsed_ms=int((time.monotonic() - started) * 1000),
            info={r.suite: r.info for r in reports if r.info} or None,
        )
        report = merged
    else:
        report = reports[0]
    sys.stdout.write(report.to_json() + "\n")
    for line in report.summary_lines():
        _narrate(line)
    return 0 if report.ok else 1


# -- tau -----------------------------------------------------------------


def _parts_text(p) -> str:
    return "(" + ",".join(map(str, p)) + ")"


def cmd_tau(args) -> int:
    _nmax(("tau", None), args.n)
    rmap = reordering.build_tau(args.n, args.seed_order)
    partitions = rmap.partitions
    # (lambda, crank(lambda), tau(lambda), rank(tau(lambda))), crank-ascending
    rows = zip(map(partitions.__getitem__, rmap.by_crank), rmap.cranks,
               map(partitions.__getitem__, rmap.by_rank), rmap.ranks)
    if args.format == "json":
        # The layout of `json.dumps(payload, indent=2)`, written one row at a
        # time: the payload is an object of n, tie_break and rows, each row an
        # object of partition, crank, image, rank and diff, every list
        # non-empty (n >= 2), and the pure-Python indenting encoder is slow.
        parts = ",\n        ".join
        sys.stdout.write(f'{{\n  "n": {args.n},\n'
                         f'  "tie_break": {json.dumps(args.seed_order)},\n'
                         f'  "rows": [')
        sep = "\n"
        for lam, c, mu, r in rows:
            sys.stdout.write(
                f'{sep}    {{\n'
                f'      "partition": [\n        {parts(map(str, lam))}\n      ],\n'
                f'      "crank": {c},\n'
                f'      "image": [\n        {parts(map(str, mu))}\n      ],\n'
                f'      "rank": {r},\n'
                f'      "diff": {c - r}\n'
                f'    }}')
            sep = ",\n"
        sys.stdout.write("\n  ]\n}\n")
    elif args.format == "csv":
        sys.stdout.write("partition,crank,image,rank,diff\n")
        for lam, c, mu, r in rows:
            sys.stdout.write(
                f"{'+'.join(map(str, lam))},{c},{'+'.join(map(str, mu))},{r},{c - r}\n")
    else:
        # Both columns hold every partition once (tau is a bijection), and
        # 1^n is the widest: a text is one character plus len(str(k)) + 1
        # per part k, which is at most 2k, with equality only at k = 1.
        mid = 2 * args.n + 1
        left = max(len("partition"), mid)
        sys.stdout.write(
            f"{'partition':>{left}}  {'crank':>5}  {'image':>{mid}}  {'rank':>4}  {'diff':>4}\n")
        for lam, c, mu, r in rows:
            sys.stdout.write(
                f"{_parts_text(lam):>{left}}  {c:>5}  {_parts_text(mu):>{mid}}  {r:>4}  {c - r:>4}\n")
    _narrate(f"tau on {len(partitions)} partitions of {args.n}, tie-break {args.seed_order}")
    return 0


# -- inject ---------------------------------------------------------------


def cmd_inject(args) -> int:
    if args.m < 0:
        raise UsageError("m must be >= 0")
    _nmax(("inject", None), args.n)
    if args.symbol is not None:
        try:
            sym = parse_symbol(args.symbol)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if sym.m != args.m or sym.weight != args.n:
            raise UsageError(
                f"symbol has m = {sym.m}, weight = {sym.weight}; "
                f"flags say m = {args.m}, n = {args.n}")
        if injections.classify(sym, "P") != args.case:
            raise UsageError(f"symbol is not in class {args.case}: {format_symbol(sym)}")
    else:
        # The first member in listing (lex-decreasing) order, found without
        # listing: the lightest members are [1 | ]_((m+1)x1) in P2 and
        # [1 | ]_((m+2)x2) in P3, and padding alpha with ones reaches every
        # heavier weight, so a class is empty exactly when n is below that
        # weight.  The padded symbol is the partition (n - m, 1^m) in P2 and
        # (n - 2m - 2, 2^(m+1)) in P3.  Every member has at least m + 1
        # parts (j >= 1), and in P3 at least m + 2 parts >= 2 (j >= 2), so
        # no member has a larger first part, and that first part forces the
        # rest: no member comes earlier.
        j, lightest = (1, args.m + 2) if args.case == "P2" else (2, 2 * args.m + 5)
        if args.n < lightest:
            _narrate(f"{args.case}(-m+1 = {-args.m + 1}, n = {args.n}) is empty")
            return 1
        sym = MDurfeeSymbol(args.m, j, (1,) * (args.n - lightest + 1), ())
    forward = injections.theta2 if args.case == "P2" else injections.theta3
    backward = injections.sigma if args.case == "P2" else injections.pi
    image = forward(sym)
    recovered = backward(image)
    sys.stdout.write(f"input:     {format_symbol(sym)}\n")
    sys.stdout.write(f"image:     {format_symbol(image)}\n")
    sys.stdout.write(f"recovered: {format_symbol(recovered)}\n")
    q_class = injections.classify(image, "Q") or "no Q class"
    _narrate(f"{args.case} member of weight {sym.weight} maps into {q_class}; "
             f"round-trip {'ok' if recovered == sym else 'FAILED'}")
    return 0 if recovered == sym else 1


# -- ospt -----------------------------------------------------------------


def cmd_ospt(args) -> int:
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    if not methods or any(m not in OSPT_METHODS for m in methods):
        raise UsageError(f"--methods must be a non-empty subset of {','.join(OSPT_METHODS)}")
    # checked against every chosen method's row; the rows share one default
    max_n = min(_nmax(("ospt", m), args.max_n) for m in methods)
    # each route's values as one list indexed by n; tau has none below n = 2
    values: dict[str, list[int | None]] = {}
    if "moments" in methods:
        table = _table(max_n, "enumerated")
        values["moments"] = [None, *map(table.ospt_moments, range(1, max_n + 1))]
    if "tau" in methods:
        values["tau"] = [None, None, *map(reordering.ospt_via_statistics, range(2, max_n + 1))]
    if "genfun" in methods:
        values["genfun"] = qseries.ospt_series(max_n)
    sys.stdout.write("n," + ",".join(methods) + "\n")
    agree = True
    for n in range(1, max_n + 1):
        row = [values[m][n] for m in methods]
        if len({v for v in row if v is not None}) > 1:
            agree = False
        sys.stdout.write(f"{n}," + ",".join("-" if v is None else str(v) for v in row) + "\n")
    sys.stdout.write(f"verdict: {'AGREE' if agree else 'DISAGREE'}\n")
    _narrate(f"ospt routes {', '.join(methods)} compared through n = {max_n}")
    return 0 if agree else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "table": cmd_table,
        "verify": cmd_verify,
        "tau": cmd_tau,
        "inject": cmd_inject,
        "ospt": cmd_ospt,
    }[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        _narrate(f"usage error: {exc}")
        return 2


def entrypoint() -> None:
    sys.exit(main())

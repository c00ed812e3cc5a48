"""Request plans for the benchmark workloads.

A plan is an endless sequence of passes; a pass is a list of CLI argv
lists that the client sends one after another.  The same seed yields
the same passes.  Why each workload exists:

* ``oracle``: one enumeration-backend identities request.  Its table
  build streams every partition of every n <= 50 and is nearly all of
  the time; symbols, injections, reordering and qseries stay idle.
* ``maps``: the injection suite and the tau suite.  Time goes to the
  symbol maps, their witnesses and the re-ordering; the enumeration
  table is small.
* ``desk``: short extended-range requests on the accelerated backend,
  as a long-lived caller sends them.  No enumeration; many small
  table builds, table reads and q-series.  Requests repeat
  (backend, nmax) pairs, so work that could be shared across requests
  shows here and not on ``oracle``.

Only ``desk`` draws from the seed: the order of its requests and each
request's nmax.  Every desk pass holds the same number of requests of
each kind, and each kind's nmax values fall one per stratum of
60..100, so passes cost about the same whatever the seed.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

WORKLOADS = ("oracle", "maps", "desk")

ORACLE_PASS = (("verify", "--suite", "identities", "--nmax", "50"),)
MAPS_PASS = (
    ("verify", "--suite", "injections", "--nmax", "26"),
    ("verify", "--suite", "tau", "--nmax", "38"),
)
DESK_KINDS = ("identities", "bounds", "table", "ospt")
DESK_NMAX = (60, 100)
DESK_PER_KIND = 6


def desk_request(kind: str, nmax: int) -> tuple[str, ...]:
    """The argv of one desk request of the given kind."""
    n = str(nmax)
    if kind in ("identities", "bounds"):
        return ("verify", "--suite", kind, "--nmax", n, "--extended")
    if kind == "table":
        return ("table", "--stat", "both", "--nmax", n, "--backend", "accelerated",
                "--format", "csv")
    if kind == "ospt":
        return ("ospt", "--max-n", n, "--methods", "genfun")
    raise ValueError(f"unknown desk request kind {kind!r}")


def _desk_pass(rng: random.Random) -> list[tuple[str, ...]]:
    lo, hi = DESK_NMAX
    width = hi - lo + 1
    requests = []
    for kind in DESK_KINDS:
        for k in range(DESK_PER_KIND):
            first = lo + width * k // DESK_PER_KIND
            last = lo + width * (k + 1) // DESK_PER_KIND - 1
            requests.append(desk_request(kind, rng.randint(first, last)))
    rng.shuffle(requests)
    return requests


def passes(workload: str, seed: int) -> Iterator[list[tuple[str, ...]]]:
    """Yield the workload's passes without end."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    while True:
        if workload == "oracle":
            yield list(ORACLE_PASS)
        elif workload == "maps":
            yield list(MAPS_PASS)
        else:
            yield _desk_pass(rng)


def request_nmax(argv) -> int:
    """The range a request asks for: its --nmax, or --max-n for ospt."""
    return int(argv[argv.index("--max-n" if argv[0] == "ospt" else "--nmax") + 1])


def desk_table_key(argv) -> tuple[str, int] | None:
    """The (backend, nmax) table a desk request builds, or None if it builds none."""
    if argv[0] == "ospt":
        return None
    return ("accelerated", request_nmax(argv))


def every_request() -> list[tuple[str, ...]]:
    """Every request any workload can send, for the stored references."""
    lo, hi = DESK_NMAX
    out = list(ORACLE_PASS) + list(MAPS_PASS)
    out += [desk_request(kind, n) for kind in DESK_KINDS for n in range(lo, hi + 1)]
    return out

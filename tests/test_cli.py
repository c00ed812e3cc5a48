import hashlib
import json
import re
import subprocess
import sys
from itertools import takewhile
from pathlib import Path
from types import SimpleNamespace

import pytest

import rankcrank
from oracles import tau_pairs
from rankcrank import cli, injections, partitions, qseries, reordering, tables
from rankcrank.cli import RANGES, TABLE_SUITES, build_parser, main
from rankcrank.report import VerifyReport
from rankcrank.symbols import to_symbol


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text_single_weight(capsys):
    code, out, _ = run(capsys, "table", "--stat", "crank", "--n", "4", "--format", "text")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert rows == [["-4", "1"], ["-2", "1"], ["0", "1"], ["2", "1"], ["4", "1"]]


@pytest.mark.parametrize("stat, nmax, lines", [
    ("both", "1", ["n,m,N,M", "1,-1,0,1", "1,0,1,-1", "1,1,0,1"]),
    ("both", "2", ["n,m,N,M", "1,-1,0,1", "1,0,1,-1", "1,1,0,1",
                   "2,-2,0,1", "2,-1,1,0", "2,0,0,0", "2,1,1,0", "2,2,0,1"]),
    ("rank", "2", ["n,m,N", "1,-1,0", "1,0,1", "1,1,0",
                   "2,-2,0", "2,-1,1", "2,0,0", "2,1,1", "2,2,0"]),
    ("crank", "2", ["n,m,M", "1,-1,1", "1,0,-1", "1,1,1",
                    "2,-2,1", "2,-1,0", "2,0,0", "2,1,0", "2,2,1"]),
], ids=["both-nmax1", "both-nmax2", "rank-nmax2", "crank-nmax2"])
def test_table_csv_weight_one_convention(capsys, stat, nmax, lines):
    code, out, _ = run(capsys, "table", "--stat", stat, "--nmax", nmax, "--format", "csv")
    assert code == 0
    assert out.splitlines() == lines


def test_table_json_single(capsys):
    code, out, _ = run(capsys, "table", "--stat", "rank", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["provenance", "rank", "n"]
    assert data["n"] == 3
    assert data["rank"] == {"3": {"-3": 0, "-2": 1, "-1": 0, "0": 1, "1": 0, "2": 1, "3": 0}}


def test_table_json_nmax(capsys):
    code, out, _ = run(capsys, "table", "--stat", "both", "--nmax", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["nmax", "provenance", "rank", "crank"]
    assert data["nmax"] == 3
    assert data["provenance"] == "enumerated"
    assert list(data["rank"]) == list(data["crank"]) == ["1", "2", "3"]
    assert data["rank"]["2"] == {"-2": 0, "-1": 1, "0": 0, "1": 1, "2": 0}
    assert data["crank"]["1"] == {"-1": 1, "0": -1, "1": 1}


def test_table_requires_scope(capsys):
    with pytest.raises(SystemExit) as err:
        main(["table", "--stat", "rank"])
    assert err.value.code == 2


def test_table_accelerated_backend(capsys):
    code, out, _ = run(capsys, "table", "--stat", "crank", "--n", "80",
                       "--format", "csv", "--backend", "accelerated")
    assert code == 0
    assert out.splitlines()[0] == "n,m,M"
    # enumerated backend refuses that range
    code, _, err = run(capsys, "table", "--stat", "crank", "--n", "80", "--format", "csv")
    assert code == 2
    assert "nmax" in err


def test_verify_identities_json(capsys):
    code, out, err = run(capsys, "verify", "--suite", "identities", "--nmax", "10")
    assert code == 0
    rep = VerifyReport.from_json(out)
    assert rep.ok and rep.suite == "identities"
    assert rep.range == {"nmin": 1, "nmax": 10, "backend": "enumerated"}
    assert "all checks passed" in err


# One request of each kind the benchmark's workloads send: the maps
# requests, the oracle request, and the desk requests at nmax 60 and 100.
BENCHMARK_REQUESTS = [
    ("verify", "--suite", "injections", "--nmax", "26"),
    ("verify", "--suite", "tau", "--nmax", "38"),
    ("verify", "--suite", "identities", "--nmax", "50"),
    *(("verify", "--suite", suite, "--nmax", nmax, "--extended")
      for suite in ("identities", "bounds") for nmax in ("60", "100")),
    *(("table", "--stat", "both", "--nmax", nmax, "--backend", "accelerated", "--format", "csv")
      for nmax in ("60", "100")),
    *(("ospt", "--max-n", nmax, "--methods", "genfun") for nmax in ("60", "100")),
]


@pytest.mark.parametrize("argv", BENCHMARK_REQUESTS)
def test_maps_requests_list_the_benchmark_check_sets(capsys, argv):
    # the benchmark refuses any change to a verify report's check set or to
    # another request's stdout, as its stored references record them
    refs = json.loads((Path(__file__).parents[1] / "bench" / "references.json").read_text())
    ref = refs["requests"][" ".join(argv)]
    code, out, _ = run(capsys, *argv)
    assert code == ref["exit"]
    if "check_set" in ref:
        checks = {c.id: c.status for c in VerifyReport.from_json(out).checks}
        assert checks == refs["check_sets"][ref["check_set"]]
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == ref["stdout_sha256"]


GENFUN_IDS = ["euler-inverse-counts-partitions", "ospt-series-matches-moments",
              "ospt-series-positive", "ospt-series-matches-tau"]


@pytest.mark.parametrize("nmax, ids", [
    ("1", GENFUN_IDS[:2]),  # no weight n >= 2: positivity and tau have no instance
    ("2", GENFUN_IDS),
], ids=["nmax1", "nmax2"])
def test_verify_genfun_lists_the_checks_that_ran(capsys, nmax, ids):
    code, out, _ = run(capsys, "verify", "--suite", "genfun", "--nmax", nmax)
    assert code == 0
    assert [c.id for c in VerifyReport.from_json(out).checks] == sorted(ids)


def test_verify_tau_rejects_nmax_one(capsys):
    code, _, err = run(capsys, "verify", "--suite", "tau", "--nmax", "1")
    assert code == 2
    assert "usage error" in err


def test_verify_range_caps(capsys):
    code, _, err = run(capsys, "verify", "--suite", "identities", "--nmax", "70")
    assert code == 2
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--nmax", "70",
                       "--extended")
    assert code == 0
    rep = VerifyReport.from_json(out)
    assert rep.ok and rep.range["backend"] == "accelerated"
    # extended is an accelerated-backend mode by definition
    code, _, err = run(capsys, "verify", "--suite", "identities", "--nmax", "70",
                       "--extended", "--backend", "enumerated")
    assert code == 2


def test_verify_all_merges_and_clamps(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--nmax", "6")
    assert code == 0
    rep = VerifyReport.from_json(out)
    assert rep.ok and rep.suite == "all"
    prefixes = {c.id.split(":")[0] for c in rep.checks}
    assert prefixes == {"identities", "injections", "tau", "bounds", "genfun"}
    assert set(rep.range["components"]) == prefixes
    assert rep.info and "bounds" in rep.info


@pytest.mark.parametrize("flags, enumerated, accelerated, table_nmax", [
    ((), [60], [40], 60),
    (("--backend", "accelerated"), [], [60], 60),
    (("--extended",), [], [100], 100),
], ids=["enumerated", "accelerated", "extended"])
def test_verify_all_table_plan(capsys, monkeypatch, flags, enumerated, accelerated,
                               table_nmax):
    # stand-in tables and suites record who read which table at which nmax
    builds = []
    accelerated_builds = []
    received = {}

    def build(nmax):
        builds.append(nmax)
        return SimpleNamespace(nmax=nmax, provenance="enumerated")

    def build_accelerated(nmax):
        accelerated_builds.append(nmax)
        return SimpleNamespace(nmax=nmax, provenance="accelerated")

    def record(name, nmax, table):
        received[name] = (nmax, table)
        return VerifyReport(suite=name, range={"nmax": nmax})

    monkeypatch.setattr(tables, "build", build)
    monkeypatch.setattr(tables, "build_accelerated", build_accelerated)
    monkeypatch.setattr(tables, "verify_identities",
                        lambda table: record("identities", table.nmax, table))
    monkeypatch.setattr(tables, "verify_bounds",
                        lambda table: record("bounds", table.nmax, table))
    monkeypatch.setattr(qseries, "verify_genfun",
                        lambda order, table, tau_limit: record("genfun", order, table))
    monkeypatch.setattr(injections, "verify_injections",
                        lambda mmax, nmax, table: record("injections", nmax, table))
    monkeypatch.setattr(reordering, "verify_reordering",
                        lambda nmax, table: record("tau", nmax, table))
    code, out, _ = run(capsys, "verify", "--suite", "all", *flags)
    assert code == 0
    assert (builds, accelerated_builds) == (enumerated, accelerated)
    nmaxes = {name: nmax for name, (nmax, _) in received.items()}
    assert nmaxes == {"identities": table_nmax, "bounds": table_nmax, "genfun": table_nmax,
                      "injections": 30, "tau": 40}
    # the map suites share one series table; the table suites share theirs
    series = received["injections"][1]
    assert received["tau"][1] is series and series.provenance == "accelerated"
    table = received["identities"][1]
    assert received["bounds"][1] is table and received["genfun"][1] is table
    assert table.nmax == table_nmax and (table is series) == (not enumerated)
    components = VerifyReport.from_json(out).range["components"]
    assert components["injections"] == {"nmax": 30} and components["tau"] == {"nmax": 40}


@pytest.mark.parametrize("suite", ["injections", "tau"])
def test_map_suites_build_no_enumeration_table(capsys, monkeypatch, suite):
    def no_enumeration_table(nmax):
        raise AssertionError(f"verify --suite {suite} built an enumeration table")

    monkeypatch.setattr(tables, "build", no_enumeration_table)
    code, out, _ = run(capsys, "verify", "--suite", suite, "--nmax", "8")
    assert code == 0
    rep = VerifyReport.from_json(out)
    assert rep.ok and rep.suite == suite and rep.range["nmax"] == 8


def test_tau_csv_weight_4(capsys):
    code, out, _ = run(capsys, "tau", "--n", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "partition,crank,image,rank,diff",
        "1+1+1+1,-4,1+1+1+1,-3,-1",
        "2+1+1,-2,2+1+1,-1,-1",
        "3+1,0,2+2,0,0",
        "2+2,2,3+1,1,1",
        "4,4,4,3,1",
    ]


@pytest.mark.parametrize("n", ["2", "3"])
def test_tau_text_columns_align_with_header(capsys, n):
    # every partition text at these weights is narrower than "partition";
    # the columns are right-aligned, so each field ends where its header does
    code, out, _ = run(capsys, "tau", "--n", n)
    assert code == 0
    header, *lines = out.splitlines()
    ends = [m.end() for m in re.finditer(r"\S+", header)]
    assert len(ends) == 5 and len(lines) == partitions.partition_count(int(n))
    for line in lines:
        assert [m.end() for m in re.finditer(r"\S+", line)] == ends, line


def test_tau_json_tie_break(capsys):
    code, out, _ = run(capsys, "tau", "--n", "5", "--format", "json",
                       "--seed-order", "lex-ascending")
    assert code == 0
    data = json.loads(out)
    assert data["tie_break"] == "lex-ascending"
    assert len(data["rows"]) == 7
    for row in data["rows"]:
        assert row["crank"] - row["rank"] == row["diff"]


@pytest.mark.parametrize("n", ["5", "9"])
@pytest.mark.parametrize("seed_order", reordering.TIE_BREAKS)
def test_tau_json_matches_indenting_encoder(capsys, n, seed_order):
    # the rows are written as formatted lines; the layout is the encoder's
    code, out, _ = run(capsys, "tau", "--n", n, "--format", "json", "--seed-order", seed_order)
    rmap = reordering.build_tau(int(n), seed_order)
    payload = {
        "n": int(n),
        "tie_break": seed_order,
        "rows": [{"partition": list(lam), "crank": c, "image": list(mu), "rank": r, "diff": c - r}
                 for (lam, mu), c, r in zip(tau_pairs(rmap), rmap.cranks, rmap.ranks)],
    }
    assert code == 0
    assert out == json.dumps(payload, indent=2) + "\n"


def test_tau_reads_the_suites_streamed_pass(capsys, monkeypatch):
    # the command's map comes from the tau suite's one statistics pass
    calls = []
    stream_statistics = reordering.stream_statistics

    def counted(n):
        calls.append(n)
        return stream_statistics(n)

    monkeypatch.setattr(reordering, "stream_statistics", counted)
    code, _, _ = run(capsys, "tau", "--n", "8")
    assert code == 0
    assert calls == [8]


def test_tau_out_of_range(capsys):
    code, _, err = run(capsys, "tau", "--n", "1")
    assert code == 2
    code, _, err = run(capsys, "tau", "--n", "61")
    assert code == 2


def test_inject_with_explicit_symbol(capsys):
    code, out, err = run(capsys, "inject", "--m", "1", "--n", "17",
                         "--case", "P3", "--symbol", "[3,1 | 1]_(4x3)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "input:     [3,1 | 1]_(4x3)"
    assert lines[1] == "image:     [3,2 | 2,2,1,1]_(3x2)"
    assert lines[2] == "recovered: [3,1 | 1]_(4x3)"
    assert err == "P3 member of weight 17 maps into Q3; round-trip ok\n"


def test_inject_first_member(capsys):
    code, out, err = run(capsys, "inject", "--m", "2", "--n", "12", "--case", "P2")
    assert code == 0
    assert out.splitlines()[0].startswith("input:")
    assert err == "P2 member of weight 12 maps into Q2; round-trip ok\n"


def test_inject_flag_symbol_mismatch(capsys):
    code, _, err = run(capsys, "inject", "--m", "2", "--n", "17",
                       "--case", "P3", "--symbol", "[3,1 | 1]_(4x3)")
    assert code == 2
    code, _, err = run(capsys, "inject", "--m", "1", "--n", "17",
                       "--case", "P2", "--symbol", "[3,1 | 1]_(4x3)")
    assert code == 2
    assert err == "usage error: symbol is not in class P2: [3,1 | 1]_(4x3)\n"


def test_inject_invalid_symbol_error_names_alpha(capsys):
    code, out, err = run(capsys, "inject", "--m", "0", "--n", "5",
                         "--case", "P2", "--symbol", "[3,0 | 1]_(1x1)")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and "alpha" in err


def test_inject_symbol_entry_with_inner_space_exits_2(capsys):
    # "1 2" is not read as 12: the symbol is a usage error
    code, out, err = run(capsys, "inject", "--m", "12", "--n", "25",
                         "--case", "P2", "--symbol", "[1 2 | ]_(13x1)")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: not a symbol: ")


def test_inject_empty_class(capsys):
    code, _, err = run(capsys, "inject", "--m", "3", "--n", "2", "--case", "P3")
    assert code == 1
    assert "empty" in err


def test_inject_empty_class_lists_no_partitions(capsys, monkeypatch):
    # P2 starts at weight m + 2, so at m = 79 weight 80 has no member; the
    # answer must come without listing the p(80) = 15.8M partitions
    def refuse(n):
        raise AssertionError(f"listed the partitions of {n}")

    monkeypatch.setattr(partitions, "enumerate_partitions", refuse)
    code, out, err = run(capsys, "inject", "--m", "79", "--n", "80", "--case", "P2")
    assert (code, out, err) == (1, "", "P2(-m+1 = -78, n = 80) is empty\n")


@pytest.mark.parametrize("case", ["P2", "P3"])
def test_inject_reports_empty_exactly_when_no_member(capsys, case):
    # and otherwise shows the first member of the plain lex-decreasing scan
    for m in range(0, 8):
        for n in range(1, 26):
            first = next((symbol for symbol in (to_symbol(lam, m)
                                                for lam in partitions.enumerate_partitions(n))
                          if injections.classify(symbol, "P") == case), None)
            code, out, _ = run(capsys, "inject", "--m", str(m), "--n", str(n), "--case", case)
            if first is None:
                assert (code, out) == (1, ""), (m, n)
            else:
                assert code == 0 and out.splitlines()[0] == f"input:     {first}", (m, n)


@pytest.mark.parametrize("m, case, member", [
    ("78", "P2", "[1 | ]_(79x1)"),    # (2, 1^78)
    ("37", "P3", "[1,1 | ]_(39x2)"),  # (4, 2^38), after most of p(80) in listing order
])
def test_inject_first_member_lists_no_partitions(capsys, monkeypatch, m, case, member):
    def refuse(n):
        raise AssertionError(f"listed the partitions of {n}")

    monkeypatch.setattr(partitions, "enumerate_partitions", refuse)
    code, out, err = run(capsys, "inject", "--m", m, "--n", "80", "--case", case)
    assert code == 0 and "round-trip ok" in err
    assert out.splitlines()[0] == f"input:     {member}"


def test_ospt_comparison(capsys):
    code, out, _ = run(capsys, "ospt", "--max-n", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,moments,tau,genfun"
    assert lines[1] == "1,1,-,1"  # tau needs n >= 2
    assert lines[4] == "4,2,2,2"
    assert lines[-1] == "verdict: AGREE"


def test_ospt_disagreement_exits_1(capsys, monkeypatch):
    original = qseries.ospt_series

    def off_at_five(order):
        series = original(order)
        series[5] += 1
        return series

    monkeypatch.setattr(qseries, "ospt_series", off_at_five)
    code, out, _ = run(capsys, "ospt", "--max-n", "8")
    assert code == 1
    lines = out.splitlines()
    assert lines[5] == "5,2,2,3"
    assert lines[-1] == "verdict: DISAGREE"


def test_ospt_method_subset(capsys):
    code, out, _ = run(capsys, "ospt", "--max-n", "6", "--methods", "moments,genfun")
    assert code == 0
    assert out.splitlines()[0] == "n,moments,genfun"
    code, _, err = run(capsys, "ospt", "--max-n", "6", "--methods", "magic")
    assert code == 2


def test_ospt_moments_capped_at_enumeration_range(capsys):
    code, out, err = run(capsys, "ospt", "--max-n", "100", "--methods", "moments,genfun")
    assert code == 2
    assert out == ""
    assert "usage error" in err
    code, out, _ = run(capsys, "ospt", "--max-n", "100", "--methods", "genfun")
    assert code == 0
    assert out.splitlines()[-1] == "verdict: AGREE"


VERIFY = ("verify", "--suite")
TABLE_SUITE_EDGES = [
    (*VERIFY, suite, "--nmax", nmax, *flags)
    for suite in ("identities", "bounds", "genfun")
    for flags, edges in (((), ("0", "61")),
                         (("--backend", "accelerated"), ("0", "101")),
                         (("--extended",), ("0", "101")))
    for nmax in edges
]


@pytest.mark.parametrize("argv", [
    ("table", "--nmax", "0"),
    ("table", "--n", "61"),
    ("table", "--nmax", "0", "--backend", "accelerated"),
    ("table", "--n", "101", "--backend", "accelerated"),
    *TABLE_SUITE_EDGES,
    (*VERIFY, "tau", "--nmax", "1"),
    (*VERIFY, "tau", "--nmax", "61"),
    (*VERIFY, "injections", "--nmax", "1"),
    (*VERIFY, "injections", "--nmax", "41"),
    (*VERIFY, "identities", "--extended", "--backend", "enumerated"),
    (*VERIFY, "all", "--nmax", "1"),
    (*VERIFY, "all", "--nmax", "0"),
    (*VERIFY, "all", "--nmax", "-3"),
    ("tau", "--n", "1"),
    ("tau", "--n", "61"),
    ("inject", "--m", "0", "--n", "0", "--case", "P2"),
    ("inject", "--m", "0", "--n", "81", "--case", "P2"),
    ("inject", "--m", "-1", "--n", "5", "--case", "P2"),
    ("ospt", "--max-n", "1"),
    ("ospt", "--max-n", "61"),
    ("ospt", "--max-n", "61", "--methods", "moments"),
    ("ospt", "--max-n", "61", "--methods", "tau"),
    ("ospt", "--max-n", "101", "--methods", "genfun"),
], ids=" ".join)
def test_out_of_range_exits_2_before_any_work(capsys, monkeypatch, argv):
    def no_work(*_args, **_kwargs):
        raise AssertionError(f"{' '.join(argv)} started work before its range check")

    for module, name in ((tables, "build"), (tables, "build_accelerated"),
                         (reordering, "build_tau"), (reordering, "stream_statistics"),
                         (qseries, "ospt_series"),
                         (partitions, "enumerate_partitions")):
        monkeypatch.setattr(module, name, no_work)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")


def test_console_script_subprocess():
    # run from the directory holding the package under test, which `-m` puts on sys.path
    def console(*argv):
        return subprocess.run([sys.executable, "-m", "rankcrank", *argv],
                              capture_output=True, text=True, timeout=120,
                              cwd=Path(rankcrank.__file__).parents[1])

    proc = console("table", "--stat", "crank", "--n", "4", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "n,m,M"
    assert "1" in proc.stdout
    # an out-of-range request leaves through `entrypoint` with the usage exit code
    proc = console("verify", "--suite", "tau", "--nmax", "61")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage error: ")


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the records are named tuples, so starting the CLI compiles neither module
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rankcrank.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120,
        cwd=Path(rankcrank.__file__).parents[1])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# SHA-256 of the stdout of each desk-scale request kind at nmax 100, so
# that no change to how the tables layer reads rows or the CLI writes them
# moves a byte; a verify report is hashed without its "elapsed_ms" line,
# the one field that is not a function of the input.
DESK_STDOUT_SHA256 = {
    ("table", "both", "csv"): "d93079245413018547e17b63b44344a86045682b7fd1b02e617fc110293f1073",
    ("table", "both", "json"): "5a64278b972a239c6d3b86da6504589607f108741f0f26a654994f46a1805242",
    ("table", "both", "text"): "2cd603f295f5d3c7bc87fae0e647c55a05501d78f8826c7f7d8681c384a7bf87",
    ("table", "rank", "csv"): "8348b3e37a0e8921f50814d93b5424fde1a9248ed9b887c272a4feac0ee42fa2",
    ("table", "rank", "json"): "ee5a5d8f397d6c426691b14ff3c122f84a660fd816c60d2542d1b291b357a49b",
    ("table", "rank", "text"): "dc35800809d23b691c6dc740150c20ce5023430797d4e408378a49bf6a17f3fa",
    ("table", "crank", "csv"): "3f5a70cd4067c01de83a6b26229e84ba29139367e6294d441921526e6810e802",
    ("table", "crank", "json"): "4bfbe531d4af9abf9401225a38a1a780d5fd07fd4bd5a386c24b2a7d2c05eab4",
    ("table", "crank", "text"): "3e118026478b9528d8efe3ed661315ca3be89461573a78792fa9ef09a1148408",
    ("verify", "identities"): "9a0a2c2885c43253e82e0061da0f3fa81490fec3e775f0ab35bff5e5d7f6ddf4",
    ("verify", "bounds"): "7c17cb9c14ed24ecd2ea7199117abbd24356ac04ca511218b1479a4550fdbeeb",
    ("verify", "genfun"): "6f59cf2e7bff6764e62538abda9b8f4fdd1b62d92a137bd8b0755d0b86940d89",
    ("ospt", "genfun"): "b3a43b9a019aad3022f15190f8c32015a7788936aeaf70d058c92672d7961c7d",
}


@pytest.mark.parametrize("key", DESK_STDOUT_SHA256, ids="-".join)
def test_desk_request_stdout_unchanged(capsys, key):
    if key[0] == "table":
        argv = ("table", "--stat", key[1], "--nmax", "100", "--backend", "accelerated",
                "--format", key[2])
    elif key[0] == "ospt":
        argv = ("ospt", "--max-n", "100", "--methods", key[1])
    else:
        argv = ("verify", "--suite", key[1], "--nmax", "100", "--extended")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    out = re.sub(r'\n  "elapsed_ms": \d+', "", out)
    assert hashlib.sha256(out.encode()).hexdigest() == DESK_STDOUT_SHA256[key]


# Requests and how many times each forms the series table's q rows: only
# the suites that read a q cell pay for them.
Q_ROWS_FORMED = [
    (("table", "--stat", "both", "--nmax", "30", "--backend", "accelerated"), 0),
    (("verify", "--suite", "bounds", "--nmax", "30", "--extended"), 0),
    (("verify", "--suite", "genfun", "--nmax", "30", "--backend", "accelerated"), 0),
    (("verify", "--suite", "tau", "--nmax", "8"), 0),
    (("verify", "--suite", "identities", "--nmax", "30", "--extended"), 1),
]


def counting_q_rows(monkeypatch):
    """The nmax of every `tables._q_rows` call from now on."""
    calls = []
    q_rows = tables._q_rows

    def counted(nmax):
        calls.append(nmax)
        return q_rows(nmax)

    monkeypatch.setattr(tables, "_q_rows", counted)
    return calls


@pytest.mark.parametrize("argv, formed", Q_ROWS_FORMED,
                         ids=["table", "bounds", "genfun", "tau", "identities"])
def test_series_table_forms_q_rows_only_when_read(capsys, monkeypatch, argv, formed):
    calls = counting_q_rows(monkeypatch)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == [30] * formed


def test_series_table_forms_q_rows_once(monkeypatch):
    calls = counting_q_rows(monkeypatch)
    table = tables.build_accelerated(12)
    assert calls == []
    assert [table.q_count(-3, 10), table.q_count(2, 10)] == [12, 30]
    assert calls == [12]


# Interleaved requests through main's one parser: an argparse error, an
# out-of-range usage error, both sides of table's exclusive scope group,
# verify with and then without --extended (no default may carry over),
# and ospt with its default --methods.
ONE_PARSER_REQUESTS = (
    ("verify", "--suite", "nope"),
    ("table", "--n", "5"),
    ("tau", "--n", "99"),
    ("table", "--nmax", "5"),
    ("verify", "--suite", "bounds", "--nmax", "5", "--extended"),
    ("verify", "--suite", "bounds", "--nmax", "5"),
    ("ospt", "--max-n", "8"),
)


def test_one_parser_serves_every_request(capsys, monkeypatch):
    seen = []  # the namespace each handler was called with
    for command in ("table", "verify", "tau", "ospt"):
        handler = getattr(cli, f"cmd_{command}")
        monkeypatch.setattr(cli, f"cmd_{command}",
                            lambda args, handler=handler: seen.append(vars(args)) or handler(args))

    def answer(argv):
        """(namespace, exit code, stdout) of one request through main."""
        seen.clear()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = re.sub(r'\n  "elapsed_ms": \d+', "", capsys.readouterr().out)
        return (seen[0] if seen else None), code, out

    cli._parser.cache_clear()
    shared = [answer(argv) for argv in ONE_PARSER_REQUESTS]
    assert cli._parser.cache_info().misses == 1
    for argv, got in zip(ONE_PARSER_REQUESTS, shared):
        cli._parser.cache_clear()  # main now parses with a fresh build_parser()
        assert got == answer(argv), argv
        if got[0] is not None:
            assert got[0] == vars(build_parser().parse_args(list(argv))), argv
    assert [code for _, code, _ in shared] == [2, 0, 2, 0, 0, 0, 0]
    assert build_parser() is not build_parser()


# The same pin for the enumeration backend at the top of its range, so
# that no change to its walk or its closed-form credits moves a byte.
ENUMERATED_TABLE_SHA256 = "a0615c2ff0888b0ce44284f3604c61527f362d39591e1c71d2452cdd1b30a5b8"


def test_enumerated_table_stdout_unchanged(capsys):
    code, out, _ = run(capsys, "table", "--stat", "both", "--nmax", "60", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATED_TABLE_SHA256


# README's "Supported ranges" rows, by request cell, and the RANGES rows
# each restates; the ospt row lists one cap per method.
README_RANGE_ROWS = {
    "`table`, enumeration backend": [("table", "enumerated")],
    "`table --backend accelerated`": [("table", "accelerated")],
    "`verify` identities / bounds / genfun": [(TABLE_SUITES, "enumerated")],
    "the same with `--backend accelerated`": [(TABLE_SUITES, "accelerated")],
    "the same with `--extended`": [(TABLE_SUITES, "extended")],
    "`verify --suite tau`": [("verify tau", None)],
    "`verify --suite injections`": [("verify injections", None)],
    "`tau`": [("tau", None)],
    "`inject` (and m >= 0; an empty class exits 1 at once)": [("inject", None)],
    "`ospt`": [("ospt", "moments"), ("ospt", "tau"), ("ospt", "genfun")],
}


def test_readme_ranges_match_cli_ranges():
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    body = lines[lines.index("| request | lowest | default | highest |") + 2:]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in takewhile(lambda text: text.startswith("|"), body)]
    assert [row[0] for row in rows] == list(README_RANGE_ROWS)
    assert set(RANGES) == {key for keys in README_RANGE_ROWS.values() for key in keys}
    for request, lowest, default, highest in rows:
        ranges = [RANGES[key] for key in README_RANGE_ROWS[request]]
        for row in ranges:
            assert (lowest, default) == (str(row.lowest), str(row.default or "—")), request
        if len(ranges) == 1:
            assert highest == str(ranges[0].highest), request
        else:
            assert re.findall(r"(\w+) (\d+)", highest) == [
                (key[1], str(row.highest))
                for key, row in zip(README_RANGE_ROWS[request], ranges)], request


def test_version_matches_pyproject():
    # read with a regex: tomllib arrived in Python 3.11
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'(?m)^version = "([^"]+)"$', pyproject)
    assert rankcrank.__version__ == version


# SHA-256 of `tau` stdout at two weights under every format and seed
# order, so that no change to how tau orders its positions moves a byte.
TAU_STDOUT_SHA256 = {
    ("20", "text", "lex-descending"): "d208536ac38b873b1e8d48645784e5913eccaa0fc936851d2e5a717c88ed0c98",
    ("20", "text", "lex-ascending"): "a36c3ae5d74a1611d7a741a469489277737aa6c068ef7d816050e734af8fac31",
    ("20", "csv", "lex-descending"): "c3920a9e45a74801fd94b45263028e47e8dc810fc56c8844b51558c9d5dbcdc2",
    ("20", "csv", "lex-ascending"): "79b5f86b7318bfbe98f8645af9a21dae75fb2f1004c07fca7a30bedcda8f86de",
    ("20", "json", "lex-descending"): "2886ee5e3256d2acde574db6ad9b90cc69bf2722f9533f99861e8e3dd6a6041a",
    ("20", "json", "lex-ascending"): "67c8e73ea3c3ca74a406133f187c075cd2d6c049238bcac5573ab6e5b73228f5",
    ("40", "text", "lex-descending"): "a3d0c7d1d7139f50ec34973485bfc6beb8a0348f903b25fe7c8d1ff77e38a91e",
    ("40", "text", "lex-ascending"): "e29fae23c5e88ef3503e8528994fb73d1396ed68d8f0135014cdf1ad9fdf0efe",
    ("40", "csv", "lex-descending"): "e9bf532741d279fc617d84166d182dc5d3c1a09d5ecebda50c398630777c2c10",
    ("40", "csv", "lex-ascending"): "0a7dcba7c5ca7b670873b989c456bf9cb96b478a1caae78d4f9e218ad250d0db",
    ("40", "json", "lex-descending"): "a574decda2163f95f6c826c9e770d361074857c27505c32e1521428ed281b87e",
    ("40", "json", "lex-ascending"): "f5ebeeeaf19de31f0a9b8202e4fb9a1c8d51ac852f77181b7d20281fa778a950",
}


@pytest.mark.parametrize("key", TAU_STDOUT_SHA256, ids="-".join)
def test_tau_stdout_unchanged(capsys, key):
    n, fmt, seed_order = key
    code, out, _ = run(capsys, "tau", "--n", n, "--format", fmt, "--seed-order", seed_order)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TAU_STDOUT_SHA256[key]

import json
from operator import eq, gt, le

import pytest

from rankcrank.report import CheckRecorder, CheckResult, VerifyReport


def sample_report(**extra):
    return VerifyReport(
        suite="identities",
        range={"nmin": 1, "nmax": 12, "backend": "enumerated"},
        checks=[
            CheckResult("rank-row-sums-to-p", "pass", None),
            CheckResult("crank-symmetric", "fail", {"m": 2, "n": 5}),
        ],
        elapsed_ms=37,
        **extra,
    )


def test_ok_flag():
    rep = sample_report()
    assert not rep.ok
    good = VerifyReport("s", {}, [CheckResult("a", "pass", None)], 0)
    assert good.ok
    empty = VerifyReport("s", {}, [], 0)
    assert empty.ok


def test_json_round_trip():
    rep = sample_report()
    again = VerifyReport.from_json(rep.to_json())
    assert again == rep
    assert again.to_json() == rep.to_json()


def test_json_shape():
    data = json.loads(sample_report().to_json())
    assert set(data.keys()) == {"suite", "range", "checks", "elapsed_ms"}
    assert data["checks"][0] == {"id": "rank-row-sums-to-p", "status": "pass",
                                 "witness": None}
    assert data["checks"][1]["witness"] == {"m": 2, "n": 5}


def test_info_block_round_trip():
    rep = sample_report(info={"ratios": [1.25, 0.75]})
    data = json.loads(rep.to_json())
    assert data["info"] == {"ratios": [1.25, 0.75]}
    assert VerifyReport.from_json(rep.to_json()) == rep
    # info omitted entirely when absent
    assert "info" not in json.loads(sample_report().to_json())


def test_summary_lines():
    lines = sample_report().summary_lines()
    assert any("rank-row-sums-to-p" in line and "ok" in line for line in lines)
    assert any("crank-symmetric" in line and "FAIL" in line for line in lines)
    assert "CHECKS FAILED" in lines[-1]


def test_recorder_first_witness_wins():
    rec = CheckRecorder()
    rec.expect("x", True, {"n": 1})
    rec.expect("x", False, {"n": 2})
    rec.expect("x", False, {"n": 3})
    rec.expect("x", True, {"n": 4})
    (res,) = rec.results()
    assert res.status == "fail"
    assert res.witness == {"n": 2}


def test_recorder_lazy_witness():
    rec = CheckRecorder()
    calls = []

    def witness():
        calls.append(1)
        return {"hit": True}

    rec.expect("lazy", True, witness)
    assert calls == []  # passing checks never build their witness
    rec.expect("lazy", False, witness)
    assert calls == [1]
    (res,) = rec.results()
    assert res.witness == {"hit": True}


def test_recorder_sorts_results():
    rec = CheckRecorder()
    rec.expect("zeta", True)
    rec.expect("alpha", True)
    rec.expect("mu", False, {"n": 3})
    assert [r.id for r in rec.results()] == ["alpha", "mu", "zeta"]
    rep = rec.report("identities", {"nmin": 1, "nmax": 3}, info={"note": 1})
    assert (rep.suite, rep.range, rep.info) == ("identities", {"nmin": 1, "nmax": 3},
                                                {"note": 1})
    assert rep.checks == [CheckResult("alpha", "pass"), CheckResult("mu", "fail", {"n": 3}),
                          CheckResult("zeta", "pass")]
    assert isinstance(rep.elapsed_ms, int) and rep.elapsed_ms >= 0
    assert rec.report("bounds", {}).info is None


def test_from_dict_rejects_bad_status():
    data = json.loads(sample_report().to_json())
    data["checks"][0]["status"] = "maybe"
    with pytest.raises(ValueError):
        VerifyReport.from_dict(data)


def _witnessing(calls):
    def witness(m):
        calls.append(m)
        return {"m": m}
    return witness


def test_expect_each_all_pass_builds_no_witness():
    rec, calls = CheckRecorder(), []
    rec.expect_each("eq", -2, eq, [1, 2, 3], [1, 2, 3], _witnessing(calls))
    rec.expect_each("le", 0, le, [1, 2, 3], [1, 5, 3], _witnessing(calls))
    rec.expect_each("chain", 0, le, [1, 2], [2, 2], _witnessing(calls), le, [3, 2])
    rec.expect_each("empty", 7, eq, [], [], _witnessing(calls))
    assert calls == []
    assert rec.results() == [CheckResult(i, "pass") for i in ("chain", "eq", "le")]


def test_expect_each_empty_scope_registers_nothing():
    rec, calls = CheckRecorder(), []
    rec.expect_each("eq", 0, eq, [], [], _witnessing(calls))
    rec.expect_each("positive", 2, gt, [], [], _witnessing(calls))
    rec.expect_each("chain", 0, le, [], [], _witnessing(calls), le, [])
    assert calls == [] and rec.results() == []
    # an empty scope neither passes nor clears a check another scope ran
    rec.expect_each("eq", 3, eq, [1, 2], [1, 0], _witnessing(calls))
    rec.expect_each("eq", 0, eq, [], [], _witnessing(calls))
    rec.expect_each("le", 0, le, [1], [2], _witnessing(calls))
    rec.expect_each("le", 0, le, [], [], _witnessing(calls))
    assert calls == [4]
    assert rec.results() == [CheckResult("eq", "fail", {"m": 4}), CheckResult("le", "pass")]


def test_expect_each_first_failing_m_honours_m0():
    rec, calls = CheckRecorder(), []
    rec.expect_each("x", -3, eq, [0, 1, 9, 3, 9], [0, 1, 2, 3, 4], _witnessing(calls))
    assert calls == [-1]  # index 2 stands for m = -3 + 2; index 4 builds no witness
    rec.expect_each("x", 10, eq, [9], [0], _witnessing(calls))
    assert calls == [-1]  # a check already failed keeps its first witness
    assert rec.results() == [CheckResult("x", "fail", {"m": -1})]


def test_expect_each_chain_failing_only_in_its_second_relation():
    rec, calls = CheckRecorder(), []
    # lhs <= rhs holds everywhere; rhs <= rhs2 fails at indices 1 and 3
    rec.expect_each("chain", 5, le, [0, 1, 2, 3], [1, 4, 2, 5], _witnessing(calls),
                    le, [1, 3, 2, 4])
    assert calls == [6]
    rec = CheckRecorder()
    # a failure of the first relation earlier than one of the second
    rec.expect_each("chain", 0, le, [0, 9, 0], [1, 1, 9], _witnessing(calls), le, [1, 1, 0])
    assert calls == [6, 1]


def test_expect_each_eq_compares_the_lists_whole():
    class Uniterable(list):
        def __iter__(self):
            raise AssertionError("the eq path must not iterate in Python")

    rec, calls = CheckRecorder(), []
    rec.expect_each("eq", 0, eq, Uniterable([1, 2]), Uniterable([1, 2]), _witnessing(calls))
    assert calls == []
    rec.expect_each("eq", 0, eq, [1, 2, 4], [1, 2, 3], _witnessing(calls))
    assert calls == [2]


def test_expect_each_non_reflexive_relation():
    rec, calls = CheckRecorder(), []
    rec.expect_each("positive", 2, gt, [3, 1, 1], [0, 0, 0], _witnessing(calls))
    assert calls == []
    rec.expect_each("positive", 2, gt, [3, 1, 0, 5, 0], [0] * 5, _witnessing(calls))
    assert calls == [4]  # equality fails a strict relation


def test_expect_each_rejects_lists_of_different_lengths():
    # a scope that does not pass is checked; under eq, an agreeing prefix
    # does not pass as the whole scope
    rec = CheckRecorder()
    with pytest.raises(ValueError):
        rec.expect_each("eq", 0, eq, [1, 2], [1], _witnessing([]))
    with pytest.raises(ValueError):
        rec.expect_each("chain", 0, le, [1], [0], _witnessing([]), le, [1, 2])

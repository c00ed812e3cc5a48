import json

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

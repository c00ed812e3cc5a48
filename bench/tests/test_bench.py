"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import checks
import run
import session
import tracing
import workloads
from rankcrank import cli
from rankcrank.partitions import partition_count

ROOT = Path(__file__).resolve().parents[2]


def _summarized(argv):
    return session.summarize(session.execute(argv))


def _profiled_pass(workload):
    job = {"workload": workload, "seed": 0, "mode": "profile",
           "min_passes": 1, "max_passes": 1, "seconds": 0}
    passes = []
    profile = session.run_job(job, passes.append)["profile"]
    refs = checks.load_references()
    assert len(passes) == 1
    assert all(checks.check_request(r, refs) is None for r in passes[0]["requests"])
    return profile


def test_corrupted_digest_reference_fails_the_request():
    refs = checks.load_references()
    argv = workloads.desk_request("ospt", 60)
    record = _summarized(argv)
    assert checks.check_request(record, refs) is None
    bad = copy.deepcopy(refs)
    bad["requests"][checks.request_key(argv)]["stdout_sha256"] = "0" * 64
    assert checks.check_request(record, bad) == "stdout digest differs from the reference"


def test_corrupted_check_set_reference_fails_the_request():
    refs = checks.load_references()
    argv = workloads.desk_request("bounds", 60)
    record = _summarized(argv)
    assert checks.check_request(record, refs) is None
    bad = copy.deepcopy(refs)
    check_set = bad["check_sets"][bad["requests"][checks.request_key(argv)]["check_set"]]
    check_set["no-such-check"] = "pass"
    assert checks.check_request(record, bad) == "check ids or statuses differ from the reference"


def test_run_counts_a_request_with_a_corrupted_reference_as_failed(monkeypatch, tmp_path):
    seed = 3
    first_pass = next(workloads.passes("desk", seed))
    target = checks.request_key(first_pass[0])
    refs = checks.load_references()
    refs["requests"][target]["exit"] = 1
    monkeypatch.setattr(checks, "load_references", lambda: refs)
    monkeypatch.setattr(run, "OUT", tmp_path)
    result, provenance = run.measure("desk", seed, 1, trace=False)
    bad = [f for f in provenance["failures"] if f["request"] == target]
    assert bad and len(bad) == len(provenance["failures"])
    assert not result["correct"]
    assert result["failed"] == len(bad) + (not provenance["probe"]["ok"])
    assert result["metrics"]["ops_ok_ratio"]["value"] == (
        (result["attempted"] - result["failed"]) / result["attempted"])


def test_probe_past_its_deadline_fails_and_is_killed():
    started = time.perf_counter()
    result = checks.run_probe([sys.executable, "-c", "import time; time.sleep(60)"], 0.5)
    assert time.perf_counter() - started < 10
    assert not result["ok"]
    assert result["returncode"] == -signal.SIGKILL


def test_probe_accepts_a_fast_refusal_and_rejects_other_exits():
    assert checks.run_probe([sys.executable, "-c", "raise SystemExit(2)"], 30)["ok"]
    assert checks.run_probe([sys.executable, "-c", "print('verdict: AGREE')"], 30)["ok"]
    assert not checks.run_probe([sys.executable, "-c", "print('verdict: DISAGREE')"], 30)["ok"]
    assert not checks.run_probe([sys.executable, "-c", "raise SystemExit(1)"], 30)["ok"]


def test_oracle_yields_every_partition_through_nmax_50():
    metrics = _profiled_pass("oracle")
    assert metrics["partitions.yielded"] == sum(partition_count(n) for n in range(1, 51))
    assert metrics["partitions.yielded"] == 1_295_970
    assert metrics["symbols.to_symbol.calls"] == 0


def test_desk_enumerates_no_partition_and_builds_no_symbol():
    metrics = _profiled_pass("desk")
    assert metrics["partitions.yielded"] == 0
    assert metrics["symbols.to_symbol.calls"] == 0
    assert metrics["qseries.series_created"] > 0


def test_peak_rss_is_the_session_own_not_its_parent():
    ballast = b"\1" * (64 << 20)  # 64 MiB resident in this, the parent, process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-c", "import session; print(session.peak_rss_kib())"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    assert len(ballast) and int(proc.stdout) < 48 * 1024


def test_tracer_nests_spans_and_restores_the_package():
    original = cli.main
    with tracing.Tracer() as tracer:
        tracer.request_id = 7
        record = session.execute(workloads.desk_request("ospt", 60))
    assert cli.main is original
    assert record["rc"] == 0
    names = [s[3] for s in tracer.spans]
    assert names == ["cli.main", "qseries.ospt_series", "qseries.euler_inverse"]
    assert [s[1] for s in tracer.spans] == [None, 0, 1]
    assert {s[2] for s in tracer.spans} == {7}
    totals = tracing.span_totals(tracer.spans)
    outer = totals["cli.main"]
    assert 0 < outer["self_s"] < outer["busy_s"]


def test_desk_plan_repeats_per_seed_and_covers_each_stratum():
    first = [next(workloads.passes("desk", 5)) for _ in range(2)]
    assert first[0] == first[1]
    assert first[0] != next(workloads.passes("desk", 6))
    for kind in workloads.DESK_KINDS:
        nmax = sorted(workloads.request_nmax(a) for a in first[0]
                      if a == workloads.desk_request(kind, workloads.request_nmax(a)))
        assert len(nmax) == workloads.DESK_PER_KIND
        assert nmax[0] <= 66 and nmax[-1] >= 94


def test_metric_names_match_benchmark_json():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

They run every workload at a small scale through the command line, show
that a perturbed confidence or a duplicate answer fails the checks, that
a wrap target that has gone missing is reported as absent instead of
failing the run, and that the runner refuses to run without the program.
The file is named so that the repository's test and benchmark collection
(``test_*.py``, ``bench_*.py``) never picks it up.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.core.candidates import candidate_sets, hierarchical_ancestor_pairs  # noqa: E402
from repro.core.tdh_local import TDH  # noqa: E402
from repro.datagen import truthdata  # noqa: E402
from repro.eval import simulate  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SF = "0.1"  # large enough that ME on Heritages finds 50 fresh objects in every smoke round
SMOKE_ROUNDS = "3"


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--sf", SMOKE_SF,
           "--rounds", SMOKE_ROUNDS]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=900)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke(workload, trace):
    p = _run(workload, trace)
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCH[kind]]
    if trace:
        report = json.loads((ROOT / ".perfbench" / f"{workload}-seed3-trace1.json").read_text())
        t = report["trace"]
        assert t["absent_metrics"] == [] and t["absent_targets"] == []
        # every traced second is attributed to some layer's self time; the
        # self times are totals, so they match the mean traced call, not the median
        traced = report["passes"]["traced"]["samples"]
        assert t["self_sum_per_op_s"] == pytest.approx(sum(traced) / len(traced), rel=0.02)


@pytest.fixture(scope="module")
def crowd():
    ds = truthdata.birthplaces_lite(sf=0.05, seed=3)
    log = simulate.run_crowdsourcing(ds, "TDH", "EAI", rounds=2, seed=3, **workloads.CROWD)
    return ds.candidates(), log


def _crowd_problems(cands, log):
    return checks.crowd_run(log, cands, 2, workloads.CROWD["n_workers"], workloads.CROWD["k"])


def test_crowd_checks_pass_on_a_real_run(crowd):
    assert _crowd_problems(*crowd) == []


def test_perturbed_mu_fails_crowd_checks(crowd):
    cands, log = crowd
    mu = log.final.mu.copy()
    mu.loc[0, "mu"] += 1e-6
    bad = dataclasses.replace(log, final=dataclasses.replace(log.final, mu=mu))
    assert any("mu" in p for p in _crowd_problems(cands, bad))


def test_duplicate_answer_fails_crowd_checks(crowd):
    cands, log = crowd
    answers = log.answers.copy()
    answers.iloc[-1] = answers.iloc[0]  # same count, one (object, worker) pair twice
    bad = dataclasses.replace(log, answers=answers)
    assert any("twice" in p for p in _crowd_problems(cands, bad))


def test_perturbed_mu_fails_the_spark_reference_check():
    ds = truthdata.birthplaces_lite(sf=0.05, seed=3)
    anc = hierarchical_ancestor_pairs(candidate_sets(ds.records), ds.hierarchy)
    ref = TDH(max_iter=3).fit(ds.records, None, anc)
    assert checks.matches_reference(ref, ref) == []
    mu = ref.mu.copy()
    mu.loc[0, "mu"] += 1e-6
    assert checks.matches_reference(dataclasses.replace(ref, mu=mu), ref)


def test_missing_wrap_target_is_reported_absent():
    gone = (
        spans.Target("repro.core.tdh_local", "no_such_function", "tdh_local.fit"),
        spans.Target("repro.no_such_module", "fit", "result.mu_map"),
    )
    kept = tuple(t for t in spans.TARGETS if t.span != "result.mu_map")
    rec = spans.Recorder()
    rec.install(kept + gone)
    try:
        ds = truthdata.birthplaces_lite(sf=0.05, seed=3)
        rec.phase, rec.op, rec.active = "op", 1, True
        simulate.run_crowdsourcing(ds, "TDH", "EAI", rounds=1, seed=3, **workloads.CROWD)
        rec.active = False
    finally:
        rec.uninstall()
    assert len(rec.absent) == 2
    values, absent = spans.layer_metrics(rec, 1, [])
    assert absent == ["result.mu_map_s"]
    assert values["tdh_local.fit_calls"] == 2  # the rest of the layer is still wrapped


def test_runner_fails_without_the_program():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        p = _run("crowd-me-her", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout

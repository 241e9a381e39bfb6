"""Benchmark for Table 4: one crowdsourcing round (inference + EAI
assignment) and the Lemma 4.1 pruning benefit (cf. Figure 13)."""
import dataclasses

import numpy as np
import pytest

from benchmarks.eai_walk import heap_walk
from repro.assign.common import AssignContext
from repro.core.candidates import candidate_sets, hierarchical_ancestor_pairs
from repro.core.tdh_local import TDH
from repro.datagen.truthdata import birthplaces_lite
from repro.eval.simulate import run_crowdsourcing


@pytest.fixture(scope="module")
def ds():
    return birthplaces_lite(sf=0.1, seed=0)


@pytest.fixture(scope="module")
def fitted(ds):
    cand = candidate_sets(ds.records)
    anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
    return TDH(max_iter=60).fit(ds.records, None, anc)


def _copy(res):
    return dataclasses.replace(res, extras={k: v for k, v in res.extras.items() if not k.startswith("_")})


def test_crowdsourcing_round_tdh_eai(benchmark, ds):
    def run():
        return run_crowdsourcing(ds, "TDH", "EAI", rounds=1, seed=0)

    log = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(log.history) == 2


def test_eai_assignment_with_pruning(benchmark, fitted):
    def run():
        r = _copy(fitted)
        ctx = AssignContext(
            result=r, workers=[f"w{i}" for i in range(10)], k=5,
            answers=None, rng=np.random.default_rng(0),
        )
        heap_walk(ctx, use_pruning=True)
        return r.extras["_eai_evals"]

    evals = benchmark.pedantic(run, rounds=3, iterations=1)
    assert evals > 0


def test_eai_assignment_without_pruning(benchmark, fitted):
    """Baseline for the Figure 13 claim: pruning must evaluate fewer pairs."""

    def run():
        r = _copy(fitted)
        ctx = AssignContext(
            result=r, workers=[f"w{i}" for i in range(10)], k=5,
            answers=None, rng=np.random.default_rng(0),
        )
        heap_walk(ctx, use_pruning=False)
        return r.extras["_eai_evals"]

    evals = benchmark.pedantic(run, rounds=3, iterations=1)
    assert evals > 0

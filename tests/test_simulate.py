"""Tests for the crowdsourcing round loop (Fig. 2)."""
import numpy as np
import pandas as pd
import pytest

from repro.datagen.truthdata import birthplaces_lite
from repro.eval.simulate import ASSIGNERS, FEASIBLE, INFERENCE, run_crowdsourcing


@pytest.fixture(scope="module")
def ds():
    return birthplaces_lite(sf=0.01, seed=0)


class TestRegistry:
    def test_all_table4_rows_registered(self):
        assert set(FEASIBLE) == {
            "TDH", "DOCS", "LCA", "POPACCU", "ACCU", "ASUMS", "CRH", "MDC", "LFC", "VOTE",
        }
        assert set(ASSIGNERS) >= {"EAI", "QASCA", "MB", "ME"}
        assert set(FEASIBLE) <= set(INFERENCE)

    def test_eai_only_with_tdh(self):
        assert all("EAI" not in v for k, v in FEASIBLE.items() if k != "TDH")

    def test_mb_only_with_docs(self):
        assert all("MB" not in v for k, v in FEASIBLE.items() if k != "DOCS")

    def test_infeasible_combo_rejected(self, ds):
        with pytest.raises(ValueError, match="infeasible"):
            run_crowdsourcing(ds, "VOTE", "EAI", rounds=1)


class TestLoop:
    def test_round_log_shape(self, ds):
        log = run_crowdsourcing(ds, "TDH", "EAI", rounds=2, n_workers=3, k=2, seed=0)
        h = log.history
        assert list(h["round"]) == [0, 1, 2]
        assert set(h.columns) >= {"accuracy", "gen_accuracy", "avg_distance", "n_answers"}

    def test_answers_accumulate(self, ds):
        log = run_crowdsourcing(ds, "TDH", "ME", rounds=3, n_workers=3, k=2, seed=0)
        n = log.history["n_answers"]
        assert n.iloc[0] == 0
        assert n.is_monotonic_increasing
        assert n.iloc[-1] <= 3 * 3 * 2

    @pytest.mark.parametrize(
        "infer,assign", [("TDH", "EAI"), ("TDH", "QASCA"), ("TDH", "ME"), ("DOCS", "MB")]
    )
    def test_no_duplicate_worker_object_answers(self, ds, infer, assign):
        log = run_crowdsourcing(ds, infer, assign, rounds=4, n_workers=3, k=3, seed=1)
        assert not log.answers.duplicated(["object", "worker"]).any()

    def test_answers_are_candidates(self, ds):
        log = run_crowdsourcing(ds, "TDH", "QASCA", rounds=2, n_workers=3, k=2, seed=0)
        cand = set(map(tuple, ds.records[["object", "value"]].drop_duplicates().to_numpy()))
        for o, _, v in log.answers.to_numpy():
            assert (o, v) in cand

    def test_deterministic(self, ds):
        a = run_crowdsourcing(ds, "TDH", "EAI", rounds=2, n_workers=3, k=2, seed=4)
        b = run_crowdsourcing(ds, "TDH", "EAI", rounds=2, n_workers=3, k=2, seed=4)
        pd.testing.assert_frame_equal(a.history, b.history)
        pd.testing.assert_frame_equal(a.answers, b.answers)

    def test_crowdsourcing_improves_accuracy(self, ds):
        """With good workers, accuracy after rounds ≥ accuracy at round 0."""
        log = run_crowdsourcing(
            ds, "TDH", "EAI", rounds=5, n_workers=10, k=5, pi_p=0.95, seed=0
        )
        h = log.history
        assert h["accuracy"].iloc[-1] >= h["accuracy"].iloc[0]

    @pytest.mark.parametrize("infer,assign", [("DOCS", "MB"), ("LCA", "QASCA"), ("VOTE", "ME"), ("CRH", "ME")])
    def test_baseline_combos_run(self, ds, infer, assign):
        log = run_crowdsourcing(ds, infer, assign, rounds=1, n_workers=2, k=2, seed=0)
        assert len(log.history) == 2

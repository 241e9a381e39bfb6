"""Tests for the crowdsourcing round loop (Fig. 2)."""
import sys

import numpy as np
import pandas as pd
import pytest

from repro.assign.common import AssignContext
from repro.baselines.docs import docs
from repro.baselines.vote import vote
from repro.core import candidates, tdh_local
from repro.core.candidates import candidate_sets, hierarchical_ancestor_pairs
from repro.core.tdh_local import TDH, _package
from repro.datagen.truthdata import birthplaces_lite, heritages_lite
from repro.datagen.workers import simulate_workers
from repro.eval import metrics as M
from repro.eval.simulate import ASSIGNERS, FEASIBLE, INFERENCE, run_crowdsourcing
from repro.hierarchy import Hierarchy


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
        # stage seconds per round, kept out of the history repeated runs reproduce
        stages = ["context_s", "assign_s", "answer_s", "fit_s", "score_s"]
        assert list(log.timings.columns) == ["round", "setup_s", *stages]
        assert list(log.timings["round"]) == [0, 1, 2]
        assert (log.timings[stages] >= 0).all().all() and (log.timings.loc[1:, stages] > 0).all().all()
        # the run's set-up before round 0's fit, in round 0 only
        assert log.timings["setup_s"].iloc[0] > 0 and (log.timings.loc[1:, "setup_s"] == 0).all()
        assert not {"setup_s", *stages} & set(log.history.columns)

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


# The reference round loop: every round a fit that compiles the records and
# codes the answers so far afresh, scored by the per-object metrics functions.
# TDH starts EM from the previous round's EM state, as the loop does.
# run_crowdsourcing, which compiles once per run, keeps its answers as codes
# and scores by gathers, must reproduce it exactly.
def tdh_reference_fit(ds, anc, ans, prev):
    p = candidates.compile_problem(ds.records, anc)
    state = TDH().fit_claims(p, candidates.code_answers(p, ans), prev)
    return _package(state), state


REFERENCE_FITS = {
    "TDH": tdh_reference_fit,
    "DOCS": lambda ds, anc, ans, prev: (docs(ds.records, ans, hierarchy=ds.hierarchy), None),
    "VOTE": lambda ds, anc, ans, prev: (vote(ds.records, ans), None),
}


def reference_loop(ds, infer, assign, rounds, n_workers, k, seed):
    fit = REFERENCE_FITS[infer]
    rng = np.random.default_rng(seed)
    by_id = {w.worker: w for w in simulate_workers(n_workers, pi_p=0.75, seed=seed + 1)}
    cand = candidate_sets(ds.records)
    anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
    gold = M.map_gold_to_candidates(ds.gold, cand, ds.hierarchy)
    gold_cand = dict(zip(gold["object"], gold["truth"]))
    cands_by_obj = cand.groupby("object")["value"].agg(list).to_dict()
    answers = pd.DataFrame(columns=["object", "worker", "value"])
    history = []

    def log_round(r, res):
        history.append(
            {
                "round": r,
                "accuracy": M.accuracy(res.truths, gold),
                "gen_accuracy": M.gen_accuracy(res.truths, gold, ds.hierarchy),
                "avg_distance": M.avg_distance(res.truths, gold, ds.hierarchy),
                "n_answers": len(answers),
                "n_iter": res.extras.get("n_iter"),
                "converged": res.extras.get("converged"),
            }
        )

    res, state = fit(ds, anc, None, None)
    log_round(0, res)
    for r in range(1, rounds + 1):
        ctx = AssignContext(result=res, workers=list(by_id), k=k, answers=answers, rng=rng)
        new = [
            (o, w, by_id[w].answer(rng, cands_by_obj[o], gold_cand.get(o, "")))
            for w, objs in ASSIGNERS[assign](ctx).items()
            for o in objs
        ]
        if new:
            new = pd.DataFrame(new, columns=["object", "worker", "value"])
            answers = pd.concat([answers, new], ignore_index=True)
        res, state = fit(ds, anc, answers if len(answers) else None, state)
        log_round(r, res)
    return pd.DataFrame(history), answers, anc, res


FINAL_FIELDS = ("truths", "mu", "phi", "psi", "D", "worker_accuracy")


@pytest.mark.parametrize(
    "infer,assign,n_workers",
    [
        *(
            pytest.param(infer, assign, 4, id=f"{infer}-{assign}")
            for infer, assign in [("TDH", "EAI"), ("TDH", "QASCA"), ("TDH", "ME"), ("DOCS", "MB"), ("VOTE", "ME")]
        ),
        # workers w0..w11, whose name order (w10 before w2) is not their list
        # order: the loop's coded answers must give the claims code_answers
        # gives the reference's answers by name
        *(pytest.param("TDH", assign, 12, id=f"TDH-{assign}-12-workers") for assign in ["EAI", "QASCA", "ME"]),
    ],
)
def test_loop_equals_a_from_scratch_fit_every_round(ds, infer, assign, n_workers):
    kw = dict(rounds=4, n_workers=n_workers, k=3, seed=5)
    log = run_crowdsourcing(ds, infer, assign, **kw)
    history, answers, anc, final = reference_loop(ds, infer, assign, **kw)
    if n_workers == 12:
        assert sorted(log.answers["worker"].unique())[:4] == ["w0", "w1", "w10", "w11"]
    assert log.history.equals(history)
    assert log.answers.equals(answers)
    for name in FINAL_FIELDS:
        got, want = getattr(log.final, name), getattr(final, name)
        assert (got is None and want is None) or got.equals(want), name


def test_warm_started_fit_reaches_the_cold_fit(ds):
    """The loop's last fit, started from the round before, and a cold fit
    on the same answers both converge to the same point."""
    log = run_crowdsourcing(ds, "TDH", "EAI", rounds=4, n_workers=4, k=3, seed=5)
    anc = hierarchical_ancestor_pairs(candidate_sets(ds.records), ds.hierarchy)
    cold = TDH(max_iter=60).fit(ds.records, log.answers, anc)
    assert log.history["converged"].all() and cold.extras["converged"]
    assert log.final.truths.equals(cold.truths)
    assert np.abs(log.final.mu["mu"] - cold.mu["mu"]).max() < 1e-5


def test_table4_tdh_eai_run_converges_every_round():
    """Table 4's Heritages TDH×EAI run (dataset seed 1, loop seed 8, SF=1,
    50 rounds), whose late rounds need up to 81 E-steps: under the default
    cap every fit converges."""
    log = run_crowdsourcing(heritages_lite(sf=1.0, seed=1), "TDH", "EAI", rounds=50, seed=8)
    assert len(log.history) == 51
    assert log.history["converged"].all()


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Count calls of ``owner.name`` through every repro module that imports it."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kw):
        calls.append(1)
        return original(*args, **kw)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("assign", ["EAI", "QASCA", "ME"])
@pytest.mark.parametrize("rounds", [1, 4])
def test_tdh_run_compiles_once(ds, monkeypatch, assign, rounds):
    calls = _count_calls(monkeypatch, candidates, "compile_problem")
    run_crowdsourcing(ds, "TDH", assign, rounds=rounds, n_workers=3, k=2, seed=0)
    assert len(calls) == 1


@pytest.mark.parametrize("assign", ["EAI", "QASCA", "ME"])
@pytest.mark.parametrize("rounds", [0, 4])
def test_tdh_run_packages_once(ds, monkeypatch, assign, rounds):
    """Rounds pass EM states; the run packages one InferenceResult, its final."""
    calls = _count_calls(monkeypatch, tdh_local, "_package")
    log = run_crowdsourcing(ds, "TDH", assign, rounds=rounds, n_workers=3, k=2, seed=0)
    assert len(calls) == 1 and log.final.extras["n_iter"] == log.history["n_iter"].iloc[-1]


@pytest.mark.parametrize("assign", ["EAI", "QASCA", "ME"])
def test_tdh_run_sets_up_on_codes(ds, monkeypatch, assign):
    """A TDH run codes the records' names once and asks the hierarchy no
    node-by-node question: ancestor pairs, gold mapping and gold scores come
    from the tree's arrays."""
    coded = _count_calls(monkeypatch, candidates, "code_candidates")
    queries = []
    for name in ("distance", "ancestors", "is_ancestor"):
        original = getattr(Hierarchy, name)

        def counted(self, *args, _original=original, **kw):
            queries.append(1)
            return _original(self, *args, **kw)

        monkeypatch.setattr(Hierarchy, name, counted)
    run_crowdsourcing(ds, "TDH", assign, rounds=2, n_workers=3, k=2, seed=0)
    assert len(coded) == 1 and len(queries) == 0

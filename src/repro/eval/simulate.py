"""Crowdsourced truth-discovery loop (paper Fig. 2, §5 settings).

Alternates truth inference and task assignment for a number of rounds:
each round every worker receives ``k`` questions (default 10 workers ×
5 questions), simulated workers answer (correct w.p. ``p_w``, else a
uniformly random candidate), and inference re-runs on the grown answer
set. Per-round Accuracy / GenAccuracy / AvgDistance are recorded.

A run compiles its problem once (V_o comes from the sources only): TDH
refits that problem every round, and :func:`repro.eval.metrics.gold_scorer`
scores each round's truths.

The registry pins the feasible inference × assignment combinations of
Table 4 (EAI needs TDH's N/D tables, MB needs DOCS's domain model,
QASCA needs a probabilistic confidence + worker model, ME works with
every algorithm).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import pandas as pd

from repro.assign import eai_assign, mb_assign, me_assign, qasca_assign
from repro.assign.common import AssignContext
from repro.baselines.accu import accu, popaccu
from repro.baselines.asums import asums
from repro.baselines.crh import crh
from repro.baselines.docs import docs
from repro.baselines.lca import lca
from repro.baselines.lfc import lfc
from repro.baselines.mdc import mdc
from repro.baselines.vote import vote
from repro.core.candidates import candidate_sets, compile_problem, hierarchical_ancestor_pairs
from repro.core.result import InferenceResult
from repro.core.tdh_local import TDH
from repro.datagen.truthdata import TruthDataset
from repro.datagen.workers import SimulatedWorker, simulate_workers
from repro.eval import metrics as M


_now = time.perf_counter


def _cold(fit: Callable) -> Callable:
    """An inference without a warm start, in the registry's signature."""
    return lambda answers, previous: fit(answers)


# name -> (dataset, its compiled problem, its ancestor pairs) -> the run's
# fit, (answers or None, the previous round's result or None) ->
# InferenceResult. TDH starts EM from the previous round's fit.
INFERENCE: dict[str, Callable] = {
    "TDH": lambda ds, p, anc: partial(TDH().fit_problem, p),
    "VOTE": lambda ds, p, anc: _cold(partial(vote, ds.records)),
    "LCA": lambda ds, p, anc: _cold(partial(lca, ds.records)),
    "DOCS": lambda ds, p, anc: _cold(partial(docs, ds.records, hierarchy=ds.hierarchy)),
    "ACCU": lambda ds, p, anc: _cold(partial(accu, ds.records, max_iter=6)),
    "POPACCU": lambda ds, p, anc: _cold(partial(popaccu, ds.records, max_iter=6)),
    "ASUMS": lambda ds, p, anc: _cold(partial(asums, ds.records, anc_pairs=anc, hierarchy=ds.hierarchy)),
    "CRH": lambda ds, p, anc: _cold(partial(crh, ds.records)),
    "MDC": lambda ds, p, anc: _cold(partial(mdc, ds.records)),
    "LFC": lambda ds, p, anc: _cold(partial(lfc, ds.records)),
}
ASSIGNERS = {
    "EAI": eai_assign,
    "QASCA": qasca_assign,
    "MB": mb_assign,
    "ME": me_assign,
}
# Table 4 feasibility: '-' cells in the paper are combinations the
# assigner cannot drive (missing model state).
FEASIBLE = {
    "TDH": {"EAI", "QASCA", "ME"},
    "DOCS": {"MB", "QASCA", "ME"},
    "LCA": {"QASCA", "ME"},
    "POPACCU": {"QASCA", "ME"},
    "ACCU": {"QASCA", "ME"},
    "ASUMS": {"ME"},
    "CRH": {"ME"},
    "MDC": {"ME"},
    "LFC": {"ME"},
    "VOTE": {"ME"},
}


@dataclass
class RoundLog:
    """Per-round metrics of one crowdsourcing run."""

    # round, accuracy, gen_accuracy, avg_distance, n_answers, and the
    # inference's n_iter and converged (None for baselines, which report
    # neither)
    history: pd.DataFrame
    final: InferenceResult
    answers: pd.DataFrame
    # round, then the seconds of its stages in loop order (round 0 only fits
    # and scores); kept out of ``history``, which repeated runs reproduce
    timings: pd.DataFrame


def _em_state(res: InferenceResult) -> tuple:
    """A fit's EM iterations and whether it converged (None if unreported)."""
    return res.extras.get("n_iter"), res.extras.get("converged")


def run_crowdsourcing(
    ds: TruthDataset,
    infer_name: str,
    assign_name: str,
    *,
    rounds: int = 30,
    n_workers: int = 10,
    k: int = 5,
    pi_p: float = 0.75,
    seed: int = 0,
    workers: list[SimulatedWorker] | None = None,
) -> RoundLog:
    """Run the Fig. 2 loop and log quality per round (round 0 = no crowd)."""
    if assign_name not in FEASIBLE.get(infer_name, set()):
        raise ValueError(f"combination {infer_name}+{assign_name} is infeasible (Table 4 '-')")
    assigner = ASSIGNERS[assign_name]
    rng = np.random.default_rng(seed)
    if workers is None:
        workers = simulate_workers(n_workers, pi_p=pi_p, seed=seed + 1)
    cand = candidate_sets(ds.records)
    anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
    problem = compile_problem(ds.records, anc)
    infer = INFERENCE[infer_name](ds, problem, anc)
    gold = M.map_gold_to_candidates(ds.gold, cand, ds.hierarchy)
    score = M.gold_scorer(problem, gold, ds.hierarchy)
    gold_cand = dict(zip(gold["object"], gold["truth"]))
    values, nV = problem.cand["value"].to_numpy(), problem.nV.astype(np.int64)
    answers = pd.DataFrame(columns=["object", "worker", "value"])
    by_id = {w.worker: w for w in workers}
    t = [_now()]
    res = infer(None, None)
    t.append(_now())
    history = [(0, *score(res.truths), 0, *_em_state(res))]
    timings = [(0, 0.0, 0.0, 0.0, t[1] - t[0], _now() - t[1])]
    for r in range(1, rounds + 1):
        t = [_now()]
        ctx = AssignContext(result=res, workers=list(by_id), k=k, answers=answers, rng=rng)
        t.append(_now())
        asked = [(o, w) for w, objs in assigner(ctx).items() for o in objs]
        t.append(_now())
        at = problem.index.levels[0].get_indexer([o for o, _ in asked])
        new = [
            (o, w, by_id[w].answer(rng, values[s : s + n].tolist(), gold_cand.get(o, "")))
            for (o, w), s, n in zip(asked, problem.start[at], nV[at])
        ]
        if new:
            new = pd.DataFrame(new, columns=answers.columns)
            answers = pd.concat([answers, new], ignore_index=True)
        t.append(_now())
        res = infer(answers if len(answers) else None, res)
        t.append(_now())
        history.append((r, *score(res.truths), len(answers), *_em_state(res)))
        t.append(_now())
        timings.append((r, *np.diff(t)))
    columns = ["round", "accuracy", "gen_accuracy", "avg_distance", "n_answers", "n_iter", "converged"]
    stages = ["round", "context_s", "assign_s", "answer_s", "fit_s", "score_s"]
    return RoundLog(pd.DataFrame(history, columns=columns), res, answers, pd.DataFrame(timings, columns=stages))

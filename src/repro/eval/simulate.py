"""Crowdsourced truth-discovery loop (paper Fig. 2, §5 settings).

Alternates truth inference and task assignment for a number of rounds:
each round every worker receives ``k`` questions (default 10 workers ×
5 questions), simulated workers answer (correct w.p. ``p_w``, else a
uniformly random candidate), and inference re-runs on the grown answer
set. Per-round Accuracy / GenAccuracy / AvgDistance are recorded.

The registry pins the feasible inference × assignment combinations of
Table 4 (EAI needs TDH's N/D tables, MB needs DOCS's domain model,
QASCA needs a probabilistic confidence + worker model, ME works with
every algorithm).
"""
from __future__ import annotations

from dataclasses import dataclass
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
from repro.core.candidates import candidate_sets, hierarchical_ancestor_pairs
from repro.core.result import InferenceResult
from repro.core.tdh_local import TDH
from repro.datagen.truthdata import TruthDataset
from repro.datagen.workers import SimulatedWorker, simulate_workers
from repro.eval import metrics as M

INFERENCE: dict[str, Callable] = {}
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


def _register() -> None:
    INFERENCE["TDH"] = lambda ds, cand, anc, rec, ans: TDH(max_iter=60).fit(rec, ans, anc)
    INFERENCE["VOTE"] = lambda ds, cand, anc, rec, ans: vote(rec, ans)
    INFERENCE["LCA"] = lambda ds, cand, anc, rec, ans: lca(rec, ans)
    INFERENCE["DOCS"] = lambda ds, cand, anc, rec, ans: docs(rec, ans, hierarchy=ds.hierarchy)
    INFERENCE["ACCU"] = lambda ds, cand, anc, rec, ans: accu(rec, ans, max_iter=6)
    INFERENCE["POPACCU"] = lambda ds, cand, anc, rec, ans: popaccu(rec, ans, max_iter=6)
    INFERENCE["ASUMS"] = lambda ds, cand, anc, rec, ans: asums(
        rec, ans, anc_pairs=anc, hierarchy=ds.hierarchy
    )
    INFERENCE["CRH"] = lambda ds, cand, anc, rec, ans: crh(rec, ans)
    INFERENCE["MDC"] = lambda ds, cand, anc, rec, ans: mdc(rec, ans)
    INFERENCE["LFC"] = lambda ds, cand, anc, rec, ans: lfc(rec, ans)


_register()


@dataclass
class RoundLog:
    """Per-round metrics of one crowdsourcing run."""

    history: pd.DataFrame  # round, accuracy, gen_accuracy, avg_distance, n_answers
    final: InferenceResult
    answers: pd.DataFrame


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
    infer = INFERENCE[infer_name]
    assigner = ASSIGNERS[assign_name]
    rng = np.random.default_rng(seed)
    if workers is None:
        workers = simulate_workers(n_workers, pi_p=pi_p, seed=seed + 1)
    cand = candidate_sets(ds.records)
    anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
    gold = M.map_gold_to_candidates(ds.gold, cand, ds.hierarchy)
    gold_cand = dict(zip(gold["object"], gold["truth"]))
    objs = cand["object"].to_numpy()
    cut = np.flatnonzero(objs[1:] != objs[:-1]) + 1  # cand is sorted by object
    cands_by_obj: dict[str, list[str]] = dict(
        zip(objs[np.r_[0, cut]], (v.tolist() for v in np.split(cand["value"].to_numpy(), cut)))
    )
    answers = pd.DataFrame(columns=["object", "worker", "value"])
    history = []

    def log_round(r: int, res: InferenceResult) -> None:
        history.append(
            {
                "round": r,
                "accuracy": M.accuracy(res.truths, gold),
                "gen_accuracy": M.gen_accuracy(res.truths, gold, ds.hierarchy),
                "avg_distance": M.avg_distance(res.truths, gold, ds.hierarchy),
                "n_answers": len(answers),
            }
        )

    res = infer(ds, cand, anc, ds.records, None)
    log_round(0, res)
    worker_ids = [w.worker for w in workers]
    by_id = {w.worker: w for w in workers}
    for r in range(1, rounds + 1):
        ctx = AssignContext(
            result=res,
            workers=worker_ids,
            k=k,
            answers=answers,
            rng=rng,
        )
        assignment = assigner(ctx)
        new_rows = []
        for w_id, objs in assignment.items():
            for o in objs:
                v = by_id[w_id].answer(rng, cands_by_obj[o], gold_cand.get(o, ""))
                new_rows.append((o, w_id, v))
        if new_rows:
            answers = pd.concat(
                [answers, pd.DataFrame(new_rows, columns=["object", "worker", "value"])],
                ignore_index=True,
            )
        res = infer(ds, cand, anc, ds.records, answers if len(answers) else None)
        log_round(r, res)
    return RoundLog(history=pd.DataFrame(history), final=res, answers=answers)

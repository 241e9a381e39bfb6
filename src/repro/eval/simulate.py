"""Crowdsourced truth-discovery loop (paper Fig. 2, §5 settings).

Alternates truth inference and task assignment for a number of rounds:
each round every worker receives ``k`` questions (default 10 workers ×
5 questions), simulated workers answer (correct w.p. ``p_w``, else a
uniformly random candidate), and inference re-runs on the grown answer
set. Per-round Accuracy / GenAccuracy / AvgDistance are recorded.

A run codes the records' names once: it compiles its problem from the
records and the hierarchy, whose ancestor pairs, the §5 gold mapping and
the gold scorer's table come from the tree's arrays
(:meth:`~repro.hierarchy.Hierarchy.arrays`); ``RoundLog.timings`` reports
that set-up as round 0's ``setup_s``. V_o comes from the sources only, and
the run keeps its answers as codes: each answer's object code, its worker's
position in the worker list and its cid, the position of the answer in its
object's candidates (:class:`_Answers`), with the workers × objects mask
of what each worker has answered, which the assigners take.
:func:`repro.eval.metrics.gold_scorer` scores each round's truths by their
cids. Names are built at the edges of the run only: the mapped gold frame
once, at the start, and the answers frame of :class:`RoundLog` once, at
the end.

The algorithms differ only in their :data:`INFERENCE` entry. TDH
(:class:`_Coded`) refits EM on the answers as coded claims, warm from the
previous round's :class:`~repro.core.tdh_local.EMState`; the assigners
read that state's arrays, the scorer its argmax cids, and the run
packages one :class:`InferenceResult`, after the last round. The
baselines (:class:`_Named`) are cold fits on the answers by name, read
back by name.

The registry pins the feasible inference × assignment combinations of
Table 4 (EAI needs TDH's mu and Eq. (9)'s D, MB needs DOCS's domain model,
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
from repro.core.candidates import Claims, Problem, answer_claims, argmax_cids, compile_problem
from repro.core.result import InferenceResult
from repro.core.tdh_local import TDH, EMState, _package
from repro.datagen.truthdata import TruthDataset
from repro.datagen.workers import SimulatedWorker, simulate_workers
from repro.eval import metrics as M


_now = time.perf_counter


class _Answers:
    """A run's answers as codes, in arrival order: each answer's object
    code, its worker's position in ``workers`` and its cid, and the
    ``workers`` × objects mask of the answered pairs."""

    def __init__(self, problem: Problem, workers: list[str]):
        self.problem, self.workers = problem, workers
        self.obj = self.worker = self.cid = np.zeros(0, dtype=np.int64)
        self.answered = np.zeros((len(workers), len(problem.objects)), dtype=bool)
        self._frame = None

    def __len__(self) -> int:
        return len(self.cid)

    def add(self, obj: np.ndarray, worker: np.ndarray, cid: np.ndarray) -> None:
        self.obj = np.concatenate([self.obj, obj])
        self.worker = np.concatenate([self.worker, worker])
        self.cid = np.concatenate([self.cid, cid])
        self.answered[worker, obj] = True
        self._frame = None

    def claims(self) -> Claims | None:
        """The worker claims of TDH's E-step (None without answers)."""
        return answer_claims(self.problem, self.obj, self.worker, self.workers, self.cid)

    def frame(self) -> pd.DataFrame:
        """The answers by name: (object, worker, value) rows in arrival order."""
        if self._frame is None:
            p = self.problem
            self._frame = pd.DataFrame(
                {
                    "object": p.index.levels[0].to_numpy()[self.obj],
                    "worker": np.asarray(self.workers, dtype=object)[self.worker],
                    "value": p.cand["value"].to_numpy()[self.cid],
                }
            )
        return self._frame


class _Coded:
    """TDH in the round loop: EM on the answers as coded claims, warm from
    the previous round's :class:`EMState`, read as arrays."""

    def __init__(self, problem: Problem):
        self.problem, self.tdh = problem, TDH()

    def fit(self, answers: _Answers, previous: EMState | None) -> EMState:
        return self.tdh.fit_claims(self.problem, answers.claims(), previous)

    def truths(self, state: EMState) -> np.ndarray:
        return argmax_cids(self.problem, state.mu)

    def em(self, state: EMState) -> tuple:
        return state.n_iter, state.converged

    def final(self, state: EMState) -> InferenceResult:
        return _package(state)


class _Named:
    """A baseline in the round loop: a cold fit on the answers by name,
    whose :class:`InferenceResult` is read back by name."""

    def __init__(self, problem: Problem, fit: Callable):
        self.problem, self._fit = problem, fit

    def fit(self, answers: _Answers, previous: InferenceResult | None) -> InferenceResult:
        return self._fit(answers.frame() if len(answers) else None)

    def truths(self, res: InferenceResult) -> np.ndarray:
        return M.truth_cids(self.problem, res.truths)

    def em(self, res: InferenceResult) -> tuple:
        """EM iterations and whether EM converged, None where unreported."""
        return res.extras.get("n_iter"), res.extras.get("converged")

    def final(self, res: InferenceResult) -> InferenceResult:
        return res


# name -> (dataset, its compiled problem) -> the run's
# algorithm: fit(answers, previous round's fit or None), and how the loop
# reads truth cids and EM iterations from a fit, and the run's final
# InferenceResult. Every baseline's result.mu covers the problem's objects in
# its sorted order, so the assigners of every algorithm take the answered mask.
INFERENCE: dict[str, Callable] = {
    "TDH": lambda ds, p: _Coded(p),
    "VOTE": lambda ds, p: _Named(p, partial(vote, ds.records)),
    "LCA": lambda ds, p: _Named(p, partial(lca, ds.records)),
    "DOCS": lambda ds, p: _Named(p, partial(docs, ds.records, hierarchy=ds.hierarchy)),
    "ACCU": lambda ds, p: _Named(p, partial(accu, ds.records, max_iter=6)),
    "POPACCU": lambda ds, p: _Named(p, partial(popaccu, ds.records, max_iter=6)),
    "ASUMS": lambda ds, p: _Named(p, partial(asums, ds.records, hierarchy=ds.hierarchy)),
    "CRH": lambda ds, p: _Named(p, partial(crh, ds.records)),
    "MDC": lambda ds, p: _Named(p, partial(mdc, ds.records)),
    "LFC": lambda ds, p: _Named(p, partial(lfc, ds.records)),
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
    # round, then the seconds of its stages in loop order: the run's set-up
    # before round 0's fit (compile, gold mapping and scorer; round 0 only),
    # then context, assignment, answers, fit and scoring (round 0 only fits
    # and scores); kept out of ``history``, which repeated runs reproduce
    timings: pd.DataFrame


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
    start = _now()
    if assign_name not in FEASIBLE.get(infer_name, set()):
        raise ValueError(f"combination {infer_name}+{assign_name} is infeasible (Table 4 '-')")
    assigner = ASSIGNERS[assign_name]
    rng = np.random.default_rng(seed)
    if workers is None:
        workers = simulate_workers(n_workers, pi_p=pi_p, seed=seed + 1)
    problem = compile_problem(ds.records, ds.hierarchy)
    infer = INFERENCE[infer_name](ds, problem)
    gold, g = M.map_gold(problem, ds.gold, ds.hierarchy)
    score = M.gold_scorer(problem, gold, ds.hierarchy)
    objects = problem.index.levels[0]
    # each object's gold candidate as a position among its candidates, -1 if none
    o = objects.get_indexer(gold["object"])
    gold_at = np.full(len(objects), -1)
    gold_at[o[o >= 0]] = np.where(g >= 0, g - problem.start[o], -1)[o >= 0]
    by_id = {w.worker: w for w in workers}
    names = list(by_id)
    position = {w: j for j, w in enumerate(names)}
    nV = problem.nV.astype(np.int64)
    answers = _Answers(problem, names)
    t = [_now()]
    res = infer.fit(answers, None)
    t.append(_now())
    history = [(0, *score(infer.truths(res)), 0, *infer.em(res))]
    timings = [(0, t[0] - start, 0.0, 0.0, 0.0, t[1] - t[0], _now() - t[1])]
    for r in range(1, rounds + 1):
        t = [_now()]
        ctx = AssignContext(result=res, workers=names, k=k, answers=answers.answered, rng=rng)
        t.append(_now())
        asked = [(o, w) for w, objs in assigner(ctx).items() for o in objs]
        t.append(_now())
        if asked:
            at = objects.get_indexer([o for o, _ in asked])
            who = np.array([position[w] for _, w in asked])
            pick = [by_id[w].pick(rng, n, g) for (_, w), n, g in zip(asked, nV[at], gold_at[at])]
            answers.add(at, who, problem.start[at] + np.array(pick, dtype=np.int64))
        t.append(_now())
        res = infer.fit(answers, res)
        t.append(_now())
        history.append((r, *score(infer.truths(res)), len(answers), *infer.em(res)))
        t.append(_now())
        timings.append((r, 0.0, *np.diff(t)))
    columns = ["round", "accuracy", "gen_accuracy", "avg_distance", "n_answers", "n_iter", "converged"]
    stages = ["round", "setup_s", "context_s", "assign_s", "answer_s", "fit_s", "score_s"]
    return RoundLog(
        pd.DataFrame(history, columns=columns),
        infer.final(res),
        answers.frame(),
        pd.DataFrame(timings, columns=stages),
    )

"""Shared plumbing for the task assigners: one array layout, one selection.

:class:`AssignContext` lays every inference result out the same way: the
rows of ``result.mu`` in (object, value) order, cut into objects by
``start``/``nV``, next to the round's workers' parameters (``psi``,
``acc``) and a W × |O| ``answered`` mask. Each assigner computes a score
table over that layout and picks with :func:`top_k`, a masked top-k with
ties broken by object id. EAI (:mod:`repro.assign.eai`) runs it as
Algorithm 1: exclusive across workers, ties first to the higher U_EAI.

Worker answer models:

* with a TDH result, ``A[v', v] = psi_w @ (B1, B2, B3)[v', v]`` over the
  Eq. (3)/(4) basis of every candidate pair, cached on the compiled
  problem (:attr:`repro.core.candidates.Problem.pairs`);
* QASCA and MB use the symmetric one-coin model of a scalar worker
  accuracy (:func:`onecoin_matrix`).

Workers with no answers yet fall back to prior-mean parameters.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pandas as pd

from repro.core.candidates import count_groups, positions
from repro.core.result import InferenceResult
from repro.core.tdh_local import EMState, _state_of


def _rows(frame: pd.DataFrame | None, cols: list[str]) -> tuple[list[str], np.ndarray | None]:
    """A per-worker frame as (worker names, ``frame[cols]`` rows)."""
    if frame is None:
        return [], None
    return list(frame["worker"]), np.stack([frame[c].to_numpy(dtype=float) for c in cols], axis=1)


@dataclass
class AssignContext:
    """Everything an assigner may need for one round.

    A TDH fit is read as arrays: its EM state
    (:class:`~repro.core.tdh_local.EMState`), which a crowdsourcing run's
    round loop passes as ``result``, or the state a packaged TDH result was
    built from; its layout is that of its compiled problem, whose cids its
    ``mu`` rows are. Any other result is read from ``result.mu``, whose rows
    must be in strictly increasing (object, value) order, and its
    per-worker frames. ``answers`` may be the answered mask itself, as the
    round loop keeps it:

    * ``objects`` (sorted ids; position = object code), ``start`` and
      ``nV`` (first row and candidate count of each object) and ``mu``;
    * ``psi`` (W × 3, the TDH trustworthiness, prior mean for unseen
      workers) and ``acc`` (W, the scalar worker accuracy, 0.7 if
      unseen), aligned with ``workers``;
    * ``answered`` (W × |O|): worker j already answered object i;
    * TDH results only: the fit's compiled ``problem`` and its Eq. (9)
      denominator ``D`` (per object); else ``None``.
    """

    result: InferenceResult | EMState
    workers: list[str]
    k: int
    # (object, worker, value) collected so far, or the W × |O| answered mask itself
    answers: pd.DataFrame | np.ndarray | None
    rng: np.random.Generator

    def __post_init__(self):
        res = self.result
        if isinstance(res, InferenceResult) and "problem" in res.extras:
            res = _state_of(res)  # a packaged TDH fit, read as the arrays it was packaged from
        if isinstance(res, EMState):  # a TDH fit: the mu rows are the problem's cids
            self.problem = p = res.problem
            self.objects, self.start, self.nV = p.objects, p.start, p.nV.astype(np.int64)
            self.mu, self.D = res.mu, res.D
            psi, acc = (res.workers, res.psi), (res.workers, None if res.psi is None else res.psi[:, :1])
            object_index = p.index.levels[0]
        else:
            mu = res.mu
            self.problem = self.D = None
            obj, val = mu["object"].to_numpy(), mu["value"].to_numpy()
            new = obj[1:] != obj[:-1]
            if not ((obj[1:] >= obj[:-1]).all() and (val[1:][~new] > val[:-1][~new]).all()):
                raise ValueError("result.mu rows must be in strictly increasing (object, value) order")
            self.start = np.flatnonzero(np.r_[True, new])
            self.nV = np.diff(np.r_[self.start, len(obj)])
            self.objects: list[str] = obj[self.start].tolist()
            self.mu = mu["mu"].to_numpy(dtype=float)
            psi, acc = _rows(res.psi, ["psi1", "psi2", "psi3"]), _rows(res.worker_accuracy, ["acc"])
            object_index = pd.Index(self.objects)
        self.psi = self._per_worker(*psi, 3, 1 / 3)
        self.acc = self._per_worker(*acc, 1, 0.7)[:, 0]
        if isinstance(self.answers, np.ndarray):
            if self.answers.shape != (len(self.workers), len(self.objects)):
                raise ValueError("the answered mask must be workers × objects")
            self.answered = self.answers
        else:
            self.answered = np.zeros((len(self.workers), len(self.objects)), dtype=bool)
        if isinstance(self.answers, pd.DataFrame) and len(self.answers):
            i = object_index.get_indexer(self.answers["object"])
            if (i < 0).any():
                raise ValueError(
                    f"answer on object {self.answers['object'].iloc[np.argmax(i < 0)]!r}, "
                    "which result.mu does not cover"
                )
            j = pd.Index(self.workers).get_indexer(self.answers["worker"])
            self.answered[j[j >= 0], i[j >= 0]] = True
        self._eai = None  # the round's EAI table, filled by repro.assign.eai

    def _per_worker(self, names: list[str], rows: np.ndarray | None, width: int, default: float) -> np.ndarray:
        """The row of ``rows`` named ``names`` of each of ``workers``,
        ``default`` if absent."""
        out = np.full((len(self.workers), width), default)
        if rows is not None:
            at = positions(names, self.workers)
            out[at >= 0] = rows[at[at >= 0]]
        return out

    @cached_property
    def groups(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """``(K, objs, rows)`` for each candidate count K
        (:func:`~repro.core.candidates.count_groups`): the codes of the
        objects with K candidates and their ``mu`` rows. A TDH context's are
        its problem's, cached on it."""
        if self.problem is not None:
            return self.problem.groups
        return count_groups(self.start, self.nV)


def onecoin_matrix(K: int, acc) -> np.ndarray:
    """The one-coin answer likelihood ``A[v', v]`` over K candidates of each
    accuracy in ``acc`` (shape ``acc.shape + (K, K)``): correct w.p.
    ``acc``, else uniform over the other ``K - 1``; certain if ``K = 1``."""
    acc = np.asarray(acc)[..., None, None]
    return np.where(np.eye(K, dtype=bool), acc if K > 1 else 1.0, (1.0 - acc) / max(K - 1, 1))


def xlogx(p: np.ndarray) -> np.ndarray:
    """``p log p``, with 0 where ``p = 0``."""
    return p * np.log(np.where(p > 0, p, 1.0))


def top_k(
    ctx: AssignContext, order, Q: np.ndarray, *, then: np.ndarray | None = None, exclusive: bool = False
) -> dict[str, list[str]]:
    """Each worker ``ctx.workers[j]``, j in ``order``, gets the ``k``
    objects it has not answered with the highest score ``Q[j]`` (ties →
    higher ``then[i]`` if given, then object id). ``Q`` is W × |O|, or one
    row that every worker shares. With ``exclusive``, an object goes to at
    most one worker: each chooses among those no earlier worker took."""
    Q = np.broadcast_to(Q, ctx.answered.shape)
    free = ~ctx.answered
    out: dict[str, list[str]] = {}
    for j in order:
        cand = np.flatnonzero(free[j])
        q = Q[j, cand]
        if 0 < ctx.k < len(cand):  # only scores at or above the k-th best can be picked
            top = q >= np.partition(q, len(q) - ctx.k)[len(q) - ctx.k]
            cand, q = cand[top], q[top]
        keys = (cand,) if then is None else (cand, -then[cand])
        best = cand[np.lexsort((*keys, -q))[: ctx.k]]
        if exclusive:
            free[:, best] = False
        out[ctx.workers[j]] = [ctx.objects[i] for i in best]
    return out

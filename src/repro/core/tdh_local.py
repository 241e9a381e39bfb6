"""TDH truth inference — the EM of both engines.

Implements the paper's EM algorithm (§3.2, Fig. 4, Eq. 9–11) exactly:

* three-way source model ``phi_s`` (exact / generalized / wrong) with the
  uniform-ancestor and uniform-wrong selection of Eq. (1) and the
  collapsed two-case model of Eq. (2) for objects without any
  ancestor–descendant candidate pair (``o ∉ O_H``);
* three-way worker model ``psi_w`` with the popularity terms
  ``Pop2``/``Pop3`` (Eq. 3–4) computed from the *source* records;
* Dirichlet priors ``alpha=(3,3,2)``, ``beta=gamma=(2,…)`` (§5.1) and the
  MAP M-step updates of Eq. (9)–(11).

The problem is compiled by :func:`repro.core.candidates.compile_problem`
into integer-coded numpy arrays and each side's claims are expanded over
their candidates by the Eq. (1)–(4) kernel
:func:`repro.core.candidates.expand` into the block format ``(row, ar,
cand, coef)`` of :func:`repro.core.candidates.side_rows`. The E-step
(:func:`_estep`) is three ``np.bincount`` segment reductions per side over
that expanded relation: the per-claim normaliser, the Eq. (9) numerators
per cid, and the Eq. (10)/(11) sums per (agent, relationship) as one
fused sum over the flat index ``ar``.
Its coefficients and its per-claim normaliser depend only on the claim's
object, so the E-step over all objects is the sum (:func:`_add`) of the
E-steps over disjoint blocks of objects; only the M-step needs the totals.
The EM loop (:meth:`TDH._em`) and :func:`_package` therefore take the
E-step as a callable ``(mu, phi, psi) -> (mu_num, g_src, g_wrk)``:
:class:`TDH` runs :func:`_estep` on the whole relation, one block, and
:class:`repro.core.tdh_spark.TDHSpark` maps it over object blocks on Spark.
The local engine is what the crowdsourcing round loop uses: it re-runs EM
thousands of times on tiny deltas, where per-job Spark overhead would
dominate (see DESIGN.md §3). The loop compiles its problem once and refits
it every round with :meth:`TDH.fit_problem`; :meth:`TDH.fit` is the compile
followed by that call. The compiled problem is returned in
``extras["problem"]`` for the assigners.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd

from repro.core.candidates import Claims, Problem, argmax_cids, code_answers, compile_problem, side_rows
from repro.core.result import InferenceResult


class TDH:
    """The paper's hierarchical truth-inference algorithm (TDH)."""

    def __init__(
        self,
        alpha: tuple[float, float, float] = (3.0, 3.0, 2.0),
        beta: tuple[float, float, float] = (2.0, 2.0, 2.0),
        gamma: float = 2.0,
        max_iter: int = 100,
        tol: float = 1e-7,
    ):
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)
        self.gamma = float(gamma)
        self.max_iter = int(max_iter)
        self.tol = float(tol)

    # ------------------------------------------------------------------
    def fit(
        self,
        records: pd.DataFrame,
        answers: pd.DataFrame | None,
        anc_pairs: pd.DataFrame,
    ) -> InferenceResult:
        """Run EM to convergence and return the MAP estimate.

        Parameters
        ----------
        records: (object, source, value) — at most one row per (o, s).
        answers: (object, worker, value) or None — worker answers; values
            must be candidates of their object.
        anc_pairs: (object, value, anc) — per-object candidate ancestor
            pairs (``anc ∈ G_o(value)``).
        """
        return self.fit_problem(compile_problem(records, anc_pairs), answers)

    def fit_problem(self, problem: Problem, answers: pd.DataFrame | None) -> InferenceResult:
        """:meth:`fit` on the compiled problem of its records and ancestor
        pairs, whose source-side E-step rows every fit shares."""
        workers = code_answers(problem, answers)
        block = (
            problem.source_rows,
            None if workers is None else side_rows(problem, workers, popularity=True),
        )
        return self._em(problem, workers, partial(_estep, block))

    # ------------------------------------------------------------------
    def _em(self, p: Problem, workers: Claims | None, estep) -> InferenceResult:
        """MAP EM from smoothed claim counts and the prior means of phi/psi.

        ``estep(mu, phi, psi)`` returns the E-step sums of every object:
        the Eq. (9) numerators per cid and the per-agent, per-relationship
        sums of Eq. (10)/(11), before the priors are added.
        """
        obj_of = p.obj_of_cand
        gm1 = self.gamma - 1.0
        nO_s = np.bincount(p.sources.agent, minlength=len(p.sources.agents)).astype(float)
        phi = np.tile(self.alpha / self.alpha.sum(), (len(nO_s), 1))
        psi, W_per_obj = None, 0.0
        if workers is not None:
            nO_w = np.bincount(workers.agent, minlength=len(workers.agents)).astype(float)
            psi = np.tile(self.beta / self.beta.sum(), (len(nO_w), 1))
            W_per_obj = np.bincount(obj_of[workers.cid], minlength=len(p.objects)).astype(float)
        mu = initial_mu(p, workers, self.gamma)
        mu_den = p.S + W_per_obj + p.nV * gm1
        a_sum = self.alpha.sum() - 3.0
        b_sum = self.beta.sum() - 3.0
        n_iter, delta = 0, np.inf
        for n_iter in range(1, self.max_iter + 1):
            mu_num, g_src, g_wrk = estep(mu, phi, psi)
            mu_new = (mu_num + gm1) / mu_den[obj_of]
            phi = (g_src + (self.alpha - 1.0)) / (nO_s[:, None] + a_sum)
            if psi is not None:
                psi = (g_wrk + (self.beta - 1.0)) / (nO_w[:, None] + b_sum)
            delta = float(np.max(np.abs(mu_new - mu)))
            mu = mu_new
            if delta < self.tol:
                break
        return _package(p, workers, estep, mu, phi, psi, gm1, mu_den, n_iter, delta < self.tol)


# ----------------------------------------------------------------------
def initial_mu(p: Problem, workers: Claims | None, gamma: float) -> np.ndarray:
    """EM's starting confidences: claim counts of both sides, smoothed by
    ``gamma - 1`` and normalised per object."""
    counts = p.cnt
    if workers is not None:
        counts = counts + np.bincount(workers.cid, minlength=len(p.cand))
    counts = counts + (gamma - 1.0)
    return counts / np.bincount(p.obj_of_cand, counts, minlength=len(p.objects))[p.obj_of_cand]


def _estep(block, mu: np.ndarray, phi: np.ndarray, psi: np.ndarray | None):
    """The E-step over a block of objects: ``(mu_num, g_src, g_wrk)``, the
    responsibilities summed per cid and per (agent, relationship) of each
    side. ``block`` is ``(src_rows, wrk_rows)`` of :func:`side_rows`
    restricted to the block's claims (claim indices from 0), ``wrk_rows``
    None without answers."""
    src, wrk = block
    mu_num, g_src = _side_estep(src, phi, mu)
    if wrk is None:
        return mu_num, g_src, np.zeros((0, 3))
    mu_wrk, g_wrk = _side_estep(wrk, psi, mu)
    return mu_num + mu_wrk, g_src, g_wrk


def _side_estep(rows, param: np.ndarray, mu: np.ndarray):
    """One side's part of :func:`_estep`; ``param`` is its phi or psi.

    The per-(agent, relationship) sums are one ``bincount`` over the flat
    index ``ar``: each bin adds the same responsibilities in the same
    (row) order as a per-relationship sum would."""
    row, ar, cand, coef = rows
    w = param.take(ar)
    w *= coef
    w *= mu.take(cand)
    f = w / np.bincount(row, w)[row]
    g = np.bincount(ar, f, minlength=param.size).reshape(-1, 3)
    return np.bincount(cand, f, minlength=len(mu)), g


def _add(a: tuple, b: tuple) -> tuple:
    """The E-step of two disjoint blocks from the E-step of each."""
    return tuple(x + y for x, y in zip(a, b))


def _package(
    p: Problem,
    workers: Claims | None,
    estep,
    mu: np.ndarray,
    phi: np.ndarray,
    psi: np.ndarray | None,
    gm1: float,
    mu_den: np.ndarray,
    n_iter: int,
    converged: bool,
) -> InferenceResult:
    # Eq. (9) numerator/denominator, cached for the EAI incremental EM.
    N = estep(mu, phi, psi)[0] + gm1
    mu_df = p.cand.assign(mu=mu)
    phi_df = pd.DataFrame(phi, columns=["phi1", "phi2", "phi3"])
    phi_df.insert(0, "source", p.sources.agents)
    psi_df = None
    wacc = None
    if psi is not None:
        psi_df = pd.DataFrame(psi, columns=["psi1", "psi2", "psi3"])
        psi_df.insert(0, "worker", workers.agents)
        wacc = pd.DataFrame({"worker": workers.agents, "acc": psi[:, 0]})
    return InferenceResult(
        truths=p.cand.take(argmax_cids(p, mu)).reset_index(drop=True),
        mu=mu_df,
        phi=phi_df,
        psi=psi_df,
        N=p.cand.assign(N=N),
        D=pd.DataFrame({"object": p.objects, "D": mu_den}),
        worker_accuracy=wacc,
        extras={"n_iter": n_iter, "converged": converged, "problem": p},
    )

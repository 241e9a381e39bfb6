"""TDH truth inference — vectorized reference engine.

Implements the paper's EM algorithm (§3.2, Fig. 4, Eq. 9–11) exactly:

* three-way source model ``phi_s`` (exact / generalized / wrong) with the
  uniform-ancestor and uniform-wrong selection of Eq. (1) and the
  collapsed two-case model of Eq. (2) for objects without any
  ancestor–descendant candidate pair (``o ∉ O_H``);
* three-way worker model ``psi_w`` with the popularity terms
  ``Pop2``/``Pop3`` (Eq. 3–4) computed from the *source* records;
* Dirichlet priors ``alpha=(3,3,2)``, ``beta=gamma=(2,…)`` (§5.1) and the
  MAP M-step updates of Eq. (9)–(11).

This engine is numerically identical to the Spark implementation in
:mod:`repro.core.tdh_spark` (asserted in tests); it exists because the
crowdsourcing round loop re-runs EM thousands of times on tiny deltas,
where per-job Spark overhead would dominate (see DESIGN.md §3).

The problem is compiled by :func:`repro.core.candidates.compile_problem`
into integer-coded numpy arrays and each side's claims are expanded over
their candidates by the Eq. (1)–(4) kernel
:func:`repro.core.candidates.expand`; one EM iteration is a handful of
``np.bincount`` segment reductions over that expanded relation. The
compiled problem is returned in ``extras["problem"]`` for the assigners.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.candidates import Claims, Problem, code_answers, compile_problem, expand
from repro.core.result import InferenceResult, argmax_truths


@dataclass
class _Side:
    """One side's claims (sources or workers) expanded over the candidates
    of their objects by the Eq. (1)–(4) kernel."""

    claims: Claims
    row: np.ndarray  # claim index
    agent: np.ndarray  # source / worker code
    cand: np.ndarray  # cid of the conditioning truth v
    rel: np.ndarray  # 1 exact, 2 generalized, 3 wrong
    coef: np.ndarray  # static coefficient multiplying phi/psi[rel]
    claims_per_agent: np.ndarray  # |O_s| (or |O_w|)
    claims_per_object: np.ndarray  # |S_o| (or |W_o|)


def _side(problem: Problem, claims: Claims, popularity: bool) -> _Side:
    row, cand, rel, coef = expand(problem, claims.cid, popularity)
    return _Side(
        claims=claims,
        row=row,
        agent=claims.agent[row],
        cand=cand,
        rel=rel,
        coef=coef,
        claims_per_agent=np.bincount(claims.agent, minlength=len(claims.agents)).astype(float),
        claims_per_object=np.bincount(
            problem.obj_of_cand[claims.cid], minlength=len(problem.objects)
        ).astype(float),
    )


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
        problem = compile_problem(records, anc_pairs)
        src = _side(problem, problem.sources, popularity=False)
        wrk = None
        if answers is not None and len(answers):
            wrk = _side(problem, code_answers(problem, answers), popularity=True)
        mu, phi, psi, n_iter = self._em(problem, src, wrk)
        return _package(problem, src, wrk, mu, phi, psi, self.gamma, n_iter)

    # ------------------------------------------------------------------
    def _em(self, p: Problem, src: _Side, wrk: _Side | None):
        C = len(p.cand)
        obj_of = p.obj_of_cand
        gm1 = self.gamma - 1.0
        # init: mu from smoothed claim counts; phi/psi at prior means
        mu = initial_mu(p, wrk.claims if wrk else None, self.gamma)
        phi = np.tile(self.alpha / self.alpha.sum(), (len(src.claims_per_agent), 1))
        psi = (
            np.tile(self.beta / self.beta.sum(), (len(wrk.claims_per_agent), 1))
            if wrk is not None
            else None
        )
        mu_den = (
            src.claims_per_object
            + (wrk.claims_per_object if wrk is not None else 0.0)
            + p.nV * gm1
        )
        a_sum = self.alpha.sum() - 3.0
        b_sum = self.beta.sum() - 3.0
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            f_src, g_src = _estep(src, phi, mu)
            mu_num = np.bincount(src.cand, f_src, minlength=C)
            if wrk is not None:
                f_wrk, g_wrk = _estep(wrk, psi, mu)
                mu_num += np.bincount(wrk.cand, f_wrk, minlength=C)
            mu_new = (mu_num + gm1) / mu_den[obj_of]
            phi = (g_src + (self.alpha - 1.0)) / (
                src.claims_per_agent[:, None] + a_sum
            )
            if wrk is not None:
                psi = (g_wrk + (self.beta - 1.0)) / (
                    wrk.claims_per_agent[:, None] + b_sum
                )
            delta = float(np.max(np.abs(mu_new - mu)))
            mu = mu_new
            if delta < self.tol:
                break
        return mu, phi, psi, n_iter


# ----------------------------------------------------------------------
def initial_mu(p: Problem, workers: Claims | None, gamma: float) -> np.ndarray:
    """EM's starting confidences: claim counts of both sides, smoothed by
    ``gamma - 1`` and normalised per object."""
    counts = p.cnt
    if workers is not None:
        counts = counts + np.bincount(workers.cid, minlength=len(p.cand))
    counts = counts + (gamma - 1.0)
    return counts / np.bincount(p.obj_of_cand, counts, minlength=len(p.objects))[p.obj_of_cand]


def _estep(side: _Side, param: np.ndarray, mu: np.ndarray):
    """One E-step over a side: returns per-candidate f sums' raw values
    aligned to rows (to be bincounted by caller) and per-agent g sums."""
    w = param[side.agent, side.rel - 1] * side.coef * mu[side.cand]
    z = np.bincount(side.row, w, minlength=len(side.claims.cid))
    f = w / z[side.row]
    n_agents = len(side.claims.agents)
    g = np.zeros((n_agents, 3))
    for t in (1, 2, 3):
        m = side.rel == t
        g[:, t - 1] = np.bincount(side.agent[m], f[m], minlength=n_agents)
    return f, g


def _package(
    p: Problem,
    src: _Side,
    wrk: _Side | None,
    mu: np.ndarray,
    phi: np.ndarray,
    psi: np.ndarray | None,
    gamma: float,
    n_iter: int,
) -> InferenceResult:
    mu_df = p.cand.assign(mu=mu)
    truths = argmax_truths(mu_df)
    phi_df = pd.DataFrame(phi, columns=["phi1", "phi2", "phi3"])
    phi_df.insert(0, "source", src.claims.agents)
    psi_df = None
    wacc = None
    # Eq. (9) numerator/denominator, cached for the EAI incremental EM.
    f_src, _ = _estep(src, phi, mu)
    N = np.bincount(src.cand, f_src, minlength=len(p.cand))
    W_per_obj = np.zeros(len(p.objects))
    if wrk is not None:
        workers = wrk.claims.agents
        psi_df = pd.DataFrame(psi, columns=["psi1", "psi2", "psi3"])
        psi_df.insert(0, "worker", workers)
        wacc = pd.DataFrame({"worker": workers, "acc": psi[:, 0]})
        f_wrk, _ = _estep(wrk, psi, mu)
        N += np.bincount(wrk.cand, f_wrk, minlength=len(p.cand))
        W_per_obj = wrk.claims_per_object
    N = N + (gamma - 1.0)
    D = src.claims_per_object + W_per_obj + p.nV * (gamma - 1.0)
    return InferenceResult(
        truths=truths,
        mu=mu_df,
        phi=phi_df,
        psi=psi_df,
        N=p.cand.assign(N=N),
        D=pd.DataFrame({"object": p.objects, "D": D}),
        worker_accuracy=wacc,
        extras={"n_iter": n_iter, "problem": p},
    )

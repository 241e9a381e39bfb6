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
fused sum over the flat index ``ar``. The normaliser is P(claim | mu, phi,
psi), so the E-step also returns the log-likelihood of the claims, from
which the EM loop has the MAP objective at no extra pass.
Its coefficients and its per-claim normaliser depend only on the claim's
object, so the E-step over all objects is the sum (:func:`_add`) of the
E-steps over disjoint blocks of objects; only the M-step needs the totals.
The EM loop (:meth:`TDH._em`, safeguarded SQUAREM) therefore takes the
E-step as a callable ``(mu, phi, psi) -> (mu_num, g_src, g_wrk,
loglik)``: :class:`TDH` runs :func:`_estep` on the whole relation, one
block, and :class:`repro.core.tdh_spark.TDHSpark` maps it over object
blocks on Spark. A fit runs ``n_iter`` E-steps and no more: Eq. (9)'s
numerator of the last map is ``mu * D``, which EAI forms from the fit's
mu and D (:func:`repro.assign.eai.eai_table`).

:meth:`TDH._em` returns an :class:`EMState`: the (mu, phi, psi) arrays,
the names of psi's workers, D, ``n_iter``, ``converged`` and the trace.
:func:`_package` turns a state into an :class:`InferenceResult`, so a
fit is: code the answers, run EM, package (:meth:`TDH.fit`,
:meth:`TDH.fit_problem`, ``TDHSpark.fit``).
The local engine is what the crowdsourcing round loop uses: it re-runs EM
thousands of times on tiny deltas, where per-job Spark overhead would
dominate (see DESIGN.md §3). The loop compiles its problem once, keeps
its answers as codes and refits with :meth:`TDH.fit_claims` every round,
starting EM from the previous round's state; it packages one result per
run. The compiled problem is returned in ``extras["problem"]`` for the
assigners.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import pandas as pd

from repro.core.candidates import (
    Claims,
    Problem,
    argmax_cids,
    code_answers,
    compile_problem,
    positions,
    side_rows,
)
from repro.core.result import InferenceResult
from repro.hierarchy import Hierarchy


@dataclass(frozen=True)
class EMState:
    """What EM leaves on a compiled problem (:meth:`TDH._em`): the MAP
    estimate as arrays, from which the next fit on the same records
    warm-starts and which :func:`_package` turns into an
    :class:`~repro.core.result.InferenceResult`."""

    problem: Problem
    mu: np.ndarray  # per cid
    phi: np.ndarray  # per source of ``problem`` × relationship
    psi: np.ndarray | None  # per worker of ``workers`` × relationship; None without answers
    workers: list[str]  # psi's rows: the sorted names of the workers who answered
    D: np.ndarray  # Eq. (9)'s denominator per object, of the map that produced mu
    n_iter: int
    converged: bool
    trace: list[tuple[float, float]]  # (objective, max_dmu) per kept E-step


class TDH:
    """The paper's hierarchical truth-inference algorithm (TDH)."""

    def __init__(
        self,
        alpha: tuple[float, float, float] = (3.0, 3.0, 2.0),
        beta: tuple[float, float, float] = (2.0, 2.0, 2.0),
        gamma: float = 2.0,
        max_iter: int = 200,
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
        anc_pairs: pd.DataFrame | Hierarchy,
    ) -> InferenceResult:
        """Run EM to convergence and return the MAP estimate.

        Parameters
        ----------
        records: (object, source, value) — at most one row per (o, s).
        answers: (object, worker, value) or None — worker answers; values
            must be candidates of their object.
        anc_pairs: (object, value, anc) — per-object candidate ancestor
            pairs (``anc ∈ G_o(value)``) — or the :class:`Hierarchy` they
            are walked on (:func:`~repro.core.candidates.compile_problem`).
        """
        return self.fit_problem(compile_problem(records, anc_pairs), answers)

    def fit_problem(self, problem: Problem, answers: pd.DataFrame | None) -> InferenceResult:
        """:meth:`fit` on the compiled problem of its records and ancestor
        pairs, whose source-side E-step rows every fit shares."""
        return _package(self.fit_claims(problem, code_answers(problem, answers)))

    def fit_claims(self, problem: Problem, workers: Claims | None, start: EMState | None = None) -> EMState:
        """EM on ``problem`` and the coded worker claims (None without
        answers), warm from ``start``, an earlier state on the same records
        (:meth:`_start`): :meth:`fit_problem` before packaging. The round
        loop refits with it."""
        block = (
            problem.source_rows,
            None if workers is None else side_rows(problem, workers, popularity=True),
        )
        return self._em(problem, workers, partial(_estep, block), start)

    # ------------------------------------------------------------------
    def _start(self, p: Problem, workers: Claims | None, start: EMState | None) -> tuple:
        """EM's starting point ``(mu, phi, psi)``: from the claim counts and
        the prior means of phi/psi, or warm from ``start``'s mu and phi and
        its psi by worker name. A worker without a psi row in ``start``
        starts at the prior mean."""
        psi = None
        if start is None:
            mu = initial_mu(p, workers, self.gamma)
            phi = np.tile(self.alpha / self.alpha.sum(), (len(p.sources.agents), 1))
        elif start.problem is not p and (
            len(start.mu) != len(p.cand) or start.problem.sources.agents != p.sources.agents
        ):
            raise ValueError("start is a fit on other records")
        else:
            mu, phi = start.mu, start.phi
        if workers is not None:
            psi = np.tile(self.beta / self.beta.sum(), (len(workers.agents), 1))
            if start is not None and start.psi is not None:
                at = positions(start.workers, workers.agents)
                known = at >= 0
                psi[known] = start.psi[at[known]]
        return mu, phi, psi

    def _em(self, p: Problem, workers: Claims | None, estep, start: EMState | None = None) -> EMState:
        """MAP EM as safeguarded SQUAREM (Varadhan & Roland 2008, scheme S3).

        ``estep(mu, phi, psi)`` returns the E-step sums of every object:
        the Eq. (9) numerators per cid, the per-agent, per-relationship
        sums of Eq. (10)/(11), before the priors are added, and the
        log-likelihood of the claims. One E-step at theta gives both the
        plain EM map F(theta) and the MAP objective L(theta).

        Each cycle maps theta0 twice, extrapolates theta' = theta0 - 2a r +
        a^2 v (r = theta1 - theta0, v = theta2 - 2 theta1 + theta0, a =
        min(-|r|/|v|, -1), halved toward -1 until theta' is inside the
        simplices) and maps theta' once more. theta' counts only if
        L(theta') >= L(theta1); otherwise the cycle ends at theta2, which
        keeps EM's monotone objective (Dempster, Laird & Rubin 1977).
        ``n_iter`` counts E-steps, and EM stops when one map moves no mu
        by ``tol`` or more (``converged``) or after ``max_iter`` E-steps.
        The returned state's ``trace`` holds L and that move for every
        E-step but the discarded ones.

        The M-step (Eq. 9–11) adds the priors to the E-step's fresh sums and
        divides them in place, by denominators computed once per fit.
        """
        obj_of = p.obj_of_cand
        gm1 = self.gamma - 1.0
        a1, b1 = self.alpha - 1.0, self.beta - 1.0
        nO_s = np.bincount(p.sources.agent, minlength=len(p.sources.agents)).astype(float)
        nO_w, W_per_obj = None, 0.0
        if workers is not None:
            nO_w = np.bincount(workers.agent, minlength=len(workers.agents)).astype(float)
            W_per_obj = np.bincount(obj_of[workers.cid], minlength=len(p.objects)).astype(float)
        mu_den = p.S + W_per_obj + p.nV * gm1
        den_of_cand = mu_den[obj_of]
        phi_den = nO_s[:, None] + (self.alpha.sum() - 3.0)
        psi_den = None if workers is None else nO_w[:, None] + (self.beta.sum() - 3.0)
        trace: list[tuple[float, float]] = []

        def em_map(theta):
            """One E-step at theta: F(theta), L(theta) and F's max |dmu|."""
            mu, phi, psi = theta
            mu_num, g_src, g_wrk, loglik = estep(mu, phi, psi)
            mu_num += gm1
            mu_num /= den_of_cand
            g_src += a1
            g_src /= phi_den
            if psi is not None:
                g_wrk += b1
                g_wrk /= psi_den
            new = (mu_num, g_src, None if psi is None else g_wrk)
            objective = loglik + gm1 * np.log(mu).sum() + np.log(phi).sum(0) @ a1
            if psi is not None:
                objective += np.log(psi).sum(0) @ b1
            return new, objective, float(np.max(np.abs(new[0] - mu)))

        theta = self._start(p, workers, start)
        cycle, n_iter, converged = [theta], 0, False  # this cycle's theta0, theta1, theta2
        while n_iter < self.max_iter and not converged:
            n_iter += 1
            if len(cycle) < 3:  # a plain EM map
                new, objective, delta = em_map(cycle[-1])
                cycle.append(new)
            else:  # the extrapolated point, kept if no worse than theta1
                new, objective, delta = em_map(_extrapolate(*cycle))
                cycle = [new]
                if objective < trace[-1][0]:
                    cycle = [theta]  # go on from theta2
                    continue
            trace.append((objective, delta))
            theta, converged = new, delta < self.tol
        mu, phi, psi = theta
        names = [] if workers is None else workers.agents
        return EMState(p, mu, phi, psi, names, mu_den, n_iter, converged, trace)


def _extrapolate(t0: tuple, t1: tuple, t2: tuple) -> tuple:
    """SQUAREM's S3 point from two EM maps t0 -> t1 -> t2 of (mu, phi, psi):
    t0 - 2a r + a^2 v with a = min(-|r|/|v|, -1), halved toward -1 until
    every entry is positive; a = -1 is t2 itself."""
    r = [x1 - x0 for x0, x1 in zip(t0, t1) if x0 is not None]
    v = [x2 - x1 - d for x1, x2, d in zip(t1, t2, r)]
    v2 = sum(float((x * x).sum()) for x in v)
    a = -1.0 if v2 == 0.0 else min(-np.sqrt(sum(float((x * x).sum()) for x in r) / v2), -1.0)
    while a < -1.0:
        out = [x0 - 2.0 * a * d + a * a * x for x0, d, x in zip(t0, r, v)]
        if all((x > 0.0).all() for x in out):
            return tuple(out) if len(out) == 3 else (*out, None)  # psi is None without answers
        a = (a - 1.0) / 2.0
    return t2


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
    mu_num, g_src, ll_src = _side_estep(src, phi, mu)
    if wrk is None:
        return mu_num, g_src, np.zeros((0, 3)), ll_src
    mu_wrk, g_wrk, ll_wrk = _side_estep(wrk, psi, mu)
    return mu_num + mu_wrk, g_src, g_wrk, ll_src + ll_wrk


def _side_estep(rows, param: np.ndarray, mu: np.ndarray):
    """One side's part of :func:`_estep`; ``param`` is its phi or psi.

    The per-(agent, relationship) sums are one ``bincount`` over the flat
    index ``ar``: each bin adds the same responsibilities in the same
    (row) order as a per-relationship sum would."""
    row, ar, cand, coef = rows
    w = param.take(ar)
    w *= coef
    w *= mu.take(cand)
    norm = np.bincount(row, w)  # P(claim | mu, param)
    f = w / norm[row]
    g = np.bincount(ar, f, minlength=param.size).reshape(-1, 3)
    return np.bincount(cand, f, minlength=len(mu)), g, float(np.log(norm).sum())


def _add(a: tuple, b: tuple) -> tuple:
    """The E-step of two disjoint blocks from the E-step of each."""
    return tuple(x + y for x, y in zip(a, b))


def _package(state: EMState) -> InferenceResult:
    """``state`` as the frames of an :class:`InferenceResult`."""
    p, mu, phi, psi = state.problem, state.mu, state.phi, state.psi
    # the problem's name columns, shared (not copied) by mu, D and truths
    obj, val, objects = p.cand["object"], p.cand["value"], p.index.levels[0].to_numpy()
    psi_df = None
    if psi is not None:
        psi_df = pd.DataFrame({"worker": state.workers, **{f"psi{r}": psi[:, r - 1] for r in (1, 2, 3)}})
    return InferenceResult(
        truths=pd.DataFrame({"object": objects, "value": val.to_numpy()[argmax_cids(p, mu)]}, copy=False),
        mu=pd.DataFrame({"object": obj, "value": val, "mu": mu}, copy=False),
        phi=pd.DataFrame({"source": p.sources.agents, **{f"phi{r}": phi[:, r - 1] for r in (1, 2, 3)}}),
        psi=psi_df,
        D=pd.DataFrame({"object": objects, "D": state.D}, copy=False),
        extras={
            "n_iter": state.n_iter,
            "converged": state.converged,
            "problem": p,
            "trace": pd.DataFrame(state.trace, columns=["objective", "max_dmu"]),
        },
    )


def _state_of(res: InferenceResult) -> EMState:
    """The state a TDH fit packaged into ``res``: its arrays, as
    :func:`_package` wrote them."""

    def rows(frame: pd.DataFrame, name: str) -> np.ndarray:
        return np.stack([frame[f"{name}{r}"].to_numpy(dtype=float) for r in (1, 2, 3)], axis=1)

    psi = None if res.psi is None else rows(res.psi, "psi")
    trace = res.extras["trace"]
    return EMState(
        res.extras["problem"],
        res.mu["mu"].to_numpy(dtype=float),
        rows(res.phi, "phi"),
        psi,
        [] if psi is None else list(res.psi["worker"]),
        res.D["D"].to_numpy(dtype=float),
        res.extras["n_iter"],
        res.extras["converged"],
        list(zip(trace["objective"], trace["max_dmu"])),
    )

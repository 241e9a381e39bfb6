"""LCA — Latent Credibility Analysis (Pasternack & Roth, WWW'13).

We implement *GuessLCA* (the variant the paper selects): each source has
an honesty parameter ``h_s``; an honest assertion states the truth, a
dishonest one guesses according to a guess distribution ``g_o`` (uniform
over the candidates), so ``P(claim | truth v) = h_s·1[claim=v] +
(1-h_s)·g_o(claim)``. EM over the per-object truth posterior
(:meth:`repro.baselines.claims.ClaimLayout.posterior`, uniform prior).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.claims import ClaimLayout
from repro.core.result import InferenceResult


def lca(
    records: pd.DataFrame,
    answers: pd.DataFrame | None = None,
    *,
    max_iter: int = 50,
    tol: float = 1e-7,
    prior: tuple[float, float] = (4.0, 2.0),
) -> InferenceResult:
    """GuessLCA; worker answers are folded in as extra sources."""
    layout = ClaimLayout(records, answers)
    row, cand, eq = layout.grid
    p = layout.problem
    src = layout.src[row]
    guess = 1.0 / p.nV[p.obj_of_cand[cand]]  # g_o(claim), uniform
    n_sources = len(layout.sources)
    nO_s = np.bincount(layout.src, minlength=n_sources).astype(float)

    def lik(h: np.ndarray) -> np.ndarray:
        return np.where(eq, h[src] + (1 - h[src]) * guess, (1 - h[src]) * guess)

    h = np.full(n_sources, 0.8)
    a0, b0 = prior
    for _ in range(max_iter):
        pr = lik(h)
        post = layout.posterior(np.log(np.clip(pr, 1e-300, None)))
        # responsibility that a claim was honest: h·1[eq] / p, times truth posterior
        resp_row = np.where(eq, h[src] / np.clip(pr, 1e-300, None), 0.0) * post[cand]
        honest = np.bincount(src, resp_row, minlength=n_sources)
        new_h = (honest + a0 - 1) / (nO_s + a0 + b0 - 2)
        new_h = np.clip(new_h, 0.01, 0.99)
        done = float(np.max(np.abs(new_h - h))) < tol
        h = new_h
        if done:
            break
    post = layout.posterior(np.log(np.clip(lik(h), 1e-300, None)))
    honesty = pd.DataFrame({"source": layout.sources, "honesty": h})
    return InferenceResult(
        truths=layout.truths(post),
        mu=layout.mu(post),
        worker_accuracy=layout.worker_accuracy(h),
        extras={"honesty": honesty},
    )

"""CRH — Conflict Resolution on Heterogeneous data (Li et al., SIGMOD'14).

Framework: alternate (1) truth estimation given source weights and
(2) weight estimation ``w_s = -log(loss_s / Σ_s' loss_s')`` given truths.
Categorical attributes use 0-1 loss and weighted voting; numeric
attributes use normalized squared loss and a weighted mean (which is why
CRH is sensitive to outliers in Table 6).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.claims import ClaimLayout
from repro.core.candidates import argmax_cids
from repro.core.result import InferenceResult

_EPS = 1e-9


def crh(
    records: pd.DataFrame,
    answers: pd.DataFrame | None = None,
    *,
    max_iter: int = 20,
) -> InferenceResult:
    """Categorical CRH; worker answers are folded in as extra sources."""
    layout = ClaimLayout(records, answers)
    p, cid, src = layout.problem, layout.cid, layout.src
    obj = p.obj_of_cand[cid]

    def scores(w: np.ndarray) -> np.ndarray:
        # pandas' group sum is compensated, so it is kept over ``bincount``
        return pd.Series(w[src]).groupby(cid).sum().to_numpy()

    w = np.ones(len(layout.sources))
    truth = None
    for _ in range(max_iter):
        new_truth = argmax_cids(p, scores(w))
        miss = cid != new_truth[obj]
        loss_s = pd.Series(np.bincount(src, miss, minlength=len(w)) + _EPS)
        w = (-np.log(loss_s / loss_s.sum())).clip(lower=_EPS).to_numpy()
        done = truth is not None and np.array_equal(new_truth, truth)
        truth = new_truth
        if done:
            break
    mu = pd.Series(scores(w))
    mu /= mu.groupby(p.obj_of_cand).transform("sum")
    mu = mu.to_numpy()
    return InferenceResult(truths=layout.truths(mu), mu=layout.mu(mu))


def crh_numeric(
    records: pd.DataFrame,
    *,
    max_iter: int = 20,
) -> InferenceResult:
    """Numeric CRH: weighted mean under variance-normalized squared loss."""
    claims = records.assign(x=records["value"].astype(float))
    objs = sorted(claims["object"].unique())
    sources = sorted(claims["source"].unique())
    truth = claims.groupby("object")["x"].median()
    std = claims.groupby("object")["x"].std().fillna(1.0).clip(lower=_EPS)
    w = pd.Series(1.0, index=sources)
    for _ in range(max_iter):
        err = (claims["x"] - claims["object"].map(truth)) / claims["object"].map(std)
        loss_s = (
            (err**2).groupby(claims["source"]).sum().reindex(sources).fillna(0.0) + _EPS
        )
        w = (-np.log(loss_s / loss_s.sum())).clip(lower=_EPS)
        wt = claims["source"].map(w)
        num = (claims["x"] * wt).groupby(claims["object"]).sum()
        den = wt.groupby(claims["object"]).sum()
        new_truth = (num / den).reindex(objs)
        if float((new_truth - truth).abs().max()) < 1e-12:
            truth = new_truth
            break
        truth = new_truth
    truths = pd.DataFrame({"object": objs, "value": truth.reindex(objs).to_numpy()})
    mu = truths.assign(mu=1.0)
    return InferenceResult(truths=truths, mu=mu)

"""LFC — Learning From Crowds (Raykar et al., JMLR'10), categorical.

Each agent gets a confusion matrix over candidate-value *positions*
(objects have different candidate sets, so, as in the truth-inference
survey of Zheng et al., the label space is the position within the
sorted candidate list, padded to the maximum |V_o|). The paper notes the
confusion matrix is "the square of the number of candidate values",
making LFC the slowest algorithm on *BirthPlaces* — this construction
reproduces that cost profile.

``lfc`` returns the single-truth MAP estimate; ``lfc_mt`` is the
multi-truth variant (§5.7) that outputs every value whose posterior
exceeds a threshold.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.claims import ClaimLayout, truth_sets
from repro.core.result import InferenceResult


def lfc(
    records: pd.DataFrame,
    answers: pd.DataFrame | None = None,
    *,
    max_iter: int = 50,
    tol: float = 1e-6,
    smooth: float = 0.3,
) -> InferenceResult:
    """Single-truth LFC (confusion-matrix EM)."""
    layout = ClaimLayout(records, answers)
    post, diag = _fit(layout, max_iter=max_iter, tol=tol, smooth=smooth)
    return InferenceResult(
        truths=layout.truths(post), mu=layout.mu(post), worker_accuracy=layout.worker_accuracy(diag)
    )


def _fit(layout: ClaimLayout, *, max_iter: int = 50, tol: float = 1e-6, smooth: float = 0.3):
    """Confusion-matrix EM on ``layout``: the candidate posterior (cid
    order) and each source's mean confusion-matrix diagonal."""
    p = layout.problem
    nK = p.nV.astype(np.int64)
    K, S = int(nK.max()), len(layout.sources)
    c_obj, c_src = p.obj_of_cand[layout.cid], layout.src
    c_pos = layout.cid - p.start[c_obj]

    pi = np.full((S, K, K), 0.3 / max(1, K - 1))
    for j in range(K):
        pi[:, j, j] = 0.7
    # truth posterior per (object, position), masked beyond |V_o|
    mask = np.arange(K)[None, :] < nK[:, None]
    mu = np.where(mask, 1.0, 0.0)
    mu = mu / mu.sum(axis=1, keepdims=True)
    # Both sums are bincounts over flat bins in (claim, position) order, so
    # each bin adds its terms in claim order. The confusion counts start
    # with one ``smooth`` term per bin, so each bin adds smooth first.
    n_obj, n_conf = len(nK), S * K * K
    obj_bin = (c_obj[:, None] * K + np.arange(K)).ravel()
    src_bin = ((c_src[:, None] * K + np.arange(K)) * K + c_pos[:, None]).ravel()
    conf_bin = np.concatenate([np.arange(n_conf), src_bin])
    first = np.full(n_conf, smooth)
    for _ in range(max_iter):
        contrib = np.log(np.clip(pi[c_src, :, c_pos], 1e-300, None))  # (n_claims, K)
        log_mu = np.bincount(obj_bin, contrib.ravel(), minlength=n_obj * K).reshape(n_obj, K)
        log_mu[~mask] = -np.inf  # uniform prior over valid positions
        mx = log_mu.max(axis=1, keepdims=True)
        new_mu = np.exp(log_mu - mx) * mask
        new_mu /= new_mu.sum(axis=1, keepdims=True)
        # M: confusion matrices
        num = np.bincount(conf_bin, np.concatenate([first, new_mu[c_obj].ravel()]), minlength=n_conf)
        num = num.reshape(S, K, K)
        pi = num / num.sum(axis=2, keepdims=True)
        if float(np.max(np.abs(new_mu - mu))) < tol:
            mu = new_mu
            break
        mu = new_mu
    post = mu[p.obj_of_cand, np.arange(len(p.cand)) - p.start[p.obj_of_cand]]
    return post, pi[:, np.arange(K), np.arange(K)].mean(axis=1)


def lfc_mt(
    records: pd.DataFrame,
    answers: pd.DataFrame | None = None,
    *,
    threshold: float = 0.3,
    **kw,
) -> dict[str, set[str]]:
    """LFC-MT: all values with posterior ≥ threshold (at least the argmax)."""
    layout = ClaimLayout(records, answers)
    post, _ = _fit(layout, **kw)
    return truth_sets(layout.problem, post, threshold)[1]

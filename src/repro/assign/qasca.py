"""QASCA task assignment (Zheng et al., SIGMOD'15), as described in §4.1.

For each (worker, object) the quality is the accuracy improvement of the
confidence re-estimated from one *sampled* answer:
``mu_{o,v|w} ∝ mu_{o,v} · P(v_o^w = v'|v_o^* = v)`` with ``v'`` drawn
from the predictive answer distribution. The paper's criticism — the
measure is sampling-sensitive and ignores how many claims were already
collected — is intrinsic to this construction and is what Figure 7
measures; we keep it faithful.
"""
from __future__ import annotations

import numpy as np

from repro.assign.common import (
    AssignContext,
    mu_vector,
    onecoin_likelihood_matrix,
    top_k,
)


def _worker_matrix(ctx: AssignContext, w: str, K: int) -> np.ndarray:
    """QASCA's own worker model: a one-coin QP matrix.

    QASCA is an external task-assignment system; it consumes the
    inference algorithm's confidences but evaluates answers with its own
    (hierarchy-blind) worker accuracy model — which is exactly why the
    paper finds its improvement estimates inaccurate on hierarchical
    data."""
    return onecoin_likelihood_matrix(K, ctx.worker_acc(w))


def sample_answers(ctx: AssignContext) -> dict[str, int]:
    """One sampled answer index per object per round.

    QASCA evaluates its quality with a *sampled* answer; the TDH paper's
    criticism is precisely that the measure is very sensitive to this
    sample, so the sample is drawn once per object (not per worker —
    resampling per worker would average the sensitivity away)."""
    ref = ctx.workers[0] if ctx.workers else "w?"
    out: dict[str, int] = {}
    for o in ctx.objects:
        values = sorted(ctx.mu_map[o])
        mu = mu_vector(ctx, o, values)
        A = _worker_matrix(ctx, ref, len(values))
        pv = np.clip(A @ mu, 0.0, None)
        if len(values) == 1 or pv.sum() <= 0:
            out[o] = 0
            continue
        out[o] = int(ctx.rng.choice(len(values), p=pv / pv.sum()))
    return out


def qasca_quality(ctx: AssignContext, w: str, o: str, vp: int) -> float:
    values = sorted(ctx.mu_map[o])
    mu = mu_vector(ctx, o, values)
    if len(values) == 1:
        return 0.0
    A = _worker_matrix(ctx, w, len(values))
    post = mu * A[vp, :]
    z = post.sum()
    if z <= 0:
        return 0.0
    post /= z
    return (float(post.max()) - float(mu.max())) / len(ctx.mu_map)


def qasca_assign(ctx: AssignContext) -> dict[str, list[str]]:
    """Top-k per worker, chosen independently for each worker.

    Unlike EAI's Algorithm 1 (which deliberately gives an object to only
    a single worker per round), QASCA serves every arriving worker their
    individually-best k questions — so several workers routinely receive
    the *same* high-quality objects in one round. This budget
    concentration is part of why EAI is more cost-efficient (§5.3)."""
    sampled = sample_answers(ctx)
    workers = sorted(ctx.workers, key=lambda w: -ctx.worker_acc(w))
    return top_k(ctx, workers, lambda w, o: qasca_quality(ctx, w, o, sampled[o]))

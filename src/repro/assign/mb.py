"""MB — DOCS's task assignment (Zheng et al., PVLDB'16).

Selects, per worker, the objects with the largest *expected entropy
reduction* of the confidence distribution under that worker's
(domain-aware) answer model: ``H(mu_o) - E_{v'}[H(mu_o | v')]``.
"""
from __future__ import annotations

import numpy as np

from repro.assign.common import (
    AssignContext,
    mu_vector,
    onecoin_likelihood_matrix,
    top_k,
)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def _domain_acc(ctx: AssignContext, w: str, o: str) -> float:
    """DOCS per-domain worker quality if available, else scalar accuracy."""
    dq = ctx.result.extras.get("domain_quality")
    doms = ctx.result.extras.get("domains")
    if dq is not None and doms is not None:
        q = dq.get((f"w:{w}", doms.get(o)))
        if q is not None:
            return float(q)
    return ctx.worker_acc(w)


def mb_quality(ctx: AssignContext, w: str, o: str) -> float:
    mu = ctx.mu_map[o]
    values = sorted(mu)
    if len(values) == 1:
        return 0.0
    m = mu_vector(ctx, o, values)
    A = onecoin_likelihood_matrix(len(values), _domain_acc(ctx, w, o))
    pv = A @ m
    exp_h = 0.0
    for vp in range(len(values)):
        if pv[vp] <= 0:
            continue
        post = m * A[vp, :]
        z = post.sum()
        if z <= 0:
            continue
        exp_h += pv[vp] * _entropy(post / z)
    return _entropy(m) - exp_h


def mb_assign(ctx: AssignContext) -> dict[str, list[str]]:
    """Top-k per worker, independently per worker (like the original
    DOCS system; only EAI's Algorithm 1 enforces one worker per object
    per round)."""
    workers = sorted(ctx.workers, key=lambda w: -ctx.worker_acc(w))
    return top_k(ctx, workers, lambda w, o: mb_quality(ctx, w, o))

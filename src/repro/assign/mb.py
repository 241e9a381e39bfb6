"""MB — DOCS's task assignment (Zheng et al., PVLDB'16).

Selects, per worker, the objects with the largest *expected entropy
reduction* of the confidence distribution under that worker's
(domain-aware) answer model: ``H(mu_o) - E_{v'}[H(mu_o | v')]``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.assign.common import AssignContext, onecoin_matrix, top_k, xlogx


def _domain_acc(ctx: AssignContext) -> np.ndarray:
    """W × |O|: DOCS per-domain worker quality where known, else the
    worker's scalar accuracy."""
    acc = np.broadcast_to(ctx.acc[:, None], ctx.answered.shape)
    dq = ctx.result.extras.get("domain_quality")
    doms = ctx.result.extras.get("domains")
    if dq is None or doms is None:
        return acc
    code, names = pd.factorize(pd.Series(ctx.objects).map(doms))
    # W × |domains|; the last column (code -1) is an object without a domain
    by_dom = [[dq.get((f"w:{w}", d), np.nan) for d in [*names, None]] for w in ctx.workers]
    q = np.reshape(by_dom, (len(ctx.workers), -1))[:, code]
    return np.where(np.isnan(q), acc, q)


def mb_table(ctx: AssignContext) -> np.ndarray:
    """W × |O| expected entropy reduction, for all workers and the objects
    of one candidate count at a time; 0 for single-candidate objects."""
    acc = _domain_acc(ctx)
    Q = np.zeros(ctx.answered.shape)
    for K, objs, rows in ctx.groups:
        if K == 1:
            continue
        mu = ctx.mu[rows]
        A = onecoin_matrix(K, acc[:, objs])  # W × objs × v' × v
        pv = (A @ mu[..., None])[..., 0]  # P(v') = (A mu)[v']
        post = mu[:, None, :] * A
        z = post.sum(axis=3)
        ok = (pv > 0) & (z > 0)
        h = -xlogx(post / np.where(ok, z, 1.0)[..., None]).sum(axis=3)  # H(mu_o | v')
        exp_h = np.where(ok, pv * h, 0.0).cumsum(axis=2)[..., -1]
        Q[:, objs] = -xlogx(mu).sum(axis=1) - exp_h
    return Q


def mb_assign(ctx: AssignContext) -> dict[str, list[str]]:
    """Top-k per worker, independently per worker (like the original
    DOCS system; only EAI's Algorithm 1 enforces one worker per object
    per round)."""
    workers = np.argsort(-ctx.acc, kind="stable")  # by accuracy, ties in given order
    return top_k(ctx, workers, mb_table(ctx))

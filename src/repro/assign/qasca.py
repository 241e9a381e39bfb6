"""QASCA task assignment (Zheng et al., SIGMOD'15), as described in §4.1.

For each (worker, object) the quality is the accuracy improvement of the
confidence re-estimated from one *sampled* answer:
``mu_{o,v|w} ∝ mu_{o,v} · P(v_o^w = v'|v_o^* = v)`` with ``v'`` drawn
from the predictive answer distribution. The paper's criticism — the
measure is sampling-sensitive and ignores how many claims were already
collected — is intrinsic to this construction and is what Figure 7
measures; we keep it faithful.

QASCA is an external task-assignment system: it consumes the inference
algorithm's confidences but evaluates answers with its own
(hierarchy-blind) one-coin worker model — which is exactly why the paper
finds its improvement estimates inaccurate on hierarchical data.
"""
from __future__ import annotations

import numpy as np

from repro.assign.common import AssignContext, onecoin_matrix, top_k


def sample_answers(ctx: AssignContext) -> np.ndarray:
    """One sampled answer per object per round, as a position in the
    object's candidates.

    QASCA evaluates its quality with a *sampled* answer; the TDH paper's
    criticism is precisely that the measure is very sensitive to this
    sample, so the sample is drawn once per object (not per worker —
    resampling per worker would average the sensitivity away), from the
    answer distribution of the first worker. Objects with one candidate
    draw nothing; the others draw in object order, each by inverting its
    CDF the way ``Generator.choice`` does, so the random stream is that of
    one ``choice`` call per object."""
    acc = ctx.acc[0] if len(ctx.workers) else 0.7
    cdfs = []
    draw = np.zeros(len(ctx.objects), dtype=bool)
    for K, objs, rows in ctx.groups:
        pv = np.clip(onecoin_matrix(K, acc) @ ctx.mu[rows, None], 0.0, None)[..., 0]
        total = pv.sum(axis=1)
        ok = (total > 0) & (K > 1)
        cdf = (pv[ok] / total[ok, None]).cumsum(axis=1)
        cdfs.append((objs[ok], cdf / cdf[:, -1:]))
        draw[objs[ok]] = True
    u = np.zeros(len(ctx.objects))
    u[draw] = ctx.rng.random(int(draw.sum()))
    pick = np.zeros(len(ctx.objects), dtype=np.int64)
    for objs, cdf in cdfs:
        pick[objs] = (cdf <= u[objs, None]).sum(axis=1)  # searchsorted(cdf, u, side="right")
    return pick


def qasca_table(ctx: AssignContext, sampled: np.ndarray) -> np.ndarray:
    """W × |O| QASCA quality ``(max_v mu_{o,v|w} - max_v mu_{o,v}) / |O|``
    of each object's sampled answer, 0 for single-candidate objects."""
    Q = np.zeros(ctx.answered.shape)
    for K, objs, rows in ctx.groups:
        if K == 1:
            continue
        mu = ctx.mu[rows]
        post = mu * onecoin_matrix(K, ctx.acc)[:, sampled[objs]]  # W × objs × v: mu_v · P(v' | v)
        z = post.sum(axis=2)
        best = post.max(axis=2) / np.where(z > 0, z, 1.0)
        Q[:, objs] = np.where(z > 0, (best - mu.max(axis=1)) / len(ctx.objects), 0.0)
    return Q


def qasca_assign(ctx: AssignContext) -> dict[str, list[str]]:
    """Top-k per worker, chosen independently for each worker.

    Unlike EAI's Algorithm 1 (which deliberately gives an object to only
    a single worker per round), QASCA serves every arriving worker their
    individually-best k questions — so several workers routinely receive
    the *same* high-quality objects in one round. This budget
    concentration is part of why EAI is more cost-efficient (§5.3)."""
    workers = np.argsort(-ctx.acc, kind="stable")  # by accuracy, ties in given order
    return top_k(ctx, workers, qasca_table(ctx, sample_answers(ctx)))

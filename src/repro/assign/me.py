"""ME — maximum-entropy uncertainty sampling (the paper's baseline).

Selects the objects whose confidence distribution has the largest
entropy, regardless of the expected accuracy improvement — the paper's
point is precisely that this is insufficient.
"""
from __future__ import annotations

import numpy as np

from repro.assign.common import AssignContext, top_k, xlogx


def me_assign(ctx: AssignContext) -> dict[str, list[str]]:
    # each object's -p log p terms are summed in ascending-p order, so
    # objects with the same multiset of confidences tie exactly
    ent = np.zeros(len(ctx.objects))
    for _, objs, rows in ctx.groups:
        ent[objs] = -xlogx(np.sort(ctx.mu[rows], axis=1)).sum(axis=1)
    # each worker independently receives the k most uncertain objects
    # they have not answered yet (uncertainty sampling has no notion of
    # spreading the crowd; only EAI's Algorithm 1 enforces one worker
    # per object per round)
    return top_k(ctx, range(len(ctx.workers)), ent)

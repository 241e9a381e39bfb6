"""ME — maximum-entropy uncertainty sampling (the paper's baseline).

Selects the objects whose confidence distribution has the largest
entropy, regardless of the expected accuracy improvement — the paper's
point is precisely that this is insufficient.
"""
from __future__ import annotations

import numpy as np

from repro.assign.common import AssignContext, top_k


def me_assign(ctx: AssignContext) -> dict[str, list[str]]:
    ent: dict[str, float] = {}
    for o, mu in ctx.mu_map.items():
        p = np.asarray(list(mu.values()))
        p = p[p > 0]
        ent[o] = float(-(p * np.log(p)).sum())
    # each worker independently receives the k most uncertain objects
    # they have not answered yet (uncertainty sampling has no notion of
    # spreading the crowd; only EAI's Algorithm 1 enforces one worker
    # per object per round)
    return top_k(ctx, ctx.workers, lambda w, o: ent[o])

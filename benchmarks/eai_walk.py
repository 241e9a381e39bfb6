"""Algorithm 1 of the paper (§4) as its heap walk, with the Lemma 4.1 pruning.

The reference for :func:`repro.assign.eai.eai_assign`, which selects
the same objects by W sequential masked top-k selections, and the
Figure-13 instrument: ``extras["_eai_evals"]`` counts the EAI table
reads of a walk, ``extras["_eai_pruned"]`` the offers its Lemma 4.1 test
skipped.

The walk scans objects by non-increasing ``U_EAI`` from a max heap,
offers each to workers in non-increasing ``psi_{w,1}`` order, keeps the
top-k per worker in min-heaps, cascades evictions to the next worker,
and stops when every heap is full and no remaining upper bound can beat
any heap minimum.
"""
from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.assign.common import AssignContext
from repro.assign.eai import eai_table


def heap_walk(ctx: AssignContext, *, use_pruning: bool = True) -> dict[str, list[str]]:
    """Algorithm 1 (with the Lemma 4.1 pruning; disable to measure its
    benefit, cf. Figure 13)."""
    if ctx.D is None:
        raise ValueError("EAI requires a TDH result: it reads Eq. (9)'s D")
    Q, U = eai_table(ctx)
    quality, answered = Q.tolist(), ctx.answered.tolist()  # the walk reads single entries
    objects = ctx.objects
    workers = np.argsort(-ctx.psi[:, 0], kind="stable").tolist()  # worker codes by psi_{w,1}
    # max-heap of (-U, object code); codes follow object ids, so ties break by id
    h_ub = [(-u, i) for i, u in enumerate(U.tolist())]
    heapq.heapify(h_ub)
    heaps: dict[int, list[tuple[float, int, int]]] = {w: [] for w in workers}
    counter = itertools.count()
    n_eval = n_pruned = 0
    while h_ub:
        neg_u, current = heapq.heappop(h_ub)
        if use_pruning and all(
            len(heaps[w]) == ctx.k and heaps[w][0][0] > -neg_u for w in workers
        ):
            break
        for w in workers:
            if answered[w][current]:
                continue
            if use_pruning and len(heaps[w]) == ctx.k and heaps[w][0][0] >= U[current]:
                n_pruned += 1
                continue
            q = quality[w][current]
            n_eval += 1
            # (q, -counter): on equal quality the newest entry pops first,
            # which makes the Lemma 4.1 skip (heap-min ≥ U ≥ EAI) exactly
            # equivalent to insert-then-evict — pruning preserves results.
            heapq.heappush(heaps[w], (q, -next(counter), current))
            if len(heaps[w]) <= ctx.k:
                break
            _, _, evicted = heapq.heappop(heaps[w])
            if evicted == current:
                continue  # didn't make the cut; offer same object to next worker
            current = evicted  # cascade the evicted object to later workers
        # objects falling off the last worker's heap are dropped this round
    ctx.result.extras["_eai_evals"] = n_eval
    ctx.result.extras["_eai_pruned"] = n_pruned
    return {ctx.workers[w]: sorted(objects[i] for _, _, i in heaps[w]) for w in workers}

"""EAI — Expected Accuracy Improvement task assignment (paper §4).

Implements:

* the **incremental EM** estimate of the conditional confidence with one
  additional answer (Eq. 16–18), using the cached ``N_ov``/``D_o`` from
  the last full EM run;
* the quality measure ``EAI(w, o)`` (Eq. 14–15);
* the **upper bound** ``U_EAI(o) = (1 - max_v mu_ov) / (|O|·(D_o+1))``
  of Lemma 4.1;
* **Algorithm 1**: scan objects by non-increasing ``U_EAI`` from a max
  heap, offer each to workers in non-increasing ``psi_{w,1}`` order, keep
  the top-k per worker in min-heaps, cascade evictions to the next
  worker, and stop when every heap is full and no remaining upper bound
  can beat any heap minimum.
"""
from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.assign.common import AssignContext


def eai_quality(ctx: AssignContext, w: str, o: str) -> float:
    """EAI(w, o) per Eq. (14)–(18)."""
    i, sl = ctx.cands(o)
    mu = ctx.mu[sl]
    if len(mu) == 1:
        return 0.0
    N = ctx.N[sl]
    D = float(ctx.D[i])
    psi = ctx.worker_psi(w)
    B1, B2, B3 = ctx.likelihood_basis(o)
    A = psi[0] * B1 + psi[1] * B2 + psi[2] * B3
    pv = A @ mu  # P(v_o^w = v' | psi_w, mu_o), Eq. (6)
    pv_safe = np.where(pv > 0, pv, 1.0)
    F = A * mu[None, :] / pv_safe[:, None]  # f^v_{o,w|v'} of Eq. (16)
    mu_cond = (N[None, :] + F) / (D + 1.0)  # Eq. (18)
    e_max = float(pv @ mu_cond.max(axis=1))  # Eq. (15)
    n_obj = len(ctx.mu_map)
    return (e_max - float(mu.max())) / n_obj


def u_eai(ctx: AssignContext, o: str) -> float:
    """Lemma 4.1 upper bound."""
    i, sl = ctx.cands(o)
    n_obj = len(ctx.mu_map)
    return (1.0 - float(ctx.mu[sl].max())) / (n_obj * (float(ctx.D[i]) + 1.0))


def eai_assign(ctx: AssignContext, *, use_pruning: bool = True) -> dict[str, list[str]]:
    """Algorithm 1 (with the Lemma 4.1 pruning; disable to measure its
    benefit, cf. Figure 13)."""
    if ctx.N is None:
        raise ValueError("EAI requires a TDH result with N/D tables")
    workers = sorted(ctx.workers, key=lambda w: -ctx.worker_psi(w)[0])
    # max-heap of (-U, o); tie-break by object id for determinism
    ub = {o: u_eai(ctx, o) for o in ctx.objects}
    h_ub = [(-u, o) for o, u in ub.items()]
    heapq.heapify(h_ub)
    heaps: dict[str, list[tuple[float, int, str]]] = {w: [] for w in workers}
    counter = itertools.count()
    n_eval = 0
    while h_ub:
        neg_u, o = heapq.heappop(h_ub)
        u_o = -neg_u
        if use_pruning and all(
            len(heaps[w]) == ctx.k and heaps[w][0][0] > u_o for w in workers
        ):
            break
        current = o
        for w in workers:
            if w in ctx.answered.get(current, set()):
                continue
            if (
                use_pruning
                and len(heaps[w]) == ctx.k
                and heaps[w][0][0] >= ub.get(current, u_o)
            ):
                continue
            q = eai_quality(ctx, w, current)
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
    return {w: sorted(o for _, _, o in heaps[w]) for w in workers}

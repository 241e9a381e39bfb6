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

:func:`eai_table` evaluates EAI for every (worker, object) in one pass:
``A = psi @ B`` over the basis of the compiled problem's candidate pairs
(:attr:`~repro.core.candidates.Problem.pairs`), then Eq. (6), (16), (18)
and (15) as segment sums and maxima over the pairs of each answer and
object. Algorithm 1 reads the table: ``_eai_evals`` (Figure 13)
counts its reads, ``_eai_pruned`` the offers its Lemma 4.1 test skipped.
"""
from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.assign.common import AssignContext


def eai_table(ctx: AssignContext) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, U)``: ``Q[j, i] = EAI(ctx.workers[j], objects[i])`` per
    Eq. (14)–(18) and ``U[i] = U_EAI(objects[i])`` of Lemma 4.1, computed
    once per context in one pass over every (worker, candidate pair)."""
    if ctx._eai is not None:
        return ctx._eai
    p = ctx.problem
    vp, v, B = p.pairs
    row_start = np.searchsorted(vp, np.arange(len(p.cand)))  # first pair of each v'
    n_obj = len(p.objects)
    X = ctx.psi @ B  # A[v', v] of every worker, one row per worker
    X *= ctx.mu[v]
    pv = np.add.reduceat(X, row_start, axis=1)  # P(v_o^w = v' | psi_w, mu_o), Eq. (6)
    pv_safe = np.where(pv > 0, pv, 1.0)
    X /= pv_safe[:, vp]  # f^v_{o,w|v'} of Eq. (16)
    X += ctx.N[v]
    X /= ctx.D[p.obj_of_cand[v]] + 1.0  # mu_{o,v|w,v'}, Eq. (18)
    best = np.maximum.reduceat(X, row_start, axis=1)
    e_max = np.add.reduceat(pv * best, p.start, axis=1)  # Eq. (15)
    mu_max = np.maximum.reduceat(ctx.mu, p.start)
    Q = np.where(p.nV > 1, (e_max - mu_max) / n_obj, 0.0)
    U = (1.0 - mu_max) / (n_obj * (ctx.D + 1.0))
    # Lemma 4.1 proves Q <= U, so any excess is rounding; clamping keeps
    # the pruning skip (heap-min >= U) exact
    np.minimum(Q, U, out=Q)
    ctx._eai = Q, U
    return ctx._eai


def eai_assign(ctx: AssignContext, *, use_pruning: bool = True) -> dict[str, list[str]]:
    """Algorithm 1 (with the Lemma 4.1 pruning; disable to measure its
    benefit, cf. Figure 13)."""
    if ctx.N is None:
        raise ValueError("EAI requires a TDH result with N/D tables")
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

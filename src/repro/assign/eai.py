"""EAI — Expected Accuracy Improvement task assignment (paper §4).

Implements:

* the **incremental EM** estimate of the conditional confidence with one
  additional answer (Eq. 16–18), from EM's last map: its denominator
  ``D_o`` and its numerator ``N_ov = mu_ov·D_o``, formed from mu and D
  where it is read;
* the quality measure ``EAI(w, o)`` (Eq. 14–15);
* the **upper bound** ``U_EAI(o) = (1 - max_v mu_ov) / (|O|·(D_o+1))``
  of Lemma 4.1;
* **Algorithm 1** as W sequential masked top-k selections: workers in
  non-increasing ``psi_{w,1}`` order (stable), each taking the k objects
  with the highest EAI among those it has not answered and no earlier
  worker took this round, ties broken by (−EAI, −U_EAI, object id).

:func:`eai_table` evaluates EAI for every (worker, object) in one pass:
``A = psi @ B`` over the basis of the compiled problem's candidate pairs
(:attr:`~repro.core.candidates.Problem.pairs`), then Eq. (6), (16), (18)
and (15) as segment sums and maxima over the pairs of each answer and
object. The paper's heap walk with the Lemma 4.1 pruning, which picks
the same objects up to exact EAI ties, is kept as the reference and the
Figure-13 instrument in ``benchmarks/eai_walk.py``.
"""
from __future__ import annotations

import numpy as np

from repro.assign.common import AssignContext, top_k


def eai_table(ctx: AssignContext) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, U)``: ``Q[j, i] = EAI(ctx.workers[j], objects[i])`` per
    Eq. (14)–(18) and ``U[i] = U_EAI(objects[i])`` of Lemma 4.1, computed
    once per context in one pass over every (worker, candidate pair) of
    the objects with more than one candidate
    (:attr:`~repro.core.candidates.Problem.movable_pairs`)."""
    if ctx._eai is not None:
        return ctx._eai
    p = ctx.problem
    n_obj = len(p.objects)
    mu_max = np.maximum.reduceat(ctx.mu, p.start)
    U = (1.0 - mu_max) / (n_obj * (ctx.D + 1.0))
    # Q is 0 by definition where |V_o| = 1: only the other objects' pairs are
    # evaluated, each sum and maximum over the same terms in the same order
    Q = np.zeros((len(ctx.workers), n_obj))
    objs, vp_at, v, B, row_start, first = p.movable_pairs
    if len(objs):
        N = ctx.mu * ctx.D[p.obj_of_cand]  # Eq. (9)'s numerator of the map that produced mu
        X = ctx.psi @ B  # A[v', v] of every worker, one row per worker
        X *= ctx.mu[v]
        pv = np.add.reduceat(X, row_start, axis=1)  # P(v_o^w = v' | psi_w, mu_o), Eq. (6)
        pv_safe = np.where(pv > 0, pv, 1.0)
        X /= np.take(pv_safe, vp_at, axis=1)  # f^v_{o,w|v'} of Eq. (16)
        X += N[v]
        X /= ctx.D[p.obj_of_cand[v]] + 1.0  # mu_{o,v|w,v'}, Eq. (18)
        best = np.maximum.reduceat(X, row_start, axis=1)
        gain = np.add.reduceat(pv * best, first, axis=1)  # Eq. (15)
        gain -= mu_max[objs]
        # With N = mu·D an object no answer can move gains 0, computed as rounding of
        # either sign; zeroed, the tie rule orders them. At SF=1 (both datasets, rounds
        # 0/10/40) real gains measured > 1e-5 of max mu and rounding < 1e-13, but that
        # is no bound: a real gain under the 2**-40 floor would be zeroed as well.
        gain[np.abs(gain) <= 2.0**-40 * mu_max[objs]] = 0.0
        Q[:, objs] = gain / n_obj
    # Lemma 4.1 proves Q <= U, so any excess is rounding; clamping keeps
    # the pruning skip (heap-min >= U) of the reference walk exact
    np.minimum(Q, U, out=Q)
    ctx._eai = Q, U
    return ctx._eai


def eai_assign(ctx: AssignContext) -> dict[str, list[str]]:
    """Algorithm 1: each worker, by non-increasing ``psi_{w,1}``, gets the
    ``k`` objects with the highest EAI that it has not answered and no
    earlier worker took (ties → higher U_EAI, then object id); every
    worker's objects are listed in id order."""
    if ctx.D is None:
        raise ValueError("EAI requires a TDH result: it reads Eq. (9)'s D")
    Q, U = eai_table(ctx)
    order = np.argsort(-ctx.psi[:, 0], kind="stable")
    return {w: sorted(objs) for w, objs in top_k(ctx, order, Q, then=U, exclusive=True).items()}

"""ACCU and POPACCU (Dong et al., PVLDB'09 / PVLDB'12).

Bayesian truth discovery with source accuracies and pairwise source
*dependence* (copy) detection:

* ACCU assumes the ``n_o = |V_o| - 1`` false values are uniformly
  likely; a claim's vote count is ``ln(n_o · A_s / (1 - A_s))``.
* POPACCU replaces the uniform false-value assumption with the observed
  popularity of each false value.
* Both discount votes from likely copiers: for each unordered pair of
  sources sharing enough objects, the posterior copy probability is
  computed from the numbers of shared true / shared false / differing
  values, and a source's vote on a value is multiplied by
  ``Π (1 - c · P(dep))`` over the sources ranked before it by accuracy
  (ties → claim order) among those making the same claim. The pair
  counts and the discount are array passes over one list of the claim
  pairs on each object (the paper notes this dependence computation is
  why ACCU/POPACCU are the slowest algorithms on *Heritages*).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.claims import ClaimLayout
from repro.core.candidates import argmax_cids, ranges
from repro.core.result import InferenceResult

_EPS = 1e-6
_MIN_SHARED = 3  # source pairs sharing fewer objects count as independent


def _claim_pairs(layout: ClaimLayout) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)``: every pair of claims on one object, ``a``'s source before
    ``b``'s (source codes follow names)."""
    obj = layout.problem.obj_of_cand[layout.cid]
    order = np.lexsort((layout.src, obj))
    end = np.cumsum(np.bincount(obj))[obj[order]]
    pos = np.arange(len(order))
    i, j = ranges(pos + 1, end - pos - 1)
    return order[i], order[j]


def _pair_dependence(kt, kf, kd, a1, a2, *, nbar: float, copy_prob: float, dep_prior: float):
    """Posterior P(dependent) of source pairs with accuracies ``a1``, ``a2``
    that share ``kt`` true and ``kf`` false values and differ on ``kd``
    objects; ``nbar`` is the mean number of values per object."""
    a1, a2 = np.clip(a1, 0.05, 0.95), np.clip(a2, 0.05, 0.95)
    same_t_i = a1 * a2
    same_f_i = (1 - a1) * (1 - a2) / nbar
    diff_i = np.maximum(_EPS, 1 - same_t_i - same_f_i)
    c = copy_prob
    same_t_d = c * a1 + (1 - c) * same_t_i
    same_f_d = c * (1 - a1) + (1 - c) * same_f_i
    diff_d = np.maximum(_EPS, (1 - c) * diff_i)
    ll_i = kt * np.log(same_t_i) + kf * np.log(same_f_i) + kd * np.log(diff_i)
    ll_d = kt * np.log(same_t_d) + kf * np.log(same_f_d) + kd * np.log(diff_d)
    m = np.maximum(ll_i, ll_d)
    li, ld = np.exp(ll_i - m), np.exp(ll_d - m)
    return dep_prior * ld / (dep_prior * ld + (1 - dep_prior) * li)


def _discount(layout: ClaimLayout, a, b, factor, acc: np.ndarray) -> np.ndarray:
    """Each claim's vote weight: the product of ``factor`` over the pairs
    ``(a, b)`` of claims on one candidate where it ranks later by
    (−accuracy, claim order), multiplied in rank order of the earlier."""
    n = len(layout.cid)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((-acc[layout.src], layout.cid))] = np.arange(n)
    ra, rb = rank[a], rank[b]
    order = np.argsort(np.minimum(ra, rb), kind="stable")
    w = np.ones(n)
    np.multiply.at(w, np.where(ra > rb, a, b)[order], factor[order])
    return w


def _accu_core(
    records: pd.DataFrame,
    answers: pd.DataFrame | None,
    *,
    popularity: bool,
    max_iter: int = 10,
    copy_prob: float = 0.8,
    dep_prior: float = 0.1,
    detect_dependence: bool = True,
) -> InferenceResult:
    layout = ClaimLayout(records, answers)
    claims, sources = layout.claims, layout.sources
    acc = pd.Series(0.8, index=sources)

    # exact per-candidate likelihood over the claim × candidate grid:
    # P(claim|v true) = A_s if claim=v else (1-A_s)·q where q is 1/n_o
    # (ACCU) or the popularity of the claim among non-v values (POPACCU).
    row, cand, eq = layout.grid
    p = layout.problem
    if popularity:
        # pop of the claimed value among values ≠ v: cnt(claim)/(S_o - cnt(v))
        q = p.cnt[layout.cid[row]] / np.clip(p.S[p.obj_of_cand[cand]] - p.cnt[cand], 1.0, None)
    else:
        q = 1.0 / np.clip(p.nV[p.obj_of_cand[cand]] - 1.0, 1.0, None)

    if detect_dependence:
        a, b = _claim_pairs(layout)
        keys, pair, shared = np.unique(
            layout.src[a] * len(sources) + layout.src[b], return_inverse=True, return_counts=True
        )
        # the pairs agreeing on a value: kt + kf, and the discount's pairs
        same = layout.cid[a] == layout.cid[b]
        a, b, pair = a[same], b[same], pair[same]
        n_same = np.bincount(pair, minlength=len(keys))
        tested = np.flatnonzero(shared >= _MIN_SHARED)
        s1, s2 = np.divmod(keys[tested], len(sources))
    dep = None
    indep = np.ones(len(claims))
    for it in range(max_iter):
        if detect_dependence and it > 0:
            acc_np = acc.to_numpy()
            on_truth = layout.cid[a] == truth[p.obj_of_cand[layout.cid[a]]]
            kt = np.bincount(pair[on_truth], minlength=len(keys))[tested]
            dep = np.zeros(len(keys))
            # answers stay inside V_o, so nV's mean is the mean distinct values per object
            dep[tested] = _pair_dependence(
                kt, n_same[tested] - kt, (shared - n_same)[tested], acc_np[s1], acc_np[s2],
                nbar=max(2.0, p.nV.mean()), copy_prob=copy_prob, dep_prior=dep_prior,
            )
            indep = _discount(layout, a, b, 1.0 - copy_prob * dep[pair], acc_np)
        a_s = np.clip(acc.to_numpy()[layout.src[row]], 0.01, 0.99)
        lik = np.where(eq, a_s, (1.0 - a_s) * np.clip(q, 1e-12, None))
        # dependence discount: copiers' log-votes count fractionally
        post = layout.posterior(np.log(lik) * indep[row])
        truth = argmax_cids(p, post)
        cp = pd.Series(post[layout.cid], index=claims.index)
        new_acc = (cp.groupby(claims["source"]).sum() + 1.0) / (
            cp.groupby(claims["source"]).size() + 2.0
        )
        new_acc = new_acc.reindex(sources).fillna(0.8)
        if float((new_acc - acc).abs().max()) < 1e-6:
            acc = new_acc
            break
        acc = new_acc
    dependence = {} if dep is None else {
        (sources[i], sources[j]): float(d) for i, j, d in zip(s1, s2, dep[tested])
    }
    return InferenceResult(
        truths=layout.truths(post),
        mu=layout.mu(post),
        worker_accuracy=layout.worker_accuracy(acc.to_numpy()),
        extras={"accuracy": acc, "dependence": dependence},
    )


def accu(records: pd.DataFrame, answers: pd.DataFrame | None = None, **kw) -> InferenceResult:
    """ACCU: uniform false-value distribution + dependence detection."""
    return _accu_core(records, answers, popularity=False, **kw)


def popaccu(records: pd.DataFrame, answers: pd.DataFrame | None = None, **kw) -> InferenceResult:
    """POPACCU: popularity-based false-value distribution + dependence."""
    return _accu_core(records, answers, popularity=True, **kw)

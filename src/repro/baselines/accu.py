"""ACCU and POPACCU (Dong et al., PVLDB'09 / PVLDB'12).

Bayesian truth discovery with source accuracies and pairwise source
*dependence* (copy) detection:

* ACCU assumes the ``n_o = |V_o| - 1`` false values are uniformly
  likely; a claim's vote count is ``ln(n_o · A_s / (1 - A_s))``.
* POPACCU replaces the uniform false-value assumption with the observed
  popularity of each false value.
* Both discount votes from likely copiers: for each ordered pair of
  sources sharing enough objects, the posterior copy probability is
  computed from the numbers of shared true / shared false / differing
  values, and a source's vote on a value is multiplied by
  ``Π (1 - c · P(dep))`` over more-accurate sources making the same
  claim (the paper notes this dependence computation is why
  ACCU/POPACCU are the slowest algorithms on *Heritages*).
"""
from __future__ import annotations

import itertools

import numpy as np
import pandas as pd

from repro.baselines.claims import ClaimLayout
from repro.core.result import InferenceResult, argmax_truths

_EPS = 1e-6


def _pair_dependence(
    claims: pd.DataFrame,
    truth_map: dict[str, str],
    acc: pd.Series,
    *,
    copy_prob: float,
    dep_prior: float,
    min_shared: int = 3,
) -> dict[tuple[str, str], float]:
    """Posterior P(dependent) per unordered source pair sharing objects."""
    by_obj = claims.groupby("object")
    pair_stats: dict[tuple[str, str], list[int]] = {}
    for o, grp in by_obj:
        t = truth_map.get(o)
        rows = list(zip(grp["source"], grp["value"]))
        for (s1, v1), (s2, v2) in itertools.combinations(sorted(rows), 2):
            key = (s1, s2)
            st = pair_stats.setdefault(key, [0, 0, 0])  # kt, kf, kd
            if v1 == v2:
                st[0 if v1 == t else 1] += 1
            else:
                st[2] += 1
    nbar = max(2.0, claims.groupby("object")["value"].nunique().mean())
    out: dict[tuple[str, str], float] = {}
    for (s1, s2), (kt, kf, kd) in pair_stats.items():
        if kt + kf + kd < min_shared:
            continue
        a1 = float(np.clip(acc.get(s1, 0.8), 0.05, 0.95))
        a2 = float(np.clip(acc.get(s2, 0.8), 0.05, 0.95))
        same_t_i = a1 * a2
        same_f_i = (1 - a1) * (1 - a2) / nbar
        diff_i = max(_EPS, 1 - same_t_i - same_f_i)
        c = copy_prob
        same_t_d = c * a1 + (1 - c) * same_t_i
        same_f_d = c * (1 - a1) + (1 - c) * same_f_i
        diff_d = max(_EPS, (1 - c) * diff_i)
        ll_i = kt * np.log(same_t_i) + kf * np.log(same_f_i) + kd * np.log(diff_i)
        ll_d = kt * np.log(same_t_d) + kf * np.log(same_f_d) + kd * np.log(diff_d)
        m = max(ll_i, ll_d)
        li, ld = np.exp(ll_i - m), np.exp(ll_d - m)
        out[(s1, s2)] = float(dep_prior * ld / (dep_prior * ld + (1 - dep_prior) * li))
    return out


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

    mu = None
    truth_map: dict[str, str] = {}
    dep: dict[tuple[str, str], float] = {}
    indep = np.ones(len(claims))
    for it in range(max_iter):
        if detect_dependence and it > 0:
            dep = _pair_dependence(
                claims, truth_map, acc, copy_prob=copy_prob, dep_prior=dep_prior
            )
            indep = np.ones(len(claims))
            if dep:
                a_row = claims["source"].map(acc)
                for _, grp in claims.assign(acc=a_row).groupby(["object", "value"]):
                    if len(grp) < 2:
                        continue
                    order = grp.sort_values("acc", ascending=False)
                    seen: list[str] = []
                    for idx, s in zip(order.index, order["source"]):
                        w = 1.0
                        for s2 in seen:
                            key = (min(s, s2), max(s, s2))
                            w *= 1.0 - copy_prob * dep.get(key, 0.0)
                        indep[idx] = w
                        seen.append(s)
        a_s = np.clip(acc.to_numpy()[layout.src[row]], 0.01, 0.99)
        lik = np.where(eq, a_s, (1.0 - a_s) * np.clip(q, 1e-12, None))
        # dependence discount: copiers' log-votes count fractionally
        post = layout.posterior(np.log(lik) * indep[row])
        mu = layout.mu(post)
        truths = argmax_truths(mu)
        truth_map = dict(zip(truths["object"], truths["value"]))
        cp = pd.Series(post[layout.cid], index=claims.index)
        new_acc = (cp.groupby(claims["source"]).sum() + 1.0) / (
            cp.groupby(claims["source"]).size() + 2.0
        )
        new_acc = new_acc.reindex(sources).fillna(0.8)
        if float((new_acc - acc).abs().max()) < 1e-6:
            acc = new_acc
            break
        acc = new_acc
    return InferenceResult(
        truths=argmax_truths(mu),
        mu=mu,
        worker_accuracy=layout.worker_accuracy(acc.to_numpy()),
        extras={"accuracy": acc, "dependence": dep},
    )


def accu(records: pd.DataFrame, answers: pd.DataFrame | None = None, **kw) -> InferenceResult:
    """ACCU: uniform false-value distribution + dependence detection."""
    return _accu_core(records, answers, popularity=False, **kw)


def popaccu(records: pd.DataFrame, answers: pd.DataFrame | None = None, **kw) -> InferenceResult:
    """POPACCU: popularity-based false-value distribution + dependence."""
    return _accu_core(records, answers, popularity=True, **kw)

"""Multi-truth discovery baselines: LTM and DART (paper §5.7).

* **LTM** (Zhao et al., PVLDB'12): per-(object, value) latent Bernoulli
  truth; each source has sensitivity (recall on true values) and
  specificity (on false values) with Beta priors; collapsed Gibbs
  sampling. Output: values whose posterior truth probability ≥ 0.5.
* **DART** (Lin & Chen, PVLDB'18), simplified per DESIGN.md: we keep the
  essence — domain-aware per-source recall/specificity voting with a
  permissive output threshold — which reproduces its characteristic
  high-recall / low-precision behaviour.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.claims import ClaimLayout
from repro.hierarchy import Hierarchy


def ltm(
    records: pd.DataFrame,
    *,
    n_sweeps: int = 80,
    burn_in: int = 30,
    seed: int = 0,
    sens_prior: tuple[float, float] = (5.0, 2.0),
    spec_prior: tuple[float, float] = (8.0, 2.0),
    truth_prior: float = 0.5,
) -> dict[str, set[str]]:
    """Latent Truth Model via collapsed Gibbs; returns multi-truth sets."""
    rng = np.random.default_rng(seed)
    layout = ClaimLayout(records, None)
    S, C = len(layout.sources), len(layout.problem.cand)
    # observation lists: per cid, the (source, obs) pairs of the claims on
    # its object, in claim order
    row, cid, eq = layout.grid
    order = np.argsort(cid, kind="stable")
    cut = np.cumsum(np.bincount(cid, minlength=C))[:-1]
    obs_src = [x.tolist() for x in np.split(layout.src[row][order], cut)]
    obs_val = [x.tolist() for x in np.split(eq[order].astype(int), cut)]
    t = rng.random(C) < 0.5
    # counts n[s, t, obs]
    n = np.zeros((S, 2, 2))
    for c in range(C):
        for s, ob in zip(obs_src[c], obs_val[c]):
            n[s, int(t[c]), ob] += 1
    a1, b1 = sens_prior
    a0, b0 = spec_prior
    totals = np.zeros(C)
    kept = 0
    for sweep in range(n_sweeps):
        for c in range(C):
            cur = int(t[c])
            for s, ob in zip(obs_src[c], obs_val[c]):
                n[s, cur, ob] -= 1
            lp = [np.log(1 - truth_prior), np.log(truth_prior)]
            for s, ob in zip(obs_src[c], obs_val[c]):
                # t=1: Beta-Binomial predictive with sensitivity prior
                p1 = (n[s, 1, 1] + a1) / (n[s, 1, 0] + n[s, 1, 1] + a1 + b1)
                lp[1] += np.log(p1 if ob else 1 - p1)
                # t=0: predictive of false positives (1 - specificity)
                p0 = (n[s, 0, 1] + b0) / (n[s, 0, 0] + n[s, 0, 1] + a0 + b0)
                lp[0] += np.log(p0 if ob else 1 - p0)
            m = max(lp)
            p_true = np.exp(lp[1] - m) / (np.exp(lp[0] - m) + np.exp(lp[1] - m))
            new = rng.random() < p_true
            t[c] = new
            for s, ob in zip(obs_src[c], obs_val[c]):
                n[s, int(new), ob] += 1
        if sweep >= burn_in:
            totals += t
            kept += 1
    post = totals / max(kept, 1)
    cand = layout.problem.cand
    out: dict[str, set[str]] = {}
    for o, v, pc in zip(cand["object"], cand["value"], post):
        if pc >= 0.5:
            out.setdefault(o, set()).add(v)
    # guarantee non-empty output per object (most probable value)
    best = (
        cand.assign(p=post)
        .sort_values(["object", "p", "value"], ascending=[True, False, True])
        .groupby("object")
        .head(1)
    )
    for o, v in zip(best["object"], best["value"]):
        out.setdefault(o, set()).add(v)
    return out


def dart(
    records: pd.DataFrame,
    *,
    hierarchy: Hierarchy,
    max_iter: int = 10,
    threshold: float = 0.35,
) -> dict[str, set[str]]:
    """Simplified DART: domain-aware recall/specificity voting.

    A permissive threshold keeps recall high (the behaviour Table 5
    reports); precision suffers accordingly.
    """
    from repro.baselines.docs import domain_agents, object_domains

    layout = ClaimLayout(records, None)
    p = layout.problem
    src_of, _, agent = domain_agents(layout, object_domains(records, hierarchy))
    A = len(src_of)
    # the claims of each object, in claim order
    obj = p.obj_of_cand[layout.cid]
    by_obj = np.split(np.argsort(obj, kind="stable"), np.cumsum(np.bincount(obj))[:-1])
    cand = p.cand
    n_claims = np.bincount(agent, minlength=A).astype(float)
    rho = np.full(A, 0.6)  # recall on true values
    spec = np.full(A, 0.8)  # specificity on false values
    truth_sets: dict[str, set[str]] = {}
    for _ in range(max_iter):
        scores = np.zeros(len(cand))
        for i, claims in enumerate(by_obj):
            covering = agent[claims].tolist()
            cids = range(p.start[i], p.start[i] + int(p.nV[i]))
            claimed_by: dict[int, list[int]] = {c: [] for c in cids}
            for ai, c in zip(covering, layout.cid[claims].tolist()):
                claimed_by[c].append(ai)
            for c, claimed in claimed_by.items():
                sc = 0.0
                for ai in claimed:
                    sc += np.log(rho[ai] / max(1e-6, 1 - spec[ai]))
                for ai in covering:
                    if ai not in claimed:
                        # a source claims only one value even when several
                        # are true (the multi-truth setting), so a missing
                        # claim is weak negative evidence — damp it
                        sc += 0.1 * np.log(max(1e-6, 1 - rho[ai]) / spec[ai])
                scores[c] = 1.0 / (1.0 + np.exp(-sc))
        truth_sets = {}
        for o, v, sc in zip(cand["object"], cand["value"], scores):
            if sc >= threshold:
                truth_sets.setdefault(o, set()).add(v)
        for i, o in enumerate(p.objects):
            if o not in truth_sets:
                first = p.start[i]
                best = first + int(np.argmax(scores[first : first + int(p.nV[i])]))
                truth_sets[o] = {cand["value"].iloc[best]}
        # M-step: recall/specificity from current truth sets
        hit = [v in truth_sets[o] for o, v in zip(records["object"], records["value"])]
        num_r = np.bincount(agent, np.asarray(hit, dtype=float), minlength=A)
        new_rho = np.clip((num_r + 2.0) / (n_claims + 4.0), 0.05, 0.95)
        new_spec = np.clip(1 - (n_claims - num_r + 1.0) / (n_claims + 4.0), 0.05, 0.95)
        if np.allclose(new_rho, rho, atol=1e-6) and np.allclose(new_spec, spec, atol=1e-6):
            rho, spec = new_rho, new_spec
            break
        rho, spec = new_rho, new_spec
    return truth_sets

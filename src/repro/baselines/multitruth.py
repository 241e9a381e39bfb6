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

from repro.baselines.claims import ClaimLayout, truth_sets
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
    return truth_sets(layout.problem, totals / max(kept, 1), 0.5)[1]


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
    src_of, _, agent = domain_agents(layout, object_domains(records, hierarchy))
    A, n_cand = len(src_of), len(layout.problem.cand)
    # the grid with the claimed rows first, so each candidate's score adds
    # its claimants, then the other claims on its object, in claim order
    row, cand, eq = layout.grid
    order = np.argsort(~eq, kind="stable")
    cand, ag, eq = cand[order], agent[row[order]], eq[order]
    n_claims = np.bincount(agent, minlength=A).astype(float)
    rho = np.full(A, 0.6)  # recall on true values
    spec = np.full(A, 0.8)  # specificity on false values
    out: dict[str, set[str]] = {}
    for _ in range(max_iter):
        # a source claims only one value even when several are true (the
        # multi-truth setting), so a missing claim is weak negative
        # evidence — damp it
        claimed = np.log(rho / np.maximum(1e-6, 1 - spec))
        missing = 0.1 * np.log(np.maximum(1e-6, 1 - rho) / spec)
        sc = np.bincount(cand, np.where(eq, claimed[ag], missing[ag]), minlength=n_cand)
        keep, out = truth_sets(layout.problem, 1.0 / (1.0 + np.exp(-sc)), threshold)
        # M-step: recall/specificity from current truth sets
        num_r = np.bincount(agent, keep[layout.cid], minlength=A)
        new_rho = np.clip((num_r + 2.0) / (n_claims + 4.0), 0.05, 0.95)
        new_spec = np.clip(1 - (n_claims - num_r + 1.0) / (n_claims + 4.0), 0.05, 0.95)
        if np.allclose(new_rho, rho, atol=1e-6) and np.allclose(new_spec, spec, atol=1e-6):
            rho, spec = new_rho, new_spec
            break
        rho, spec = new_rho, new_spec
    return out

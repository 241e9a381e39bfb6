"""ASUMS — Sums adapted to hierarchies (Beretta et al., WIMS'16).

The only prior algorithm that uses hierarchies: Sums/Hubs-Authorities
iteration where a claim supports its value *and the value's ancestors*
(a specific claim implies its generalizations). Because belief then
monotonically accumulates toward general values, a *threshold* controls
the granularity of the output truth — the drawback the paper highlights:
ASUMS ignores per-source generalization tendencies and needs this knob.

Truth selection: among candidates whose belief is within ``threshold``
of the object's maximum, pick the most specific (deepest; belief as the
tie-break).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.claims import ClaimLayout
from repro.core.candidates import Problem, ranges
from repro.core.result import InferenceResult
from repro.hierarchy import Hierarchy


def asums(
    records: pd.DataFrame,
    answers: pd.DataFrame | None = None,
    *,
    hierarchy: Hierarchy,
    max_iter: int = 20,
    threshold: float = 0.4,
) -> InferenceResult:
    """Hierarchy-aware Sums over the claims of ``records`` and
    ``answers``, whose candidate ancestor pairs are read off ``hierarchy``
    (:class:`~repro.baselines.claims.ClaimLayout`); a value outside
    ``hierarchy`` has depth 0 and no ancestors."""
    layout = ClaimLayout(records, answers, hierarchy)
    p = layout.problem
    n_cand, n_sources = len(p.cand), len(layout.sources)

    # support edges: a claim supports its claimed cid, then every candidate
    # ancestor of it in ascending cid order (``p.anc`` is sorted)
    n_sup = 1 + p.nG.astype(np.int64)
    own = np.arange(n_cand)
    targets = np.concatenate([own, p.anc[:, 1]])
    targets = targets[np.argsort(np.concatenate([own, p.anc[:, 0]]), kind="stable")]
    claim, at = ranges((np.cumsum(n_sup) - n_sup)[layout.cid], n_sup[layout.cid])
    sup_src, sup_cid = layout.src[claim], targets[at]

    trust = np.ones(n_sources)
    belief = np.ones(n_cand)
    for _ in range(max_iter):
        belief = np.bincount(sup_cid, trust[sup_src], minlength=n_cand)
        belief /= max(belief.max(), 1e-12)
        trust = np.bincount(layout.src, belief[layout.cid], minlength=n_sources)
        trust /= max(trust.max(), 1e-12)
    mu = layout.mu(belief)
    mu["mu"] /= mu.groupby("object")["mu"].transform("sum")
    depth_of = {v: (hierarchy.depth(v) if v in hierarchy else 0) for v in p.cand["value"]}
    return InferenceResult(truths=select_truths(p, mu["mu"].to_numpy(), depth_of, threshold), mu=mu)


def select_truths(
    problem: Problem, mu: np.ndarray, depth_of: dict[str, int], threshold: float
) -> pd.DataFrame:
    """Per object, the deepest candidate with ``mu ≥ threshold · max mu``
    (ties: larger ``mu``, then smaller value); ``mu`` is in cid order."""
    p = problem
    obj = p.obj_of_cand
    ok = np.flatnonzero(mu >= threshold * np.maximum.reduceat(mu, p.start)[obj])
    depth = p.cand["value"].map(depth_of).to_numpy(dtype=float)
    order = ok[np.lexsort((p.index.codes[1][ok], -mu[ok], -depth[ok], obj[ok]))]
    first = order[np.r_[True, obj[order][1:] != obj[order][:-1]]]
    return pd.DataFrame(
        {"object": p.cand["object"].to_numpy()[first], "value": p.cand["value"].to_numpy()[first]}
    )

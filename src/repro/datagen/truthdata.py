"""Synthetic hierarchical truth-discovery datasets.

Stand-ins for the paper's crawled *BirthPlaces* and *Heritages* datasets
(the crawls and the IMDb/UNESCO gold standards are not redistributable).
The generators follow the paper's own generative story (§3.1) plus the
empirical observations the paper reports:

* each source has its own reliability *and* generalization tendency
  (Figure 1) — we sample per-source trustworthiness ``phi_s`` from
  reliable / generalizer / sloppy profile mixtures;
* wrong claims are correlated via a per-object *distractor* value, so
  majority vote can lose to model-based inference;
* *BirthPlaces*: few sources (7), each covering ~32% of many objects,
  mean exact accuracy ≈ .72;
* *Heritages*: many sources with few claims each (Zipf-skewed), mean
  exact accuracy ≈ .58 and heavier generalization — the regime where
  per-source reliability is hard to estimate.

SF=1 reproduces paper-scale counts; tests use SF=0.01, benches SF=0.1.
All output frames are sorted and deterministic in ``seed``.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.candidates import candidate_sets
from repro.hierarchy import Hierarchy, generate_hierarchy


@dataclass
class TruthDataset:
    """A truth-discovery workload: conflicting records + gold + hierarchy."""

    name: str
    records: pd.DataFrame  # columns: object, source, value
    gold: pd.DataFrame  # columns: object, truth (raw truth node)
    hierarchy: Hierarchy
    source_profiles: pd.DataFrame = field(repr=False, default=None)  # type: ignore[assignment]

    def candidates(self) -> pd.DataFrame:
        """Distinct (object, value) pairs — the candidate sets ``V_o``."""
        return candidate_sets(self.records)


def _sample_profiles(
    rng: np.random.Generator, kinds: list[tuple[float, float, float]], jitter: float = 0.05
) -> np.ndarray:
    """Sample one (phi1, phi2, phi3) row per entry of ``kinds`` with jitter."""
    out = []
    for base in kinds:
        v = np.clip(np.asarray(base) + rng.normal(0, jitter, 3), 0.02, None)
        out.append(v / v.sum())
    return np.asarray(out)


def _cdf(p) -> list[float]:
    """The cdf ``rng.choice(len(p), p=p)`` searches, as Python floats."""
    c = np.cumsum(p, axis=-1)
    return (c / c[..., -1:]).tolist()


def _pick(rng: np.random.Generator, cdf: list[float]) -> int:
    """``rng.choice(len(cdf), p=p)`` for the ``cdf`` of ``p``: the same one
    ``rng.random()`` draw and the same right-sided search."""
    return bisect_right(cdf, rng.random())


def _other(rng: np.random.Generator, pool: list[str], v: str) -> str | None:
    """A uniform draw from the sorted ``pool`` without ``v`` (None if that
    leaves nothing): the same ``rng.integers`` draw as indexing a copy of
    the pool without ``v``, by stepping over ``v``'s position instead."""
    at = bisect_left(pool, v)
    n = len(pool) - (at < len(pool) and pool[at] == v)
    if not n:
        return None
    i = int(rng.integers(n))
    return pool[i + (i >= at and n < len(pool))]


def _pools(h: Hierarchy) -> dict[int, list[str]]:
    """The sorted nodes at each depth, looked up once per dataset."""
    return {d: h.nodes_at_depth(d) for d in range(h.height + 1)}


def _truth_nodes(
    rng: np.random.Generator, pools: dict[int, list[str]], n: int, depth_weights: dict[int, float]
) -> list[str]:
    """Sample ``n`` truth nodes, preferring deep (specific) values."""
    depths = [d for d in depth_weights if pools.get(d)]
    w = np.asarray([depth_weights[d] for d in depths], dtype=float)
    cdf = _cdf(w / w.sum())
    out = []
    for _ in range(n):
        pool = pools[depths[_pick(rng, cdf)]]
        out.append(pool[rng.integers(len(pool))])
    return out


def _distractor(rng: np.random.Generator, h: Hierarchy, pools: dict[int, list[str]], truth: str) -> str:
    """A correlated wrong value: prefer a sibling of the truth."""
    parent = h.parent(truth)
    sibs = [c for c in h.children(parent)] if parent is not None else []
    sibs = [c for c in sibs if c != truth]
    if sibs and rng.random() < 0.7:
        return sibs[rng.integers(len(sibs))]
    v = _other(rng, pools[h.depth(truth)], truth)
    if v is None:
        pool = [x for x in h.nodes if x != truth and x != h.root and h.depth(x) >= 1]
        v = pool[rng.integers(len(pool))]
    return v


def _claim(
    rng: np.random.Generator,
    h: Hierarchy,
    pools: dict[int, list[str]],
    truth: str,
    distractor: str,
    cdf: list[float],
) -> str:
    """Draw one claimed value from the paper's three-case source model;
    ``cdf`` is the source's (phi1, phi2, phi3) as :func:`_cdf`."""
    case = _pick(rng, cdf)
    if case == 0:
        return truth
    if case == 1:
        anc = h.ancestors(truth)  # root excluded, may be empty at depth 1
        if anc:
            return anc[rng.integers(len(anc))]
        return truth
    # wrong value: correlated distractor, sometimes generalized. The
    # distractor share is moderate: most extraction errors in real crawls
    # are idiosyncratic, so sources rarely agree on the same wrong value
    # and confidently-wrong consensus objects are rare.
    v = distractor
    if rng.random() >= 0.35:
        v = _other(rng, pools[min(h.depth(truth), h.height)], truth) or v
    if rng.random() < 0.3:
        anc = h.ancestors(v)
        if anc:
            v = anc[rng.integers(len(anc))]
    if v == truth:  # re-draws could collide with the truth; fall back to any sibling
        v = distractor if distractor != truth else v
    return v


def _build(
    name: str,
    rng: np.random.Generator,
    h: Hierarchy,
    truths: list[str],
    rows: list[tuple[str, str, str]],
    profiles: np.ndarray,
    source_names: list[str],
) -> TruthDataset:
    records = (
        pd.DataFrame(rows, columns=["object", "source", "value"])
        .drop_duplicates(["object", "source"])
        .sort_values(["object", "source"])
        .reset_index(drop=True)
    )
    objs = sorted(records["object"].unique())
    gold = pd.DataFrame(
        {"object": [f"o{i}" for i in range(len(truths))], "truth": truths}
    )
    gold = gold[gold["object"].isin(objs)].sort_values("object").reset_index(drop=True)
    prof = pd.DataFrame(profiles, columns=["phi1", "phi2", "phi3"])
    prof.insert(0, "source", source_names)
    return TruthDataset(name, records, gold, h, prof)


def birthplaces_lite(*, sf: float = 0.01, seed: int = 0) -> TruthDataset:
    """BirthPlaces-like workload: 7 sources × many objects, ~32% coverage."""
    rng = np.random.default_rng(seed)
    n_obj = max(20, int(6005 * sf))
    n_src = 7
    coverage = 13510 / (6005 * 7)
    keep = 0.55 if sf <= 0.02 else (0.75 if sf <= 0.2 else 1.0)
    h = generate_hierarchy([5, 6, 5, 4, 3], seed=seed + 1, keep_prob=keep)
    kinds = (
        [(0.85, 0.08, 0.07)] * 3  # reliable
        + [(0.52, 0.35, 0.13)] * 2  # generalizer
        + [(0.60, 0.10, 0.30)] * 2  # sloppy
    )
    profiles = _sample_profiles(rng, kinds)
    cdfs = _cdf(profiles)
    pools = _pools(h)
    sources = [f"s{i}" for i in range(n_src)]
    truths = _truth_nodes(rng, pools, n_obj, {3: 0.15, 4: 0.25, 5: 0.60})
    rows: list[tuple[str, str, str]] = []
    for i, t in enumerate(truths):
        o = f"o{i}"
        d = _distractor(rng, h, pools, t)
        # popularity skew: famous objects are covered by most sources,
        # the long tail by one or two (matches real crawls, and it is the
        # regime where EAI's claim-count damping matters — §4.1)
        cov_o = 0.72 if rng.random() < 0.15 else coverage * 0.5
        claim_srcs = [j for j in range(n_src) if rng.random() < cov_o]
        # every object is covered by at least two sources (as in the real
        # crawl, where single-source objects were not kept) — otherwise a
        # single wrong claim leaves an object no algorithm or crowd can fix
        while len(claim_srcs) < 2:
            j = int(rng.integers(n_src))
            if j not in claim_srcs:
                claim_srcs.append(j)
        for j in claim_srcs:
            rows.append((o, sources[j], _claim(rng, h, pools, t, d, cdfs[j])))
    return _build("birthplaces_lite", rng, h, truths, rows, profiles, sources)


def heritages_lite(*, sf: float = 0.01, seed: int = 1) -> TruthDataset:
    """Heritages-like workload: many Zipf-skewed sources with few claims each."""
    rng = np.random.default_rng(seed)
    n_obj = max(12, int(785 * sf))
    n_src = max(10, int(1577 * sf))
    keep = 0.6 if sf <= 0.02 else (0.8 if sf <= 0.2 else 1.0)
    h = generate_hierarchy([4, 5, 4, 4, 3, 2], seed=seed + 1, keep_prob=keep)
    kinds = []
    for i in range(n_src):
        r = rng.random()
        if r < 0.15:
            kinds.append((0.75, 0.15, 0.10))  # reliable
        elif r < 0.60:
            kinds.append((0.40, 0.40, 0.20))  # generalizer
        else:
            kinds.append((0.46, 0.10, 0.44))  # sloppy
    profiles = _sample_profiles(rng, kinds)
    cdfs = _cdf(profiles)
    pools = _pools(h)
    sources = [f"s{i}" for i in range(n_src)]
    src_w = 1.0 / np.arange(1, n_src + 1) ** 0.8
    src_w /= src_w.sum()
    truths = _truth_nodes(rng, pools, n_obj, {3: 0.10, 4: 0.20, 5: 0.30, 6: 0.40})
    rows: list[tuple[str, str, str]] = []
    for i, t in enumerate(truths):
        o = f"o{i}"
        d = _distractor(rng, h, pools, t)
        # famous heritage sites attract many more claims than obscure ones
        lam = 15.0 if rng.random() < 0.15 else 4.0
        k = max(2, int(rng.poisson(lam)))
        k = min(k, n_src)
        claim_srcs = rng.choice(n_src, size=k, replace=False, p=src_w)
        for j in claim_srcs:
            rows.append((o, sources[j], _claim(rng, h, pools, t, d, cdfs[j])))
    return _build("heritages_lite", rng, h, truths, rows, profiles, sources)

"""DOCS — domain-aware crowdsourcing (Zheng et al., PVLDB'16).

The original system links questions to knowledge-base domains and
models a per-(agent, domain) reliability. Here the natural domain of an
object is the *top-level branch* of the value hierarchy its claims fall
under (e.g. the continent), determined by the plurality claim. Inference
is the one-coin EM of :func:`repro.baselines.claims.one_coin` with one
agent per (source, domain); MDC is the same EM with a single domain. Its
task-assignment counterpart (MB, expected entropy reduction) lives in
:mod:`repro.assign.mb`.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.claims import ClaimLayout, one_coin
from repro.core.candidates import code_candidates
from repro.core.result import InferenceResult
from repro.hierarchy import Hierarchy


def object_domains(records: pd.DataFrame, hierarchy: Hierarchy) -> dict[str, str]:
    """Domain per object: depth-1 ancestor of the plurality claimed value
    (the smallest on ties), looked up once per distinct value."""
    _, objects, values, keys, cid = code_candidates(records)
    o, v = np.divmod(keys, len(values))
    order = np.lexsort((v, -np.bincount(cid), o))  # by object, then most claimed, then value
    plural = v[order[np.r_[True, o[order][1:] != o[order][:-1]]]]
    distinct, at = np.unique(plural, return_inverse=True)
    top = np.array(
        [[x, *hierarchy.ancestors(x)][-1] if x in hierarchy and x != hierarchy.root else "_other"
         for x in values.take(distinct)],
        dtype=object,
    )
    return dict(zip(objects, top[at]))


def domain_agents(layout: ClaimLayout, domains: dict[str, str]):
    """One agent per (source, domain) pair, numbered in sorted order.

    Returns each agent's source code and domain name, and each claim's
    agent code.
    """
    p = layout.problem
    dom, dom_names = pd.factorize(pd.Series([domains.get(o) for o in p.objects], dtype=object), sort=True)
    dom = dom[p.obj_of_cand[layout.cid]]
    pairs, agent = np.unique(layout.src * len(dom_names) + dom, return_inverse=True)
    src_of, dom_of = np.divmod(pairs, len(dom_names))
    return src_of, list(dom_names.take(dom_of)), agent


def docs(
    records: pd.DataFrame,
    answers: pd.DataFrame | None = None,
    *,
    hierarchy: Hierarchy,
    max_iter: int = 50,
    tol: float = 1e-7,
    prior: tuple[float, float] = (4.0, 2.0),
) -> InferenceResult:
    """Domain-aware one-coin EM over sources and workers."""
    domains = object_domains(records, hierarchy)
    layout = ClaimLayout(records, answers)
    src_of, dom_of, agent = domain_agents(layout, domains)
    post, q = one_coin(layout, agent, len(src_of), max_iter=max_iter, tol=tol, prior=prior)
    dom_q: dict[tuple[str, str], float] = {
        (layout.sources[s], d): float(x) for s, d, x in zip(src_of, dom_of, q)
    }
    wacc = None
    if layout.workers:
        at = np.searchsorted(layout.sources, [f"w:{w}" for w in layout.workers])
        # a worker's accuracy is the mean over the domains it answered in
        acc = [float(np.mean(q[src_of == s])) for s in at]
        wacc = pd.DataFrame({"worker": layout.workers, "acc": acc})
    return InferenceResult(
        truths=layout.truths(post),
        mu=layout.mu(post),
        worker_accuracy=wacc,
        extras={"domain_quality": dom_q, "domains": domains},
    )

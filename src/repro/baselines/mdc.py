"""MDC — crowdsourced medical-diagnosis truth discovery (Li et al., WSDM'17).

Simplified per DESIGN.md: we keep the essential inference — a one-coin
reliability per agent with uniform confusion over the remaining
candidates — and drop the medical-phrase clustering front-end, which has
no counterpart in these workloads. This is the classic one-coin
Dawid–Skene EM and lands mid-pack, as MDC does in the paper's Table 3.
It is DOCS's EM (:func:`repro.baselines.claims.one_coin`) with a single
domain: one agent per source.
"""
from __future__ import annotations

import pandas as pd

from repro.baselines.claims import ClaimLayout, one_coin
from repro.core.result import InferenceResult


def mdc(
    records: pd.DataFrame,
    answers: pd.DataFrame | None = None,
    *,
    max_iter: int = 50,
    tol: float = 1e-7,
    prior: tuple[float, float] = (4.0, 2.0),
) -> InferenceResult:
    """One-coin EM; worker answers fold in as extra agents."""
    layout = ClaimLayout(records, answers)
    post, r = one_coin(
        layout, layout.src, len(layout.sources), max_iter=max_iter, tol=tol, prior=prior
    )
    return InferenceResult(
        truths=layout.truths(post), mu=layout.mu(post), worker_accuracy=layout.worker_accuracy(r)
    )

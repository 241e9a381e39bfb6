"""Common result container for every truth-inference algorithm."""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd


@dataclass
class InferenceResult:
    """Output of one truth-inference run.

    Attributes
    ----------
    truths:
        (object, value) — the estimated truth ``v_o^*`` per object.
    mu:
        (object, value, mu) — confidence distribution over candidates,
        one row per candidate in (object, value) order, the layout every
        assigner reads (:class:`repro.assign.common.AssignContext`).
        Baselines without a probabilistic model report normalized scores
        here so entropy/QASCA-style assigners can still consume them.
    phi / psi:
        (source, phi1..3) / (worker, psi1..3) trustworthiness
        distributions; ``None`` for algorithms that do not model them.
    D:
        (object, D) — the denominator of the paper's Eq. (9), from which
        with ``mu`` the EAI task assigner's incremental EM (Eq. 17–18)
        forms the numerator ``N = mu·D``. ``None`` for baselines.
    worker_accuracy:
        (worker, acc) — scalar worker reliability of a baseline with a
        symmetric worker model (used by QASCA/MB). ``None`` for TDH,
        whose accuracy is ``psi1``.
    extras:
        Algorithm-specific state. TDH results (both engines) hold
        ``n_iter``, the E-steps EM ran; ``converged``, True when the
        last EM map moved no ``mu`` by ``tol`` or more and False when EM
        stopped at ``max_iter``; ``trace``, a frame with the MAP
        ``objective`` and the ``max_dmu`` of the EM map at every E-step
        EM kept (:meth:`repro.core.tdh_local.TDH._em`); and the compiled ``problem``
        (:class:`repro.core.candidates.Problem`);
        their ``mu`` rows are in the problem's candidate order and ``D``
        rows in its object order, which the EAI assigner relies on.
    """

    truths: pd.DataFrame
    mu: pd.DataFrame
    phi: pd.DataFrame | None = None
    psi: pd.DataFrame | None = None
    D: pd.DataFrame | None = None
    worker_accuracy: pd.DataFrame | None = None
    extras: dict = field(default_factory=dict)

    def truth_map(self) -> dict[str, str]:
        return dict(zip(self.truths["object"], self.truths["value"]))

    def mu_map(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for obj, v, m in self.mu[["object", "value", "mu"]].itertuples(index=False):
            out.setdefault(obj, {})[v] = float(m)
        return out


def argmax_truths(mu: pd.DataFrame) -> pd.DataFrame:
    """Deterministic argmax of ``mu`` per object (ties → smallest value)."""
    s = mu.sort_values(["object", "mu", "value"], ascending=[True, False, True])
    return (
        s.groupby("object", sort=True)
        .head(1)[["object", "value"]]
        .reset_index(drop=True)
    )

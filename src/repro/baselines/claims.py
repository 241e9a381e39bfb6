"""The claim layout the categorical baselines share.

:func:`fold_answers` is the one place worker answers join the source
records: each answer becomes a claim of the source ``"w:<worker>"``,
after the records and in the order given. :class:`ClaimLayout` codes the
folded claims with :func:`~repro.core.candidates.compile_problem`, so
candidates (cids) are in (object, value) order, and keeps the claims in
fold order, which fixes the order of every sum below. Its
claim × candidate grid comes from
:func:`~repro.core.candidates.claim_grid`, the expansion TDH's
coefficients use, and :meth:`ClaimLayout.posterior` turns per-row
log-likelihoods into the per-object truth posterior.

:func:`truth_sets` is the one multi-truth output of LFC-MT, DART and
LTM, and :func:`one_coin` is the one-coin EM of DOCS (one agent per
source and domain) and MDC (one agent per source).
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
import pandas as pd

from repro.core.candidates import Problem, argmax_cids, claim_grid, compile_problem
from repro.hierarchy import Hierarchy


def fold_answers(records: pd.DataFrame, answers: pd.DataFrame | None) -> pd.DataFrame:
    """(object, source, value) claims: the records, then each answer as a
    claim of source ``"w:<worker>"``."""
    claims = records[["object", "source", "value"]]
    if answers is not None and len(answers):
        extra = answers[["object", "worker", "value"]].rename(columns={"worker": "source"})
        extra = extra.assign(source="w:" + extra["source"])
        claims = pd.concat([claims, extra], ignore_index=True)
    return claims.reset_index(drop=True)


class ClaimLayout:
    """Records and answers folded into one claim list and integer-coded.

    The problem's ancestor pairs are walked on ``hierarchy`` over the
    claims' own codes; without a hierarchy it has none.
    Raises ``ValueError`` on a repeated (object, source) pair, as
    :func:`~repro.core.candidates.compile_problem` does.
    """

    def __init__(
        self, records: pd.DataFrame, answers: pd.DataFrame | None, hierarchy: Hierarchy | None = None
    ):
        self.claims = fold_answers(records, answers)
        pairs = pd.DataFrame(columns=["object", "value", "anc"]) if hierarchy is None else hierarchy
        self.problem: Problem = compile_problem(self.claims, pairs)
        #: claimed candidate of each claim, in claim order
        self.cid = self.problem.index.get_indexer(
            pd.MultiIndex.from_frame(self.claims[["object", "value"]])
        )
        src, sources = pd.factorize(self.claims["source"], sort=True)
        self.src: np.ndarray = src  # source code of each claim
        self.sources: list[str] = list(sources)  # sorted names
        self.workers: list[str] = (
            sorted(answers["worker"].unique()) if answers is not None and len(answers) else []
        )

    @cached_property
    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row, cand, eq)``: claim ``row`` against every candidate
        ``cand`` of its object; ``eq`` marks the claimed one."""
        row, cand = claim_grid(self.problem, self.cid)
        return row, cand, cand == self.cid[row]

    def posterior(self, ll: np.ndarray) -> np.ndarray:
        """Per-object truth posterior from the grid rows' log-likelihoods
        ``ll`` under a uniform prior: sum per candidate, then normalise in
        log space per object."""
        obj_of_cand, n_obj = self.problem.obj_of_cand, len(self.problem.objects)
        log_lik = np.zeros(len(obj_of_cand))
        np.add.at(log_lik, self.grid[1], ll)
        mx = np.full(n_obj, -np.inf)
        np.maximum.at(mx, obj_of_cand, log_lik)
        post = np.exp(log_lik - mx[obj_of_cand])
        z = np.bincount(obj_of_cand, post, minlength=n_obj)
        post /= z[obj_of_cand]
        return post

    def mu(self, mu: np.ndarray) -> pd.DataFrame:
        """(object, value, mu), one row per candidate in cid order."""
        cand = self.problem.cand
        return pd.DataFrame({"object": cand["object"], "value": cand["value"], "mu": mu})

    def truths(self, mu: np.ndarray) -> pd.DataFrame:
        """(object, value): each object's candidate of highest ``mu``, the
        smallest value on ties."""
        return self.problem.cand.take(argmax_cids(self.problem, mu)).reset_index(drop=True)

    def worker_accuracy(self, per_source) -> pd.DataFrame | None:
        """(worker, acc) read off a per-source array at ``"w:<worker>"``;
        ``None`` without answers."""
        if not self.workers:
            return None
        at = np.searchsorted(self.sources, [f"w:{w}" for w in self.workers])
        return pd.DataFrame({"worker": self.workers, "acc": [float(per_source[i]) for i in at]})


def truth_sets(
    problem: Problem, score: np.ndarray, threshold: float
) -> tuple[np.ndarray, dict[str, set[str]]]:
    """Multi-truth output: every candidate with ``score ≥ threshold``
    plus each object's highest-scoring one (:func:`argmax_cids`). Returns
    the kept cids as a mask and ``{object: {values}}``."""
    keep = score >= threshold
    keep[argmax_cids(problem, score)] = True
    out: dict[str, set[str]] = {}
    for o, v in problem.cand[keep].itertuples(index=False):
        out.setdefault(o, set()).add(v)
    return keep, out


def one_coin(
    layout: ClaimLayout,
    agent: np.ndarray,
    n_agents: int,
    *,
    max_iter: int,
    tol: float,
    prior: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """One-coin EM: agent ``a`` (``agent`` per claim) states the truth with
    probability ``q_a`` and otherwise one of the other candidates of the
    object uniformly. ``q`` gets a Beta(``prior``) MAP update, clipped to
    [0.01, 0.99], from 0.7 until no ``q`` moves by ``tol``. Returns the
    candidate posterior and ``q``."""
    row, cand, eq = layout.grid
    ag = agent[row]
    p = layout.problem
    wrong_frac = 1.0 / np.clip(p.nV[p.obj_of_cand[cand]] - 1.0, 1.0, None)
    n_claims = np.bincount(agent, minlength=n_agents).astype(float)

    def post_of(q: np.ndarray) -> np.ndarray:
        lik = np.where(eq, q[ag], (1 - q[ag]) * wrong_frac)
        return layout.posterior(np.log(np.clip(lik, 1e-300, None)))

    ag_eq, cand_eq = ag[eq], cand[eq]
    q = np.full(n_agents, 0.7)
    a0, b0 = prior
    for _ in range(max_iter):
        correct = np.bincount(ag_eq, post_of(q)[cand_eq], minlength=n_agents)
        new_q = np.clip((correct + a0 - 1) / (n_claims + a0 + b0 - 2), 0.01, 0.99)
        done = float(np.max(np.abs(new_q - q))) < tol
        q = new_q
        if done:
            break
    return post_of(q), q

"""Shared plumbing for the task assigners.

The central object is the per-(worker, object) *answer likelihood
matrix* ``A[v', v] = P(v_o^w = v' | v_o^* = v)``:

* with a TDH result we evaluate Eq. (3)/(4) from ``psi_w`` and the
  fit's compiled problem (:mod:`repro.core.candidates`);
* with baseline results (DOCS/LCA/ACCU/POPACCU) we use the symmetric
  one-coin model implied by their estimated worker accuracy.

Workers with no answers yet fall back to prior-mean parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.candidates import Problem, expand
from repro.core.result import InferenceResult


@dataclass
class AssignContext:
    """Everything an assigner may need for one round."""

    result: InferenceResult
    workers: list[str]
    k: int
    answered: dict[str, set[str]]  # object -> workers who already answered it
    rng: np.random.Generator
    mu_map: dict[str, dict[str, float]] = field(default_factory=dict)
    # TDH results only: the fit's compiled problem and its mu/N (per cid)
    # and D (per object) arrays
    problem: Problem | None = field(init=False, default=None)
    mu: np.ndarray | None = field(init=False, default=None)
    N: np.ndarray | None = field(init=False, default=None)
    D: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        if not self.mu_map:
            self.mu_map = self.result.mu_map()
        self.problem = self.result.extras.get("problem")
        if self.problem is not None:
            self._obj_code = {o: i for i, o in enumerate(self.problem.objects)}
            self.mu = self.result.mu["mu"].to_numpy(dtype=float)
            self.N = self.result.N["N"].to_numpy(dtype=float)
            self.D = self.result.D["D"].to_numpy(dtype=float)
        self._psi_cache: dict[str, np.ndarray] = {}
        if self.result.psi is not None:
            for _, r in self.result.psi.iterrows():
                self._psi_cache[r["worker"]] = np.asarray(
                    [r["psi1"], r["psi2"], r["psi3"]], dtype=float
                )
        self._acc_cache: dict[str, float] = {}
        if self.result.worker_accuracy is not None:
            self._acc_cache = dict(
                zip(
                    self.result.worker_accuracy["worker"],
                    self.result.worker_accuracy["acc"].astype(float),
                )
            )
        self._pairs = None
        self._basis_cache: dict[str, np.ndarray] = {}
        self._mu_vec_cache: dict[str, tuple[list[str], np.ndarray]] = {}

    @property
    def objects(self) -> list[str]:
        return sorted(self.mu_map)

    def worker_psi(self, w: str) -> np.ndarray:
        """TDH trustworthiness of ``w`` (beta prior mean if unseen)."""
        return self._psi_cache.get(w, np.asarray([1 / 3, 1 / 3, 1 / 3]))

    def worker_acc(self, w: str, default: float = 0.7) -> float:
        """Scalar worker accuracy for one-coin worker models."""
        return self._acc_cache.get(w, default)

    def cands(self, o: str) -> tuple[int, slice]:
        """Object code of ``o`` and the cid slice of its candidates."""
        i = self._obj_code[o]
        s = int(self.problem.start[i])
        return i, slice(s, s + int(self.problem.nV[i]))

    def likelihood_basis(self, o: str) -> np.ndarray:
        """Per-object basis (B1, B2, B3) with A = psi1·B1 + psi2·B2 + psi3·B3;
        rows are the answered value v', columns the truth v.

        Eq. (3)/(4) is linear in psi, so the basis is the worker-side
        Eq. (1)–(4) kernel run once per round over every candidate pair
        (v', v) of every object, and reused for every worker.
        """
        b = self._basis_cache.get(o)
        if b is None:
            p = self.problem
            if self._pairs is None:
                self._pairs = expand(p, np.arange(len(p.cand)), popularity=True)
            row, cand, rel, coef = self._pairs
            _, sl = self.cands(o)
            lo, hi = np.searchsorted(row, [sl.start, sl.stop])
            K = sl.stop - sl.start
            b = np.zeros((3, K, K))
            b[rel[lo:hi] - 1, row[lo:hi] - sl.start, cand[lo:hi] - sl.start] = coef[lo:hi]
            self._basis_cache[o] = b
        return b


def onecoin_likelihood_matrix(K: int, acc: float) -> np.ndarray:
    """Symmetric worker model: correct w.p. acc, else uniform error."""
    if K == 1:
        return np.ones((1, 1))
    A = np.full((K, K), (1.0 - acc) / (K - 1))
    np.fill_diagonal(A, acc)
    return A


def answer_likelihood(ctx: AssignContext, w: str, o: str) -> tuple[list[str], np.ndarray]:
    """(candidate values, A matrix) for worker ``w`` on object ``o``."""
    if ctx.problem is not None:
        psi = ctx.worker_psi(w)
        B1, B2, B3 = ctx.likelihood_basis(o)
        _, sl = ctx.cands(o)
        return (
            list(ctx.problem.cand["value"][sl]),
            psi[0] * B1 + psi[1] * B2 + psi[2] * B3,
        )
    mu = ctx.mu_map[o]
    values = sorted(mu)
    return values, onecoin_likelihood_matrix(len(values), ctx.worker_acc(w))


def mu_vector(ctx: AssignContext, o: str, values: list[str]) -> np.ndarray:
    cached = ctx._mu_vec_cache.get(o)
    if cached is not None and cached[0] == values:
        return cached[1]
    mu = ctx.mu_map[o]
    vec = np.asarray([mu[v] for v in values])
    ctx._mu_vec_cache[o] = (values, vec)
    return vec

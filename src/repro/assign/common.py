"""Shared plumbing for the task assigners.

The central object is the per-(worker, object) *answer likelihood
matrix* ``A[v', v] = P(v_o^w = v' | v_o^* = v)``:

* with a TDH result we evaluate Eq. (3)/(4) from ``psi_w`` and the
  fit's compiled problem (:mod:`repro.core.candidates`);
* with baseline results (DOCS/LCA/ACCU/POPACCU) we use the symmetric
  one-coin model implied by their estimated worker accuracy.

Workers with no answers yet fall back to prior-mean parameters.
:func:`top_k` is the per-worker selection QASCA, MB and ME share.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    # TDH results only: the fit's compiled problem and its mu/N (per cid)
    # and D (per object) arrays
    problem: Problem | None = field(init=False, default=None)
    mu: np.ndarray | None = field(init=False, default=None)
    N: np.ndarray | None = field(init=False, default=None)
    D: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        self.problem = self.result.extras.get("problem")
        if self.problem is not None:
            self._obj_code = {o: i for i, o in enumerate(self.problem.objects)}
            self.mu = self.result.mu["mu"].to_numpy(dtype=float)
            self.N = self.result.N["N"].to_numpy(dtype=float)
            self.D = self.result.D["D"].to_numpy(dtype=float)
        psi, acc = self.result.psi, self.result.worker_accuracy
        self._psi_cache: dict[str, np.ndarray] = {} if psi is None else dict(
            zip(psi["worker"], psi[["psi1", "psi2", "psi3"]].to_numpy(dtype=float))
        )
        self._acc_cache: dict[str, float] = {} if acc is None else dict(
            zip(acc["worker"], acc["acc"].astype(float))
        )
        self._eai = None  # the round's EAI table, filled by repro.assign.eai
        self._mu_vec_cache: dict[str, tuple[list[str], np.ndarray]] = {}

    @cached_property
    def mu_map(self) -> dict[str, dict[str, float]]:
        """object -> {value: mu}; built on first use (EAI never reads it)."""
        return self.result.mu_map()

    @property
    def objects(self) -> list[str]:
        if self.problem is not None:
            return self.problem.objects
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

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(vp, v, B)``: every candidate pair (answer v', truth v) of every
        object as cids, in (object, v', v) order, and the ``(3, P)`` basis
        with ``A[v', v] = psi @ B``. Eq. (3)/(4) is linear in psi, so this is
        the worker-side Eq. (1)–(4) kernel run once per round over every
        pair; an exact match outside O_H (a rel-1 and a rel-2 row) is one pair.
        """
        row, cand, rel, coef = expand(self.problem, np.arange(len(self.problem.cand)), popularity=True)
        new = np.ones(len(row), dtype=bool)
        new[1:] = (row[1:] != row[:-1]) | (cand[1:] != cand[:-1])
        B = np.zeros((3, int(new.sum())))
        B[rel - 1, np.cumsum(new) - 1] = coef
        return row[new], cand[new], B

    def likelihood_basis(self, o: str) -> np.ndarray:
        """Per-object basis (B1, B2, B3), a ``(3, K, K)`` view of
        :attr:`pairs`; rows are the answered value v', columns the truth v."""
        vp, _, B = self.pairs
        _, sl = self.cands(o)
        lo = int(np.searchsorted(vp, sl.start))
        K = sl.stop - sl.start
        return B[:, lo : lo + K * K].reshape(3, K, K)


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
        values = list(ctx.problem.cand["value"][ctx.cands(o)[1]])
        return values, np.tensordot(ctx.worker_psi(w), ctx.likelihood_basis(o), 1)
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


def top_k(ctx: AssignContext, workers: list[str], quality) -> dict[str, list[str]]:
    """Each of ``workers``, in that order, gets the ``k`` objects they have
    not answered with the highest ``quality(w, o)`` (ties → object id)."""
    out: dict[str, list[str]] = {}
    for w in workers:
        scored = sorted((-quality(w, o), o) for o in ctx.objects if w not in ctx.answered.get(o, ()))
        out[w] = [o for _, o in scored[: ctx.k]]
    return out

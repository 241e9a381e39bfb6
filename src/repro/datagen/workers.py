"""Simulated crowd workers (paper §5 "Settings for simulated crowdsourcing").

Each simulated worker answers a question correctly with its own
probability ``p_w`` and otherwise selects uniformly at random among the
candidate values. ``p_w ~ U(pi_p - .05, pi_p + .05)`` with default
``pi_p = .75``; 10 workers each answer 5 questions per round.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SimulatedWorker:
    worker: str
    p_correct: float

    def answer(
        self, rng: np.random.Generator, candidates: list[str], gold_candidate: str
    ) -> str:
        """One answer: the gold candidate w.p. ``p_correct`` else uniform."""
        gold = candidates.index(gold_candidate) if gold_candidate in candidates else -1
        return candidates[self.pick(rng, len(candidates), gold)]

    def pick(self, rng: np.random.Generator, n: int, gold: int) -> int:
        """:meth:`answer` by position among ``n`` candidates, ``gold`` the
        gold candidate's (-1 if it is none), with the same draws."""
        if gold >= 0 and rng.random() < self.p_correct:
            return gold
        return rng.integers(n)


def simulate_workers(
    n: int = 10, *, pi_p: float = 0.75, seed: int = 0
) -> list[SimulatedWorker]:
    """``n`` workers with accuracies drawn from ``U(pi_p ± .05)``."""
    rng = np.random.default_rng(seed)
    lo, hi = pi_p - 0.05, pi_p + 0.05
    return [
        SimulatedWorker(f"w{i}", float(np.clip(rng.uniform(lo, hi), 0.0, 1.0)))
        for i in range(n)
    ]

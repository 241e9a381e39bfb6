"""Correctness checks run on every benchmark operation, outside the timed region.

Each check returns a list of problems; an empty list means the output
passed. The benchmark counts an operation with any problem as failed.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

TOL = 1e-9


def distributions(frame: pd.DataFrame | None, cols: list[str], what: str) -> list[str]:
    """Every row of ``frame[cols]`` is a probability distribution."""
    if frame is None:
        return [f"{what} is missing"]
    p = frame[cols].to_numpy(dtype=float)
    if len(p) == 0:
        return [f"{what} is empty"]
    if (p < -TOL).any() or (p > 1 + TOL).any():
        return [f"{what} has entries outside [0, 1]"]
    worst = float(np.abs(p.sum(axis=1) - 1.0).max())
    return [f"{what} rows sum to 1 only within {worst:.3g}"] if worst > TOL else []


def mu_normalised(mu: pd.DataFrame) -> list[str]:
    """The confidence distribution sums to 1 per object."""
    if (mu["mu"] < -TOL).any():
        return ["mu has negative entries"]
    worst = float((mu.groupby("object")["mu"].sum() - 1.0).abs().max())
    return [f"mu sums to 1 per object only within {worst:.3g}"] if worst > TOL else []


def crowd_run(log, candidates: pd.DataFrame, rounds: int, n_workers: int, k: int) -> list[str]:
    """Checks on one ``run_crowdsourcing`` result (a ``RoundLog``)."""
    problems: list[str] = []
    hist, ans, res = log.history, log.answers, log.final
    if len(hist) != rounds + 1:
        problems.append(f"{len(hist)} history rows for {rounds} rounds")
    if len(ans) != rounds * n_workers * k:
        problems.append(f"{len(ans)} answers, expected {rounds * n_workers * k}")
    if ans.duplicated(["object", "worker"]).any():
        problems.append("an (object, worker) pair was answered twice")
    known = ans.merge(candidates, on=["object", "value"], how="inner")
    if len(known) != len(ans):
        problems.append(f"{len(ans) - len(known)} answers are not candidates of their object")
    problems += mu_normalised(res.mu)
    problems += distributions(res.phi, ["phi1", "phi2", "phi3"], "phi")
    problems += distributions(res.psi, ["psi1", "psi2", "psi3"], "psi")
    if len(hist) and hist["accuracy"].iloc[-1] < hist["accuracy"].iloc[0]:
        problems.append(
            f"final accuracy {hist['accuracy'].iloc[-1]:.4f} is below round 0's "
            f"{hist['accuracy'].iloc[0]:.4f}"
        )
    return problems


def same_history(a: pd.DataFrame, b: pd.DataFrame) -> list[str]:
    """Two runs with the same seed logged the same rounds."""
    if a.shape != b.shape or not np.array_equal(a.to_numpy(), b.to_numpy()):
        return ["a repeated run with the same seed logged different rounds"]
    return []


def matches_reference(res, ref) -> list[str]:
    """A Spark fit agrees with the local engine's fit on the same inputs."""
    problems: list[str] = []
    if res.extras["n_iter"] != ref.extras["n_iter"]:
        problems.append(f"{res.extras['n_iter']} EM iterations, local engine ran {ref.extras['n_iter']}")
    t = res.truths.merge(ref.truths, on="object", how="outer", suffixes=("", "_ref"))
    if len(t) != len(ref.truths) or (t["value"] != t["value_ref"]).any():
        problems.append("truths differ from the local engine's")
    problems += _close(res.mu, ref.mu, ["object", "value"], ["mu"], "mu")
    problems += _close(res.phi, ref.phi, ["source"], ["phi1", "phi2", "phi3"], "phi")
    problems += mu_normalised(res.mu)
    problems += distributions(res.phi, ["phi1", "phi2", "phi3"], "phi")
    return problems


def _close(a: pd.DataFrame, b: pd.DataFrame, keys, cols, what) -> list[str]:
    m = a.merge(b, on=keys, how="outer", suffixes=("", "_ref"), indicator=True)
    if (m["_merge"] != "both").any():
        return [f"{what} rows differ from the local engine's"]
    gap = max(float(np.abs(m[c] - m[f"{c}_ref"]).max()) for c in cols)
    return [f"{what} differs from the local engine's by {gap:.3g}"] if gap > TOL else []

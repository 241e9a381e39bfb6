"""Quality measures from §5 of the paper.

* ``Accuracy`` — fraction of objects where the estimate equals the gold
  truth exactly.
* ``GenAccuracy`` — estimate equals the gold truth *or one of its
  ancestors* (less informative but still correct).
* ``AvgDistance`` — mean tree distance (edge count) between estimate and
  gold truth.
* multi-truth precision/recall/F1 — a value set is compared against the
  gold multi-truth set ``{t_o} ∪ ancestors(t_o)`` (root excluded);
  single-truth outputs are expanded the same way (§5.7).
* ``MAE`` / ``R/E`` — numeric mean absolute error and mean relative
  error (§5.8).

Per the paper, if the gold truth is not among the candidates, "the most
specific candidate value among the ancestors of the truth is assumed to
be ``t_o``" — :func:`map_gold_to_candidates` implements that.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.candidates import Problem, cids, ranges
from repro.hierarchy import Hierarchy


def map_gold_to_candidates(
    gold: pd.DataFrame, candidates: pd.DataFrame, hierarchy: Hierarchy
) -> pd.DataFrame:
    """Replace each gold truth by its most specific candidate ancestor.

    If the truth itself is a candidate it is kept; if no candidate is an
    ancestor either, the raw truth is kept (no algorithm can then score
    an exact hit, matching how a held-out gold standard behaves).
    """
    cand_by_obj: dict[str, set[str]] = {}
    for o, v in zip(candidates["object"], candidates["value"]):
        cand_by_obj.setdefault(o, set()).add(v)
    out = []
    for o, t in zip(gold["object"], gold["truth"]):
        cands = cand_by_obj.get(o, set())
        mapped = t
        if t not in cands:
            ancs = [a for a in hierarchy.ancestors(t) if a in cands]
            if ancs:  # ancestors() is nearest-first → most specific
                mapped = ancs[0]
        out.append((o, mapped))
    return pd.DataFrame(out, columns=["object", "truth"])


def _truth_dict(truths: pd.DataFrame) -> dict[str, str]:
    return dict(zip(truths["object"], truths["value"]))


def accuracy(truths: pd.DataFrame, gold: pd.DataFrame) -> float:
    """Exact-match accuracy over the gold objects."""
    est = _truth_dict(truths)
    hits = sum(1 for o, t in zip(gold["object"], gold["truth"]) if est.get(o) == t)
    return hits / len(gold)


def gen_accuracy(
    truths: pd.DataFrame, gold: pd.DataFrame, hierarchy: Hierarchy
) -> float:
    """Hierarchical accuracy: estimate ∈ {t_o} ∪ ancestors(t_o)."""
    est = _truth_dict(truths)
    hits = 0
    for o, t in zip(gold["object"], gold["truth"]):
        v = est.get(o)
        if v is None:
            continue
        if v == t or (t in hierarchy and v in hierarchy and hierarchy.is_ancestor(v, t)):
            hits += 1
    return hits / len(gold)


def avg_distance(
    truths: pd.DataFrame, gold: pd.DataFrame, hierarchy: Hierarchy
) -> float:
    """Mean number of hierarchy edges between estimate and gold truth."""
    est = _truth_dict(truths)
    total = 0.0
    for o, t in zip(gold["object"], gold["truth"]):
        v = est.get(o)
        if v is None or v not in hierarchy or t not in hierarchy:
            total += hierarchy.height  # worst case for unmappable estimates
            continue
        total += hierarchy.distance(v, t)
    return total / len(gold)


def gold_scorer(problem: Problem, gold: pd.DataFrame, hierarchy: Hierarchy):
    """``cids -> (accuracy, gen_accuracy, avg_distance)`` over the
    candidates of ``problem``: the three functions above on the truths whose
    cids are given (at most one per object), as :func:`truth_cids` codes a
    truths frame or :func:`~repro.core.candidates.argmax_cids` a TDH fit's.

    Once: each candidate's exact hits, generalized hits and distance to the
    gold truth (the height where a value is not in the hierarchy), summed
    over its object's gold rows. Per call: those integers gathered at the
    cids, plus the height for each gold row whose object has no truth.
    """
    n, height = len(gold), hierarchy.height
    g = pd.Index(problem.objects).get_indexer(gold["object"])
    g, truth = g[g >= 0], gold["truth"].to_numpy()[g >= 0]
    row, cid = ranges(problem.start[g], problem.nV[g].astype(np.int64))
    counts = []
    for v, t in zip(problem.cand["value"].to_numpy()[cid], truth[row]):
        known = v in hierarchy and t in hierarchy
        gen = v == t or (known and hierarchy.is_ancestor(v, t))
        counts.append((v == t, gen, hierarchy.distance(v, t) if known else height))
    table = np.zeros((3, len(problem.cand)), dtype=np.int64)
    np.add.at(table, (slice(None), cid), np.asarray(counts, dtype=np.int64).reshape(-1, 3).T)
    n_gold = np.bincount(g, minlength=len(problem.objects))

    def score(at: np.ndarray) -> tuple[float, float, float]:
        hits, gen_hits, dist = table[:, at].sum(axis=1)
        missing = n - n_gold[problem.obj_of_cand[at]].sum()
        return hits / n, gen_hits / n, (dist + height * missing) / n

    return score


def truth_cids(problem: Problem, truths: pd.DataFrame) -> np.ndarray:
    """The cids of a truths frame (object, value) in ``problem``; a truth
    that is not a candidate raises ``ValueError``."""
    at = cids(problem, truths["object"], truths["value"])
    if (at < 0).any():
        o, v = truths[["object", "value"]].iloc[np.argmax(at < 0)]
        raise ValueError(f"truth {v!r} is not a candidate of {o!r}")
    return at


def expand_with_ancestors(value: str, hierarchy: Hierarchy) -> set[str]:
    """{v} ∪ ancestors(v), root excluded — the §5.7 multi-truth expansion."""
    if value not in hierarchy:
        return {value}
    return {value, *hierarchy.ancestors(value)}


def expand_prediction_sets(
    predicted: dict[str, set[str]], hierarchy: Hierarchy
) -> dict[str, set[str]]:
    """Ancestor-expand every predicted value (§5.7's uniform treatment:
    "we treat the ancestors of v and v itself as the multi-truths of v",
    applied to outputs and gold alike)."""
    return {
        o: set().union(*(expand_with_ancestors(v, hierarchy) for v in vs))
        for o, vs in predicted.items()
        if vs
    }


def multi_truth_prf(
    predicted: dict[str, set[str]],
    gold: pd.DataFrame,
    hierarchy: Hierarchy,
) -> tuple[float, float, float]:
    """Micro-averaged precision/recall/F1 of multi-truth sets.

    ``predicted`` maps object → set of output values; gold sets are
    ``{t_o} ∪ ancestors(t_o)``.
    """
    tp = fp = fn = 0
    for o, t in zip(gold["object"], gold["truth"]):
        truth_set = expand_with_ancestors(t, hierarchy)
        pred = predicted.get(o, set())
        tp += len(pred & truth_set)
        fp += len(pred - truth_set)
        fn += len(truth_set - pred)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


def mae_re(truths: pd.DataFrame, gold: pd.DataFrame) -> tuple[float, float]:
    """Numeric MAE and mean relative error of estimated values (§5.8)."""
    est = _truth_dict(truths)
    errs, rels = [], []
    for o, t in zip(gold["object"], gold["truth"]):
        v = est.get(o)
        if v is None:
            continue
        e = abs(float(v) - float(t))
        errs.append(e)
        denom = max(abs(float(t)), 1e-9)
        rels.append(e / denom)
    return float(np.mean(errs)), float(np.mean(rels))

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
be ``t_o``" — :func:`map_gold_to_candidates` implements that, and
:func:`map_gold` on a compiled problem's codes. Both, and
:func:`gold_scorer`, work on integer codes: the gold truths step up the
ancestor-at-depth table of :meth:`~repro.hierarchy.Hierarchy.arrays`
(:func:`~repro.core.candidates.nearest_candidates`, on the walk that
also gives the ancestor pairs), and ancestry and distance are read off
that table.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.candidates import Problem, cids, code_candidates, nearest_candidates, ranges
from repro.hierarchy import Hierarchy


def map_gold_to_candidates(
    gold: pd.DataFrame, candidates: pd.DataFrame, hierarchy: Hierarchy
) -> pd.DataFrame:
    """Replace each gold truth by its most specific candidate ancestor.

    If the truth itself is a candidate it is kept; if no candidate is an
    ancestor either, the raw truth is kept (no algorithm can then score
    an exact hit, matching how a held-out gold standard behaves).
    """
    _, objects, values, keys, _ = code_candidates(candidates)
    at = nearest_candidates(hierarchy, objects, values, keys, gold["object"], gold["truth"])
    return _mapped(gold, values.take(keys % len(values)), at)


def map_gold(problem: Problem, gold: pd.DataFrame, hierarchy: Hierarchy) -> tuple[pd.DataFrame, np.ndarray]:
    """:func:`map_gold_to_candidates` on the candidates of ``problem``,
    and the cid each gold row maps to (-1 where the raw truth stays)."""
    objects, values = problem.index.levels
    at = nearest_candidates(hierarchy, objects, values, problem.keys, gold["object"], gold["truth"])
    return _mapped(gold, problem.cand["value"], at), at


def _mapped(gold: pd.DataFrame, cand_values, at: np.ndarray) -> pd.DataFrame:
    """(object, truth) rows of ``gold`` with each truth replaced by the
    value of candidate ``at`` where it is not -1."""
    truth = gold["truth"].to_numpy(copy=True)
    hit = at >= 0
    truth[hit] = np.asarray(cand_values)[at[hit]]
    return pd.DataFrame({"object": gold["object"].to_numpy(), "truth": truth})


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
    over its object's gold rows, from the :meth:`Hierarchy.arrays` table:
    ``v`` is a proper ancestor of ``t`` iff ``depth[v] < depth[t]`` and
    ``up[t, depth[v]] == v``, and their lowest common ancestor's depth is
    the last depth at which ``up[v]`` and ``up[t]`` agree. Per call: those
    integers gathered at the cids, plus the height for each gold row whose
    object has no truth.
    """
    n, height, tree = len(gold), hierarchy.height, hierarchy.arrays()
    objects, values = problem.index.levels
    g = objects.get_indexer(gold["object"])
    truth = gold["truth"].to_numpy()[g >= 0]
    g = g[g >= 0]
    row, cid = ranges(problem.start[g], problem.nV[g].astype(np.int64))
    val = np.asarray(problem.index.codes[1])[cid]
    exact = val == values.get_indexer(truth)[row]
    v, t = tree.names.get_indexer(values)[val], tree.names.get_indexer(truth)[row]
    known = (v >= 0) & (t >= 0)
    v, t = v[known], t[known]
    dv, dt = tree.depth[v], tree.depth[t]
    gen = exact.copy()
    gen[known] |= (dv < dt) & (tree.up[t, dv] == v)
    # the rows agree from the root down to the lowest common ancestor
    lca = ((tree.up[v] == tree.up[t]) & (tree.up[v] >= 0)).sum(axis=1) - 1
    dist = np.full(len(cid), height, dtype=np.int64)
    dist[known] = dv + dt - 2 * lca
    table = np.stack(
        [np.bincount(cid, w, minlength=len(problem.cand)) for w in (exact, gen, dist)]
    ).astype(np.int64)
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

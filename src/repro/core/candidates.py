"""Candidate sets and per-object ancestor pairs.

``V_o`` (candidate values of object ``o``) is the set of distinct values
claimed by the *sources* (workers answer by selecting from ``V_o``, so
answers never extend it). ``G_o(v)`` is the set of candidates that are
ancestors of ``v`` in the hierarchy (root excluded); ``D_o(v)`` its
descendants. Both are derived from the per-object *ancestor-pair*
relation ``(object, value, anc)`` produced here — either from a
:class:`~repro.hierarchy.Hierarchy` or from the numeric rounding rule.
Hierarchy pairs come from one walk up the tree's ancestor-at-depth table
(:meth:`~repro.hierarchy.Hierarchy.arrays`) from every candidate, each step
a key lookup; :func:`nearest_candidates` takes the same walk from gold
truths (the §5 mapping).

:func:`compile_problem` integer-codes records and ancestor pairs (a frame,
or a hierarchy walked on the records' own codes) into a
:class:`Problem` (candidate ids, ``|V_o|``, ``|G_o(v)|``, ``O_H``, the
popularity counts of Eq. 3–4) and validates them; :func:`code_answers`
codes and validates worker answers against it, and :func:`cids` looks up
the cids of (object, value) names in it. All work on integer
keys: names are coded once per column by their sorted rank, and every
later match (ancestor pairs, answers, repeated pairs) is a ``searchsorted``
or an adjacent-equal test on ``object code · |values| + value code``
(or ``object code · |agents| + agent code``). :func:`claim_grid` is the
one claim × candidate expansion: :func:`expand` builds on it, and so do
the categorical baselines (:mod:`repro.baselines.claims`). :func:`expand`
is the one implementation of the data-dependent coefficients of
Eq. (1)–(4): the E-step of both TDH engines and the assigners' answer
likelihood use it. The tests hold it equal to an independent SQL
derivation of its rows. :attr:`Problem.source_rows`,
:attr:`Problem.pairs`, :attr:`Problem.movable_pairs` and
:attr:`Problem.groups` depend only on the problem and are cached on it.
:func:`answer_claims` is :func:`code_answers` for answers that are already
codes, as the crowdsourcing round loop keeps them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pandas as pd

from repro.hierarchy import Hierarchy
from repro.hierarchy.numeric import numeric_ancestor_pairs


def candidate_sets(records: pd.DataFrame) -> pd.DataFrame:
    """Distinct (object, value) pairs, sorted — the candidate sets ``V_o``."""
    _, objects, values, keys, _ = code_candidates(records)
    return _names(objects, values, keys)


def hierarchical_ancestor_pairs(candidates: pd.DataFrame, hierarchy: Hierarchy) -> pd.DataFrame:
    """(object, value, anc) rows with ``anc ∈ G_o(value)``, sorted.

    Both endpoints must be candidates of the same object; the hierarchy
    root never appears (the paper excludes it from ``G_o``). The pairs are
    :func:`_ancestor_walk` from every candidate.
    """
    if candidates.empty:
        return pd.DataFrame(columns=["object", "value", "anc"])
    _, objects, values, keys, _ = code_candidates(candidates)
    desc, anc = _sorted_pairs(*_tree_pairs(hierarchy, values, keys), len(keys))
    return _names(objects, values, keys[desc]).assign(anc=values.take(keys[anc] % len(values)))


def _ancestor_walk(
    hierarchy: Hierarchy, values: pd.Index, keys: np.ndarray, obj: np.ndarray, node: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The one walk up the hierarchy: for each row ``i`` (object code
    ``obj[i]``, hierarchy node code ``node[i]``, -1 outside the tree), the
    candidates of its object among ``keys`` (``object code · |values| +
    value code``) that are proper ancestors of its node below the root, as
    ``(row, cid)`` pairs, each row's nearest ancestor first.

    Step ``s`` reads every live row's ancestor ``s`` levels up from the
    ancestor-at-depth table of :meth:`Hierarchy.arrays` and looks it up
    among the keys; a row leaves the walk when that ancestor would be the
    root, so there are at most ``height − 1`` steps.
    """
    tree = hierarchy.arrays()
    value_of = values.get_indexer(tree.names)  # each node's value code, -1 if none
    row = np.flatnonzero(node >= 0)
    depth = tree.depth[node[row]]
    rows, hits = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for step in range(1, hierarchy.height):
        live = depth > step
        row, depth = row[live], depth[live]
        cid = _lookup(keys, len(values), obj[row], value_of[tree.up[node[row], depth - step]])
        rows.append(row[cid >= 0])
        hits.append(cid[cid >= 0])
    return np.concatenate(rows), np.concatenate(hits)


def _tree_pairs(hierarchy: Hierarchy, values: pd.Index, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(descendant cid, ancestor cid) of every ancestor pair among the
    candidate keys: :func:`_ancestor_walk` from each candidate's value."""
    node = hierarchy.arrays().names.get_indexer(values)[keys % len(values)]
    return _ancestor_walk(hierarchy, values, keys, keys // len(values), node)


def nearest_candidates(
    hierarchy: Hierarchy, objects: pd.Index, values: pd.Index, keys: np.ndarray, obj_names, value_names
) -> np.ndarray:
    """For each (object, value) name pair, the cid of the value among the
    candidates ``keys`` of the object (coded by ``objects`` and ``values``),
    else the cid of its deepest candidate ancestor below the root (the
    first hit of :func:`_ancestor_walk`), else -1: the §5 mapping of a gold
    truth onto the candidates."""
    obj, value_names = objects.get_indexer(obj_names), np.asarray(value_names)
    at = _lookup(keys, len(values), obj, values.get_indexer(value_names))
    miss = np.flatnonzero(at < 0)
    node = hierarchy.arrays().names.get_indexer(value_names[miss])
    row, anc = _ancestor_walk(hierarchy, values, keys, obj[miss], node)
    row, first = np.unique(row, return_index=True)
    at[miss[row]] = anc[first]
    return at


def _sorted_pairs(desc: np.ndarray, anc: np.ndarray, n_cand: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (descendant cid, ancestor cid) pairs, sorted."""
    key = np.unique(desc * n_cand + anc)
    return key // n_cand, key % n_cand


def code_candidates(claims: pd.DataFrame):
    """Each claim's object code, the sorted object and value names, the
    sorted distinct keys ``object code · |values| + value code`` and each
    claim's cid (its key's position)."""
    obj, objects = pd.factorize(claims["object"], sort=True)
    val, values = pd.factorize(claims["value"], sort=True)
    keys, cid = np.unique(obj * len(values) + val, return_inverse=True)
    return obj, objects, values, keys, cid


def _names(objects: pd.Index, values: pd.Index, keys: np.ndarray) -> pd.DataFrame:
    """The (object, value) names of candidate keys."""
    obj, val = np.divmod(keys, len(values))
    return pd.DataFrame({"object": objects.take(obj), "value": values.take(val)})


def numeric_ancestor_pairs_df(candidates: pd.DataFrame) -> pd.DataFrame:
    """(object, value, anc) rows under the §3.2 numeric rounding rule."""
    rows: list[tuple[str, str, str]] = []
    for obj, grp in candidates.groupby("object", sort=True):
        for desc, anc in sorted(numeric_ancestor_pairs(list(grp["value"]))):
            rows.append((obj, desc, anc))
    return pd.DataFrame(rows, columns=["object", "value", "anc"])


@dataclass(frozen=True)
class Claims:
    """One side's claims (source records or worker answers), integer-coded
    and sorted by (object, agent)."""

    cid: np.ndarray  # claimed candidate
    agent: np.ndarray  # code of the source / worker, an index into ``agents``
    agents: list[str]  # sorted names


@dataclass(frozen=True)
class Problem:
    """A TDH problem compiled from the source records.

    Candidates are numbered (``cid``) in (object, value) order, so the
    candidates of object ``i`` are the cids ``start[i] .. start[i]+nV[i]-1``.
    """

    cand: pd.DataFrame  # (object, value); row number = cid
    index: pd.MultiIndex  # (object, value) -> cid; levels: the sorted names, codes: their ranks
    objects: list[str]  # sorted; position = object code
    obj_of_cand: np.ndarray  # object code of each cid
    start: np.ndarray  # first cid of each object
    nV: np.ndarray  # |V_o|
    S: np.ndarray  # |S_o|: source claims per object
    oh: np.ndarray  # o ∈ O_H: some candidate pair is ancestor–descendant
    anc: np.ndarray  # (descendant cid, ancestor cid) pairs, sorted
    nG: np.ndarray  # |G_o(v)| per cid
    cnt: np.ndarray  # source claims per cid (the Pop2/Pop3 numerators)
    gen_cnt: np.ndarray  # sum of ``cnt`` over G_o(v) per cid
    sources: Claims

    @cached_property
    def keys(self) -> np.ndarray:
        """Each cid's key ``object code · |values| + value code``; sorted."""
        return self.obj_of_cand * len(self.index.levels[1]) + self.index.codes[1]

    @cached_property
    def source_rows(self) -> tuple:
        """The sources' E-step rows (:func:`side_rows`), shared by every local fit."""
        return side_rows(self, self.sources, popularity=False)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(vp, v, B)``: every candidate pair (answer v', truth v) as cids,
        in (object, v', v) order, and the ``(3, P)`` basis of the worker
        answer likelihood ``A[v', v] = psi @ B`` (Eq. 3/4 is linear in psi);
        an exact match outside O_H (a rel-1 and a rel-2 row) is one pair."""
        row, cand, rel, coef = expand(self, np.arange(len(self.cand)), popularity=True)
        new = np.ones(len(row), dtype=bool)
        new[1:] = (row[1:] != row[:-1]) | (cand[1:] != cand[:-1])
        B = np.zeros((3, int(new.sum())))
        B[rel - 1, np.cumsum(new) - 1] = coef
        return row[new], cand[new], B

    @cached_property
    def movable_pairs(self) -> tuple:
        """:attr:`pairs` of the objects with more than one candidate, the
        only objects an answer can move: ``(objs, vp_at, v, B, row_start,
        first)``. ``objs`` are their codes; ``v`` and ``B`` their pairs' truth
        cids and basis columns. Their candidates, in cid order, are the kept
        answers: ``vp_at`` is each pair's answer among them, ``row_start``
        the first pair of each, and ``first`` the first kept answer of each
        of ``objs``."""
        vp, v, B = self.pairs
        keep = self.nV[self.obj_of_cand[vp]] > 1
        vp, v, B = vp[keep], v[keep], B[:, keep]
        objs = np.flatnonzero(self.nV > 1)
        answers = np.flatnonzero(self.nV[self.obj_of_cand] > 1)
        vp_at = np.searchsorted(answers, vp)
        row_start = np.searchsorted(vp_at, np.arange(len(answers)))
        first = np.searchsorted(answers, self.start[objs])
        return objs, vp_at, v, B, row_start, first

    @cached_property
    def groups(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """:func:`count_groups` of the objects, which the assigners read
        every round."""
        return count_groups(self.start, self.nV.astype(np.int64))


def count_groups(start: np.ndarray, nV: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """``(K, objs, rows)`` for each candidate count K of objects laid out by
    ``start``/``nV``: the codes of the objects with K candidates and their
    rows, one object per row of a ``len(objs) × K`` index matrix. A sum,
    maximum or matrix product over the last axis of ``x[rows]`` rounds
    exactly as it does on one object's vector."""
    out = []
    for K in np.unique(nV):
        objs = np.flatnonzero(nV == K)
        out.append((int(K), objs, start[objs, None] + np.arange(K)))
    return out


def compile_problem(records: pd.DataFrame, anc_pairs: pd.DataFrame | Hierarchy) -> Problem:
    """Integer-code ``records`` (object, source, value) and their ancestor
    pairs into the arrays both TDH engines and the assigners share. The
    pairs are either (object, value, anc) rows or a :class:`Hierarchy`,
    whose pairs (:func:`hierarchical_ancestor_pairs`) are walked on the
    records' own codes, so that the names are coded once.

    Objects and values are coded by their rank among the sorted distinct
    names, and the cid of a candidate is the rank of its key ``object code
    · |values| + value code`` among the distinct keys, so cids follow
    :func:`candidate_sets`. Names are looked up once per column; all
    further matching is ``searchsorted`` on integer keys.

    Raises ``ValueError`` on a repeated (object, source) pair and on an
    ancestor pair whose endpoints are not candidates of its object.
    """
    obj, objects, values, keys, rec_cid = code_candidates(records)
    obj_of_cand, val_of_cand = np.divmod(keys, len(values))
    index = pd.MultiIndex(
        levels=[objects, values], codes=[obj_of_cand, val_of_cand], names=["object", "value"]
    )
    n_obj, n_cand = len(objects), len(keys)
    nV = np.bincount(obj_of_cand, minlength=n_obj)
    if isinstance(anc_pairs, Hierarchy):
        desc, up = _tree_pairs(anc_pairs, values, keys)
    else:
        o = objects.get_indexer(anc_pairs["object"])
        desc = _lookup(keys, len(values), o, values.get_indexer(anc_pairs["value"]))
        up = _lookup(keys, len(values), o, values.get_indexer(anc_pairs["anc"]))
        bad = np.flatnonzero((desc < 0) | (up < 0))
        if len(bad):
            o, v, a = anc_pairs[["object", "value", "anc"]].iloc[bad[0]]
            raise ValueError(f"ancestor pair ({o},{v},{a}) not in candidate set")
    anc = np.stack(_sorted_pairs(desc, up, n_cand), axis=1)
    oh = np.zeros(n_obj, dtype=bool)
    oh[obj_of_cand[anc[:, 0]]] = True
    sources = _code(records, "source", obj, rec_cid)
    cnt = np.bincount(sources.cid, minlength=n_cand).astype(float)
    return Problem(
        cand=_names(objects, values, keys),
        index=index,
        objects=list(objects),
        obj_of_cand=obj_of_cand,
        start=np.cumsum(nV) - nV,
        nV=nV.astype(float),
        S=np.bincount(obj_of_cand[sources.cid], minlength=n_obj).astype(float),
        oh=oh,
        anc=anc,
        nG=np.bincount(anc[:, 0], minlength=n_cand).astype(float),
        cnt=cnt,
        gen_cnt=np.bincount(anc[:, 0], cnt[anc[:, 1]], minlength=n_cand),
        sources=sources,
    )


def code_answers(problem: Problem, answers: pd.DataFrame | None) -> Claims | None:
    """Integer-code worker answers (object, worker, value) against the
    candidates of ``problem``; None without any.

    Raises ``ValueError`` on a repeated (object, worker) pair and on a value
    that is not a candidate of its object (answers select from ``V_o``).
    """
    if answers is None or not len(answers):
        return None
    # The answers' own object codes, so that answers on objects the problem
    # lacks stay distinct in the repeated-pair check.
    obj = pd.factorize(answers["object"], sort=True)[0]
    return _code(answers, "worker", obj, cids(problem, answers["object"], answers["value"]))


def answer_claims(
    problem: Problem, obj: np.ndarray, worker: np.ndarray, workers: list[str], cid: np.ndarray
) -> Claims | None:
    """:func:`code_answers` on answers that are already codes: each answer's
    object code, its worker's position in ``workers`` and its cid. Workers
    are coded by the rank of their *name* among those who answered, so the
    claims, their order (by object, then worker name) and their checks are
    those of :func:`code_answers` on the same answers by name."""
    if not len(cid):
        return None
    agents = sorted(workers[j] for j in np.unique(worker))
    agent = positions(agents, workers)[worker]
    order = _by_object_agent(obj, agent, len(agents), "worker")
    obj, cid = obj[order], cid[order]
    ok = (cid >= 0) & (cid < len(problem.cand))
    ok[ok] = problem.obj_of_cand[cid[ok]] == obj[ok]
    if not ok.all():
        i = np.argmin(ok)
        raise ValueError(f"answered cid {cid[i]} not a candidate of {problem.objects[obj[i]]!r}")
    return Claims(cid=cid, agent=agent[order], agents=agents)


def cids(problem: Problem, objects, values) -> np.ndarray:
    """The cid of each (object, value) name pair, -1 for a non-candidate."""
    obj_names, val_names = problem.index.levels
    o, v = obj_names.get_indexer(objects), val_names.get_indexer(values)
    return _lookup(problem.keys, len(val_names), o, v)


def positions(names: list[str], lookup: list[str]) -> np.ndarray:
    """Each name of ``lookup``'s position in ``names``, -1 where absent:
    ``pd.Index(names).get_indexer(lookup)`` for the few worker names of a
    round, without building a pandas index per call."""
    at = {name: i for i, name in enumerate(names)}
    return np.array([at.get(name, -1) for name in lookup], dtype=np.int64)


def _lookup(keys: np.ndarray, n_values: int, obj: np.ndarray, val: np.ndarray) -> np.ndarray:
    """The cid of each (object code, value code) pair; -1 where either code
    is -1 (an unknown name) or the pair is not a candidate."""
    key = obj * n_values + val
    cid = np.searchsorted(keys, key)
    found = (obj >= 0) & (val >= 0) & (cid < len(keys))
    found[found] = keys[cid[found]] == key[found]
    return np.where(found, cid, -1)


def _code(claims: pd.DataFrame, agent_col: str, obj: np.ndarray, cid: np.ndarray) -> Claims:
    """``claims`` sorted by (object, agent) as :class:`Claims`; ``obj`` codes
    their objects in sorted order and ``cid`` is each claim's candidate
    (-1 for none)."""
    agent, agents = pd.factorize(claims[agent_col], sort=True)
    order = _by_object_agent(obj, agent, len(agents), agent_col)
    cid = cid[order]
    bad = np.flatnonzero(cid < 0)
    if len(bad):
        o, v = claims[["object", "value"]].iloc[order[bad[0]]]
        raise ValueError(f"claimed value {v!r} not a candidate of {o!r}")
    return Claims(cid=cid, agent=agent[order], agents=list(agents))


def _by_object_agent(obj: np.ndarray, agent: np.ndarray, n_agents: int, agent_col: str) -> np.ndarray:
    """The order that sorts claims by (object, agent code); ``ValueError``
    on a repeated (object, agent) pair."""
    key = obj * n_agents + agent
    order = np.argsort(key, kind="stable")
    key = key[order]
    if (key[1:] == key[:-1]).any():
        raise ValueError(f"at most one claim per (object, {agent_col}) is allowed")
    return order


def claim_grid(problem: Problem, claim_cid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The claim × candidate grid: for claim ``i`` (claimed candidate
    ``claim_cid[i]``), one row ``(row=i, cand=v)`` for every candidate ``v``
    of its object. Rows come in claim order, then by ascending ``v``."""
    obj = problem.obj_of_cand[claim_cid]
    return ranges(problem.start[obj], problem.nV[obj].astype(np.int64))


def argmax_cids(problem: Problem, mu: np.ndarray) -> np.ndarray:
    """Each object's candidate of highest ``mu`` (cid order), the first
    (smallest value) on ties: :func:`repro.core.result.argmax_truths` as
    segment reductions."""
    p = problem
    top = np.maximum.reduceat(mu, p.start)[p.obj_of_cand]
    return np.minimum.reduceat(np.where(mu == top, np.arange(len(mu)), len(mu)), p.start)


def ranges(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, idx)``: for each ``i`` in order, the indices ``start[i] ..
    start[i] + count[i] - 1``, each tagged with ``row = i``."""
    row = np.repeat(np.arange(len(start)), count)
    idx = np.repeat(start, count) + np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    return row, idx


def expand(problem: Problem, claim_cid: np.ndarray, popularity: bool):
    """The data-dependent coefficients of Eq. (1)–(4).

    For claim ``i`` (claimed candidate ``claim_cid[i]``) and every candidate
    ``v`` of its object, taken as the truth, emits the rows ``(row=i,
    cand=v, rel, coef)`` with P(claim | v) = sum over the rows of
    ``coef · phi[rel]`` (``psi`` for workers). ``rel`` is 1 exact, 2
    generalized (claim ∈ G_o(v)), 3 wrong. ``popularity=False`` gives the
    uniform source coefficients of Eq. (1)/(2), ``popularity=True`` the
    Pop2/Pop3 worker coefficients of Eq. (3)/(4). For ``o ∉ O_H`` an exact
    match carries ``phi1 + phi2`` (Eq. 2/4): a rel-1 row followed by a
    rel-2 row. A non-positive denominator gives coefficient 0.

    Rows come in claim order, then by ascending ``v``.
    """
    p = problem
    n_cand = len(p.cand)
    row, cand = claim_grid(p, claim_cid)
    claim, o = claim_cid[row], p.obj_of_cand[claim_cid][row]
    exact = cand == claim
    general = _lookup(p.anc[:, 0] * n_cand + p.anc[:, 1], n_cand, cand, claim) >= 0
    if popularity:
        c2 = _ratio(p.cnt[claim], p.gen_cnt[cand])
        c3 = _ratio(p.cnt[claim], p.S[o] - p.cnt[cand] - p.gen_cnt[cand])
    else:
        c2 = _ratio(1.0, p.nG[cand])
        c3 = _ratio(1.0, p.nV[o] - p.nG[cand] - 1.0)
    rel = np.where(exact, 1, np.where(general, 2, 3))
    coef = np.where(exact, 1.0, np.where(general, c2, c3))
    n = np.where(exact & ~p.oh[o], 2, 1)
    row, cand, rel, coef = (np.repeat(x, n) for x in (row, cand, rel, coef))
    rel[np.cumsum(n)[n == 2] - 1] = 2
    return row, cand, rel, coef


def side_rows(problem: Problem, claims: Claims, popularity: bool):
    """One side's claims (sources or workers) expanded over the candidates
    of their objects by :func:`expand`, as the E-step's arrays ``(row, ar,
    cand, coef)``: claim index; ``ar = 3·agent + rel − 1``, the flat index
    of the claim's source / worker and relationship (rel 1 exact, 2
    generalized, 3 wrong) into phi/psi; cid of the conditioning truth v;
    and the static coefficient multiplying phi/psi[agent, rel]. Rows are
    sorted by claim, so by object. Plain arrays, so Spark workers can load
    them without this package."""
    row, cand, rel, coef = expand(problem, claims.cid, popularity)
    return row, claims.agent[row] * 3 + (rel - 1), cand, coef


def _ratio(num, den: np.ndarray) -> np.ndarray:
    """``num / den`` where ``den > 0``, else 0."""
    return np.divide(num, den, out=np.zeros(len(den)), where=den > 0)

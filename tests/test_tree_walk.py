"""The run set-up on hierarchy arrays: ancestor pairs, the §5 gold mapping
and the gold scorer, held equal to their node-by-node forms.

The references below are the closure and per-candidate loop forms the
array walks replaced; every frame must be ``DataFrame.equals`` to theirs
and every score tuple identical.
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import candidate_sets, cids, compile_problem, hierarchical_ancestor_pairs, ranges
from repro.datagen.truthdata import birthplaces_lite, heritages_lite
from repro.eval import metrics as M
from repro.hierarchy import Hierarchy, generate_hierarchy
from repro.hierarchy.tree import ROOT


def reference_ancestor_pairs(candidates, hierarchy):
    """:func:`hierarchical_ancestor_pairs` from ``Hierarchy.closure()``: the
    closure pairs between candidate values, coded and matched to the
    candidates of the same object by ``searchsorted``."""
    closure = hierarchy.closure()
    if not closure or candidates.empty:
        return pd.DataFrame(columns=["object", "value", "anc"])
    obj, objects = pd.factorize(candidates["object"], sort=True)
    val, values = pd.factorize(candidates["value"], sort=True)
    n = len(values)
    keys = np.unique(obj * n + val)
    desc, anc = (values.get_indexer(list(side)) for side in zip(*closure))
    known = (desc >= 0) & (anc >= 0)
    link = np.unique(desc[known] * n + anc[known])
    lo, hi = (np.searchsorted(link, (keys % n + d) * n) for d in (0, 1))
    row, at = ranges(lo, hi - lo)
    up = link[at] % n
    want = keys[row] // n * n + up
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    hit = keys[pos] == want
    o, v = np.divmod(keys[row[hit]], n)
    return pd.DataFrame({"object": objects.take(o), "value": values.take(v)}).assign(anc=values.take(up[hit]))


def reference_map_gold(gold, candidates, hierarchy):
    """:func:`map_gold_to_candidates` as a loop over the gold rows with a
    dict of candidate sets, walking ``Hierarchy.ancestors`` nearest first.
    A truth outside the hierarchy that is no candidate stays raw (the loop
    form without the ``t in hierarchy`` guard raised ``KeyError`` there)."""
    cand_by_obj: dict[str, set[str]] = {}
    for o, v in zip(candidates["object"], candidates["value"]):
        cand_by_obj.setdefault(o, set()).add(v)
    out = []
    for o, t in zip(gold["object"], gold["truth"]):
        cands = cand_by_obj.get(o, set())
        mapped = t
        if t not in cands and t in hierarchy:
            ancs = [a for a in hierarchy.ancestors(t) if a in cands]
            if ancs:
                mapped = ancs[0]
        out.append((o, mapped))
    return pd.DataFrame(out, columns=["object", "truth"])


def reference_scorer(problem, gold, hierarchy):
    """:func:`gold_scorer` with its (exact, generalized, distance) table
    built by one ``Hierarchy.is_ancestor`` and ``distance`` call per gold
    row and candidate."""
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

    def score(at):
        hits, gen_hits, dist = table[:, at].sum(axis=1)
        missing = n - n_gold[problem.obj_of_cand[at]].sum()
        return hits / n, gen_hits / n, (dist + height * missing) / n

    return score


PROBLEM_FIELDS = ("objects", "obj_of_cand", "start", "nV", "S", "oh", "anc", "nG", "cnt", "gen_cnt")


def assert_same_problem(a, b):
    assert a.cand.equals(b.cand) and a.index.equals(b.index)
    for name in PROBLEM_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert np.asarray(x).dtype == np.asarray(y).dtype and np.array_equal(x, y), name
    assert np.array_equal(a.sources.cid, b.sources.cid) and a.sources.agents == b.sources.agents


OUTSIDE = ["Atlantis", "Lemuria"]  # values the hierarchy does not have


@st.composite
def setups(draw):
    """A generated tree, records on random objects (values anywhere in the
    tree, the root included, or outside it) and gold rows: truths that are
    candidates, descendants of a candidate, or drawn from the whole pool,
    on objects with records or without, possibly repeated."""
    branching = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    h = generate_hierarchy(branching, seed=draw(st.integers(0, 50)), keep_prob=0.8)
    pool = h.nodes + OUTSIDE
    value = st.sampled_from(pool)
    rows = []
    n_obj = draw(st.integers(1, 6))
    for i in range(n_obj):
        vals = draw(st.lists(value, min_size=1, max_size=5))  # repeats: fewer candidates
        rows += [(f"o{i}", f"s{j}", v) for j, v in enumerate(vals)]
    records = pd.DataFrame(rows, columns=["object", "source", "value"])
    cand_by_obj = records.groupby("object")["value"].agg(lambda v: sorted(set(v))).to_dict()
    gold = []
    for _ in range(draw(st.integers(1, n_obj + 3))):
        o = draw(st.sampled_from([*cand_by_obj, "o_no_records"]))
        kind = draw(st.sampled_from(["candidate", "below", "below", "any"]))
        cands = cand_by_obj.get(o, [])
        t = draw(value)
        if kind != "any" and cands:
            t = draw(st.sampled_from(cands))
            if kind == "below" and t in h:
                below = [n for n in h.nodes if h.is_ancestor(t, n)]
                t = draw(st.sampled_from(below)) if below else t
        gold.append((o, t))
    return h, records, pd.DataFrame(gold, columns=["object", "truth"])


def _truth_choices(problem, seed, n=12):
    """Cid sets of random truths, at most one per object, some objects without."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        at = problem.start + (rng.random(len(problem.start)) * problem.nV).astype(np.int64)
        yield at[rng.random(len(at)) < 0.8]


def check_setup(h, records, gold, seed=0):
    cand = candidate_sets(records)
    anc = hierarchical_ancestor_pairs(cand, h)
    assert anc.equals(reference_ancestor_pairs(cand, h))
    p = compile_problem(records, h)
    assert_same_problem(p, compile_problem(records, anc))

    mapped = M.map_gold_to_candidates(gold, cand, h)
    assert mapped.equals(reference_map_gold(gold, cand, h))
    same, at = M.map_gold(p, gold, h)
    assert same.equals(mapped)
    assert np.array_equal(at, cids(p, mapped["object"], mapped["truth"]))

    for g in (mapped, gold):
        score, want = M.gold_scorer(p, g, h), reference_scorer(p, g, h)
        for truths in _truth_choices(p, seed):
            assert score(truths) == want(truths)
    return anc, mapped


@settings(max_examples=150, deadline=None)
@given(setups())
def test_setup_equals_the_node_by_node_forms(setup):
    check_setup(*setup)


def test_edge_cases():
    """Each edge the generated cases cover, on one small tree."""
    h = Hierarchy(
        {ROOT: None, "USA": ROOT, "UK": ROOT, "NY": "USA", "LibertyIsland": "NY", "LA": "USA", "London": "UK"}
    )
    records = pd.DataFrame(
        [
            ("o1", "s1", "NY"), ("o1", "s2", "USA"), ("o1", "s3", "Atlantis"),
            ("o2", "s1", "USA"), ("o2", "s2", ROOT),
            ("o3", "s1", "UK"),  # one candidate
            ("o4", "s1", "Atlantis"), ("o4", "s2", "LA"),
        ],
        columns=["object", "source", "value"],
    )
    gold = pd.DataFrame(
        [
            ("o1", "LibertyIsland"),  # only a candidate ancestor: NY
            ("o1", "LibertyIsland"),  # repeated
            ("o2", "LA"),  # candidate ancestor USA; the root does not count
            ("o3", "NY"),  # neither a candidate nor below one
            ("o4", "Lemuria"),  # outside the hierarchy, not a candidate
            ("o5", "NY"),  # no records
        ],
        columns=["object", "truth"],
    )
    anc, mapped = check_setup(h, records, gold)
    assert set(map(tuple, anc.to_numpy())) == {("o1", "NY", "USA")}
    assert list(mapped["truth"]) == ["NY", "NY", "USA", "NY", "Lemuria", "NY"]


@pytest.mark.parametrize("make", [birthplaces_lite, heritages_lite], ids=["birthplaces", "heritages"])
def test_generated_datasets(make):
    ds = make(sf=0.2, seed=2)
    anc, _ = check_setup(ds.hierarchy, ds.records, ds.gold, seed=2)
    assert len(anc)


def test_arrays_built_lazily_and_cached():
    h = generate_hierarchy([3, 2, 2], seed=1)
    assert h._arrays is None
    assert h.arrays() is h.arrays()

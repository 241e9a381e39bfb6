"""Tests for candidate sets, ancestor pairs, the compiled problem and the
Eq. (1)–(4) coefficient kernel."""
import numpy as np
import pandas as pd
import pytest

from repro.core.candidates import (
    answer_claims,
    candidate_sets,
    code_answers,
    hierarchical_ancestor_pairs,
    compile_problem,
    expand,
    numeric_ancestor_pairs_df,
)
from repro.datagen.stock import stock_lite
from repro.datagen.truthdata import birthplaces_lite, heritages_lite
from repro.hierarchy import Hierarchy
from repro.hierarchy.tree import ROOT


@pytest.fixture()
def h():
    return Hierarchy(
        {ROOT: None, "USA": ROOT, "NY": "USA", "LibertyIsland": "NY", "LA": "USA"}
    )


@pytest.fixture()
def recs():
    return pd.DataFrame(
        [
            ("o1", "s1", "NY"),
            ("o1", "s2", "LibertyIsland"),
            ("o1", "s3", "LA"),
            ("o2", "s1", "LA"),
            ("o2", "s2", "NY"),
        ],
        columns=["object", "source", "value"],
    )


class TestCandidateSets:
    def test_distinct_sorted(self, recs):
        cand = candidate_sets(recs)
        assert len(cand) == 5
        assert list(cand.columns) == ["object", "value"]
        assert cand.equals(cand.sort_values(["object", "value"]).reset_index(drop=True))

    def test_dedupes(self):
        recs = pd.DataFrame(
            [("o1", "s1", "NY"), ("o1", "s2", "NY")],
            columns=["object", "source", "value"],
        )
        assert len(candidate_sets(recs)) == 1


class TestAncestorPairs:
    def test_within_object_only(self, recs, h):
        cand = candidate_sets(recs)
        anc = hierarchical_ancestor_pairs(cand, h)
        # o1 has LibertyIsland with candidate ancestor NY; o2 has none
        pairs = set(map(tuple, anc.to_numpy()))
        assert ("o1", "LibertyIsland", "NY") in pairs
        assert not any(o == "o2" for o, _, _ in pairs)

    def test_root_never_appears(self, recs, h):
        cand = candidate_sets(recs)
        anc = hierarchical_ancestor_pairs(cand, h)
        assert ROOT not in set(anc["anc"])

    def test_empty_candidates(self, h):
        empty = pd.DataFrame(columns=["object", "value"])
        anc = hierarchical_ancestor_pairs(empty, h)
        assert len(anc) == 0
        assert list(anc.columns) == ["object", "value", "anc"]

    def test_numeric_pairs(self):
        cand = pd.DataFrame(
            {"object": ["o1"] * 3, "value": ["605.196", "605.2", "605"]}
        )
        anc = numeric_ancestor_pairs_df(cand)
        pairs = set(map(tuple, anc.to_numpy()))
        assert ("o1", "605.196", "605.2") in pairs
        assert ("o1", "605.2", "605") in pairs

    def test_numeric_pairs_scoped_per_object(self):
        cand = pd.DataFrame(
            {"object": ["o1", "o2"], "value": ["605.196", "605"]}
        )
        assert len(numeric_ancestor_pairs_df(cand)) == 0


def _pandas_candidate_sets(records):
    """:func:`candidate_sets` as a pandas drop-duplicates and sort: its reference."""
    return records[["object", "value"]].drop_duplicates().sort_values(["object", "value"]).reset_index(drop=True)


def _pandas_ancestor_pairs(candidates, hierarchy):
    """:func:`hierarchical_ancestor_pairs` as two merges with the sorted
    closure: its reference."""
    closure = pd.DataFrame(sorted(hierarchy.closure()), columns=["desc", "anc"])
    pairs = candidates.merge(closure, left_on="value", right_on="desc")
    pairs = pairs.merge(candidates.rename(columns={"value": "anc"}), on=["object", "anc"])
    return pairs[["object", "value", "anc"]].sort_values(["object", "value", "anc"]).reset_index(drop=True)


@pytest.mark.parametrize("sf", [0.02, 0.1, 1.0])
@pytest.mark.parametrize("make", [birthplaces_lite, heritages_lite], ids=["birthplaces", "heritages"])
def test_candidates_and_ancestor_pairs_match_pandas_reference(make, sf):
    """Equal frames, dtypes and index included (``DataFrame.equals``)."""
    ds = make(sf=sf, seed=0)
    cand, want = candidate_sets(ds.records), _pandas_candidate_sets(ds.records)
    assert cand.equals(want)
    anc, want = hierarchical_ancestor_pairs(cand, ds.hierarchy), _pandas_ancestor_pairs(want, ds.hierarchy)
    assert len(anc) and anc.equals(want)


class TestCompileProblem:
    def test_counts(self, recs, h):
        cand = candidate_sets(recs)
        anc = hierarchical_ancestor_pairs(cand, h)
        p = compile_problem(recs, anc)
        o1 = p.objects.index("o1")
        assert p.S[o1] == 3.0
        assert bool(p.oh[o1]) is True
        values = list(p.cand["value"])
        li = values.index("LibertyIsland")
        ny = values.index("NY")
        assert [li, ny] in p.anc.tolist()
        assert p.cnt[ny] == 1.0
        assert p.gen_cnt[li] == 1.0  # NY claimed once, is ancestor of LI

    def test_flat_object(self, recs, h):
        cand = candidate_sets(recs)
        anc = hierarchical_ancestor_pairs(cand, h)
        p = compile_problem(recs, anc)
        o2 = p.objects.index("o2")
        assert bool(p.oh[o2]) is False
        sl = slice(p.start[o2], p.start[o2] + int(p.nV[o2]))
        assert np.all(p.gen_cnt[sl] == 0.0)


def _pandas_compile(records, anc_pairs, answers):
    """The compiled arrays by pandas label lookups on (object, value): the
    reference the integer-keyed compiler must reproduce exactly."""
    cand = candidate_sets(records)
    index = pd.MultiIndex.from_frame(cand)
    n = len(cand)

    def cid(obj, value):
        return index.get_indexer(pd.MultiIndex.from_arrays([obj, value]))

    def code(claims, agent_col):
        claims = claims.sort_values(["object", agent_col])
        agent, agents = pd.factorize(claims[agent_col], sort=True)
        return cid(claims["object"], claims["value"]), agent, list(agents)

    desc = cid(anc_pairs["object"], anc_pairs["value"])
    key = np.unique(desc * n + cid(anc_pairs["object"], anc_pairs["anc"]))
    anc = np.stack([key // n, key % n], axis=1)
    sources = code(records, "source")
    cnt = np.bincount(sources[0], minlength=n).astype(float)
    return {
        "cand": cand,
        "sources": sources,
        "workers": code(answers, "worker"),
        "anc": anc,
        "nG": np.bincount(anc[:, 0], minlength=n).astype(float),
        "cnt": cnt,
        "gen_cnt": np.bincount(anc[:, 0], cnt[anc[:, 1]], minlength=n),
    }


def _birthplaces():
    ds = birthplaces_lite(sf=0.05, seed=0)
    return ds.records, hierarchical_ancestor_pairs(candidate_sets(ds.records), ds.hierarchy)


def _stock():
    records = stock_lite("eps", sf=0.05, seed=7).records
    return records, numeric_ancestor_pairs_df(candidate_sets(records))


@pytest.mark.parametrize("make", [_birthplaces, _stock], ids=["birthplaces", "numeric"])
def test_compile_matches_pandas_reference(make):
    records, anc_pairs = make()
    # One claimed value of every third object, answered by four workers.
    picked = records[["object", "value"]].drop_duplicates("object").iloc[::3]
    answers = pd.concat([picked.assign(worker=f"w{w}") for w in range(4)])[["object", "worker", "value"]]
    p = compile_problem(records, anc_pairs)
    workers = code_answers(p, answers)
    want = _pandas_compile(records, anc_pairs, answers)
    assert len(anc_pairs) and p.anc.shape == want["anc"].shape
    assert p.cand.equals(want["cand"])
    assert p.index.equals(pd.MultiIndex.from_frame(want["cand"]))
    assert p.objects == list(want["cand"]["object"].unique())
    for got, ref in ((p.sources, want["sources"]), (workers, want["workers"])):
        assert np.array_equal(got.cid, ref[0]) and np.array_equal(got.agent, ref[1]) and got.agents == ref[2]
    for name in ("anc", "nG", "cnt", "gen_cnt"):
        assert np.array_equal(getattr(p, name), want[name]), name


@pytest.mark.parametrize(
    "anc_rows,answer_rows,match",
    [
        ([("o1", "NY", "Paris")], [], r"ancestor pair \(o1,NY,Paris\) not in candidate set"),
        ([("o2", "LibertyIsland", "NY")], [], r"ancestor pair \(o2,LibertyIsland,NY\) not in candidate set"),
        ([], [("o2", "w1", "LibertyIsland")], "'LibertyIsland' not a candidate of 'o2'"),
        ([], [("o9", "w1", "NY"), ("o8", "w1", "LA")], "'LA' not a candidate of 'o8'"),
        ([], [("o2", "w1", "Paris")], "'Paris' not a candidate of 'o2'"),
        ([], [("o9", "w1", "NY"), ("o9", "w1", "LA")], r"at most one claim per \(object, worker\)"),
    ],
    ids=["unknown-value", "other-objects-value", "answer-other-objects-value",
         "first-of-two-unknown-objects", "answer-unknown-value", "duplicate-on-unknown-object"],
)
def test_malformed_input_rejected(recs, anc_rows, answer_rows, match):
    anc = pd.DataFrame(anc_rows, columns=["object", "value", "anc"])
    with pytest.raises(ValueError, match=match):
        p = compile_problem(recs, anc)
        code_answers(p, pd.DataFrame(answer_rows, columns=["object", "worker", "value"]))


def _coded(p, answers, workers):
    """``answers`` by name as answer_claims takes them: object codes,
    positions in ``workers`` and cids."""
    obj = p.index.levels[0].get_indexer(answers["object"])
    worker = np.array([workers.index(w) for w in answers["worker"]], dtype=np.int64)
    cid = p.index.get_indexer(pd.MultiIndex.from_frame(answers[["object", "value"]]))
    return obj, worker, cid


def test_answer_claims_equal_code_answers():
    """Twelve workers listed w11..w0: the coded path orders them by name
    (w10 before w2), as code_answers does, whatever their list position."""
    records, anc_pairs = _birthplaces()
    p = compile_problem(records, anc_pairs)
    workers = [f"w{i}" for i in reversed(range(12))]
    rng = np.random.default_rng(0)
    pairs = rng.choice(len(p.objects) * 12, size=150, replace=False)
    rows = [
        (p.objects[o], workers[w], p.cand["value"].iloc[p.start[o] + rng.integers(p.nV[o])])
        for o, w in zip(*np.divmod(pairs, 12))
    ]
    answers = pd.DataFrame(rows, columns=["object", "worker", "value"]).iloc[::-1]
    obj, worker, cid = _coded(p, answers, workers)
    got, want = answer_claims(p, obj, worker, workers, cid), code_answers(p, answers)
    assert np.array_equal(got.cid, want.cid) and np.array_equal(got.agent, want.agent)
    assert got.agents == want.agents and want.agents[:4] == ["w0", "w1", "w10", "w11"]
    none = np.zeros(0, dtype=np.int64)
    assert answer_claims(p, none, none, workers, none) is None


def test_answer_claims_rejects_what_code_answers_rejects(recs):
    p = compile_problem(recs, pd.DataFrame(columns=["object", "value", "anc"]))
    workers = ["w2", "w1"]
    repeated = pd.DataFrame([("o1", "w1", "NY"), ("o1", "w1", "LA")], columns=["object", "worker", "value"])
    obj, worker, cid = _coded(p, repeated, workers)
    with pytest.raises(ValueError, match=r"at most one claim per \(object, worker\)"):
        code_answers(p, repeated)
    with pytest.raises(ValueError, match=r"at most one claim per \(object, worker\)"):
        answer_claims(p, obj, worker, workers, cid)
    obj, worker, cid = obj[:1], worker[:1], cid[:1]
    o2 = p.objects.index("o2")
    with pytest.raises(ValueError, match="not a candidate of 'o2'"):  # o1's candidate, answered on o2
        answer_claims(p, np.array([o2]), worker, workers, cid)
    with pytest.raises(ValueError, match="not a candidate of 'o1'"):
        answer_claims(p, obj, worker, workers, np.array([len(p.cand)]))


@pytest.fixture()
def kernel_problem():
    """One O_H object (Statue-of-Liberty style), one flat object, one
    single-candidate object and one whose wrong-value denominators are 0."""
    h = Hierarchy(
        {
            ROOT: None, "USA": ROOT, "NY": "USA", "LibertyIsland": "NY", "LA": "USA",
            "UK": ROOT, "London": "UK", "Manchester": "UK", "Leeds": "UK",
        }
    )
    recs = pd.DataFrame(
        [
            ("liberty", "s1", "NY"),
            ("liberty", "s2", "LibertyIsland"),
            ("liberty", "s3", "LA"),
            ("liberty", "s4", "NY"),
            ("liberty", "s5", "USA"),
            ("flat", "s1", "London"),
            ("flat", "s2", "London"),
            ("flat", "s3", "Manchester"),
            ("flat", "s4", "Leeds"),
            ("single", "s1", "Leeds"),
            ("single", "s2", "Leeds"),
            ("guard", "s1", "NY"),
            ("guard", "s2", "USA"),
        ],
        columns=["object", "source", "value"],
    )
    anc = hierarchical_ancestor_pairs(candidate_sets(recs), h)
    return recs, anc, compile_problem(recs, anc)


def _rows(p, obj, claim, popularity):
    """Kernel rows (truth v, rel, coef) of one claim, in emitted order."""
    cid = p.index.get_loc((obj, claim))
    with np.errstate(all="raise"):
        row, cand, rel, coef = expand(p, np.asarray([cid]), popularity)
    assert (row == 0).all()
    values = p.cand["value"].to_numpy()
    return [(values[c], int(r), float(x)) for c, r, x in zip(cand, rel, coef)]


class TestExpand:
    """The Eq. (1)–(4) coefficients, computed by hand and compared exactly.

    ``liberty``: V = {LA, LibertyIsland, NY, USA}, cnt = (1, 1, 2, 1), S = 5,
    G(LA) = {USA}, G(LibertyIsland) = {NY, USA}, G(NY) = {USA}, G(USA) = {};
    so nG = (1, 2, 1, 0) and gen_cnt = (1, 3, 1, 0).
    """

    @pytest.mark.parametrize(
        "claim,source,worker",
        [
            (
                "NY",
                [("LA", 3, 1 / 2), ("LibertyIsland", 2, 1 / 2), ("NY", 1, 1.0), ("USA", 3, 1 / 3)],
                [("LA", 3, 2 / 3), ("LibertyIsland", 2, 2 / 3), ("NY", 1, 1.0), ("USA", 3, 2 / 4)],
            ),
            (
                "USA",
                [("LA", 2, 1.0), ("LibertyIsland", 2, 1 / 2), ("NY", 2, 1.0), ("USA", 1, 1.0)],
                [("LA", 2, 1.0), ("LibertyIsland", 2, 1 / 3), ("NY", 2, 1.0), ("USA", 1, 1.0)],
            ),
            (
                "LibertyIsland",
                [("LA", 3, 1 / 2), ("LibertyIsland", 1, 1.0), ("NY", 3, 1 / 2), ("USA", 3, 1 / 3)],
                [("LA", 3, 1 / 3), ("LibertyIsland", 1, 1.0), ("NY", 3, 1 / 2), ("USA", 3, 1 / 4)],
            ),
        ],
    )
    def test_hierarchical_object(self, kernel_problem, claim, source, worker):
        _, _, p = kernel_problem
        assert bool(p.oh[p.objects.index("liberty")]) is True
        assert _rows(p, "liberty", claim, popularity=False) == source
        assert _rows(p, "liberty", claim, popularity=True) == worker

    def test_flat_object(self, kernel_problem):
        """V = {Leeds, London, Manchester}, cnt = (1, 2, 1), S = 4; an exact
        match carries phi1 + phi2 (Eq. 2/4): a rel-1 then a rel-2 row."""
        _, _, p = kernel_problem
        assert bool(p.oh[p.objects.index("flat")]) is False
        assert _rows(p, "flat", "Manchester", popularity=False) == [
            ("Leeds", 3, 1 / 2), ("London", 3, 1 / 2), ("Manchester", 1, 1.0), ("Manchester", 2, 1.0)
        ]
        assert _rows(p, "flat", "Manchester", popularity=True) == [
            ("Leeds", 3, 1 / 3), ("London", 3, 1 / 2), ("Manchester", 1, 1.0), ("Manchester", 2, 1.0)
        ]

    def test_single_candidate_object(self, kernel_problem):
        _, _, p = kernel_problem
        for popularity in (False, True):
            assert _rows(p, "single", "Leeds", popularity) == [("Leeds", 1, 1.0), ("Leeds", 2, 1.0)]

    def test_non_positive_denominator_guard(self, kernel_problem):
        """V = {NY, USA} with USA ∈ G(NY): for the truth NY both wrong-value
        denominators are 0 (|V|-|G|-1 and S-cnt-gen_cnt), and no row may
        divide by them (``_rows`` raises on any floating-point error)."""
        _, _, p = kernel_problem
        ny = p.index.get_loc(("guard", "NY"))
        assert p.nV[p.objects.index("guard")] - p.nG[ny] - 1.0 == 0.0
        assert p.S[p.objects.index("guard")] - p.cnt[ny] - p.gen_cnt[ny] == 0.0
        for popularity in (False, True):
            assert _rows(p, "guard", "USA", popularity) == [("NY", 2, 1.0), ("USA", 1, 1.0)]
            assert _rows(p, "guard", "NY", popularity) == [("NY", 1, 1.0), ("USA", 3, 1.0)]

    def test_worker_rows_equal_the_assigners_basis(self, kernel_problem):
        from repro.assign.common import AssignContext
        from repro.core.tdh_local import TDH
        from tests.test_assign import cands, likelihood_basis

        recs, anc, _ = kernel_problem
        ctx = AssignContext(
            result=TDH(max_iter=2).fit(recs, None, anc),
            workers=["w0"],
            k=1,
            answers=None,
            rng=np.random.default_rng(0),
        )
        p = ctx.problem
        for o in p.objects:
            _, sl = cands(ctx, o)
            B = likelihood_basis(ctx, o)
            seen = np.zeros(B.shape, dtype=bool)
            for vp in range(sl.start, sl.stop):
                row, cand, rel, coef = expand(p, np.asarray([vp]), popularity=True)
                for v, r, x in zip(cand, rel, coef):
                    assert B[r - 1, vp - sl.start, v - sl.start] == x
                    seen[r - 1, vp - sl.start, v - sl.start] = True
            assert (B[~seen] == 0.0).all()

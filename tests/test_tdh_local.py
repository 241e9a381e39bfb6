"""Tests for the TDH EM reference engine (model math of §3)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.candidates import (
    candidate_sets,
    code_answers,
    compile_problem,
    expand,
    hierarchical_ancestor_pairs,
    side_rows,
)
from repro.core.result import argmax_truths
from repro.core.tdh_local import TDH, _estep, _extrapolate, _package, _side_estep, initial_mu
from repro.datagen.truthdata import birthplaces_lite
from repro.eval import metrics as M
from repro.hierarchy import Hierarchy
from repro.hierarchy.tree import ROOT


@pytest.fixture()
def h():
    return Hierarchy(
        {
            ROOT: None,
            "USA": ROOT,
            "UK": ROOT,
            "NY": "USA",
            "LibertyIsland": "NY",
            "LA": "USA",
            "London": "UK",
            "Manchester": "UK",
        }
    )


def _records(rows):
    return pd.DataFrame(rows, columns=["object", "source", "value"])


def _fit(records, h, answers=None, **kw):
    cand = candidate_sets(records)
    anc = hierarchical_ancestor_pairs(cand, h)
    return TDH(**kw).fit(records, answers, anc)


class TestStatueOfLiberty:
    """The paper's running example (Table 1)."""

    def test_hierarchy_resolves_generalized_conflict(self, h):
        # UNESCO says NY, Wikipedia says Liberty Island, Arrangy says LA;
        # supporting sources elsewhere establish reliabilities.
        rows = [
            ("statue", "unesco", "NY"),
            ("statue", "wikipedia", "LibertyIsland"),
            ("statue", "arrangy", "LA"),
            ("bigben", "quora", "Manchester"),
            ("bigben", "tripadvisor", "London"),
            # extra corroborating objects so EM can tell sources apart
            ("o1", "unesco", "USA"),
            ("o1", "wikipedia", "NY"),
            ("o1", "tripadvisor", "NY"),
            ("o2", "wikipedia", "London"),
            ("o2", "tripadvisor", "London"),
            ("o2", "arrangy", "LA"),
            ("o3", "wikipedia", "LA"),
            ("o3", "unesco", "LA"),
            ("o3", "arrangy", "UK"),
        ]
        res = _fit(_records(rows), h)
        # NY and LibertyIsland do not conflict; the most specific wins
        assert res.truth_map()["statue"] == "LibertyIsland"

    def test_confidences_sum_to_one(self, h):
        rows = [
            ("statue", "unesco", "NY"),
            ("statue", "wikipedia", "LibertyIsland"),
            ("statue", "arrangy", "LA"),
        ]
        res = _fit(_records(rows), h)
        sums = res.mu.groupby("object")["mu"].sum()
        assert np.allclose(sums, 1.0)


class TestEMInvariants:
    @pytest.fixture(scope="class")
    def ds(self):
        return birthplaces_lite(sf=0.02, seed=0)

    @pytest.fixture(scope="class")
    def res(self, ds):
        cand = candidate_sets(ds.records)
        anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
        return TDH().fit(ds.records, None, anc)

    def test_mu_is_distribution(self, res):
        assert np.allclose(res.mu.groupby("object")["mu"].sum(), 1.0)
        assert (res.mu["mu"] >= 0).all()

    def test_phi_is_distribution(self, res):
        assert np.allclose(res.phi[["phi1", "phi2", "phi3"]].sum(axis=1), 1.0)
        assert (res.phi[["phi1", "phi2", "phi3"]].to_numpy() >= 0).all()

    def test_truths_are_candidates(self, ds, res):
        cand = set(map(tuple, candidate_sets(ds.records).to_numpy()))
        assert all((o, v) in cand for o, v in res.truths.to_numpy())

    def test_every_object_gets_truth(self, ds, res):
        assert set(res.truths["object"]) == set(ds.records["object"].unique())

    def test_D_formula(self, ds, res):
        """D_o = |S_o| + |W_o| + |V_o| for gamma=2 (no answers here)."""
        s = ds.records.groupby("object").size()
        nv = candidate_sets(ds.records).groupby("object").size()
        d = res.D.set_index("object")["D"]
        for o in s.index:
            assert d[o] == pytest.approx(s[o] + nv[o])

    def test_deterministic(self, ds):
        cand = candidate_sets(ds.records)
        anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
        r1 = TDH().fit(ds.records, None, anc)
        r2 = TDH().fit(ds.records, None, anc)
        pd.testing.assert_frame_equal(r1.mu, r2.mu)

    def test_truths_equal_argmax_truths(self, res):
        assert res.truths.equals(argmax_truths(res.mu))

    def test_convergence_flag(self, ds, res):
        assert 1 <= res.extras["n_iter"] <= 100

    def test_beats_majority_vote(self, ds, res):
        from repro.baselines.vote import vote

        cand = candidate_sets(ds.records)
        gold = M.map_gold_to_candidates(ds.gold, cand, ds.hierarchy)
        assert M.accuracy(res.truths, gold) >= M.accuracy(vote(ds.records).truths, gold)


@pytest.mark.parametrize(
    "tdh,converged", [(TDH(max_iter=2), False), (TDH(), True)], ids=["max_iter=2", "default-cap"]
)
def test_converged_reported(tdh, converged):
    """``extras["converged"]`` tells a fit that met ``tol`` from one that
    stopped at ``max_iter``."""
    ds = birthplaces_lite(sf=0.01, seed=0)
    anc = hierarchical_ancestor_pairs(candidate_sets(ds.records), ds.hierarchy)
    res = tdh.fit(ds.records, None, anc)
    assert res.extras["converged"] is converged
    assert (res.extras["n_iter"] < tdh.max_iter) is converged


def test_default_cap_converges_a_slow_cold_fit():
    """A cold fit on BirthPlaces SF=1, dataset seed 12, takes 108 E-steps,
    more than the 100 an earlier default allowed; the default cap lets it
    converge."""
    ds = birthplaces_lite(sf=1.0, seed=12)
    anc = hierarchical_ancestor_pairs(candidate_sets(ds.records), ds.hierarchy)
    res = TDH().fit(ds.records, None, anc)
    assert res.extras["converged"] and res.extras["n_iter"] > 100


def _side_estep_per_relationship(rows, param, mu):
    """One side's E-step with a masked sum per relationship: the reference
    the fused ``_side_estep`` must reproduce bit for bit."""
    row, agent, cand, rel, coef = rows
    w = param[agent, rel - 1] * coef * mu[cand]
    f = w / np.bincount(row, w)[row]
    g = np.zeros((len(param), 3))
    for t in (1, 2, 3):
        m = rel == t
        g[:, t - 1] = np.bincount(agent[m], f[m], minlength=len(param))
    return np.bincount(cand, f, minlength=len(mu)), g


def test_fused_estep_equals_per_relationship_sums():
    ds = birthplaces_lite(sf=0.02, seed=0)
    anc = hierarchical_ancestor_pairs(candidate_sets(ds.records), ds.hierarchy)
    p = compile_problem(ds.records, anc)
    # Answers on objects in and outside O_H and on single-candidate objects.
    rng = np.random.default_rng(0)
    kinds = [p.oh & (p.nV > 1), ~p.oh & (p.nV > 1), p.nV == 1]
    objs = np.concatenate([np.flatnonzero(k)[:8] for k in kinds])
    answers = pd.DataFrame(
        [
            (p.objects[o], f"w{w}", p.cand["value"][p.start[o] + rng.integers(p.nV[o])])
            for w in range(4)
            for o in objs
        ],
        columns=["object", "worker", "value"],
    )
    workers = code_answers(p, answers)
    for k in kinds:
        assert np.isin(np.flatnonzero(k), p.obj_of_cand[workers.cid]).any()
    for mu in (initial_mu(p, workers, 2.0), rng.random(len(p.cand))):
        for claims, popularity in ((p.sources, False), (workers, True)):
            param = rng.dirichlet(np.ones(3), len(claims.agents))
            row, cand, rel, coef = expand(p, claims.cid, popularity)
            want = _side_estep_per_relationship((row, claims.agent[row], cand, rel, coef), param, mu)
            got = _side_estep(side_rows(p, claims, popularity), param, mu)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)



def _answers_on(p, n_workers, seed, n_objects=12):
    """``n_workers`` workers answering the first ``n_objects`` objects of ``p`` at random."""
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        [
            (p.objects[o], f"w{w}", p.cand["value"][p.start[o] + rng.integers(p.nV[o])])
            for w in range(n_workers)
            for o in range(n_objects)
        ],
        columns=["object", "worker", "value"],
    )


class TestCompiledOnce:
    """What depends only on the problem is computed once per problem, and
    fits that share a problem equal fits on separately compiled ones."""

    @pytest.fixture(scope="class")
    def bp(self):
        ds = birthplaces_lite(sf=0.02, seed=0)
        return ds, hierarchical_ancestor_pairs(candidate_sets(ds.records), ds.hierarchy)

    def test_source_rows_are_cached_and_fresh(self, bp):
        ds, anc = bp
        p = compile_problem(ds.records, anc)
        assert p.source_rows is p.source_rows
        for a, b in zip(p.source_rows, side_rows(p, p.sources, popularity=False)):
            assert np.array_equal(a, b)

    def test_pairs_are_cached_and_fresh(self, bp):
        ds, anc = bp
        p = compile_problem(ds.records, anc)
        assert p.pairs is p.pairs
        row, cand, rel, coef = expand(p, np.arange(len(p.cand)), popularity=True)
        dense = np.zeros((3, len(p.cand), len(p.cand)))
        dense[rel - 1, row, cand] = coef
        vp, v, B = p.pairs
        key = np.unique(row * len(p.cand) + cand)  # (v', v) order
        assert np.array_equal(vp * len(p.cand) + v, key)
        assert np.array_equal(B, dense[:, vp, v])

    def test_fits_sharing_a_problem_equal_fits_on_fresh_ones(self, bp):
        ds, anc = bp
        p = compile_problem(ds.records, anc)
        tdh = TDH(max_iter=30)
        for answers in (None, _answers_on(p, 3, 0), _answers_on(p, 5, 1)):
            shared = tdh.fit_problem(p, answers)
            fresh = tdh.fit_problem(compile_problem(ds.records, anc), answers)
            for got in (shared, tdh.fit(ds.records, answers, anc)):
                for name in ("truths", "mu", "phi", "psi", "D", "worker_accuracy"):
                    a, b = getattr(got, name), getattr(fresh, name)
                    assert (a is None and b is None) or a.equals(b), name
                assert got.extras["n_iter"] == fresh.extras["n_iter"]


class TestSquarem:
    """The safeguarded SQUAREM loop of ``TDH._em`` and its warm start."""

    @pytest.fixture(scope="class")
    def bp(self):
        ds = birthplaces_lite(sf=0.02, seed=0)
        anc = hierarchical_ancestor_pairs(candidate_sets(ds.records), ds.hierarchy)
        return ds, anc, compile_problem(ds.records, anc)

    @pytest.mark.parametrize("with_answers", [False, True], ids=["sources", "answers"])
    def test_objective_never_decreases(self, bp, with_answers):
        """Every E-step the trace keeps sees an objective no lower than the
        last. Five random workers on 30 objects make some extrapolations
        worse than plain EM, so the fallback to theta2 is exercised."""
        ds, anc, p = bp
        answers = _answers_on(p, 5, 1, n_objects=30) if with_answers else None
        res = TDH().fit(ds.records, answers, anc)
        trace = res.extras["trace"]
        assert res.extras["converged"]
        assert (np.diff(trace["objective"]) >= 0).all()
        assert trace["max_dmu"].iloc[-1] < TDH().tol <= trace["max_dmu"].iloc[:-1].min()
        if with_answers:  # some extrapolations were discarded
            assert res.extras["n_iter"] > len(trace)

    @pytest.mark.parametrize("max_iter", [5, 200], ids=["capped", "converged"])
    @pytest.mark.parametrize("with_answers", [False, True], ids=["sources", "answers"])
    def test_one_estep_per_iteration(self, bp, with_answers, max_iter):
        """A fit runs its E-step ``n_iter`` times and no more: N comes from
        the last map, not from one more E-step."""
        ds, anc, p = bp
        workers = code_answers(p, _answers_on(p, 5, 1, n_objects=30) if with_answers else None)
        block = (p.source_rows, None if workers is None else side_rows(p, workers, popularity=True))
        calls = []

        def estep(*theta):
            calls.append(1)
            return _estep(block, *theta)

        state = TDH(max_iter=max_iter)._em(p, workers, estep)
        assert state.converged == (max_iter == 200)
        assert len(calls) == state.n_iter

    def test_objective_is_the_map_objective(self, bp):
        """The first trace entry is the log-likelihood of every claim plus
        the Dirichlet log-priors at EM's starting point, computed here per
        relationship from the expanded rows."""
        ds, anc, p = bp
        answers = _answers_on(p, 3, 0)
        tdh = TDH()
        workers = code_answers(p, answers)
        mu, phi, psi = tdh._start(p, workers, None)
        want = (tdh.gamma - 1) * np.log(mu).sum()
        want += (np.log(phi) @ (tdh.alpha - 1)).sum() + (np.log(psi) @ (tdh.beta - 1)).sum()
        for claims, param, popularity in ((p.sources, phi, False), (workers, psi, True)):
            row, cand, rel, coef = expand(p, claims.cid, popularity)
            w = param[claims.agent[row], rel - 1] * coef * mu[cand]
            want += np.log(np.bincount(row, w)).sum()
        got = tdh.fit(ds.records, answers, anc).extras["trace"]["objective"].iloc[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_plain_em_when_capped_at_two(self, bp):
        """Two E-steps are two plain EM maps: no extrapolation yet."""
        ds, anc, p = bp
        res = TDH(max_iter=2).fit(ds.records, None, anc)
        one = TDH(max_iter=1).fit_claims(p, None)
        again = _package(TDH(max_iter=1).fit_claims(p, None, one))
        assert res.mu.equals(again.mu) and res.phi.equals(again.phi)
        assert list(res.extras["trace"]["objective"]) == [
            one.trace[0][0],
            again.extras["trace"]["objective"].iloc[0],
        ]

    def test_extrapolation_stays_inside_the_simplices(self):
        """S3's full step leaves the simplex here (mu would go below 0);
        the step is halved toward -1 until it is inside, not dropped."""
        phi = np.array([[0.5, 0.3, 0.2]])
        t0 = (np.array([0.5, 0.5]), phi, None)
        t1 = (np.array([0.1, 0.9]), phi, None)
        t2 = (np.array([0.01, 0.99]), phi, None)
        r, v = t1[0] - t0[0], t2[0] - 2 * t1[0] + t0[0]
        a = -np.linalg.norm(r) / np.linalg.norm(v)
        assert (t0[0] - 2 * a * r + a * a * v).min() < 0
        mu, got_phi, psi = _extrapolate(t0, t1, t2)
        assert psi is None and np.array_equal(got_phi, phi)
        assert (mu > 0).all() and mu.sum() == pytest.approx(1.0)
        assert mu[0] < t2[0][0]  # beyond theta2, not the fallback to it

    def test_short_step_is_theta2(self):
        """With |r| <= |v| the step length is -1, which is theta2 itself."""
        t0 = (np.array([0.5, 0.5]), np.array([[0.5, 0.3, 0.2]]), np.array([[0.6, 0.2, 0.2]]))
        t1 = (np.array([0.4, 0.6]), t0[1], t0[2])
        t2 = (np.array([0.5, 0.5]), t0[1], t0[2])
        assert _extrapolate(t0, t1, t2) is t2

    def test_warm_start_reuses_psi_by_worker(self, bp):
        """A warm start keeps each known worker's psi and starts a worker
        new to the fit at the prior mean; mu and phi are the start's."""
        ds, anc, p = bp
        tdh = TDH()
        prev = tdh.fit_claims(p, code_answers(p, _answers_on(p, 3, 0)))
        workers = code_answers(p, _answers_on(p, 5, 1))
        mu, phi, psi = tdh._start(p, workers, prev)
        assert prev.workers == workers.agents[:3]
        assert np.array_equal(mu, prev.mu) and np.array_equal(phi, prev.phi)
        assert np.array_equal(psi[:3], prev.psi)
        assert np.array_equal(psi[3:], np.tile(tdh.beta / tdh.beta.sum(), (2, 1)))

    def test_warm_start_on_other_records_rejected(self, bp):
        ds, anc, p = bp
        other = birthplaces_lite(sf=0.01, seed=0)
        start = TDH(max_iter=2).fit_claims(
            compile_problem(
                other.records, hierarchical_ancestor_pairs(candidate_sets(other.records), other.hierarchy)
            ),
            None,
        )
        with pytest.raises(ValueError, match="other records"):
            TDH().fit_claims(p, None, start)


class TestWorkerSide:
    def test_answers_change_mu(self, h):
        rows = [
            ("o1", "s1", "NY"),
            ("o1", "s2", "LA"),
            ("o2", "s1", "London"),
            ("o2", "s2", "London"),
            ("o2", "s3", "UK"),
        ]
        recs = _records(rows)
        answers = pd.DataFrame(
            [("o1", "w1", "LA"), ("o1", "w2", "LA"), ("o1", "w3", "LA")],
            columns=["object", "worker", "value"],
        )
        r_no = _fit(recs, h)
        r_yes = _fit(recs, h, answers=answers)
        mu_no = r_no.mu_map()["o1"]["LA"]
        mu_yes = r_yes.mu_map()["o1"]["LA"]
        assert mu_yes > mu_no
        assert r_yes.truth_map()["o1"] == "LA"

    def test_psi_reported_per_worker(self, h):
        recs = _records([("o1", "s1", "NY"), ("o1", "s2", "LA")])
        answers = pd.DataFrame(
            [("o1", "w1", "NY")], columns=["object", "worker", "value"]
        )
        res = _fit(recs, h, answers=answers)
        assert list(res.psi["worker"]) == ["w1"]
        assert np.allclose(res.psi[["psi1", "psi2", "psi3"]].sum(axis=1), 1.0)
        assert res.worker_accuracy is None  # a TDH worker's accuracy is its psi1

    def test_answer_outside_candidates_rejected(self, h):
        recs = _records([("o1", "s1", "NY"), ("o1", "s2", "LA")])
        answers = pd.DataFrame(
            [("o1", "w1", "London")], columns=["object", "worker", "value"]
        )
        with pytest.raises(ValueError, match="not a candidate"):
            _fit(recs, h, answers=answers)

    def test_duplicate_answer_rejected(self, h):
        recs = _records([("o1", "s1", "NY"), ("o1", "s2", "LA")])
        answers = pd.DataFrame(
            [("o1", "w1", "NY"), ("o1", "w1", "LA")],
            columns=["object", "worker", "value"],
        )
        with pytest.raises(ValueError, match="at most one"):
            _fit(recs, h, answers=answers)


class TestModelStructure:
    def test_duplicate_record_rejected(self, h):
        recs = _records([("o1", "s1", "NY"), ("o1", "s1", "LA")])
        with pytest.raises(ValueError, match="at most one claim"):
            _fit(recs, h)

    def test_generalization_detected(self, h):
        """A source that always claims the parent of the consensus value
        should get high phi2, not low phi1+high phi3."""
        rows = []
        cities = ["NY", "LA", "London", "Manchester"]
        parents = {"NY": "USA", "LA": "USA", "London": "UK", "Manchester": "UK"}
        for i, c in enumerate(cities * 3):
            o = f"o{i}"
            rows += [
                (o, "exact1", c),
                (o, "exact2", c),
                (o, "generalizer", parents[c]),
            ]
        res = _fit(_records(rows), h)
        phi = res.phi.set_index("source")
        assert phi.loc["generalizer", "phi2"] > phi.loc["generalizer", "phi3"]
        assert phi.loc["generalizer", "phi2"] > phi.loc["exact1", "phi2"]
        assert phi.loc["exact1", "phi1"] > phi.loc["generalizer", "phi1"]

    def test_flat_objects_use_collapsed_model(self, h):
        """Objects without ancestor pairs (o ∉ O_H) still infer fine and
        split credit between phi1 and phi2 (Eq. 2)."""
        rows = [
            ("o1", "s1", "NY"), ("o1", "s2", "NY"), ("o1", "s3", "LA"),
            ("o2", "s1", "London"), ("o2", "s2", "London"), ("o2", "s3", "London"),
        ]
        res = _fit(_records(rows), h)
        assert res.truth_map() == {"o1": "NY", "o2": "London"}

    def test_single_candidate_object(self, h):
        rows = [("o1", "s1", "NY"), ("o1", "s2", "NY")]
        res = _fit(_records(rows), h)
        assert res.truth_map()["o1"] == "NY"
        assert res.mu_map()["o1"]["NY"] == pytest.approx(1.0)

    def test_tied_truth_is_smallest_value(self, h):
        """Two sources in symmetric disagreement leave both candidates with
        the same mu; the truth is the smaller value, as in argmax_truths."""
        res = _fit(_records([("o1", "s1", "Manchester"), ("o1", "s2", "London")]), h)
        mu = res.mu_map()["o1"]
        assert mu["London"] == mu["Manchester"]
        assert res.truth_map()["o1"] == "London"
        assert res.truths.equals(argmax_truths(res.mu))

    def test_prepare_marks_oh_objects(self, h):
        recs = _records(
            [("o1", "s1", "NY"), ("o1", "s2", "USA"), ("o2", "s1", "LA"), ("o2", "s2", "London")]
        )
        cand = candidate_sets(recs)
        anc = hierarchical_ancestor_pairs(cand, h)
        p = compile_problem(recs, anc)
        objs = p.objects
        assert bool(p.oh[objs.index("o1")]) is True
        assert bool(p.oh[objs.index("o2")]) is False

    def test_problem_in_extras(self, h):
        recs = _records([("o1", "s1", "NY"), ("o1", "s2", "USA")])
        res = _fit(recs, h)
        p = res.extras["problem"]
        o1 = p.objects.index("o1")
        assert bool(p.oh[o1]) is True
        assert p.S[o1] == 2.0
        assert set(p.cand["value"][p.cand["object"] == "o1"]) == {"NY", "USA"}


class TestPriors:
    def test_alpha_prior_shapes_phi_with_no_data_signal(self, h):
        # single object, single source: phi should stay near prior mean
        res = _fit(_records([("o1", "s1", "NY")]), h, max_iter=5)
        phi = res.phi.iloc[0]
        assert phi["phi1"] + phi["phi2"] > phi["phi3"]

    def test_custom_gamma_changes_smoothing(self, h):
        recs = _records([("o1", "s1", "NY"), ("o1", "s2", "LA"), ("o1", "s3", "LA")])
        strong = _fit(recs, h, gamma=5.0).mu_map()["o1"]["LA"]
        weak = _fit(recs, h, gamma=2.0).mu_map()["o1"]["LA"]
        assert strong < weak  # heavier prior pulls toward uniform

"""Tests for the task-assignment algorithms (§4)."""
import dataclasses
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.eai_walk import heap_walk
from repro.assign.common import AssignContext, onecoin_matrix, top_k
from repro.assign.eai import eai_assign, eai_table
from repro.assign.mb import mb_assign, mb_table
from repro.assign.me import me_assign
from repro.assign.qasca import qasca_assign, qasca_table, sample_answers
from repro.baselines.vote import vote
from repro.core.candidates import candidate_sets, expand, hierarchical_ancestor_pairs
from repro.core.tdh_local import TDH
from repro.datagen.truthdata import birthplaces_lite
from repro.hierarchy import Hierarchy
from repro.hierarchy.tree import ROOT


@pytest.fixture(scope="module")
def ds():
    return birthplaces_lite(sf=0.02, seed=0)


@pytest.fixture(scope="module")
def tdh_result(ds):
    cand = candidate_sets(ds.records)
    anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
    return TDH().fit(ds.records, None, anc)


@pytest.fixture(scope="module")
def answered_ctx_args(ds):
    """A fit with worker answers, for a context that covers every case of
    Eq. (14)–(18): workers with fitted psi, one with no answers (prior
    psi), one with psi = (0, 0, 1) edited into the fit, so that an answer
    v' that is an ancestor of every other candidate has P(v') = 0 (the
    ``pv = 0`` guard), plus objects outside O_H and single-candidate objects."""
    cand = candidate_sets(ds.records)
    anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
    rng = np.random.default_rng(3)
    rows = []
    for o, g in cand.groupby("object", sort=True):
        values = list(g["value"])
        for w in ("a0", "a1", "a2"):
            if rng.random() < 0.4:
                rows.append((o, w, values[0] if w == "a0" else rng.choice(values)))
    answers = pd.DataFrame(rows, columns=["object", "worker", "value"])
    res = TDH().fit(ds.records, answers, anc)
    res.psi = pd.concat(
        [res.psi, pd.DataFrame([{"worker": "zero", "psi1": 0.0, "psi2": 0.0, "psi3": 1.0}])],
        ignore_index=True,
    )
    return res, ["a0", "a1", "a2", "fresh", "zero"], answers


def make_ctx(result, k=5, answers=None, workers=None, seed=0):
    return AssignContext(
        result=result,
        workers=workers or [f"w{i}" for i in range(4)],
        k=k,
        answers=answers,
        rng=np.random.default_rng(seed),
    )


def cands(ctx, o):
    """Object code of ``o`` and the ``mu`` row slice of its candidates."""
    i = ctx.objects.index(o)
    s = int(ctx.start[i])
    return i, slice(s, s + int(ctx.nV[i]))


def likelihood_basis(ctx, o):
    """Object ``o``'s basis (B1, B2, B3), a ``(3, K, K)`` slice of
    ``ctx.problem.pairs``; rows are the answered value v', columns the truth v."""
    vp, _, B = ctx.problem.pairs
    _, sl = cands(ctx, o)
    lo = int(np.searchsorted(vp, sl.start))
    K = sl.stop - sl.start
    return B[:, lo : lo + K * K].reshape(3, K, K)


def onecoin_reference(K, acc):
    """The K × K one-coin answer likelihood ``A[v', v]``, built directly."""
    if K == 1:
        return np.ones((1, 1))
    A = np.full((K, K), (1.0 - acc) / (K - 1))
    np.fill_diagonal(A, acc)
    return A


class TestLikelihoodMatrices:
    def test_onecoin_columns_normalized(self):
        A = onecoin_matrix(4, 0.8)
        assert np.allclose(A.sum(axis=0), 1.0)
        assert np.allclose(np.diag(A), 0.8)
        np.testing.assert_array_equal(
            onecoin_matrix(4, [0.8, 0.6]), [onecoin_reference(4, 0.8), onecoin_reference(4, 0.6)]
        )

    def test_onecoin_single_candidate(self):
        assert onecoin_matrix(1, 0.8)[0, 0] == 1.0

    def test_tdh_matrix_columns_sum_near_one(self, tdh_result):
        """Eq. (3)/(4) columns sum to 1 whenever every class is reachable."""
        ctx = make_ctx(tdh_result)
        psi = np.asarray([0.5, 0.3, 0.2])
        B1, B2, B3 = likelihood_basis(ctx, ctx.problem.objects[0])
        A = psi[0] * B1 + psi[1] * B2 + psi[2] * B3
        assert (A >= 0).all()
        assert (A.sum(axis=0) <= 1.0 + 1e-9).all()

    def test_basis_linearity(self, tdh_result):
        """The per-object basis, sliced from the kernel run over all
        candidate pairs, equals Eq. (3)/(4) evaluated from the kernel's
        rows for that object alone."""
        ctx = make_ctx(tdh_result)
        o = ctx.objects[0]
        _, sl = cands(ctx, o)
        psi = np.asarray([0.6, 0.25, 0.15])
        row, cand, rel, coef = expand(ctx.problem, np.arange(sl.start, sl.stop), popularity=True)
        direct = np.zeros((sl.stop - sl.start,) * 2)
        np.add.at(direct, (row, cand - sl.start), psi[rel - 1] * coef)
        B1, B2, B3 = likelihood_basis(ctx, o)
        assert np.allclose(direct, psi[0] * B1 + psi[1] * B2 + psi[2] * B3)

    def test_answer_likelihood_tdh_path(self, answered_ctx_args):
        """TDH: A = psi_w @ basis, with the fitted psi of a worker who
        answered and the prior mean for one who did not."""
        res, workers, answers = answered_ctx_args
        ctx = make_ctx(res, workers=workers, answers=answers)
        fitted = res.psi.set_index("worker").loc["a1"].to_numpy()
        np.testing.assert_array_equal(ctx.psi[1], fitted)
        np.testing.assert_array_equal(ctx.psi[3], [1 / 3, 1 / 3, 1 / 3])
        K = int(ctx.nV[0])
        A = np.tensordot(ctx.psi[1], likelihood_basis(ctx, ctx.objects[0]), 1)
        assert A.shape == (K, K)

    def test_answer_likelihood_onecoin_path(self, ds):
        """Baselines: the one-coin model of the reported worker accuracy,
        0.7 for a worker the result does not know."""
        res = make_result_copy(vote(ds.records))
        res.worker_accuracy = pd.DataFrame({"worker": ["w1"], "acc": [0.9]})
        ctx = make_ctx(res)
        np.testing.assert_array_equal(ctx.acc, [0.7, 0.9, 0.7, 0.7])
        K = int(ctx.nV.max())
        assert np.allclose(np.diag(onecoin_matrix(K, ctx.acc[1])), 0.9)


class TestEAI:
    def test_upper_bound_holds(self, tdh_result):
        """Lemma 4.1: EAI(w, o) ≤ U_EAI(o) for every pair."""
        ctx = make_ctx(tdh_result)
        Q, U = eai_table(ctx)
        for i in range(len(ctx.objects)):
            u = U[i]
            for j in range(len(ctx.workers)):
                assert Q[j, i] <= u + 1e-12

    def test_single_candidate_zero(self, tdh_result):
        ctx = make_ctx(tdh_result)
        singles = np.flatnonzero(ctx.nV == 1)
        if not len(singles):
            pytest.skip("no single-candidate objects at this scale")
        assert eai_table(ctx)[0][0, singles[0]] == 0.0

    def test_assign_respects_k(self, tdh_result):
        ctx = make_ctx(tdh_result, k=3)
        out = eai_assign(ctx)
        assert all(len(v) <= 3 for v in out.values())

    def test_object_assigned_to_one_worker(self, tdh_result):
        ctx = make_ctx(tdh_result, k=5)
        out = eai_assign(ctx)
        allobjs = [o for objs in out.values() for o in objs]
        assert len(allobjs) == len(set(allobjs))

    def test_skips_workers_who_answered(self, tdh_result):
        ctx0 = make_ctx(make_result_copy(tdh_result), k=5)
        baseline = eai_assign(ctx0)
        w0_objs = baseline["w0"]
        if not w0_objs:
            pytest.skip("w0 got no objects")
        answers = pd.DataFrame(
            [(o, w, "") for o in w0_objs for w in ("w0", "w1", "w2", "w3")],
            columns=["object", "worker", "value"],
        )
        ctx = make_ctx(make_result_copy(tdh_result), k=5, answers=answers)
        out = eai_assign(ctx)
        for objs in out.values():
            assert not set(objs) & set(w0_objs)

    def test_pruning_matches_unpruned(self, tdh_result):
        a = heap_walk(make_ctx(make_result_copy(tdh_result)), use_pruning=True)
        b = heap_walk(make_ctx(make_result_copy(tdh_result)), use_pruning=False)
        assert a == b

    def test_pruning_reduces_evaluations(self, tdh_result):
        r1 = make_result_copy(tdh_result)
        heap_walk(make_ctx(r1), use_pruning=True)
        pruned = r1.extras["_eai_evals"]
        r2 = make_result_copy(tdh_result)
        heap_walk(make_ctx(r2), use_pruning=False)
        full = r2.extras["_eai_evals"]
        assert pruned <= full

    def test_table_matches_dense_oracle(self, tdh_result, answered_ctx_args):
        """Every entry of the batched table equals Eq. (14)–(18) evaluated
        densely for that one (w, o), on a fit without and with answers."""
        res, workers, answers = answered_ctx_args
        plain = make_ctx(tdh_result)
        fitted = make_ctx(make_result_copy(res), workers=workers, answers=answers)
        p = fitted.problem
        assert set(workers[:3]) <= set(res.psi["worker"]) and "fresh" not in set(res.psi["worker"])
        assert (~p.oh).any() and p.oh.any() and (p.nV == 1).any()
        zero_pv = 0
        for ctx in (plain, fitted):
            Q, _ = eai_table(ctx)
            dense = np.zeros_like(Q)
            for j, w in enumerate(ctx.workers):
                for i, o in enumerate(ctx.objects):
                    dense[j, i], z = dense_eai(ctx, w, o)
                    zero_pv += z
            np.testing.assert_allclose(Q, dense, rtol=1e-12, atol=1e-15)
        assert zero_pv > 0

    def test_table_within_bound_exactly(self, tdh_result, answered_ctx_args):
        """Lemma 4.1 with no rounding slack: the pruning skip relies on it.
        The third context reproduces what EM rounding does at scale: the
        μ of a single-candidate object lands one ulp above 1, so U_EAI is
        a hair below the 0 that Eq. (14) gives."""
        res, workers, answers = answered_ctx_args
        rounded = make_result_copy(tdh_result)
        p = tdh_result.extras["problem"]
        rounded.mu = tdh_result.mu.copy()
        rounded.mu.loc[int(p.start[np.flatnonzero(p.nV == 1)[0]]), "mu"] = np.nextafter(1.0, 2.0)
        for ctx in (
            make_ctx(tdh_result),
            make_ctx(make_result_copy(res), workers=workers, answers=answers),
            make_ctx(rounded),
        ):
            Q, U = eai_table(ctx)
            assert Q.shape == (len(ctx.workers), len(ctx.objects))
            assert (Q <= U).all()

    def test_pruning_matches_unpruned_with_answers(self, answered_ctx_args):
        res, workers, answers = answered_ctx_args
        assert len(answers)
        a = heap_walk(make_ctx(make_result_copy(res), workers=workers, answers=answers), use_pruning=True)
        b = heap_walk(make_ctx(make_result_copy(res), workers=workers, answers=answers), use_pruning=False)
        assert a == b

    def test_pruned_offers_reported(self, tdh_result):
        r1 = make_result_copy(tdh_result)
        heap_walk(make_ctx(r1), use_pruning=True)
        r2 = make_result_copy(tdh_result)
        heap_walk(make_ctx(r2), use_pruning=False)
        assert r1.extras["_eai_pruned"] > 0
        assert r2.extras["_eai_pruned"] == 0

    @pytest.mark.parametrize("k, n_workers", [(5, 4), (3, 10)])
    def test_selection_matches_walk(self, tdh_result, answered_ctx_args, k, n_workers):
        """The W masked top-k selections against the heap walk, on the
        fixture fit without and with answers and on a hand-built table of
        few distinct EAI values: same key order, sorted lists, the same
        first worker, and sets that differ only from a worker whose k-th
        place is inside a run of exactly equal EAI, and there with the
        same EAI multiset."""
        res, workers, answers = answered_ctx_args
        plain = [f"w{i}" for i in range(n_workers)]
        walk_agreement(make_ctx(make_result_copy(tdh_result), k=k, workers=plain))
        walk_agreement(make_ctx(make_result_copy(res), k=k, workers=workers + plain[5:], answers=answers))
        ctx = make_ctx(make_result_copy(tdh_result), k=k, workers=plain)
        rng = np.random.default_rng(1)
        Q = rng.integers(0, 4, ctx.answered.shape) / 1e4
        ctx._eai = Q, Q.max(axis=0) + rng.integers(0, 3, Q.shape[1]) / 1e4  # Lemma 4.1: U >= EAI
        assert walk_agreement(ctx) != "no tie"

    def test_no_gain_is_exactly_zero(self, tdh_result):
        """An object that gains nothing in exact arithmetic has EAI exactly
        0, not rounding of either sign (two of the fixture's five such
        objects compute to about -1e-17 without the rounding floor)."""
        ctx = make_ctx(make_result_copy(tdh_result), workers=["w0"])
        Q, _ = eai_table(ctx)
        no_gain = [i for i, o in enumerate(ctx.objects) if ctx.nV[i] > 1 and gains_nothing(ctx, "w0", o)]
        assert len(no_gain) >= 5
        assert (Q[0, no_gain] == 0.0).all()

    def test_no_gain_ties_fall_to_u_then_id(self):
        """Four two-candidate objects on which one answer of a prior-psi
        worker moves no best candidate: every EAI is exactly 0 (about
        -3e-17 for a, b and c without the rounding floor), so Algorithm 1
        takes them by U_EAI, and b before its exact copy c by object id."""
        records = pd.DataFrame(
            [("a", "s1", "X"), ("a", "s2", "X"), ("a", "s3", "Y")]
            + [(o, s, "X") for o in "bc" for s in ("s1", "s2", "s3")]
            + [("b", "s4", "Y"), ("c", "s4", "Y"), ("d", "s1", "X"), ("d", "s4", "Y")],
            columns=["object", "source", "value"],
        )
        h = Hierarchy({ROOT: None, "X": ROOT, "Y": ROOT})
        res = TDH().fit(records, None, hierarchical_ancestor_pairs(candidate_sets(records), h))
        ctx = make_ctx(res, k=3, workers=["w0"])
        Q, U = eai_table(ctx)
        assert all(gains_nothing(ctx, "w0", o) for o in ctx.objects)
        assert (Q == 0.0).all()
        assert U[3] > U[0] > U[1] == U[2]
        assert eai_assign(ctx) == {"w0": ["a", "b", "d"]}

    def test_requires_nd_tables(self, ds):
        ctx = make_ctx(vote(ds.records))
        with pytest.raises(ValueError, match="TDH result"):
            eai_assign(ctx)


def walk_agreement(ctx):
    """Compare :func:`eai_assign` with the heap walk on ``ctx`` and return
    ``"no tie"``, ``"tie, same"`` or ``"tie, differs"``. Asserts the
    walk's key order and id-sorted lists, the same objects for the first
    worker (the walk offers it objects by (−U_EAI, id), which is the tie
    rule), identical sets while no worker's k-th place falls inside a run
    of exactly equal EAI values, and, at the first worker whose set
    differs, a tie at that worker's k-th place and equal EAI multisets."""
    Q, _ = eai_table(ctx)
    new, walk = eai_assign(ctx), heap_walk(ctx)
    assert list(new) == list(walk) == [ctx.workers[j] for j in np.argsort(-ctx.psi[:, 0], kind="stable")]
    assert all(objs == sorted(objs) for objs in new.values())
    first = next(iter(new))
    assert new[first] == walk[first]
    code = pd.Index(ctx.objects)
    free = ~ctx.answered
    tied = False
    for w, objs in new.items():
        j = ctx.workers.index(w)
        q = np.sort(Q[j, free[j]])[::-1]
        tie = len(q) > ctx.k and q[ctx.k - 1] == q[ctx.k]
        tied |= tie
        if objs != walk[w]:
            assert tie
            mine, ref = Q[j, code.get_indexer(objs)], Q[j, code.get_indexer(walk[w])]
            np.testing.assert_array_equal(np.sort(mine), np.sort(ref))
            return "tie, differs"
        free[:, code.get_indexer(objs)] = False
    return "tie, same" if tied else "no tie"


def dense_eq18(ctx, w, o):
    """Object ``o``'s answer likelihood ``A[v', v]`` for worker ``w``,
    P(v') (Eq. 6), mu and mu_{o,v|w,v'} (Eq. 16, 18), densely from its
    K×K basis."""
    i, sl = cands(ctx, o)
    mu = ctx.mu[sl]
    psi = ctx.psi[ctx.workers.index(w)]
    B1, B2, B3 = likelihood_basis(ctx, o)
    A = psi[0] * B1 + psi[1] * B2 + psi[2] * B3
    pv = A @ mu  # Eq. (6)
    pv_safe = np.where(pv > 0, pv, 1.0)
    F = A * mu[None, :] / pv_safe[:, None]  # Eq. (16)
    N = ctx.mu[sl] * ctx.D[i]  # Eq. (9)'s numerator
    return A, pv, mu, (N[None, :] + F) / (float(ctx.D[i]) + 1.0)  # Eq. (18)


def dense_eai(ctx, w, o):
    """EAI(w, o) per Eq. (14)–(18) from the K×K likelihood matrix of one
    (worker, object), and the number of answers v' with P(v') = 0: the
    independent oracle for the batched table."""
    _, pv, mu, mu_cond = dense_eq18(ctx, w, o)
    if len(mu) == 1:
        return 0.0, 0
    e_max = float(pv @ mu_cond.max(axis=1))  # Eq. (15)
    return (e_max - float(mu.max())) / len(ctx.objects), int((pv == 0).sum())


def gains_nothing(ctx, w, o):
    """Whether EAI(w, o) is 0 in exact arithmetic: every column of the
    answer likelihood sums to one, so the answers' expected Eq. (18) is mu
    when N = mu·D, and no answer v' with P(v') > 0 moves its argmax off
    mu's."""
    A, pv, mu, mu_cond = dense_eq18(ctx, w, o)
    proper = np.allclose(A.sum(axis=0), 1.0, rtol=1e-12, atol=0)
    return proper and bool((mu_cond[pv > 0].argmax(axis=1) == mu.argmax()).all())


def make_result_copy(res):
    """Shallow copy with fresh extras (assigners write counters into extras)."""
    return dataclasses.replace(res, extras={k: v for k, v in res.extras.items() if not k.startswith("_")})


class TestQASCA:
    def test_assign_shape(self, tdh_result):
        out = qasca_assign(make_ctx(make_result_copy(tdh_result), k=4))
        assert all(len(v) <= 4 for v in out.values())
        for objs in out.values():
            assert len(objs) == len(set(objs))  # unique within a worker

    def test_workers_may_share_objects(self, tdh_result):
        """Unlike EAI, QASCA serves each worker independently, so the
        same object can go to several workers in one round."""
        out = qasca_assign(make_ctx(make_result_copy(tdh_result), k=4))
        allobjs = [o for objs in out.values() for o in objs]
        assert len(allobjs) > len(set(allobjs))

    def test_deterministic_given_rng(self, tdh_result):
        a = qasca_assign(make_ctx(make_result_copy(tdh_result), seed=5))
        b = qasca_assign(make_ctx(make_result_copy(tdh_result), seed=5))
        assert a == b

    def test_sampling_sensitivity(self, tdh_result):
        """Different rng seeds can change the assignment (the paper's
        criticism of QASCA)."""
        outs = {
            tuple(sorted((w, tuple(v)) for w, v in qasca_assign(
                make_ctx(make_result_copy(tdh_result), seed=s)
            ).items()))
            for s in range(5)
        }
        assert len(outs) >= 2

    def test_works_with_onecoin_models(self, ds):
        from repro.baselines.lca import lca

        out = qasca_assign(make_ctx(lca(ds.records), k=3))
        assert all(len(v) <= 3 for v in out.values())

    @pytest.mark.parametrize("seed", [0, 7])
    def test_samples_match_choice_per_object(self, tdh_result, seed):
        """The batched draw is one ``rng.choice`` per object with more than
        one candidate, in object order, from the first worker's answer
        distribution — same samples, same random stream afterwards."""
        ctx = make_ctx(make_result_copy(tdh_result), seed=seed)
        rng = np.random.default_rng(seed)
        expect = []
        for o in ctx.objects:
            i, sl = cands(ctx, o)
            mu = ctx.mu[sl]
            pv = np.clip(onecoin_reference(len(mu), ctx.acc[0]) @ mu, 0.0, None)
            expect.append(rng.choice(len(mu), p=pv / pv.sum()) if len(mu) > 1 else 0)
        assert (ctx.nV == 1).any()
        np.testing.assert_array_equal(sample_answers(ctx), expect)
        assert ctx.rng.random() == rng.random()

    def test_table_matches_dense_oracle(self, ds, answered_ctx_args):
        """Every entry equals, bit for bit, QASCA's quality evaluated on
        that one (w, o), on a TDH fit with answers (fitted and unseen
        workers) and on a one-coin baseline."""
        from repro.baselines.lca import lca

        res, workers, answers = answered_ctx_args
        for ctx in (make_ctx(res, workers=workers, answers=answers), make_ctx(lca(ds.records))):
            sampled = sample_answers(ctx)
            Q = qasca_table(ctx, sampled)
            dense = np.zeros_like(Q)
            for j in range(len(ctx.workers)):
                for i, o in enumerate(ctx.objects):
                    sl = cands(ctx, o)[1]
                    dense[j, i] = dense_qasca(ctx.mu[sl], ctx.acc[j], sampled[i], len(ctx.objects))
            np.testing.assert_array_equal(Q, dense)


class TestMBAndME:
    def test_mb_assign_shape(self, ds):
        from repro.baselines.docs import docs

        res = docs(ds.records, hierarchy=ds.hierarchy)
        out = mb_assign(make_ctx(res, k=4))
        assert all(len(v) <= 4 for v in out.values())

    def test_mb_table_matches_dense_oracle(self, ds, answered_ctx_args):
        """Every entry equals, bit for bit, the expected entropy reduction
        evaluated on that one (w, o), under DOCS's per-domain accuracy of
        workers who answered and the scalar fallback of one who did not."""
        from repro.baselines.docs import docs

        _, workers, answers = answered_ctx_args
        res = docs(ds.records, answers, hierarchy=ds.hierarchy)
        ctx = make_ctx(res, workers=workers, answers=answers)
        dq, doms = res.extras["domain_quality"], res.extras["domains"]
        assert ("w:a0", doms[ctx.objects[0]]) in dq and (ctx.nV == 1).any()
        Q = mb_table(ctx)
        dense = np.zeros_like(Q)
        for j, w in enumerate(ctx.workers):
            for i, o in enumerate(ctx.objects):
                acc = dq.get((f"w:{w}", doms.get(o)), ctx.acc[j])
                dense[j, i] = dense_mb(ctx.mu[cands(ctx, o)[1]], acc)
        np.testing.assert_array_equal(Q, dense)

    def test_me_picks_highest_entropy(self, ds):
        """Exact oracle: entropies from ``result.mu`` by a pandas groupby,
        and each worker's full k=5 list in (−entropy, object id) order over
        the objects it has not answered."""
        res = vote(ds.records)
        mu = res.mu.sort_values(["object", "mu"])
        ent = (-(mu["mu"] * np.log(mu["mu"].where(mu["mu"] > 0, 1.0)))).groupby(mu["object"]).sum()
        order = ent.reset_index(name="h").sort_values(["h", "object"], ascending=[False, True])
        ranking = order["object"].tolist()
        assert ent[ranking[:6]].duplicated().any()  # the top objects include exact ties
        taken = ranking[0:3:2]
        answers = pd.DataFrame({"object": taken, "worker": "w1", "value": ""})
        out = me_assign(make_ctx(res, k=5, workers=["w0", "w1"], answers=answers))
        assert out == {"w0": ranking[:5], "w1": [o for o in ranking if o not in taken][:5]}

    def test_me_ties_equal_multisets_exactly(self):
        """Two objects with the same 9 confidences in different value
        orders have exactly the same entropy, so the lower object id wins
        (summed in value order, ``b`` came out one ulp higher)."""
        from repro.core.result import InferenceResult, argmax_truths

        k = [1, 2, 3, 4, 5, 6, 7, 8, 9] + [9, 3, 5, 6, 7, 4, 1, 2, 8]
        values = [f"v{i}" for i in range(9)]
        mu = pd.DataFrame({"object": ["a"] * 9 + ["b"] * 9, "value": values * 2, "mu": np.divide(k, 45)})
        res = InferenceResult(truths=argmax_truths(mu), mu=mu)
        assert me_assign(make_ctx(res, k=1, workers=["w0"])) == {"w0": ["a"]}

    def test_me_workers_share_top_objects(self, ds):
        """Every worker gets the same most-uncertain objects (no spread)."""
        out = me_assign(make_ctx(vote(ds.records), k=5))
        lists = list(out.values())
        assert all(objs == lists[0] for objs in lists)


def dense_mb(mu, acc):
    """MB's expected entropy reduction of one (w, o), evaluated on that
    object's vector alone: the oracle for :func:`mb_table`."""

    def h(p):
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    if len(mu) == 1:
        return 0.0
    A = onecoin_reference(len(mu), acc)
    pv = A @ mu
    exp_h = 0.0
    for vp in range(len(mu)):
        post = mu * A[vp]
        if pv[vp] > 0 and post.sum() > 0:
            exp_h += pv[vp] * h(post / post.sum())
    return h(mu) - exp_h


def dense_qasca(mu, acc, vp, n_obj):
    """QASCA's quality of one (w, o) for the sampled answer ``vp``,
    evaluated on that object's vector alone."""
    if len(mu) == 1:
        return 0.0
    post = mu * onecoin_reference(len(mu), acc)[vp]
    if post.sum() <= 0:
        return 0.0
    return (float((post / post.sum()).max()) - float(mu.max())) / n_obj


class TestLayout:
    def test_tdh_layout_is_the_problem(self, tdh_result):
        ctx = make_ctx(tdh_result)
        p = tdh_result.extras["problem"]
        assert ctx.objects == p.objects
        np.testing.assert_array_equal(ctx.start, p.start)
        np.testing.assert_array_equal(ctx.nV, p.nV)

    def test_groups_cached_on_the_problem(self, tdh_result):
        """Every TDH context of one problem shares the problem's groups; a
        context read from the frames alone builds equal ones."""
        p = tdh_result.extras["problem"]
        assert make_ctx(tdh_result).groups is p.groups is make_ctx(tdh_result).groups
        from_frames = make_ctx(dataclasses.replace(tdh_result, extras={})).groups
        assert from_frames is not p.groups
        assert [K for K, _, _ in from_frames] == [K for K, _, _ in p.groups]
        for (_, objs, rows), (_, want_objs, want_rows) in zip(from_frames, p.groups):
            np.testing.assert_array_equal(objs, want_objs)
            np.testing.assert_array_equal(rows, want_rows)

    @pytest.mark.parametrize("bad", ["swapped", "repeated"])
    def test_unordered_mu_rejected(self, ds, bad):
        res = make_result_copy(vote(ds.records))
        i = int(np.flatnonzero(res.mu["object"].to_numpy()[1:] == res.mu["object"].to_numpy()[:-1])[0])
        rows = [i + 1, i] if bad == "swapped" else [i, i]
        order = np.r_[np.arange(i), rows, np.arange(i + 2, len(res.mu))]
        res.mu = res.mu.iloc[order].reset_index(drop=True)
        with pytest.raises(ValueError, match="strictly increasing"):
            make_ctx(res)

    def test_answer_outside_layout_rejected(self, tdh_result):
        o = tdh_result.mu["object"].iloc[0]
        answers = pd.DataFrame({"object": [o, "no-such-object"], "worker": "w0", "value": ""})
        with pytest.raises(ValueError, match="'no-such-object'"):
            make_ctx(tdh_result, answers=answers)

    def test_answered_mask(self, tdh_result):
        """Answers by workers outside the round are ignored."""
        o = tdh_result.extras["problem"].objects
        answers = pd.DataFrame({"object": [o[3], o[3], o[5]], "worker": ["w1", "w2", "other"], "value": ""})
        ctx = make_ctx(tdh_result, answers=answers)
        assert sorted(zip(*np.nonzero(ctx.answered))) == [(1, 3), (2, 3)]


def top_k_reference(ctx, order, Q, then=None, exclusive=False):
    """:func:`top_k` as one full ``lexsort`` of every free object per
    worker: the reference for its partition-first selection."""
    Q = np.broadcast_to(Q, ctx.answered.shape)
    free = ~ctx.answered
    out = {}
    for j in order:
        cand = np.flatnonzero(free[j])
        keys = (cand,) if then is None else (cand, -then[cand])
        best = cand[np.lexsort((*keys, -Q[j, cand]))[: ctx.k]]
        if exclusive:
            free[:, best] = False
        out[ctx.workers[j]] = [ctx.objects[i] for i in best]
    return out


@st.composite
def selections(draw):
    """A small score table drawn from four levels (±0 included), so most
    k-th places fall in a run of exact ties; a shared score row or one per
    worker; an optional ``then`` key; an answered mask that can leave a
    worker fewer free objects than k; and a worker order."""
    n_w, n_o, k = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 6))
    level = st.sampled_from([-0.0, 0.0, 0.5, 1.0])
    table = lambda n: np.array(draw(st.lists(level, min_size=n, max_size=n)))
    Q = table(n_o) if draw(st.booleans()) else table(n_w * n_o).reshape(n_w, n_o)
    then = table(n_o) if draw(st.booleans()) else None
    answered = np.array(draw(st.lists(st.booleans(), min_size=n_w * n_o, max_size=n_w * n_o)))
    ctx = SimpleNamespace(
        answered=answered.reshape(n_w, n_o),
        k=k,
        workers=[f"w{j}" for j in range(n_w)],
        objects=[f"o{i:02d}" for i in range(n_o)],
    )
    return ctx, draw(st.permutations(range(n_w))), Q, then, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(selections())
def test_top_k_equals_a_full_sort(selection):
    ctx, order, Q, then, exclusive = selection
    got = top_k(ctx, order, Q, then=then, exclusive=exclusive)
    want = top_k_reference(ctx, order, Q, then=then, exclusive=exclusive)
    assert list(got.items()) == list(want.items())

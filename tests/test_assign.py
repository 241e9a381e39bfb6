"""Tests for the task-assignment algorithms (§4)."""
import numpy as np
import pandas as pd
import pytest

from repro.assign.common import (
    AssignContext,
    answer_likelihood,
    onecoin_likelihood_matrix,
)
from repro.assign.eai import eai_assign, eai_quality, eai_table, u_eai
from repro.assign.mb import mb_assign
from repro.assign.me import me_assign
from repro.assign.qasca import qasca_assign
from repro.baselines.vote import vote
from repro.core.candidates import candidate_sets, expand, hierarchical_ancestor_pairs
from repro.core.tdh_local import TDH
from repro.datagen.truthdata import birthplaces_lite


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
    answered: dict[str, set[str]] = {}
    for o, w in zip(answers["object"], answers["worker"]):
        answered.setdefault(o, set()).add(w)
    return res, ["a0", "a1", "a2", "fresh", "zero"], answered


def make_ctx(result, k=5, answered=None, workers=None, seed=0):
    return AssignContext(
        result=result,
        workers=workers or [f"w{i}" for i in range(4)],
        k=k,
        answered=answered or {},
        rng=np.random.default_rng(seed),
    )


class TestLikelihoodMatrices:
    def test_onecoin_columns_normalized(self):
        A = onecoin_likelihood_matrix(4, 0.8)
        assert np.allclose(A.sum(axis=0), 1.0)
        assert np.allclose(np.diag(A), 0.8)

    def test_onecoin_single_candidate(self):
        assert onecoin_likelihood_matrix(1, 0.8)[0, 0] == 1.0

    def test_tdh_matrix_columns_sum_near_one(self, tdh_result):
        """Eq. (3)/(4) columns sum to 1 whenever every class is reachable."""
        ctx = make_ctx(tdh_result)
        psi = np.asarray([0.5, 0.3, 0.2])
        B1, B2, B3 = ctx.likelihood_basis(ctx.problem.objects[0])
        A = psi[0] * B1 + psi[1] * B2 + psi[2] * B3
        assert (A >= 0).all()
        assert (A.sum(axis=0) <= 1.0 + 1e-9).all()

    def test_basis_linearity(self, tdh_result):
        """The per-object basis, sliced from the kernel run over all
        candidate pairs, equals Eq. (3)/(4) evaluated from the kernel's
        rows for that object alone."""
        ctx = make_ctx(tdh_result)
        o = ctx.objects[0]
        _, sl = ctx.cands(o)
        psi = np.asarray([0.6, 0.25, 0.15])
        row, cand, rel, coef = expand(ctx.problem, np.arange(sl.start, sl.stop), popularity=True)
        direct = np.zeros((sl.stop - sl.start,) * 2)
        np.add.at(direct, (row, cand - sl.start), psi[rel - 1] * coef)
        B1, B2, B3 = ctx.likelihood_basis(o)
        assert np.allclose(direct, psi[0] * B1 + psi[1] * B2 + psi[2] * B3)

    def test_answer_likelihood_tdh_path(self, tdh_result):
        ctx = make_ctx(tdh_result)
        values, A = answer_likelihood(ctx, "w0", ctx.objects[0])
        assert A.shape == (len(values), len(values))

    def test_answer_likelihood_onecoin_path(self, ds):
        ctx = make_ctx(vote(ds.records))
        values, A = answer_likelihood(ctx, "w0", ctx.objects[0])
        assert np.allclose(np.diag(A), ctx.worker_acc("w0")) or len(values) == 1


class TestEAI:
    def test_upper_bound_holds(self, tdh_result):
        """Lemma 4.1: EAI(w, o) ≤ U_EAI(o) for every pair."""
        ctx = make_ctx(tdh_result)
        for o in ctx.objects:
            u = u_eai(ctx, o)
            for w in ctx.workers:
                assert eai_quality(ctx, w, o) <= u + 1e-12

    def test_single_candidate_zero(self, tdh_result):
        ctx = make_ctx(tdh_result)
        singles = [o for o in ctx.objects if ctx.problem.nV[ctx.cands(o)[0]] == 1]
        if not singles:
            pytest.skip("no single-candidate objects at this scale")
        assert eai_quality(ctx, "w0", singles[0]) == 0.0

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
        answered = {o: {"w0", "w1", "w2", "w3"} for o in w0_objs}
        ctx = make_ctx(make_result_copy(tdh_result), k=5, answered=answered)
        out = eai_assign(ctx)
        for objs in out.values():
            assert not set(objs) & set(w0_objs)

    def test_pruning_matches_unpruned(self, tdh_result):
        a = eai_assign(make_ctx(make_result_copy(tdh_result)), use_pruning=True)
        b = eai_assign(make_ctx(make_result_copy(tdh_result)), use_pruning=False)
        assert a == b

    def test_pruning_reduces_evaluations(self, tdh_result):
        r1 = make_result_copy(tdh_result)
        eai_assign(make_ctx(r1), use_pruning=True)
        pruned = r1.extras["_eai_evals"]
        r2 = make_result_copy(tdh_result)
        eai_assign(make_ctx(r2), use_pruning=False)
        full = r2.extras["_eai_evals"]
        assert pruned <= full

    def test_table_matches_dense_oracle(self, tdh_result, answered_ctx_args):
        """Every entry of the batched table equals Eq. (14)–(18) evaluated
        densely for that one (w, o), on a fit without and with answers."""
        res, workers, answered = answered_ctx_args
        plain = make_ctx(tdh_result)
        fitted = make_ctx(make_result_copy(res), workers=workers, answered=answered)
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
        res, workers, answered = answered_ctx_args
        rounded = make_result_copy(tdh_result)
        p = tdh_result.extras["problem"]
        rounded.mu = tdh_result.mu.copy()
        rounded.mu.loc[int(p.start[np.flatnonzero(p.nV == 1)[0]]), "mu"] = np.nextafter(1.0, 2.0)
        for ctx in (
            make_ctx(tdh_result),
            make_ctx(make_result_copy(res), workers=workers, answered=answered),
            make_ctx(rounded),
        ):
            Q, U = eai_table(ctx)
            assert Q.shape == (len(ctx.workers), len(ctx.objects))
            assert (Q <= U).all()

    def test_pruning_matches_unpruned_with_answers(self, answered_ctx_args):
        res, workers, answered = answered_ctx_args
        assert answered
        a = eai_assign(make_ctx(make_result_copy(res), workers=workers, answered=answered), use_pruning=True)
        b = eai_assign(make_ctx(make_result_copy(res), workers=workers, answered=answered), use_pruning=False)
        assert a == b

    def test_pruned_offers_reported(self, tdh_result):
        r1 = make_result_copy(tdh_result)
        eai_assign(make_ctx(r1), use_pruning=True)
        r2 = make_result_copy(tdh_result)
        eai_assign(make_ctx(r2), use_pruning=False)
        assert r1.extras["_eai_pruned"] > 0
        assert r2.extras["_eai_pruned"] == 0

    def test_requires_nd_tables(self, ds):
        ctx = make_ctx(vote(ds.records))
        with pytest.raises(ValueError, match="N/D"):
            eai_assign(ctx)


def dense_eai(ctx, w, o):
    """EAI(w, o) per Eq. (14)–(18) from the K×K likelihood matrix of one
    (worker, object), and the number of answers v' with P(v') = 0: the
    independent oracle for the batched table."""
    i, sl = ctx.cands(o)
    mu = ctx.mu[sl]
    if len(mu) == 1:
        return 0.0, 0
    N = ctx.N[sl]
    D = float(ctx.D[i])
    psi = ctx.worker_psi(w)
    B1, B2, B3 = ctx.likelihood_basis(o)
    A = psi[0] * B1 + psi[1] * B2 + psi[2] * B3
    pv = A @ mu  # Eq. (6)
    pv_safe = np.where(pv > 0, pv, 1.0)
    F = A * mu[None, :] / pv_safe[:, None]  # Eq. (16)
    mu_cond = (N[None, :] + F) / (D + 1.0)  # Eq. (18)
    e_max = float(pv @ mu_cond.max(axis=1))  # Eq. (15)
    return (e_max - float(mu.max())) / len(ctx.objects), int((pv == 0).sum())


def make_result_copy(res):
    """Shallow copy with fresh extras (assigners write counters into extras)."""
    from repro.core.result import InferenceResult

    return InferenceResult(
        truths=res.truths,
        mu=res.mu,
        phi=res.phi,
        psi=res.psi,
        N=res.N,
        D=res.D,
        worker_accuracy=res.worker_accuracy,
        extras={k: v for k, v in res.extras.items() if not k.startswith("_")},
    )


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


class TestMBAndME:
    def test_mb_assign_shape(self, ds):
        from repro.baselines.docs import docs

        res = docs(ds.records, hierarchy=ds.hierarchy)
        out = mb_assign(make_ctx(res, k=4))
        assert all(len(v) <= 4 for v in out.values())

    def test_me_picks_highest_entropy(self, ds):
        res = vote(ds.records)
        ctx = make_ctx(res, k=1, workers=["w0"])
        out = me_assign(ctx)
        ent = {}
        for o, mu in ctx.mu_map.items():
            p = np.asarray(list(mu.values()))
            p = p[p > 0]
            ent[o] = float(-(p * np.log(p)).sum())
        best = max(sorted(ent), key=lambda o: ent[o])
        assert out["w0"] == [max(sorted(ent), key=lambda o: (ent[o], ))] or ent[out["w0"][0]] == pytest.approx(ent[best])

    def test_me_workers_share_top_objects(self, ds):
        """Every worker gets the same most-uncertain objects (no spread)."""
        out = me_assign(make_ctx(vote(ds.records), k=5))
        lists = list(out.values())
        assert all(objs == lists[0] for objs in lists)

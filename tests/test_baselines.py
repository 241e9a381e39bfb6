"""Tests for the baseline truth-discovery algorithms."""
import itertools

import numpy as np
import pandas as pd
import pytest

from repro.baselines.accu import _claim_pairs, _discount, accu, popaccu
from repro.baselines.asums import asums, select_truths
from repro.baselines import claims as claims_module
from repro.baselines.claims import ClaimLayout, fold_answers
from repro.baselines.crh import crh, crh_numeric
from repro.baselines.docs import docs, domain_agents, object_domains
from repro.baselines.lca import lca
from repro.baselines import lfc as lfc_module
from repro.baselines.lfc import lfc, lfc_mt
from repro.baselines.mdc import mdc
from repro.baselines.multitruth import dart, ltm
from repro.baselines.numeric import catd, chi2_quantile, mean_baseline
from repro.baselines.vote import vote
from repro.core.candidates import candidate_sets, compile_problem, hierarchical_ancestor_pairs
from repro.core.result import argmax_truths
from repro.datagen.truthdata import birthplaces_lite, heritages_lite
from repro.eval import metrics as M
from repro.hierarchy import Hierarchy


@pytest.fixture(scope="module")
def ds():
    return birthplaces_lite(sf=0.02, seed=0)


@pytest.fixture(scope="module")
def gold(ds):
    return M.map_gold_to_candidates(ds.gold, candidate_sets(ds.records), ds.hierarchy)


SIMPLE = pd.DataFrame(
    [
        ("o1", "s1", "a"), ("o1", "s2", "a"), ("o1", "s3", "b"),
        ("o2", "s1", "x"), ("o2", "s2", "y"), ("o2", "s3", "x"),
        ("o3", "s1", "p"), ("o3", "s2", "p"), ("o3", "s3", "p"),
    ],
    columns=["object", "source", "value"],
)


class TestVote:
    def test_majority_wins(self):
        t = vote(SIMPLE).truth_map()
        assert t == {"o1": "a", "o2": "x", "o3": "p"}

    def test_tie_breaks_to_smallest_value(self):
        recs = pd.DataFrame(
            [("o1", "s1", "b"), ("o1", "s2", "a")], columns=["object", "source", "value"]
        )
        assert vote(recs).truth_map()["o1"] == "a"

    def test_mu_normalized(self):
        res = vote(SIMPLE)
        assert np.allclose(res.mu.groupby("object")["mu"].sum(), 1.0)

    def test_answers_counted(self):
        answers = pd.DataFrame(
            [("o1", "w1", "b"), ("o1", "w2", "b")], columns=["object", "worker", "value"]
        )
        assert vote(SIMPLE, answers).truth_map()["o1"] == "b"


def _ref_crh(records, answers, *, max_iter=20, eps=1e-9):
    """Categorical CRH as a loop over name-keyed pandas groupbys and a
    truth dict, the form it had before it read the claim layout."""
    claims = fold_answers(records, answers)
    sources = sorted(claims["source"].unique())
    w = pd.Series(1.0, index=sources)
    truth = None
    for _ in range(max_iter):
        scored = claims.assign(wt=claims["source"].map(w))
        scores = scored.groupby(["object", "value"])["wt"].sum().rename("mu").reset_index()
        new_truth = argmax_truths(scores)
        t_map = dict(zip(new_truth["object"], new_truth["value"]))
        loss = claims.assign(miss=[t_map[o] != v for o, v in zip(claims["object"], claims["value"])])
        loss_s = loss.groupby("source")["miss"].sum().reindex(sources).fillna(0.0) + eps
        w = -np.log(loss_s / loss_s.sum())
        w = w.clip(lower=eps)
        if truth is not None and t_map == truth:
            truth = t_map
            break
        truth = t_map
    scored = claims.assign(wt=claims["source"].map(w))
    mu = scored.groupby(["object", "value"])["wt"].sum().rename("mu").reset_index()
    mu["mu"] /= mu.groupby("object")["mu"].transform("sum")
    mu = mu.sort_values(["object", "value"]).reset_index(drop=True)
    return argmax_truths(mu), mu


def _ref_dart(records, *, hierarchy, max_iter=10, threshold=0.35):
    """DART as a per-object, per-candidate loop, the form it had before
    its scores became one ``bincount`` over the claim grid."""
    layout = ClaimLayout(records, None)
    p = layout.problem
    src_of, _, agent = domain_agents(layout, object_domains(records, hierarchy))
    A = len(src_of)
    obj = p.obj_of_cand[layout.cid]
    by_obj = np.split(np.argsort(obj, kind="stable"), np.cumsum(np.bincount(obj))[:-1])
    cand = p.cand
    n_claims = np.bincount(agent, minlength=A).astype(float)
    rho = np.full(A, 0.6)
    spec = np.full(A, 0.8)
    truth_sets: dict[str, set[str]] = {}
    for _ in range(max_iter):
        scores = np.zeros(len(cand))
        for i, claims in enumerate(by_obj):
            covering = agent[claims].tolist()
            cids = range(p.start[i], p.start[i] + int(p.nV[i]))
            claimed_by: dict[int, list[int]] = {c: [] for c in cids}
            for ai, c in zip(covering, layout.cid[claims].tolist()):
                claimed_by[c].append(ai)
            for c, claimed in claimed_by.items():
                sc = 0.0
                for ai in claimed:
                    sc += np.log(rho[ai] / max(1e-6, 1 - spec[ai]))
                for ai in covering:
                    if ai not in claimed:
                        sc += 0.1 * np.log(max(1e-6, 1 - rho[ai]) / spec[ai])
                scores[c] = 1.0 / (1.0 + np.exp(-sc))
        truth_sets = {}
        for o, v, sc in zip(cand["object"], cand["value"], scores):
            if sc >= threshold:
                truth_sets.setdefault(o, set()).add(v)
        for i, o in enumerate(p.objects):
            if o not in truth_sets:
                first = p.start[i]
                best = first + int(np.argmax(scores[first : first + int(p.nV[i])]))
                truth_sets[o] = {cand["value"].iloc[best]}
        hit = [v in truth_sets[o] for o, v in zip(records["object"], records["value"])]
        num_r = np.bincount(agent, np.asarray(hit, dtype=float), minlength=A)
        new_rho = np.clip((num_r + 2.0) / (n_claims + 4.0), 0.05, 0.95)
        new_spec = np.clip(1 - (n_claims - num_r + 1.0) / (n_claims + 4.0), 0.05, 0.95)
        if np.allclose(new_rho, rho, atol=1e-6) and np.allclose(new_spec, spec, atol=1e-6):
            rho, spec = new_rho, new_spec
            break
        rho, spec = new_rho, new_spec
    return truth_sets


class TestCRH:
    def test_simple_consensus(self):
        assert crh(SIMPLE).truth_map() == {"o1": "a", "o2": "x", "o3": "p"}

    def test_reliable_source_gets_weight(self, ds, gold):
        res = crh(ds.records)
        assert M.accuracy(res.truths, gold) > M.accuracy(vote(ds.records).truths, gold) - 0.1

    def test_numeric_converges(self):
        recs = pd.DataFrame(
            [("o1", "s1", "10.0"), ("o1", "s2", "10.1"), ("o1", "s3", "200.0")],
            columns=["object", "source", "value"],
        )
        t = crh_numeric(recs).truth_map()["o1"]
        assert 9 < float(t) < 80  # pulled toward the cluster, not the outlier

    @pytest.mark.parametrize("with_answers", [False, True])
    def test_matches_reference(self, ds, answers, with_answers):
        ans = answers if with_answers else None
        res = crh(ds.records, ans)
        truths, mu = _ref_crh(ds.records, ans)
        assert res.truths.equals(truths)
        assert res.mu.equals(mu)


def _ref_pair_dependence(
    claims: pd.DataFrame,
    truth_map: dict[str, str],
    acc: pd.Series,
    *,
    copy_prob: float,
    dep_prior: float,
    min_shared: int = 3,
) -> dict[tuple[str, str], float]:
    """ACCU's source-pair dependence as a per-object Python loop over
    name-keyed pair counts: the reference for the claim-pair counts."""
    by_obj = claims.groupby("object")
    pair_stats: dict[tuple[str, str], list[int]] = {}
    for o, grp in by_obj:
        t = truth_map.get(o)
        rows = list(zip(grp["source"], grp["value"]))
        for (s1, v1), (s2, v2) in itertools.combinations(sorted(rows), 2):
            key = (s1, s2)
            st = pair_stats.setdefault(key, [0, 0, 0])  # kt, kf, kd
            if v1 == v2:
                st[0 if v1 == t else 1] += 1
            else:
                st[2] += 1
    nbar = max(2.0, claims.groupby("object")["value"].nunique().mean())
    out: dict[tuple[str, str], float] = {}
    for (s1, s2), (kt, kf, kd) in pair_stats.items():
        if kt + kf + kd < min_shared:
            continue
        a1 = float(np.clip(acc.get(s1, 0.8), 0.05, 0.95))
        a2 = float(np.clip(acc.get(s2, 0.8), 0.05, 0.95))
        same_t_i = a1 * a2
        same_f_i = (1 - a1) * (1 - a2) / nbar
        diff_i = max(1e-6, 1 - same_t_i - same_f_i)
        c = copy_prob
        same_t_d = c * a1 + (1 - c) * same_t_i
        same_f_d = c * (1 - a1) + (1 - c) * same_f_i
        diff_d = max(1e-6, (1 - c) * diff_i)
        ll_i = kt * np.log(same_t_i) + kf * np.log(same_f_i) + kd * np.log(diff_i)
        ll_d = kt * np.log(same_t_d) + kf * np.log(same_f_d) + kd * np.log(diff_d)
        m = max(ll_i, ll_d)
        li, ld = np.exp(ll_i - m), np.exp(ll_d - m)
        out[(s1, s2)] = float(dep_prior * ld / (dep_prior * ld + (1 - dep_prior) * li))
    return out


def _ref_discount(claims: pd.DataFrame, dep: dict, acc: pd.Series, copy_prob: float) -> np.ndarray:
    """The copy discount as a loop over (object, value) groups, each ranked
    by a stable sort on −accuracy (ties → claim order)."""
    indep = np.ones(len(claims))
    if dep:
        a_row = claims["source"].map(acc)
        for _, grp in claims.assign(acc=a_row).groupby(["object", "value"]):
            if len(grp) < 2:
                continue
            order = grp.sort_values("acc", ascending=False, kind="stable")
            seen: list[str] = []
            for idx, s in zip(order.index, order["source"]):
                w = 1.0
                for s2 in seen:
                    key = (min(s, s2), max(s, s2))
                    w *= 1.0 - copy_prob * dep.get(key, 0.0)
                indep[idx] = w
                seen.append(s)
    return indep


def _ref_accu(records, answers, *, popularity, max_iter=10, copy_prob=0.8, dep_prior=0.1):
    """ACCU/POPACCU with :func:`_ref_pair_dependence` and
    :func:`_ref_discount`, and the truths of each iteration read from a
    pandas argmax."""
    layout = ClaimLayout(records, answers)
    claims, sources = layout.claims, layout.sources
    acc = pd.Series(0.8, index=sources)
    row, cand, eq = layout.grid
    p = layout.problem
    if popularity:
        q = p.cnt[layout.cid[row]] / np.clip(p.S[p.obj_of_cand[cand]] - p.cnt[cand], 1.0, None)
    else:
        q = 1.0 / np.clip(p.nV[p.obj_of_cand[cand]] - 1.0, 1.0, None)
    truth_map: dict[str, str] = {}
    dep: dict[tuple[str, str], float] = {}
    indep = np.ones(len(claims))
    for it in range(max_iter):
        if it > 0:
            dep = _ref_pair_dependence(
                claims, truth_map, acc, copy_prob=copy_prob, dep_prior=dep_prior
            )
            indep = _ref_discount(claims, dep, acc, copy_prob)
        a_s = np.clip(acc.to_numpy()[layout.src[row]], 0.01, 0.99)
        lik = np.where(eq, a_s, (1.0 - a_s) * np.clip(q, 1e-12, None))
        post = layout.posterior(np.log(lik) * indep[row])
        mu = layout.mu(post)
        truths = argmax_truths(mu)
        truth_map = dict(zip(truths["object"], truths["value"]))
        cp = pd.Series(post[layout.cid], index=claims.index)
        new_acc = (cp.groupby(claims["source"]).sum() + 1.0) / (
            cp.groupby(claims["source"]).size() + 2.0
        )
        new_acc = new_acc.reindex(sources).fillna(0.8)
        if float((new_acc - acc).abs().max()) < 1e-6:
            acc = new_acc
            break
        acc = new_acc
    return truths, mu, acc, dep


def _tied_copiers(n: int = 20) -> pd.DataFrame:
    """``n`` sources that all claim "v" on object o0 and disagree in
    varying patterns on o1..o4 (so every pair of them shares 5 objects,
    with different counts), plus "x", "y" and "z" on o0 and o5, of which
    "x" and "z" also share o6; rows shuffled so that claim order is not
    source order."""
    rows = [(o, s, "v") for o in ("o0", "o5") for s in "xyz"]
    rows += [("o6", "x", "c"), ("o6", "z", "d")]
    for i in range(n):
        rows.append(("o0", f"s{i:02d}", "v"))
        rows += [(f"o{k}", f"s{i:02d}", str(i * k % (k + 1))) for k in range(1, 5)]
    recs = pd.DataFrame(rows, columns=["object", "source", "value"])
    return recs.sample(frac=1.0, random_state=0).reset_index(drop=True)


class TestAccu:
    def test_consensus(self):
        assert accu(SIMPLE, detect_dependence=False).truth_map()["o3"] == "p"

    def test_popaccu_consensus(self):
        assert popaccu(SIMPLE, detect_dependence=False).truth_map()["o3"] == "p"

    def test_accuracy_estimates_exposed(self):
        res = accu(SIMPLE)
        assert set(res.extras["accuracy"].index) == {"s1", "s2", "s3"}
        assert ((res.extras["accuracy"] > 0) & (res.extras["accuracy"] < 1)).all()

    def test_copier_detected(self):
        """A source that always copies another (including its mistakes)
        should yield a high pairwise dependence probability."""
        rows = []
        for i in range(12):
            o = f"o{i}"
            good = "v" if i % 3 else "wrong"
            rows += [
                (o, "orig", good),
                (o, "copy", good),
                (o, "indep1", "v"),
                (o, "indep2", "v"),
                (o, "indep3", "v"),
            ]
        recs = pd.DataFrame(rows, columns=["object", "source", "value"])
        res = accu(recs)
        dep = res.extras["dependence"]
        assert dep.get(("copy", "orig"), 0.0) > 0.5
        # independents sharing only true values stay independent
        assert dep.get(("indep1", "indep2"), 0.0) < 0.5

    def test_worker_accuracy_reported(self):
        answers = pd.DataFrame(
            [("o1", "w1", "a"), ("o2", "w1", "x")], columns=["object", "worker", "value"]
        )
        res = accu(SIMPLE, answers)
        assert list(res.worker_accuracy["worker"]) == ["w1"]

    @pytest.mark.parametrize("popularity", [False, True], ids=["ACCU", "POPACCU"])
    @pytest.mark.parametrize("with_answers", [False, True], ids=["records", "answers"])
    def test_matches_reference(self, ds, answers, popularity, with_answers):
        ans = answers if with_answers else None
        fit = popaccu if popularity else accu
        res = fit(ds.records, ans)
        truths, mu, acc, dep = _ref_accu(ds.records, ans, popularity=popularity)
        assert res.extras["dependence"] == dep and len(dep) > 0
        assert res.extras["accuracy"].equals(acc)
        assert res.mu.equals(mu)
        assert res.truths.equals(truths)

    def test_tied_discount_follows_claim_order(self):
        """More than 16 equally accurate sources on one candidate, where
        pandas' default sort is no longer stable: the weights equal the
        loop's under (−accuracy, claim order)."""
        layout = ClaimLayout(_tied_copiers(), None)
        p = layout.problem
        truth_map = dict(zip(p.objects, p.cand["value"][p.start]))  # first candidates
        acc = pd.Series(0.6, index=layout.sources)
        acc["x"] = 0.9
        dep = _ref_pair_dependence(layout.claims, truth_map, acc, copy_prob=0.8, dep_prior=0.1)
        assert len(set(dep.values())) > 1  # so the tie order changes the weights
        a, b = _claim_pairs(layout)
        same = layout.cid[a] == layout.cid[b]
        a, b = a[same], b[same]
        names = np.asarray(layout.sources)
        pairs = zip(names[layout.src[a]], names[layout.src[b]])
        factor = np.array([1.0 - 0.8 * dep.get(pair, 0.0) for pair in pairs])
        w = _discount(layout, a, b, factor, acc.to_numpy())
        np.testing.assert_array_equal(w, _ref_discount(layout.claims, dep, acc, 0.8))

    def test_pair_below_min_shared_untested(self):
        recs = _tied_copiers()
        res = accu(recs)
        dep = res.extras["dependence"]
        assert ("x", "y") not in dep and ("y", "z") not in dep  # 2 shared objects
        assert ("x", "z") in dep and ("s00", "s01") in dep  # 3 and 5
        truths, mu, acc, ref_dep = _ref_accu(recs, None, popularity=False)
        assert dep == ref_dep
        assert res.mu.equals(mu) and res.truths.equals(truths)


class TestLCA:
    def test_consensus(self):
        assert lca(SIMPLE).truth_map()["o3"] == "p"

    def test_honesty_in_range(self):
        res = lca(SIMPLE)
        h = res.extras["honesty"]["honesty"]
        assert ((h >= 0.01) & (h <= 0.99)).all()

    def test_mu_normalized(self, ds):
        res = lca(ds.records)
        assert np.allclose(res.mu.groupby("object")["mu"].sum(), 1.0)


class TestLFC:
    def test_consensus(self):
        assert lfc(SIMPLE).truth_map()["o3"] == "p"

    def test_multi_truth_includes_argmax(self):
        out = lfc_mt(SIMPLE, threshold=0.99)
        assert all(len(v) >= 1 for v in out.values())

    def test_multi_truth_threshold_widens_sets(self):
        tight = lfc_mt(SIMPLE, threshold=0.9)
        loose = lfc_mt(SIMPLE, threshold=0.05)
        assert sum(map(len, loose.values())) >= sum(map(len, tight.values()))


def _ref_lfc_fit(layout: ClaimLayout, *, max_iter: int = 50, tol: float = 1e-6, smooth: float = 0.3):
    """LFC's ``_fit`` with its two sums as ``np.add.at``, the form the
    bincounts replaced."""
    p = layout.problem
    nK = p.nV.astype(np.int64)
    K, S = int(nK.max()), len(layout.sources)
    c_obj, c_src = p.obj_of_cand[layout.cid], layout.src
    c_pos = layout.cid - p.start[c_obj]
    pi = np.full((S, K, K), 0.3 / max(1, K - 1))
    for j in range(K):
        pi[:, j, j] = 0.7
    mask = np.arange(K)[None, :] < nK[:, None]
    mu = np.where(mask, 1.0, 0.0)
    mu = mu / mu.sum(axis=1, keepdims=True)
    for _ in range(max_iter):
        log_mu = np.where(mask, 0.0, -np.inf)
        np.add.at(log_mu, c_obj, np.log(np.clip(pi[c_src, :, c_pos], 1e-300, None)))
        new_mu = np.exp(log_mu - log_mu.max(axis=1, keepdims=True)) * mask
        new_mu /= new_mu.sum(axis=1, keepdims=True)
        num = np.full((S, K, K), smooth)
        np.add.at(num, (c_src, slice(None), c_pos), new_mu[c_obj])
        pi = num / num.sum(axis=2, keepdims=True)
        done = float(np.max(np.abs(new_mu - mu))) < tol
        mu = new_mu
        if done:
            break
    post = mu[p.obj_of_cand, np.arange(len(p.cand)) - p.start[p.obj_of_cand]]
    return post, pi[:, np.arange(K), np.arange(K)].mean(axis=1)


@pytest.mark.parametrize("with_answers", [False, True], ids=["sources", "answers"])
def test_lfc_fit_equals_the_add_at_form(ds, answers, with_answers):
    """The bincounts add each bin's terms in the order ``np.add.at`` did,
    the smoothing constant first, so the posterior and the diagonals are
    the same to the bit."""
    layout = ClaimLayout(ds.records, answers if with_answers else None)
    for kw in ({}, {"max_iter": 3}):
        got, want = lfc_module._fit(layout, **kw), _ref_lfc_fit(layout, **kw)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestMDC:
    def test_consensus(self):
        assert mdc(SIMPLE).truth_map()["o3"] == "p"

    def test_runs_on_real_data(self, ds, gold):
        res = mdc(ds.records)
        assert M.accuracy(res.truths, gold) > 0.5


def _ref_object_domains(records, hierarchy):
    """``object_domains`` as a pandas plurality pick and a walk up the
    parents per object, the form it had before the depth-1 lookup per
    distinct value."""

    def top(v):
        if v not in hierarchy or v == hierarchy.root:
            return "_other"
        while hierarchy.depth(v) > 1:
            v = hierarchy.parent(v)
        return v

    counts = (
        records.groupby(["object", "value"]).size().rename("n").reset_index()
        .sort_values(["object", "n", "value"], ascending=[True, False, True])
    )
    plural = counts.groupby("object").head(1)
    return {o: top(v) for o, v in zip(plural["object"], plural["value"])}


class TestDOCS:
    def test_domains_are_top_level(self, ds):
        doms = object_domains(ds.records, ds.hierarchy)
        for d in doms.values():
            assert d == "_other" or ds.hierarchy.depth(d) == 1

    @pytest.mark.parametrize("make", [birthplaces_lite, heritages_lite], ids=["birthplaces", "heritages"])
    def test_domains_equal_the_walk(self, make):
        ds = make(sf=0.1, seed=0)
        got = object_domains(ds.records, ds.hierarchy)
        assert got == _ref_object_domains(ds.records, ds.hierarchy)
        assert all(type(d) is str for d in got.values())

    def test_consensus(self, ds, gold):
        res = docs(ds.records, hierarchy=ds.hierarchy)
        assert M.accuracy(res.truths, gold) > 0.5

    def test_domain_quality_exposed(self, ds):
        res = docs(ds.records, hierarchy=ds.hierarchy)
        assert len(res.extras["domain_quality"]) > 0


class TestASUMS:
    def test_consensus(self, ds, gold):
        res = asums(ds.records, hierarchy=ds.hierarchy)
        assert M.accuracy(res.truths, gold) > 0.4

    def test_threshold_controls_granularity(self, ds):
        """Lower threshold → more specific (deeper) estimates on average."""
        deep = asums(ds.records, hierarchy=ds.hierarchy, threshold=0.2)
        shallow = asums(ds.records, hierarchy=ds.hierarchy, threshold=0.95)
        d_deep = np.mean([ds.hierarchy.depth(v) for v in deep.truths["value"]])
        d_shallow = np.mean([ds.hierarchy.depth(v) for v in shallow.truths["value"]])
        assert d_deep >= d_shallow

    @pytest.mark.parametrize("case", ["hand", "dataset"])
    def test_pairs_read_off_the_hierarchy(self, monkeypatch, ds, answers, case):
        """``asums`` walks its candidate ancestor pairs on ``hierarchy``: the
        same pairs, truths and mu as a layout compiled from the
        :func:`hierarchical_ancestor_pairs` frame, and the pairs matter (a
        layout without them gives other truths)."""
        if case == "hand":  # NY and LA claims support USA; Paris is outside the tree
            h = Hierarchy({"ROOT": None, "USA": "ROOT", "NY": "USA", "LA": "USA", "UK": "ROOT", "London": "UK"})
            records = pd.DataFrame(
                [("o1", "s1", "NY"), ("o1", "s2", "USA"), ("o1", "s3", "LA"), ("o2", "s1", "London")]
                + [("o2", "s2", "UK"), ("o2", "s3", "UK"), ("o3", "s1", "Paris"), ("o3", "s2", "NY")],
                columns=["object", "source", "value"],
            )
            answers = pd.DataFrame([("o1", "w1", "NY"), ("o2", "w1", "London")], columns=["object", "worker", "value"])
        else:
            h, records = ds.hierarchy, ds.records
        frame = hierarchical_ancestor_pairs(candidate_sets(records), h)
        for ans in (None, answers):
            got = asums(records, ans, hierarchy=h)
            p = ClaimLayout(records, ans, h).problem
            want = compile_problem(fold_answers(records, ans), frame)
            assert len(p.anc) and np.array_equal(p.anc, want.anc) and np.array_equal(p.gen_cnt, want.gen_cnt)
            for pairs, same in ((frame, True), (frame.iloc[:0], False)):
                with monkeypatch.context() as m:
                    m.setattr(claims_module, "compile_problem", lambda claims, _: compile_problem(claims, pairs))
                    ref = asums(records, ans, hierarchy=h)
                assert ref.truths.equals(got.truths) is same
                assert ref.mu.equals(got.mu) is same


class TestMultiTruth:
    def test_ltm_outputs_nonempty_sets(self, ds):
        out = ltm(ds.records, n_sweeps=20, burn_in=5)
        assert set(out) == set(ds.records["object"].unique())
        assert all(len(v) >= 1 for v in out.values())

    def test_ltm_deterministic_given_seed(self, ds):
        a = ltm(ds.records, n_sweeps=10, burn_in=2, seed=1)
        b = ltm(ds.records, n_sweeps=10, burn_in=2, seed=1)
        assert a == b

    def test_dart_high_recall(self, ds, gold):
        out = M.expand_prediction_sets(
            dart(ds.records, hierarchy=ds.hierarchy), ds.hierarchy
        )
        _, recall, _ = M.multi_truth_prf(out, gold, ds.hierarchy)
        assert recall > 0.5

    def test_dart_all_objects_covered(self, ds):
        out = dart(ds.records, hierarchy=ds.hierarchy)
        assert set(out) == set(ds.records["object"].unique())

    def test_dart_matches_reference(self, ds):
        assert dart(ds.records, hierarchy=ds.hierarchy) == _ref_dart(
            ds.records, hierarchy=ds.hierarchy
        )

    def test_dart_falls_back_to_argmax(self):
        """o1's three claims disagree, so no candidate reaches the
        threshold and its set is its best-scoring value; o2's agree."""
        h = Hierarchy(
            {"ROOT": None, "A": "ROOT", "B": "ROOT", "a1": "A", "a2": "A", "a3": "A", "b1": "B"}
        )
        recs = pd.DataFrame(
            [
                ("o1", "s1", "a1"), ("o1", "s2", "a2"), ("o1", "s3", "a3"),
                ("o2", "s1", "b1"), ("o2", "s2", "b1"), ("o2", "s3", "b1"),
            ],
            columns=["object", "source", "value"],
        )
        out = dart(recs, hierarchy=h, threshold=0.9)
        assert out == {"o1": {"a1"}, "o2": {"b1"}}
        assert out == _ref_dart(recs, hierarchy=h, threshold=0.9)


class TestNumericBaselines:
    def test_chi2_quantile_accuracy(self):
        # reference values from scipy.stats.chi2.ppf(0.025, df)
        assert chi2_quantile(-1.96, 10) == pytest.approx(3.247, rel=0.05)
        assert chi2_quantile(-1.96, 50) == pytest.approx(32.357, rel=0.02)

    def test_mean(self):
        recs = pd.DataFrame(
            [("o1", "s1", "1.0"), ("o1", "s2", "3.0")], columns=["object", "source", "value"]
        )
        assert mean_baseline(recs).truth_map()["o1"] == pytest.approx(2.0)

    def test_catd_downweights_outlier_source(self):
        rows = []
        for i in range(10):
            rows += [
                (f"o{i}", "good1", "10.0"),
                (f"o{i}", "good2", "10.0"),
                (f"o{i}", "bad", "1000.0"),
            ]
        recs = pd.DataFrame(rows, columns=["object", "source", "value"])
        est = catd(recs).truth_map()["o0"]
        assert abs(est - 10.0) < 5.0


@pytest.fixture(scope="module")
def answers(ds):
    """Answers with several on one object, appended out of object order."""
    cand = candidate_sets(ds.records)
    multi = cand.groupby("object").size()
    busy = multi[multi > 2].index[0]
    values = cand.loc[cand["object"] == busy, "value"].tolist()
    rows = [(busy, f"w{i}", values[i % len(values)]) for i in range(4)]
    for i, o in enumerate(sorted(cand["object"].unique(), reverse=True)[:12]):
        rows.append((o, f"w{i % 3}", cand.loc[cand["object"] == o, "value"].iloc[-1]))
    return pd.DataFrame(rows, columns=["object", "worker", "value"])


def _naive_grid(claims: pd.DataFrame):
    """The claim × candidate double loop over a ``cid_of`` dict the
    baselines each carried before they shared :class:`ClaimLayout`."""
    cand = (
        claims[["object", "value"]]
        .drop_duplicates()
        .sort_values(["object", "value"])
        .reset_index(drop=True)
    )
    cid_of = {(o, v): c for c, (o, v) in enumerate(zip(cand["object"], cand["value"]))}
    cands_by_obj = {o: g.index.to_numpy() for o, g in cand.groupby("object")}
    rows, cids, eq = [], [], []
    for i, (o, v) in enumerate(zip(claims["object"], claims["value"])):
        for c in cands_by_obj[o]:
            rows.append(i)
            cids.append(c)
            eq.append(c == cid_of[(o, v)])
    return cand, np.asarray(rows), np.asarray(cids), np.asarray(eq)


def _loop_select(mu: pd.DataFrame, depth_of: dict, threshold: float) -> pd.DataFrame:
    """ASUMS's per-object truth selection as a pandas loop."""
    rows = []
    for o, grp in mu.groupby("object", sort=True):
        ok = grp[grp["mu"] >= threshold * grp["mu"].max()].copy()
        ok["depth"] = ok["value"].map(depth_of)
        ok = ok.sort_values(["depth", "mu", "value"], ascending=[False, False, True])
        rows.append((o, ok.iloc[0]["value"]))
    return pd.DataFrame(rows, columns=["object", "value"])


class TestClaimLayout:
    def test_fold_appends_answers_as_worker_sources(self, ds, answers):
        claims = fold_answers(ds.records, answers)
        n = len(ds.records)
        cols = ["object", "source", "value"]
        assert claims.iloc[:n].equals(ds.records[cols].reset_index(drop=True))
        tail = claims.iloc[n:].reset_index(drop=True)
        assert tail.equals(answers.assign(source="w:" + answers["worker"])[cols])

    def test_grid_matches_double_loop(self, ds, answers):
        layout = ClaimLayout(ds.records, answers)
        cand, rows, cids, eq = _naive_grid(layout.claims)
        assert layout.problem.cand.equals(cand)
        row, grid_cand, grid_eq = layout.grid
        np.testing.assert_array_equal(row, rows)
        np.testing.assert_array_equal(grid_cand, cids)
        np.testing.assert_array_equal(grid_eq, eq)

    def test_posterior_matches_groupby_logsumexp(self, ds, answers):
        layout = ClaimLayout(ds.records, answers)
        _, cand, _ = layout.grid
        # dyadic log-likelihoods sum exactly in any order, so the check is
        # on the grouping and the normalisation, not on summation rounding
        ll = -np.random.default_rng(0).integers(0, 64, len(cand)) / 8.0
        post = layout.posterior(ll)
        log_lik = pd.Series(ll).groupby(cand).sum().to_numpy()
        by_obj = pd.Series(log_lik).groupby(layout.problem.cand["object"])
        e = np.exp(log_lik - by_obj.transform("max"))  # log-sum-exp: shift by the max
        expected = e / e.groupby(layout.problem.cand["object"]).transform("sum")
        np.testing.assert_allclose(post, expected, rtol=0, atol=1e-15)
        sums = np.bincount(layout.problem.obj_of_cand, post)
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "fit",
        [
            lambda r, a, ds: lca(r, a),
            lambda r, a, ds: docs(r, a, hierarchy=ds.hierarchy),
            lambda r, a, ds: mdc(r, a),
            lambda r, a, ds: accu(r, a),
            lambda r, a, ds: popaccu(r, a),
            lambda r, a, ds: asums(r, a, hierarchy=ds.hierarchy),
            lambda r, a, ds: vote(r, a),
            lambda r, a, ds: crh(r, a),
        ],
        ids=["LCA", "DOCS", "MDC", "ACCU", "POPACCU", "ASUMS", "VOTE", "CRH"],
    )
    @pytest.mark.parametrize("where", ["records", "answers"])
    def test_repeated_pair_rejected(self, ds, answers, fit, where):
        records, ans = ds.records, answers
        if where == "records":
            records = pd.concat([records, records.iloc[:1]], ignore_index=True)
        else:
            ans = pd.concat([ans, ans.iloc[:1]], ignore_index=True)
        with pytest.raises(ValueError, match="at most one claim"):
            fit(records, ans, ds)


class TestASUMSSelection:
    @pytest.mark.parametrize("threshold", [0.2, 0.4, 0.95])
    def test_matches_loop(self, ds, answers, threshold):
        res = asums(ds.records, answers, hierarchy=ds.hierarchy, threshold=threshold)
        depth_of = {v: ds.hierarchy.depth(v) for v in res.mu["value"]}
        assert res.truths.equals(_loop_select(res.mu, depth_of, threshold))

    def test_matches_loop_with_depth_of(self, ds):
        # few distinct depths, so the belief and value tie-breaks decide
        depth_of = {v: len(v) % 3 for v in ds.records["value"].unique()}
        res = asums(ds.records, hierarchy=ds.hierarchy)
        p = ClaimLayout(ds.records, None, ds.hierarchy).problem
        truths = select_truths(p, res.mu["mu"].to_numpy(), depth_of, 0.4)
        assert truths.equals(_loop_select(res.mu, depth_of, 0.4))

    def test_ties_break_to_smallest_value(self):
        recs = pd.DataFrame(
            [("o1", "s1", "b"), ("o1", "s2", "a"), ("o2", "s1", "a"), ("o2", "s2", "b")],
            columns=["object", "source", "value"],
        )
        depth_of = {"a": 0, "b": 0}
        h = Hierarchy({"ROOT": None, "a": "ROOT", "b": "ROOT"})
        res = asums(recs, hierarchy=h)
        p = ClaimLayout(recs, None, h).problem
        truths = select_truths(p, res.mu["mu"].to_numpy(), depth_of, 0.4)
        assert dict(zip(truths["object"], truths["value"])) == {"o1": "a", "o2": "a"}
        assert truths.equals(_loop_select(res.mu, depth_of, 0.4))

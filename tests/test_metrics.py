"""Tests for the paper's quality measures (§5)."""
import itertools

import numpy as np
import pandas as pd
import pytest

from repro.baselines.vote import vote
from repro.core.candidates import argmax_cids, candidate_sets, compile_problem, hierarchical_ancestor_pairs
from repro.core.tdh_local import TDH
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
        }
    )


def _truths(d):
    return pd.DataFrame({"object": list(d), "value": list(d.values())})


def _gold(d):
    return pd.DataFrame({"object": list(d), "truth": list(d.values())})


class TestAccuracy:
    def test_exact(self, h):
        assert M.accuracy(_truths({"o1": "NY"}), _gold({"o1": "NY"})) == 1.0

    def test_ancestor_not_exact(self, h):
        assert M.accuracy(_truths({"o1": "USA"}), _gold({"o1": "NY"})) == 0.0

    def test_fraction(self, h):
        t = _truths({"o1": "NY", "o2": "LA"})
        g = _gold({"o1": "NY", "o2": "London"})
        assert M.accuracy(t, g) == 0.5

    def test_missing_estimate_counts_wrong(self, h):
        assert M.accuracy(_truths({}), _gold({"o1": "NY"})) == 0.0


class TestGenAccuracy:
    def test_exact_counts(self, h):
        assert M.gen_accuracy(_truths({"o1": "NY"}), _gold({"o1": "NY"}), h) == 1.0

    def test_ancestor_counts(self, h):
        assert M.gen_accuracy(_truths({"o1": "USA"}), _gold({"o1": "LibertyIsland"}), h) == 1.0

    def test_descendant_does_not_count(self, h):
        assert M.gen_accuracy(_truths({"o1": "LibertyIsland"}), _gold({"o1": "NY"}), h) == 0.0

    def test_unrelated_zero(self, h):
        assert M.gen_accuracy(_truths({"o1": "UK"}), _gold({"o1": "NY"}), h) == 0.0

    def test_at_least_accuracy(self, h):
        t = _truths({"o1": "USA", "o2": "LA"})
        g = _gold({"o1": "NY", "o2": "LA"})
        assert M.gen_accuracy(t, g, h) >= M.accuracy(t, g)


class TestAvgDistance:
    def test_zero_when_exact(self, h):
        assert M.avg_distance(_truths({"o1": "NY"}), _gold({"o1": "NY"}), h) == 0.0

    def test_parent_distance_one(self, h):
        assert M.avg_distance(_truths({"o1": "USA"}), _gold({"o1": "NY"}), h) == 1.0

    def test_cross_branch(self, h):
        # LibertyIsland -> NY -> USA -> LA = 3 edges
        assert M.avg_distance(_truths({"o1": "LA"}), _gold({"o1": "LibertyIsland"}), h) == 3.0

    def test_averages(self, h):
        t = _truths({"o1": "NY", "o2": "USA"})
        g = _gold({"o1": "NY", "o2": "NY"})
        assert M.avg_distance(t, g, h) == 0.5

    def test_missing_estimate_worst_case(self, h):
        assert M.avg_distance(_truths({}), _gold({"o1": "NY"}), h) == h.height


class TestGoldMapping:
    def test_truth_in_candidates_kept(self, h):
        cand = pd.DataFrame({"object": ["o1", "o1"], "value": ["NY", "LA"]})
        out = M.map_gold_to_candidates(_gold({"o1": "NY"}), cand, h)
        assert out["truth"].iloc[0] == "NY"

    def test_maps_to_most_specific_ancestor(self, h):
        cand = pd.DataFrame({"object": ["o1", "o1"], "value": ["USA", "NY"]})
        out = M.map_gold_to_candidates(_gold({"o1": "LibertyIsland"}), cand, h)
        assert out["truth"].iloc[0] == "NY"

    def test_no_ancestor_keeps_raw(self, h):
        cand = pd.DataFrame({"object": ["o1"], "value": ["UK"]})
        out = M.map_gold_to_candidates(_gold({"o1": "NY"}), cand, h)
        assert out["truth"].iloc[0] == "NY"



def _per_object_scores(truths, gold, h):
    return M.accuracy(truths, gold), M.gen_accuracy(truths, gold, h), M.avg_distance(truths, gold, h)


class TestGoldScorer:
    """The gather scores of the round loop equal the per-object metrics."""

    RECORDS = pd.DataFrame(
        [
            ("o1", "s1", "NY"), ("o1", "s2", "USA"), ("o1", "s3", "Atlantis"),
            ("o2", "s1", "USA"), ("o2", "s2", "UK"),
            ("o3", "s1", "NY"), ("o3", "s2", "LA"),
            ("o4", "s1", "London"), ("o4", "s2", "Atlantis"),
            ("o5", "s1", "LA"),
        ],
        columns=["object", "source", "value"],
    )
    # o2's truth maps to its candidate ancestor USA; o3's (London) has no
    # candidate ancestor and stays raw; o4's is not in the hierarchy; o5 has
    # no gold row; o6 has a gold row but no records, so it never has a truth.
    GOLD = _gold(
        {"o1": "LibertyIsland", "o2": "LibertyIsland", "o3": "London", "o4": "Atlantis", "o6": "LA"}
    )

    @pytest.fixture()
    def setup(self, h):
        cand = candidate_sets(self.RECORDS)
        p = compile_problem(self.RECORDS, hierarchical_ancestor_pairs(cand, h))
        gold = M.map_gold_to_candidates(self.GOLD, cand, h)
        assert gold.set_index("object")["truth"].to_dict() == {
            "o1": "NY", "o2": "USA", "o3": "London", "o4": "Atlantis", "o6": "LA"
        }
        return p, gold, M.gold_scorer(p, gold, h)

    def test_every_choice_of_truths(self, h, setup):
        p, gold, score = setup
        per_object = p.cand.groupby("object")["value"].agg(list)
        for choice in itertools.product(*per_object):
            truths = _truths(dict(zip(per_object.index, choice)))
            for dropped in [None, *truths["object"]]:  # a gold object without a truth
                t = truths[truths["object"] != dropped]
                assert score(M.truth_cids(p, t)) == _per_object_scores(t, gold, h)

    def test_unmapped_gold_frame(self, h, setup):
        p, _, _ = setup
        score = M.gold_scorer(p, self.GOLD, h)
        truths = _truths({"o1": "USA", "o2": "USA", "o3": "LA", "o4": "London"})
        assert score(M.truth_cids(p, truths)) == _per_object_scores(truths, self.GOLD, h)

    def test_baseline_truths(self, h, setup):
        p, gold, score = setup
        answers = pd.DataFrame(
            [("o1", "w1", "NY"), ("o1", "w2", "NY"), ("o3", "w1", "LA"), ("o4", "w1", "Atlantis")],
            columns=["object", "worker", "value"],
        )
        for ans in (None, answers):
            truths = vote(self.RECORDS, ans).truths
            assert score(M.truth_cids(p, truths)) == _per_object_scores(truths, gold, h)

    def test_non_candidate_truth_rejected(self, setup):
        p, _, _ = setup
        with pytest.raises(ValueError, match="not a candidate"):
            M.truth_cids(p, _truths({"o1": "NY", "o2": "LA"}))
        with pytest.raises(ValueError, match="not a candidate"):
            M.truth_cids(p, _truths({"o9": "NY"}))

    @pytest.mark.parametrize("sf", [0.01, 0.05])
    def test_generated_dataset(self, sf):
        ds = birthplaces_lite(sf=sf, seed=3)
        cand = candidate_sets(ds.records)
        anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
        p = compile_problem(ds.records, anc)
        gold = M.map_gold_to_candidates(ds.gold, cand, ds.hierarchy)
        score = M.gold_scorer(p, gold, ds.hierarchy)
        fit = TDH(max_iter=20).fit_problem(p, None)
        for truths in (
            fit.truths,
            vote(ds.records).truths,
            vote(ds.records).truths.sample(frac=0.5, random_state=0),
        ):
            assert score(M.truth_cids(p, truths)) == _per_object_scores(truths, gold, ds.hierarchy)
        # a TDH fit's truths by name are its argmax cids, which the round loop scores
        assert np.array_equal(M.truth_cids(p, fit.truths), argmax_cids(p, fit.mu["mu"].to_numpy()))


class TestMultiTruth:
    def test_expand(self, h):
        assert M.expand_with_ancestors("LibertyIsland", h) == {
            "LibertyIsland",
            "NY",
            "USA",
        }

    def test_expand_root_excluded(self, h):
        assert ROOT not in M.expand_with_ancestors("LibertyIsland", h)

    def test_perfect(self, h):
        pred = {"o1": {"LibertyIsland", "NY", "USA"}}
        p, r, f1 = M.multi_truth_prf(pred, _gold({"o1": "LibertyIsland"}), h)
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_generalized_high_precision_low_recall(self, h):
        pred = {"o1": {"USA"}}
        p, r, f1 = M.multi_truth_prf(pred, _gold({"o1": "LibertyIsland"}), h)
        assert p == 1.0 and r == pytest.approx(1 / 3)

    def test_wrong_value_hurts_precision(self, h):
        pred = {"o1": {"UK", "NY", "USA", "LibertyIsland"}}
        p, r, _ = M.multi_truth_prf(pred, _gold({"o1": "LibertyIsland"}), h)
        assert p == 0.75 and r == 1.0

    def test_empty_prediction(self, h):
        p, r, f1 = M.multi_truth_prf({}, _gold({"o1": "NY"}), h)
        assert (p, r, f1) == (0.0, 0.0, 0.0)


class TestNumericMetrics:
    def test_mae(self):
        t = pd.DataFrame({"object": ["o1", "o2"], "value": [1.0, 3.0]})
        g = pd.DataFrame({"object": ["o1", "o2"], "truth": [1.0, 2.0]})
        mae, re_ = M.mae_re(t, g)
        assert mae == 0.5
        assert re_ == pytest.approx(0.25)

    def test_relative_error_guards_zero_truth(self):
        t = pd.DataFrame({"object": ["o1"], "value": [0.1]})
        g = pd.DataFrame({"object": ["o1"], "truth": [0.0]})
        _, re_ = M.mae_re(t, g)
        assert re_ > 0

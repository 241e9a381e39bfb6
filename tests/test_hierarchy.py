"""Tests for the hierarchy substrate (tree, generator, numeric rules)."""
import numpy as np
import pandas as pd
import pytest

from repro.hierarchy import Hierarchy, generate_hierarchy
from repro.hierarchy.numeric import (
    decimal_places,
    is_numeric_ancestor,
    numeric_ancestor_pairs,
    rounds_to,
)
from repro.hierarchy.tree import ROOT


@pytest.fixture()
def geo() -> Hierarchy:
    # ROOT -> USA -> {NY -> {LibertyIsland, Brooklyn}, CA -> {LA}}, UK -> London
    return Hierarchy(
        {
            ROOT: None,
            "USA": ROOT,
            "UK": ROOT,
            "NY": "USA",
            "CA": "USA",
            "LibertyIsland": "NY",
            "Brooklyn": "NY",
            "LA": "CA",
            "London": "UK",
        }
    )


class TestHierarchyBasics:
    def test_root_detected(self, geo):
        assert geo.root == ROOT

    def test_single_root_enforced(self):
        with pytest.raises(ValueError):
            Hierarchy({"a": None, "b": None})

    def test_missing_parent_rejected(self):
        with pytest.raises(ValueError):
            Hierarchy({ROOT: None, "x": "nope"})

    def test_len_and_contains(self, geo):
        assert len(geo) == 9
        assert "NY" in geo and "Paris" not in geo

    def test_depth(self, geo):
        assert geo.depth(ROOT) == 0
        assert geo.depth("USA") == 1
        assert geo.depth("LibertyIsland") == 3

    def test_height(self, geo):
        assert geo.height == 3

    def test_children_sorted(self, geo):
        assert geo.children("USA") == ["CA", "NY"]

    def test_parent(self, geo):
        assert geo.parent("NY") == "USA"
        assert geo.parent(ROOT) is None

    def test_nodes_at_depth(self, geo):
        assert geo.nodes_at_depth(1) == ["UK", "USA"]


class TestAncestry:
    def test_ancestors_excludes_root_by_default(self, geo):
        assert geo.ancestors("LibertyIsland") == ["NY", "USA"]

    def test_ancestors_include_root(self, geo):
        assert geo.ancestors("LibertyIsland", include_root=True) == ["NY", "USA", ROOT]

    def test_ancestors_nearest_first(self, geo):
        assert geo.ancestors("LA") == ["CA", "USA"]

    def test_is_ancestor_true(self, geo):
        assert geo.is_ancestor("USA", "LibertyIsland")
        assert geo.is_ancestor("NY", "Brooklyn")

    def test_is_ancestor_not_reflexive(self, geo):
        assert not geo.is_ancestor("NY", "NY")

    def test_is_ancestor_not_symmetric(self, geo):
        assert not geo.is_ancestor("LibertyIsland", "NY")

    def test_is_ancestor_unrelated(self, geo):
        assert not geo.is_ancestor("UK", "LA")

    def test_is_ancestor_unknown_nodes(self, geo):
        assert not geo.is_ancestor("Mars", "LA")

    def test_lca(self, geo):
        assert geo.lca("LibertyIsland", "LA") == "USA"
        assert geo.lca("LibertyIsland", "Brooklyn") == "NY"
        assert geo.lca("LA", "London") == ROOT

    def test_lca_with_ancestor(self, geo):
        assert geo.lca("NY", "LibertyIsland") == "NY"

    def test_distance_symmetric(self, geo):
        # LibertyIsland->NY->USA->CA->LA = 4 edges
        assert geo.distance("LibertyIsland", "LA") == geo.distance("LA", "LibertyIsland") == 4

    def test_distance_zero(self, geo):
        assert geo.distance("NY", "NY") == 0

    def test_distance_parent_child(self, geo):
        assert geo.distance("NY", "Brooklyn") == 1


class TestClosure:
    def test_closure_excludes_root(self, geo):
        assert all(a != ROOT for _, a in geo.closure())

    def test_closure_contains_transitive(self, geo):
        assert ("LibertyIsland", "USA") in geo.closure()

    def test_closure_size(self, geo):
        # each node at depth d contributes d-1 non-root proper ancestors
        pairs = geo.closure()
        assert len(pairs) == sum(geo.depth(n) - 1 for n in geo.nodes if geo.depth(n) >= 1)


class TestGenerator:
    def test_deterministic(self):
        h1 = generate_hierarchy([3, 2, 2], seed=5, keep_prob=0.7)
        h2 = generate_hierarchy([3, 2, 2], seed=5, keep_prob=0.7)
        assert h1.nodes == h2.nodes

    def test_seed_changes_tree(self):
        h1 = generate_hierarchy([3, 2, 2], seed=5, keep_prob=0.7)
        h2 = generate_hierarchy([3, 2, 2], seed=6, keep_prob=0.7)
        assert h1.nodes != h2.nodes

    def test_full_tree_size(self):
        h = generate_hierarchy([3, 2, 2], seed=0, keep_prob=1.0)
        assert len(h) == 1 + 3 + 6 + 12

    def test_height_bound(self):
        h = generate_hierarchy([4, 3, 2, 2], seed=1)
        assert h.height == 4

    def test_level1_never_pruned(self):
        h = generate_hierarchy([5, 2], seed=2, keep_prob=0.3)
        assert len(h.nodes_at_depth(1)) == 5

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            generate_hierarchy([])

    def test_names_encode_path(self):
        h = generate_hierarchy([2, 2], seed=0)
        assert "n1_1" in h and "n2_1.2" in h
        assert h.parent("n2_1.2") == "n1_1"


class TestNumericHierarchy:
    def test_decimal_places(self):
        assert decimal_places("605") == 0
        assert decimal_places("605.2") == 1
        assert decimal_places("605.196") == 3
        assert decimal_places("605.0") == 1

    def test_rounds_to(self):
        assert rounds_to("605.196", "605.2")
        assert rounds_to("605.196", "605")
        assert not rounds_to("605.196", "606")

    def test_rounds_to_half_up(self):
        assert rounds_to("0.45", "0.5")

    def test_is_numeric_ancestor(self):
        assert is_numeric_ancestor("605.2", "605.196")
        assert is_numeric_ancestor("605", "605.196")
        assert not is_numeric_ancestor("605.196", "605.2")

    def test_equal_precision_not_related(self):
        assert not is_numeric_ancestor("605.1", "605.2")
        assert not is_numeric_ancestor("605.2", "605.2")

    def test_trailing_zero_precision_matters(self):
        # "605.0" claims 1 decimal place; "605" is its (coarser) ancestor
        assert is_numeric_ancestor("605", "605.0")

    def test_pairs(self):
        pairs = numeric_ancestor_pairs(["605.196", "605.2", "605", "610"])
        assert ("605.196", "605.2") in pairs
        assert ("605.196", "605") in pairs
        assert ("605.2", "605") in pairs
        assert not any(a == "610" for _, a in pairs)

    def test_garbage_not_ancestor(self):
        assert not is_numeric_ancestor("abc", "605")

"""Property-based tests (hypothesis) for the hierarchy substrates."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy import generate_hierarchy
from repro.hierarchy.numeric import is_numeric_ancestor, rounds_to


@st.composite
def small_hierarchy(draw):
    branching = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)
    )
    seed = draw(st.integers(min_value=0, max_value=50))
    return generate_hierarchy(branching, seed=seed, keep_prob=0.9)


@settings(max_examples=25, deadline=None)
@given(small_hierarchy())
def test_distance_is_a_metric(h):
    nodes = h.nodes[:8]
    for u in nodes:
        assert h.distance(u, u) == 0
        for v in nodes:
            assert h.distance(u, v) == h.distance(v, u) >= 0


@settings(max_examples=25, deadline=None)
@given(small_hierarchy())
def test_ancestor_relation_is_transitive_and_acyclic(h):
    closure = h.closure()
    pairs = set(closure)
    for d, a in list(pairs)[:50]:
        assert (a, d) not in pairs  # antisymmetric
        for d2, a2 in list(pairs)[:50]:
            if a2 == d:  # a2==d is ancestor chain d2 -> d -> a
                assert (d2, a) in pairs


@settings(max_examples=25, deadline=None)
@given(small_hierarchy())
def test_depth_consistent_with_parent(h):
    for n in h.nodes:
        p = h.parent(n)
        if p is None:
            assert h.depth(n) == 0
        else:
            assert h.depth(n) == h.depth(p) + 1


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1000, max_value=1000, allow_nan=False), st.integers(0, 3))
def test_rounding_to_own_precision_is_identity(x, dp):
    s = f"{x:.{dp}f}"
    assert rounds_to(s, s)
    assert not is_numeric_ancestor(s, s)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.001, max_value=1000, allow_nan=False))
def test_coarser_rounding_is_ancestor(x):
    fine = f"{x:.3f}"
    coarse = f"{float(fine):.1f}"
    # rounding the 3dp value to 1dp must give the 1dp string back
    if rounds_to(fine, coarse) and fine != coarse:
        assert is_numeric_ancestor(coarse, fine)
        assert not is_numeric_ancestor(fine, coarse)


@settings(max_examples=25, deadline=None)
@given(small_hierarchy())
def test_arrays_agree_with_the_tree(h):
    t = h.arrays()
    assert list(t.names) == h.nodes and t.up.shape == (len(h), h.height + 1)
    for c, n in enumerate(t.names):
        d = h.depth(n)
        assert t.depth[c] == d
        path = [n, *h.ancestors(n, include_root=True)][::-1]  # root first
        assert [t.names[a] for a in t.up[c, : d + 1]] == path
        assert (t.up[c, d + 1 :] == -1).all()

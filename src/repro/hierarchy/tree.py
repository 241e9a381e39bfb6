"""Hierarchy tree over claimed values.

The paper assumes a hierarchy tree ``H`` of claimed values (e.g., a
geographical hierarchy). This module provides the tree abstraction used
by every other component: ancestor/descendant queries (``G_o(v)`` /
``D_o(v)`` in the paper), tree distance for the *AvgDistance* metric,
the transitive closure as a set of (descendant, ancestor) pairs, and
:meth:`Hierarchy.arrays`, the integer view (node codes, depths and the
ancestor-at-depth table) that the ancestor pairs, the gold mapping and
the gold scorer walk instead of querying the tree node by node.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pandas as pd

ROOT = "ROOT"


class TreeArrays(NamedTuple):
    """A :class:`Hierarchy` as integer arrays. A node's code is its rank
    among the sorted node names (``names.get_indexer`` codes names, -1
    outside the tree); ``depth[n]`` is its depth and ``up[n, d]`` its
    ancestor at depth ``d`` (``n`` itself at ``depth[n]``, -1 below it).

    ``a`` is a proper ancestor of ``n`` iff ``depth[a] < depth[n]`` and
    ``up[n, depth[a]] == a``; the depth of their lowest common ancestor is
    the last depth at which the rows ``up[a]`` and ``up[n]`` agree."""

    names: pd.Index
    depth: np.ndarray
    up: np.ndarray  # nodes × (height + 1)


class Hierarchy:
    """An immutable rooted tree of values.

    Parameters
    ----------
    parent:
        Mapping from node to its parent. The root must map to ``None``.
        Every non-root node's parent must itself be a node.
    """

    def __init__(self, parent: dict[str, str | None]):
        roots = [n for n, p in parent.items() if p is None]
        if len(roots) != 1:
            raise ValueError(f"hierarchy must have exactly one root, got {roots!r}")
        self.root = roots[0]
        for n, p in parent.items():
            if p is not None and p not in parent:
                raise ValueError(f"parent {p!r} of {n!r} is not a node")
        self._parent = dict(parent)
        self._closure: frozenset[tuple[str, str]] | None = None
        self._arrays: TreeArrays | None = None
        self._depth: dict[str, int] = {}
        for n in parent:
            self._compute_depth(n)
        self._children: dict[str, list[str]] = {n: [] for n in parent}
        for n, p in parent.items():
            if p is not None:
                self._children[p].append(n)
        for c in self._children.values():
            c.sort()
        self._at_depth: dict[int, list[str]] = {}
        for n in sorted(parent):
            self._at_depth.setdefault(self._depth[n], []).append(n)
        self._height = max(self._at_depth)

    def _compute_depth(self, n: str) -> int:
        if n in self._depth:
            return self._depth[n]
        chain = []
        cur = n
        while cur not in self._depth:
            chain.append(cur)
            p = self._parent[cur]
            if p is None:
                self._depth[cur] = 0
                chain.pop()
                break
            cur = p
        for node in reversed(chain):
            self._depth[node] = self._depth[self._parent[node]] + 1
        return self._depth[n]

    # -- basic queries -------------------------------------------------
    def __contains__(self, v: str) -> bool:
        return v in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def nodes(self) -> list[str]:
        return sorted(self._parent)

    def parent(self, v: str) -> str | None:
        return self._parent[v]

    def children(self, v: str) -> list[str]:
        return self._children[v]

    def depth(self, v: str) -> int:
        """Number of edges from the root to ``v`` (root has depth 0)."""
        return self._depth[v]

    @property
    def height(self) -> int:
        """Maximum node depth."""
        return self._height

    def ancestors(self, v: str, *, include_root: bool = False) -> list[str]:
        """Proper ancestors of ``v``, nearest first; root excluded by default."""
        out = []
        cur = self._parent[v]
        while cur is not None:
            if include_root or cur != self.root:
                out.append(cur)
            cur = self._parent[cur]
        return out

    def is_ancestor(self, a: str, d: str) -> bool:
        """True iff ``a`` is a *proper* ancestor of ``d``."""
        if a not in self._parent or d not in self._parent:
            return False
        da, dd = self._depth[a], self._depth[d]
        if da >= dd:
            return False
        cur = d
        for _ in range(dd - da):
            cur = self._parent[cur]  # type: ignore[assignment]
        return cur == a

    def lca(self, u: str, v: str) -> str:
        """Lowest common ancestor of ``u`` and ``v``."""
        du, dv = self._depth[u], self._depth[v]
        while du > dv:
            u = self._parent[u]  # type: ignore[assignment]
            du -= 1
        while dv > du:
            v = self._parent[v]  # type: ignore[assignment]
            dv -= 1
        while u != v:
            u = self._parent[u]  # type: ignore[assignment]
            v = self._parent[v]  # type: ignore[assignment]
        return u

    def distance(self, u: str, v: str) -> int:
        """Number of edges on the tree path between ``u`` and ``v``.

        This is ``d(v_o^*, t_o)`` in the paper's *AvgDistance* metric.
        """
        a = self.lca(u, v)
        return self._depth[u] + self._depth[v] - 2 * self._depth[a]

    def nodes_at_depth(self, d: int) -> list[str]:
        """The nodes at depth ``d``, sorted."""
        return list(self._at_depth.get(d, []))

    # -- bulk/closure views -------------------------------------------
    def closure(self) -> frozenset[tuple[str, str]]:
        """Set of (descendant, proper-ancestor) pairs, root excluded.

        Memoized per instance (the tree is immutable).
        """
        if self._closure is not None:
            return self._closure
        pairs = set()
        for n in self._parent:
            if n == self.root:
                continue
            for a in self.ancestors(n):
                pairs.add((n, a))
        self._closure = frozenset(pairs)
        return self._closure

    def arrays(self) -> TreeArrays:
        """The tree as :class:`TreeArrays`, built one depth at a time.

        Memoized per instance (the tree is immutable).
        """
        if self._arrays is None:
            names = pd.Index(self.nodes)
            depth = np.array([self._depth[n] for n in names], dtype=np.int64)
            up = np.full((len(names), self._height + 1), -1, dtype=np.int64)
            for d in range(self._height + 1):
                level = self._at_depth[d]
                at = names.get_indexer(level)
                if d:
                    up[at, :d] = up[names.get_indexer([self._parent[n] for n in level]), :d]
                up[at, d] = at
            self._arrays = TreeArrays(names, depth, up)
        return self._arrays

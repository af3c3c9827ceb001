"""Core graph types and structural operations.

Graphs are simple, undirected and attributed: every vertex carries a label
that is either a real vector, a symbol (string), or empty (None), and edges
may carry labels of the same kinds.  Geometric graphs additionally assign a
finite 2-D coordinate to every vertex.

Vertex ids are plain ints.  They are kept in an explicit order (insertion
order of the ``vertices`` argument) because downstream code relies on a
deterministic traversal: beam search and edit-path pricing process vertices
in this order (the exact search takes them by decreasing degree, ties by
id), and coordinate matrices are built from it.
"""

from __future__ import annotations

import math
import random
from typing import Collection, Iterable, Mapping, Sequence


def _normalize_label(value):
    """Coerce a raw label into its canonical form (tuple / str / None)."""
    if value is None:
        return None
    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        out = tuple(float(x) for x in value)
        if not all(math.isfinite(x) for x in out):
            raise ValueError(f"non-finite label vector {value!r}")
        return out
    raise TypeError(f"unsupported label {value!r}")


def _check_label_family(labels, what: str) -> None:
    # All non-empty labels in one graph must agree in kind, and vector labels
    # must agree in dimension.
    dims = {len(l) for l in labels if isinstance(l, tuple)}
    kinds = {type(l) for l in labels if l is not None}
    if len(kinds) > 1:
        raise ValueError(f"mixed {what} label kinds: {sorted(k.__name__ for k in kinds)}")
    if len(dims) > 1:
        raise ValueError(f"inconsistent {what} label dimensions: {sorted(dims)}")


def _check_keys(values: Mapping, vertex_set: set, what: str) -> None:
    unknown = [v for v in values if v not in vertex_set]
    if unknown:
        raise ValueError(f"{what} for unknown vertices {unknown!r}")


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class AttributedGraph:
    """A simple undirected graph with optional vertex and edge labels."""

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[Sequence[int]] = (),
        node_labels: Mapping[int, object] | None = None,
        edge_labels: Mapping[tuple[int, int], object] | None = None,
    ):
        self.vertices: tuple[int, ...] = tuple(int(v) for v in vertices)
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise ValueError("duplicate vertex ids")

        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in vertex_set or v not in vertex_set:
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")
            e = canonical_edge(u, v)
            if e in seen:
                raise ValueError(f"parallel edge ({u}, {v})")
            seen.add(e)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))

        node_labels = node_labels or {}
        _check_keys(node_labels, vertex_set, "label")
        self.node_labels: dict[int, object] = {
            v: _normalize_label(node_labels.get(v)) for v in self.vertices
        }
        _check_label_family(self.node_labels.values(), "vertex")

        edge_labels = edge_labels or {}
        normalized_edge_labels = {}
        for key, value in edge_labels.items():
            e = canonical_edge(*key)
            if e not in seen:
                raise ValueError(f"label for missing edge {key}")
            normalized_edge_labels[e] = _normalize_label(value)
        self.edge_labels: dict[tuple[int, int], object] = {
            e: normalized_edge_labels.get(e) for e in self.edges
        }
        _check_label_family(self.edge_labels.values(), "edge")

        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj: dict[int, tuple[int, ...]] = {
            v: tuple(sorted(ns)) for v, ns in adj.items()
        }

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self.edge_labels

    def node_label(self, v: int):
        return self.node_labels[v]

    def edge_label(self, u: int, v: int):
        return self.edge_labels[canonical_edge(u, v)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.n}, m={self.m})"

    # -- derived graphs ----------------------------------------------------

    def without_vertices(self, drop: Iterable[int]) -> "AttributedGraph":
        """Induced subgraph on the remaining vertices (labels preserved)."""
        gone = set(drop)
        keep = [v for v in self.vertices if v not in gone]
        edges = [e for e in self.edges if e[0] not in gone and e[1] not in gone]
        return self._rebuild(keep, edges, {e: self.edge_labels[e] for e in edges})

    def _rebuild(self, vertices, edges, edge_labels):
        """A graph of the same type on ``vertices`` with the given edges and
        edge labels; vertex attributes are carried over."""
        return AttributedGraph(
            vertices,
            edges,
            node_labels={v: self.node_labels[v] for v in vertices},
            edge_labels=edge_labels,
        )


class GeometricGraph(AttributedGraph):
    """An attributed graph whose vertices all live in the plane.

    ``empty_edges`` counts phantom zero-length edge slots produced by distance
    padding; they are not part of the structural edge set and every structural
    operation ignores them.
    """

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[Sequence[int]] = (),
        coords: Mapping[int, Sequence[float]] | None = None,
        node_labels: Mapping[int, object] | None = None,
        edge_labels: Mapping[tuple[int, int], object] | None = None,
        empty_edges: int = 0,
    ):
        super().__init__(vertices, edges, node_labels, edge_labels)
        coords = coords or {}
        _check_keys(coords, set(self.vertices), "coordinate")
        self.coords: dict[int, tuple[float, float]] = {}
        for v in self.vertices:
            if v not in coords:
                raise ValueError(f"vertex {v} has no coordinate")
            x, y = coords[v]
            x, y = float(x), float(y)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite coordinate for vertex {v}")
            self.coords[v] = (x, y)
        if empty_edges < 0:
            raise ValueError("empty_edges must be >= 0")
        self.empty_edges = int(empty_edges)

    def _rebuild(self, vertices, edges, edge_labels):
        return GeometricGraph(
            vertices,
            edges,
            coords={v: self.coords[v] for v in vertices},
            node_labels={v: self.node_labels[v] for v in vertices},
            edge_labels=edge_labels,
            empty_edges=self.empty_edges,
        )


# -- connectivity ----------------------------------------------------------


def connected_components(g: AttributedGraph) -> list[tuple[int, ...]]:
    """Connected components as vertex tuples, ordered by smallest member."""
    seen: set[int] = set()
    comps: list[tuple[int, ...]] = []
    for start in g.vertices:
        if start in seen:
            continue
        stack = [start]
        comp = []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    comps.sort(key=lambda c: c[0])
    return comps


def component_count(g: AttributedGraph) -> int:
    return len(connected_components(g))


def is_cut_vertex(g: AttributedGraph, v: int) -> bool:
    """True iff removing ``v`` splits v's own connected component.

    Isolated vertices and K2 endpoints are not cut vertices; the midpoint of
    a path is.
    """
    if v not in g._adj:
        raise KeyError(f"unknown vertex {v}")
    return _separates(g._adj, v)


def _separates(adj: Mapping[int, Collection[int]], v: int) -> bool:
    """Whether removing ``v`` disconnects two of its neighbours in ``adj``."""
    neighbors = adj[v]
    if len(neighbors) < 2:
        return False
    # BFS from one neighbor, avoiding v; v is a cut vertex iff some other
    # neighbor is unreachable.
    target = set(neighbors)
    stack = [next(iter(neighbors))]
    seen = {v, stack[0]}
    reached = 1
    while stack and reached < len(target):
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                if w in target:
                    reached += 1
                stack.append(w)
    return reached < len(target)


# -- generation and rewiring -------------------------------------------------


def random_graph(n: int, p: float, seed: int | None = None) -> AttributedGraph:
    """Erdos-Renyi G(n, p): each of the C(n, 2) edges included independently."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return AttributedGraph(range(n), edges)


def subdivide_edge(g: AttributedGraph, edge: Sequence[int]) -> AttributedGraph:
    """Replace edge (u, v) by a fresh degree-2 vertex w and edges u-w, w-v.

    The new vertex id is max(vertices) + 1.  On geometric graphs w sits at the
    midpoint of the edge; its label mirrors the coordinate when the graph uses
    2-vector labels, and stays empty otherwise.  Both replacement edges
    inherit the label of the subdivided edge.
    """
    u, v = canonical_edge(*edge)
    if not g.has_edge(u, v):
        raise ValueError(f"no edge ({u}, {v})")
    w = max(g.vertices) + 1
    new_edges = [e for e in g.edges if e != (u, v)] + [(u, w), (w, v)]
    old_label = g.edge_labels[(u, v)]
    edge_labels = {e: g.edge_labels[e] for e in g.edges if e != (u, v)}
    edge_labels[(u, w)] = old_label
    edge_labels[(w, v)] = old_label

    node_labels = dict(g.node_labels)
    if isinstance(g, GeometricGraph):
        (x1, y1), (x2, y2) = g.coords[u], g.coords[v]
        mid = ((x1 + x2) / 2.0, (y1 + y2) / 2.0)
        coords = dict(g.coords)
        coords[w] = mid
        vector_labels = any(isinstance(l, tuple) and len(l) == 2 for l in g.node_labels.values())
        node_labels[w] = mid if vector_labels else None
        return GeometricGraph(
            list(g.vertices) + [w], new_edges, coords, node_labels, edge_labels
        )
    node_labels[w] = None
    return AttributedGraph(list(g.vertices) + [w], new_edges, node_labels, edge_labels)

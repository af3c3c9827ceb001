"""Graph edit distance: exact tree search, beam search, bipartite bound.

The edit model transforms g1 into g2 through node substitutions, deletions
and insertions plus the edge operations they induce.  Costs:

* node substitution: y_node * d(mu1(u), mu2(v)), where d is the Euclidean
  distance for vector labels, 0/1 equality for symbols, 0 for two empty
  labels;
* node deletion / insertion: x_node;
* edge substitution: y_edge * d(nu1(e), nu2(f));
* edge deletion / insertion: x_edge;
* path contraction (a preprocessing op, see the contraction module):
  z_path * d(mu(u1), mu(un)) between the chain's endpoint labels.

The tree search processes g1's vertices in their stored order; each level
either maps the next vertex onto an unused g2 vertex or deletes it, and
leftover g2 vertices are inserted when a leaf is reached.  Expansions read
index tables (node costs, edge ids, edge costs, bitmasks) built once per
call, never the graph objects.  The exact search is A* under one admissible
count bound: unmatched vertices on either side, plus the gap between g1's
edges inside the unprocessed suffix and g2's edges between unused vertices.
It returns an optimal path; when several paths tie for the optimum, which
one comes back depends on the bound, so a tied mapping may differ from the
one an uninformed search would return.  ``beam_width`` keeps only w partial
paths per level, ranked on the path cost alone and picked so that widening
the beam never drops a narrower beam's survivors; the result is an upper
bound on the exact distance that is nonincreasing in w.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometric import solve_lsap
from .graphs import AttributedGraph, canonical_edge


def label_distance(a, b) -> float:
    """Unweighted label dissimilarity.

    Euclidean for two vectors, 0/1 for two symbols, 0 for two empty labels.
    A kind mismatch (one side empty or a symbol against a vector) counts as
    maximally different, i.e. 1.
    """
    if a is None and b is None:
        return 0.0
    if isinstance(a, tuple) and isinstance(b, tuple):
        return math.dist(a, b)
    if isinstance(a, str) and isinstance(b, str):
        return 0.0 if a == b else 1.0
    return 1.0


@dataclass(frozen=True)
class EditCostParams:
    """Finite, nonnegative cost constants of the edit model."""

    x_node: float = 1.0
    y_node: float = 1.0
    x_edge: float = 1.0
    y_edge: float = 1.0
    z_path: float = 1.0

    def __post_init__(self):
        for name in ("x_node", "y_node", "x_edge", "y_edge", "z_path"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


DEFAULT_PARAMS = EditCostParams()


@dataclass(frozen=True)
class EditOp:
    kind: str  # node_sub, node_del, node_ins, edge_sub, edge_del, edge_ins, path_contract
    source: object = None
    target: object = None
    source_label: object = None
    target_label: object = None
    cost: float = 0.0


def edit_cost(op: EditOp, params: EditCostParams = DEFAULT_PARAMS) -> float:
    """Cost of one edit operation under ``params``."""
    kind = op.kind
    if kind == "node_sub":
        return params.y_node * label_distance(op.source_label, op.target_label)
    if kind in ("node_del", "node_ins"):
        return params.x_node
    if kind == "edge_sub":
        return params.y_edge * label_distance(op.source_label, op.target_label)
    if kind in ("edge_del", "edge_ins"):
        return params.x_edge
    if kind == "path_contract":
        return params.z_path * label_distance(op.source_label, op.target_label)
    raise ValueError(f"unknown edit op kind {kind!r}")


@dataclass(frozen=True)
class EditPath:
    """A complete edit path: node/edge operations and their total cost.

    ``preprocessing`` records structure-reducing operations (path
    contractions) that were applied before matching; their costs are kept out
    of ``total_cost``.
    """

    ops: tuple[EditOp, ...]
    total_cost: float
    complete: bool = True
    preprocessing: tuple[EditOp, ...] = ()

    @property
    def mapping(self) -> dict[int, int]:
        """The induced injective node mapping (substitutions only)."""
        return {op.source: op.target for op in self.ops if op.kind == "node_sub"}


# -- building a complete path from a node mapping ---------------------------


def path_from_mapping(
    g1: AttributedGraph,
    g2: AttributedGraph,
    mapping: dict[int, int],
    params: EditCostParams = DEFAULT_PARAMS,
) -> EditPath:
    """The complete edit path induced by an injective partial node mapping.

    Mapped vertices are substituted, the rest of g1 deleted and the rest of
    g2 inserted; every edge operation follows from the node decisions.
    """
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("mapping is not injective")
    ops = []

    def add(kind, source=None, target=None, source_label=None, target_label=None):
        cost = edit_cost(
            EditOp(kind, source, target, source_label, target_label), params
        )
        ops.append(EditOp(kind, source, target, source_label, target_label, cost))

    for u in g1.vertices:
        if u in mapping:
            v = mapping[u]
            add("node_sub", u, v, g1.node_label(u), g2.node_label(v))
        else:
            add("node_del", u, source_label=g1.node_label(u))
    used = set(mapping.values())
    for v in g2.vertices:
        if v not in used:
            add("node_ins", target=v, target_label=g2.node_label(v))

    image_edges = set()
    for (a, b) in g1.edges:
        if a in mapping and b in mapping:
            f = canonical_edge(mapping[a], mapping[b])
            if g2.has_edge(*f):
                image_edges.add(f)
                add("edge_sub", (a, b), f, g1.edge_label(a, b), g2.edge_label(*f))
            else:
                add("edge_del", (a, b), source_label=g1.edge_label(a, b))
        else:
            add("edge_del", (a, b), source_label=g1.edge_label(a, b))
    for f in g2.edges:
        if f not in image_edges:
            add("edge_ins", target=f, target_label=g2.edge_label(*f))

    total = sum(op.cost for op in ops)
    return EditPath(tuple(ops), total)


# -- exact and beam search ---------------------------------------------------


class _SearchContext:
    """Index tables built once per search and read by every expansion.

    Positions i (into ``g1.vertices``) and j (into ``g2.vertices``) stand for
    vertices; a mapping is a tuple whose q-th entry is the g2 position of
    g1's q-th vertex, or -1 when that vertex is deleted.  Edge rows use -1
    for "no edge" too, and every -1 lands on a trailing sentinel entry, so
    expansions never branch on edge existence.
    """

    def __init__(self, g1, g2, params):
        self.params = params
        self.g1, self.g2 = g1, g2
        self.u_list, self.v_list = g1.vertices, g2.vertices
        n1 = self.n1 = len(self.u_list)
        n2 = self.n2 = len(self.v_list)
        v_labels = [g2.node_label(v) for v in self.v_list]
        self.node_cost = [
            [params.y_node * label_distance(g1.node_label(u), b) for b in v_labels]
            for u in self.u_list
        ]
        # edge_cost[a][b]: g1 edge a against g2 edge b; the trailing row and
        # column (index -1) price a lone deletion or insertion.
        edge_cost = [
            [params.y_edge * label_distance(g1.edge_labels[e], g2.edge_labels[f])
             for f in g2.edges] + [params.x_edge]
            for e in g1.edges
        ]
        edge_cost.append([params.x_edge] * g2.m + [0.0])
        # edge_rows1[i][q]: the edge_cost row of g1's pair (i, q).
        ids1 = _edge_ids(g1)
        self.edge_rows1 = [[edge_cost[a] for a in row] for row in ids1]
        # edge_ids2[j][k]: g2's edge between j and k, or -1; entry n2 (read
        # as index -1 by a deleted vertex) is -1.
        self.edge_ids2 = [row + [-1] for row in _edge_ids(g2)]

        self.delete_cost = []
        for i in range(n1):
            cost = params.x_node
            for q in range(i):
                if ids1[i][q] >= 0:
                    cost += params.x_edge
            self.delete_cost.append(cost)

        # The bound's node part depends only on i and the number of used g2
        # vertices; its edge part needs the g1 edges with both endpoints at
        # position >= i (inner1) and the g2 edges between unused vertices.
        self.inner1 = [0] * (n1 + 1)
        for i in range(n1 - 1, -1, -1):
            self.inner1[i] = self.inner1[i + 1] + sum(a >= 0 for a in ids1[i][i + 1:])
        self.node_bound = [
            [params.x_node * abs((n2 - k) - (n1 - i)) for k in range(n2 + 1)]
            for i in range(n1 + 1)
        ]
        pos2 = {v: j for j, v in enumerate(self.v_list)}
        self.edge_masks2 = [1 << pos2[a] | 1 << pos2[b] for a, b in g2.edges]
        self.adj2 = [sum(1 << pos2[w] for w in g2.neighbors(v)) for v in self.v_list]
        self._free_edges: dict[int, int] = {}

    def substitute_delta(self, mapping: tuple, i: int, j: int) -> float:
        """Cost of mapping u_i onto v_j on top of the processed prefix."""
        cost = self.node_cost[i][j]
        ids2 = self.edge_ids2[j]
        for row, jq in zip(self.edge_rows1[i], mapping):
            cost += row[ids2[jq]]
        return cost

    def delete_delta(self, i: int) -> float:
        """Cost of deleting u_i: the node plus its edges into the prefix."""
        return self.delete_cost[i]

    def completion_delta(self, used: int) -> float:
        """Insert every unused g2 vertex and each edge touching one."""
        p = self.params
        cost = p.x_node * (self.n2 - used.bit_count())
        for mask in self.edge_masks2:
            if used & mask != mask:
                cost += p.x_edge
        return cost

    def free_edges(self, used: int) -> int:
        """Number of g2 edges with both endpoints outside ``used``."""
        count = self._free_edges.get(used)
        if count is None:
            free = ~used
            count = sum(
                (self.adj2[j] & free).bit_count()
                for j in range(self.n2)
                if free >> j & 1
            ) // 2
            self._free_edges[used] = count
        return count

    def heuristic(self, i: int, used: int) -> float:
        """Admissible bound on the cost of completing a prefix of length i.

        Node part: unmatched vertices on the larger side.  Edge part: each g1
        edge inside the unprocessed suffix is substituted onto a g2 edge
        between two unused vertices or paid for, and vice versa; every other
        edge cost is nonnegative.
        """
        return self.node_bound[i][used.bit_count()] + self.params.x_edge * abs(
            self.inner1[i] - self.free_edges(used)
        )

    def finish(self, mapping: tuple) -> EditPath:
        as_dict = {
            self.u_list[i]: self.v_list[j] for i, j in enumerate(mapping) if j >= 0
        }
        return path_from_mapping(self.g1, self.g2, as_dict, self.params)


def _edge_ids(g: AttributedGraph) -> list[list[int]]:
    """Position-by-position edge indices into ``g.edges``, -1 for no edge."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    ids = [[-1] * g.n for _ in range(g.n)]
    for k, (a, b) in enumerate(g.edges):
        ids[pos[a]][pos[b]] = ids[pos[b]][pos[a]] = k
    return ids


def ged(
    g1: AttributedGraph,
    g2: AttributedGraph,
    params: EditCostParams = DEFAULT_PARAMS,
    *,
    beam_width: int | None = None,
) -> EditPath:
    """Graph edit distance between g1 and g2.

    Exact by default (optimal over every complete edit path); with
    ``beam_width`` = w, only w partial paths survive each level and the
    result is an upper bound that never increases as w grows.
    """
    if beam_width is not None and beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    ctx = _SearchContext(g1, g2, params)
    if beam_width is not None:
        return _beam(ctx, beam_width)
    return _astar(ctx)


def _astar(ctx: _SearchContext) -> EditPath:
    counter = itertools.count()
    # Entries: (f, -depth, seq, cost, i, used, mapping, completed)
    heap = [(ctx.heuristic(0, 0), 0, next(counter), 0.0, 0, 0, (), False)]
    while heap:
        f, _, _, cost, i, used, mapping, completed = heapq.heappop(heap)
        if completed:
            path = ctx.finish(mapping)
            # The search cost and the reconstructed path cost must agree.
            assert abs(path.total_cost - cost) < 1e-9
            return path
        if i == ctx.n1:
            total = cost + ctx.completion_delta(used)
            heapq.heappush(
                heap, (total, -(i + 1), next(counter), total, i, used, mapping, True)
            )
            continue
        for j in range(ctx.n2):
            if used >> j & 1:
                continue
            c = cost + ctx.substitute_delta(mapping, i, j)
            nused = used | (1 << j)
            h = ctx.heuristic(i + 1, nused)
            heapq.heappush(
                heap,
                (c + h, -(i + 1), next(counter), c, i + 1, nused, mapping + (j,), False),
            )
        c = cost + ctx.delete_delta(i)
        h = ctx.heuristic(i + 1, used)
        heapq.heappush(
            heap,
            (c + h, -(i + 1), next(counter), c, i + 1, used, mapping + (-1,), False),
        )
    raise RuntimeError("search exhausted without a complete path")  # pragma: no cover


def _beam(ctx: _SearchContext, width: int) -> EditPath:
    counter = itertools.count()
    frontier = [(0.0, next(counter), 0, ())]  # (cost, seq, used, mapping)
    for i in range(ctx.n1):
        # Survivors are picked rank by rank: after feeding in the children of
        # the r-th surviving parent, the cheapest candidate so far takes rank
        # r.  For fixed inputs the rank-r survivor does not depend on the
        # width, so a wider beam keeps a superset of a narrower beam's
        # frontier and the returned bound is monotone in the width (plain
        # keep-the-w-cheapest pruning has no such guarantee).
        heap: list = []
        kept = []
        for cost, _, used, mapping in frontier:
            for j in range(ctx.n2):
                if used >> j & 1:
                    continue
                heapq.heappush(
                    heap,
                    (
                        cost + ctx.substitute_delta(mapping, i, j),
                        next(counter),
                        used | (1 << j),
                        mapping + (j,),
                    ),
                )
            heapq.heappush(
                heap, (cost + ctx.delete_delta(i), next(counter), used, mapping + (-1,))
            )
            kept.append(heapq.heappop(heap))
        while len(kept) < width and heap:
            kept.append(heapq.heappop(heap))
        frontier = kept
    best = min(
        ((cost + ctx.completion_delta(used), seq, mapping)
         for cost, seq, used, mapping in frontier),
        key=lambda s: (s[0], s[1]),
    )
    path = ctx.finish(best[2])
    assert abs(path.total_cost - best[0]) < 1e-9
    return path


# -- bipartite approximation -------------------------------------------------


def _incident_labels(g: AttributedGraph) -> list[list]:
    """Each vertex's incident edge labels, in vertex and neighbor order."""
    return [[g.edge_label(u, w) for w in g.neighbors(u)] for u in g.vertices]


def _local_edge_cost(l1, l2, params) -> float:
    """Optimal assignment between two vertices' incident edge label lists."""
    d1, d2 = len(l1), len(l2)
    if d1 == 0 and d2 == 0:
        return 0.0
    size = d1 + d2
    cost = np.full((size, size), np.inf)
    for a in range(d1):
        for b in range(d2):
            cost[a, b] = params.y_edge * label_distance(l1[a], l2[b])
        cost[a, d2 + a] = params.x_edge
    for b in range(d2):
        cost[d1 + b, b] = params.x_edge
    cost[d1:, d2:] = 0.0
    return solve_lsap(cost).total_cost


def ged_bipartite(
    g1: AttributedGraph,
    g2: AttributedGraph,
    params: EditCostParams = DEFAULT_PARAMS,
) -> EditPath:
    """Bipartite approximation of the edit distance.

    Solves one (n1+n2) x (n1+n2) assignment problem whose substitution
    entries combine node label costs with the optimal matching of the local
    edge structures, then prices the complete edit path induced by the node
    assignment.  The result is always attainable, hence an upper bound on
    the exact distance.
    """
    n1, n2 = g1.n, g2.n
    if n1 == 0 and n2 == 0:
        return EditPath((), 0.0)
    size = n1 + n2
    cost = np.full((size, size), np.inf)
    incident1, incident2 = _incident_labels(g1), _incident_labels(g2)
    for i, u in enumerate(g1.vertices):
        for j, v in enumerate(g2.vertices):
            cost[i, j] = params.y_node * label_distance(
                g1.node_label(u), g2.node_label(v)
            ) + _local_edge_cost(incident1[i], incident2[j], params)
        cost[i, n2 + i] = params.x_node + params.x_edge * g1.degree(u)
    for j, v in enumerate(g2.vertices):
        cost[n1 + j, j] = params.x_node + params.x_edge * g2.degree(v)
    cost[n1:, n2:] = 0.0

    assignment = solve_lsap(cost)
    mapping = {
        g1.vertices[i]: g2.vertices[j]
        for i, j in assignment.pairs
        if i < n1 and j < n2
    }
    return path_from_mapping(g1, g2, mapping, params)

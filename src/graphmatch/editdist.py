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

The tree search processes g1's vertices one per level; each level either
maps the next vertex onto an unused g2 vertex or deletes it, and leftover
g2 vertices are inserted when a leaf is reached.  Expansions read index
tables, never the graph objects: the per-graph ones (search orders, labels,
edge ids, bitmasks; see ``EditTables``) are built once per graph by
``edit_tables``, and a search builds only the pair ones (node, edge and
deletion costs, the bound's node part).  The exact search is a depth-first
branch and bound: it expands a node's children in order of their admissible
bound, keeps the best complete path found so far and skips every node whose
bound reaches it, so at most n1 * (n2 + 1) nodes are open at once.  It takes
g1's vertices by decreasing degree (ties by id), so edge costs are paid
early and tighten the path cost.  Only the exact search builds the bound
tables; beam search keeps g1's stored vertex order.  Either search prices
its result on the caller's graphs in their stored order.

The bound (see ``_ExactContext``) prices each unprocessed g1 vertex at its
cheapest fate and charges x_edge for every edge that the edge counts force
to be deleted or inserted, counted apart among the edges inside the
unprocessed part and among the edges crossing into it from the processed
part: the edge-count part of the branch bounds of Blumenthal & Gamper
(2018).  At a leaf the bound is the completion cost, so the search prices
a complete mapping once, by the bound it was pushed with.  The exact search
returns an optimal path; which of several tied optima comes back depends on
the bound and the search order.  A path's total is the correctly rounded sum
of its op costs (``math.fsum``), independent of op order and Python version,
so two mappings whose op costs have the same exact sum get the same float.
``beam_width`` keeps only w partial paths per level, ranked on the
path cost alone and picked so that widening the beam never drops a narrower
beam's survivors; the result is an upper bound on the exact distance that
is nonincreasing in w.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _price(kind: str, source_label, target_label, params: EditCostParams) -> float:
    """The cost model: the price of one operation of ``kind`` on these labels."""
    if kind == "node_sub":
        return params.y_node * label_distance(source_label, target_label)
    if kind in ("node_del", "node_ins"):
        return params.x_node
    if kind == "edge_sub":
        return params.y_edge * label_distance(source_label, target_label)
    if kind in ("edge_del", "edge_ins"):
        return params.x_edge
    if kind == "path_contract":
        return params.z_path * label_distance(source_label, target_label)
    raise ValueError(f"unknown edit op kind {kind!r}")


@dataclass(frozen=True)
class EditPath:
    """A complete edit path: node/edge operations and their total cost.

    ``preprocessing`` records structure-reducing operations (path
    contractions) that were applied before matching; their costs are kept out
    of ``total_cost``.  A path from ``path_from_mapping`` builds its ``ops``
    when they are first read, so a caller that reads only ``total_cost``
    builds no ``EditOp``.
    """

    ops: tuple[EditOp, ...]
    total_cost: float
    preprocessing: tuple[EditOp, ...] = ()

    @classmethod
    def _deferred(cls, steps: list[tuple], costs: list[float]) -> EditPath:
        """The path of ops ``EditOp(*step, cost)``, built when first read,
        and total ``math.fsum(costs)``."""
        path = cls.__new__(cls)
        object.__setattr__(path, "_pending", (steps, costs))
        object.__setattr__(path, "total_cost", math.fsum(costs))
        return path

    def __getattr__(self, name):
        # reached only when normal lookup fails: a deferred path's unbuilt ops
        pending = self.__dict__.get("_pending") if name == "ops" else None
        if pending is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ops = tuple(EditOp(*step, cost) for step, cost in zip(*pending))
        object.__setattr__(self, "ops", ops)
        self.__dict__.pop("_pending", None)
        return ops

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
    ValueError unless the mapping is injective from g1's vertices into g2's.
    The ops are walked and priced once; ``EditOp``s are built from that walk
    only when the path's ``ops`` are first read.
    """
    used = set(mapping.values())
    if len(used) != len(mapping):
        raise ValueError("mapping is not injective")
    if not (mapping.keys() <= g1.node_labels.keys() and used <= g2.node_labels.keys()):
        raise ValueError("mapping names vertices the graphs do not have")
    steps = []  # (kind, source, target, source_label, target_label)
    labels1, labels2 = g1.node_labels, g2.node_labels
    for u in g1.vertices:
        if u in mapping:
            v = mapping[u]
            steps.append(("node_sub", u, v, labels1[u], labels2[v]))
        else:
            steps.append(("node_del", u, None, labels1[u], None))
    for v in g2.vertices:
        if v not in used:
            steps.append(("node_ins", None, v, None, labels2[v]))

    # f, the image of e, is None when an endpoint is unmapped
    image_edges = set()
    for e, label in g1.edge_labels.items():
        a, b = e
        f = canonical_edge(mapping[a], mapping[b]) if a in mapping and b in mapping else None
        if f in g2.edge_labels:
            image_edges.add(f)
            steps.append(("edge_sub", e, f, label, g2.edge_labels[f]))
        else:
            steps.append(("edge_del", e, None, label, None))
    for f, label in g2.edge_labels.items():
        if f not in image_edges:
            steps.append(("edge_ins", None, f, None, label))

    return EditPath._deferred(
        steps, [_price(kind, sl, tl, params) for kind, _, _, sl, tl in steps]
    )


# -- per-graph search tables -------------------------------------------------


class _Order(NamedTuple):
    """A graph's vertices in one search order, as the g1 side of a search
    reads them: each position's node label, the indices into ``g.edges`` of
    its edges to earlier positions (``earlier_ids[i][q]`` for q < i, -1 for
    no edge) and how many of those edges there are."""

    vertices: tuple[int, ...]
    labels: list
    earlier_ids: list[list[int]]
    earlier_edges: list[int]


def _order(g: AttributedGraph, vertices: tuple[int, ...], ids: list[list[int]]) -> _Order:
    earlier = [row[:i] for i, row in enumerate(ids)]
    return _Order(
        vertices,
        [g.node_labels[v] for v in vertices],
        earlier,
        [i - row.count(-1) for i, row in enumerate(earlier)],
    )


@dataclass(frozen=True, eq=False)
class EditTables:
    """What the edit searches read of one graph alone (``edit_tables``).

    ``stored`` keeps ``graph.vertices`` in their stored order, the order
    beam search takes g1 in and both searches take g2 in; ``by_degree``
    takes them by decreasing degree, ties by id, the exact search's order
    for g1.  The g2 side reads positions in stored order: ``edge_ids[j][k]``
    is the index into ``graph.edges`` of the edge between positions j and
    k, or -1, and every row ends in a -1 that a deleted vertex (-1) reads;
    ``edge_masks`` holds each edge's end positions and ``neighbors`` each
    vertex's neighbor positions, as bitmasks.  In degree order,
    ``inner[i]`` counts the edges with both ends at positions >= i and
    ``cross[i]`` those with one end below i and the other at or above it,
    for i = 0..n.  ``edge_labels`` follows ``graph.edges``.
    """

    graph: AttributedGraph
    stored: _Order
    by_degree: _Order
    edge_labels: list
    edge_ids: list[list[int]]
    edge_masks: list[int]
    neighbors: list[int]
    inner: list[int]
    cross: list[int]

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m


def edit_tables(g: AttributedGraph) -> EditTables:
    """g's ``EditTables``: build them once and pass them to ``ged`` in place
    of g for every pair g takes part in."""
    n = g.n
    by_degree = tuple(sorted(g.vertices, key=lambda u: (-g.degree(u), u)))
    pos = {v: j for j, v in enumerate(g.vertices)}
    rank = {u: i for i, u in enumerate(by_degree)}
    edge_masks, neighbors = [], [0] * n
    # lows[p] / highs[q]: edges whose lower / higher end in degree order is p / q
    lows, highs = [0] * n, [0] * n
    for a, b in g.edges:
        edge_masks.append(1 << pos[a] | 1 << pos[b])
        neighbors[pos[a]] |= 1 << pos[b]
        neighbors[pos[b]] |= 1 << pos[a]
        p, q = sorted((rank[a], rank[b]))
        lows[p] += 1
        highs[q] += 1
    # edges with their lower / higher end below position i, for i = 0..n
    low_below = list(itertools.accumulate(lows, initial=0))
    high_below = list(itertools.accumulate(highs, initial=0))
    ids = _edge_ids(g, g.vertices)
    return EditTables(
        graph=g,
        stored=_order(g, g.vertices, ids),
        by_degree=_order(g, by_degree, _edge_ids(g, by_degree)),
        edge_labels=[g.edge_labels[e] for e in g.edges],
        edge_ids=[row + [-1] for row in ids],
        edge_masks=edge_masks,
        neighbors=neighbors,
        inner=[g.m - c for c in low_below],
        cross=[c - d for c, d in zip(low_below, high_below)],
    )


def _tables_of(g) -> EditTables:
    return g if isinstance(g, EditTables) else edit_tables(g)


def _edge_ids(g: AttributedGraph, order) -> list[list[int]]:
    """Edge indices into ``g.edges`` for each pair of positions in ``order``,
    -1 for no edge."""
    pos = {v: i for i, v in enumerate(order)}
    n = g.n
    ids = [[-1] * n for _ in range(n)]
    for k, (a, b) in enumerate(g.edges):
        ids[pos[a]][pos[b]] = ids[pos[b]][pos[a]] = k
    return ids


# -- exact and beam search ---------------------------------------------------


class _SearchContext:
    """The pair's index tables, built once per search and read by every
    expansion; g1 and g2 are graphs or their ``EditTables``.

    Positions i (into the search order ``u_list``: g1's stored order, or
    its degree order with ``by_degree``) and j (into ``g2.vertices``) stand
    for vertices; a mapping is a tuple whose q-th entry is the g2 position
    of the q-th vertex of ``u_list``, or -1 when that vertex is deleted.
    Edge rows use -1 for "no edge" too, and every -1 lands on a trailing
    sentinel entry, so expansions never branch on edge existence.
    ``delete_cost[i]`` is the cost of deleting u_i on top of the processed
    prefix: x_node plus x_edge for each of its edges into the first i
    vertices of ``u_list``.
    """

    def __init__(self, g1, g2, params, by_degree=False):
        t1, t2 = _tables_of(g1), _tables_of(g2)
        order1 = t1.by_degree if by_degree else t1.stored
        self.params = params
        self.g1, self.g2 = t1.graph, t2.graph
        self.u_list, self.v_list = order1.vertices, t2.stored.vertices
        self.n1, self.n2 = t1.n, t2.n
        v_labels = t2.stored.labels
        self.node_cost = [
            [params.y_node * label_distance(a, b) for b in v_labels] for a in order1.labels
        ]
        # edge_cost[a][b]: g1 edge a against g2 edge b; the trailing row and
        # column (index -1) price a lone deletion or insertion.
        edge_cost = [
            [params.y_edge * label_distance(a, b) for b in t2.edge_labels] + [params.x_edge]
            for a in t1.edge_labels
        ]
        edge_cost.append([params.x_edge] * t2.m + [0.0])
        # edge_rows1[i][q]: the edge_cost row of g1's pair (i, q), q < i.
        self.edge_rows1 = [[edge_cost[a] for a in row] for row in order1.earlier_ids]
        self.edge_ids2 = t2.edge_ids
        # x_node, then x_edge added once per earlier edge, in that order
        steps = list(itertools.accumulate(
            [params.x_node] + [params.x_edge] * max(order1.earlier_edges, default=0)
        ))
        self.delete_cost = [steps[c] for c in order1.earlier_edges]
        self.edge_masks2 = t2.edge_masks

    def substitute_delta(self, mapping: tuple, i: int, j: int) -> float:
        """Cost of mapping u_i onto v_j on top of the processed prefix."""
        cost = self.node_cost[i][j]
        ids2 = self.edge_ids2[j]
        for row, jq in zip(self.edge_rows1[i], mapping):
            cost += row[ids2[jq]]
        return cost

    def completion_delta(self, used: int) -> float:
        """Insert every unused g2 vertex and each edge touching one."""
        p = self.params
        cost = p.x_node * (self.n2 - used.bit_count())
        for mask in self.edge_masks2:
            if used & mask != mask:
                cost += p.x_edge
        return cost

    def finish(self, mapping: tuple, cost: float) -> EditPath:
        """The path ``mapping`` induces, checked against the search's ``cost``.

        The path is priced on the caller's g1 and g2, whatever the search
        order, so its ops and float total do not depend on that order.
        """
        as_dict = {
            self.u_list[i]: self.v_list[j] for i, j in enumerate(mapping) if j >= 0
        }
        path = path_from_mapping(self.g1, self.g2, as_dict, self.params)
        # the search rounds after each delta, in search order; the path's
        # fsum rounds once, so the two may differ in the last bits
        if not math.isclose(path.total_cost, cost, rel_tol=1e-9, abs_tol=1e-9):
            raise AssertionError(f"search cost {cost!r} and path cost {path.total_cost!r} disagree")
        return path


class _ExactContext(_SearchContext):
    """The search tables plus the bound tables only the exact search reads.

    Positions index g1's vertices by decreasing degree, ties by id
    (``u_list``), so the search pays edge costs early.  The bound's node
    part depends only on i and the number k of used g2 vertices.  With
    a = n1 - i unprocessed g1 vertices and b = n2 - k unused g2 vertices,
    |a - b| of them are deleted or inserted at x_node each, and each
    unprocessed g1 vertex q costs at least its cheapest fate
    ``min(x_node, min_j node_cost[q][j])``.  Charging x_node to the forced
    operations and the cheapest fate to the rest gives x_node * |a - b| plus
    the min(a, b) smallest fates: the node part of the bipartite lower bound
    (Riesen, Fankhauser & Bunke 2007), never below the plain count.  The
    edge part counts two disjoint kinds of edge that no delta has priced
    yet.  Inner edges: the g1 edges with both endpoints at position >= i
    (inner1) and the g2 edges with both endpoints unused, which each search
    node carries as ``free``.  Crossing edges: the g1 edges with one
    endpoint at position < i and the other at >= i (cross1) and the g2
    edges with exactly one endpoint used, carried as ``cut``.  Mapping onto
    v_j turns its edges to unused vertices, ``out = (nbr2[j] &
    ~used).bit_count()``, from free into cut, and its edges to used vertices
    from cut into edges between used vertices; a deletion changes neither
    count.
    """

    def __init__(self, g1, g2, params):
        t1, t2 = _tables_of(g1), _tables_of(g2)
        super().__init__(t1, t2, params, by_degree=True)
        n1, n2, x = self.n1, self.n2, params.x_node
        self.inner1, self.cross1, self.nbr2 = t1.inner, t1.cross, t2.neighbors
        cheapest = [min([x, *row]) for row in self.node_cost]
        self.node_bound = []
        for i in range(n1 + 1):
            kept = list(itertools.accumulate(sorted(cheapest[i:]), initial=0.0))
            self.node_bound.append([
                x * abs((n2 - k) - (n1 - i)) + kept[min(n1 - i, n2 - k)]
                for k in range(n2 + 1)
            ])

    def heuristic(self, i: int, used: int, free: int, cut: int) -> float:
        """Admissible bound on the cost of completing a prefix of length i
        whose used g2 vertices leave ``free`` g2 edges between unused ones
        and ``cut`` g2 edges with exactly one used endpoint.

        Node part: the deletions or insertions the vertex counts force, plus
        the cheapest substitution or deletion of each remaining unprocessed
        g1 vertex (see the class docstring).  Edge part: each g1 edge inside
        the unprocessed suffix is substituted onto a g2 edge between two
        unused vertices or paid for, and vice versa; each g1 edge crossing
        from the prefix into the suffix is substituted onto a g2 edge with
        one used endpoint or paid for, and vice versa.  The matches are one
        to one, so at least |inner1 - free| + |cross1 - cut| edges cost
        x_edge each; every other edge cost is nonnegative.  At i = n1 the
        bound is the completion cost.
        """
        return self.node_bound[i][used.bit_count()] + self.params.x_edge * (
            abs(self.inner1[i] - free) + abs(self.cross1[i] - cut)
        )


def ged(
    g1: AttributedGraph | EditTables,
    g2: AttributedGraph | EditTables,
    params: EditCostParams = DEFAULT_PARAMS,
    *,
    beam_width: int | None = None,
) -> EditPath:
    """Graph edit distance between g1 and g2.

    Exact by default (optimal over every complete edit path, in bounded
    memory but not bounded time); with ``beam_width`` = w, only w partial
    paths survive each level and the result is an upper bound that never
    increases as w grows.  Either graph may be given as its ``edit_tables``,
    with the same result; the path is priced on the graphs either way.
    """
    if beam_width is not None and beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if beam_width is not None:
        return _beam(_SearchContext(g1, g2, params), beam_width)
    return _branch_and_bound(_ExactContext(g1, g2, params))


def _branch_and_bound(ctx: _ExactContext) -> EditPath:
    n2, nbr2 = ctx.n2, ctx.nbr2
    best, best_mapping = math.inf, None
    # Entries: (f, j, cost, i, used, free, cut, mapping).  Siblings differ in j
    # (a deletion counts as n2), so sorting them never compares past (f, j).
    # A leaf's bound is its completion cost, so a leaf's f is its total.
    stack = [(ctx.heuristic(0, 0, ctx.g2.m, 0), 0, 0.0, 0, 0, ctx.g2.m, 0, ())]
    while stack:
        f, _, cost, i, used, free, cut, mapping = stack.pop()
        if f >= best:
            continue
        if i == ctx.n1:
            best, best_mapping = f, mapping
            continue
        unused = ~used
        children = []
        for j in range(n2):
            if used >> j & 1:
                continue
            c = cost + ctx.substitute_delta(mapping, i, j)
            nused = used | (1 << j)
            out = (nbr2[j] & unused).bit_count()
            nfree = free - out
            ncut = cut + out - (nbr2[j] & used).bit_count()
            f = c + ctx.heuristic(i + 1, nused, nfree, ncut)
            if f < best:
                children.append((f, j, c, i + 1, nused, nfree, ncut, mapping + (j,)))
        c = cost + ctx.delete_cost[i]
        f = c + ctx.heuristic(i + 1, used, free, cut)
        if f < best:
            children.append((f, n2, c, i + 1, used, free, cut, mapping + (-1,)))
        children.sort(reverse=True)  # pop() takes the least (f, j) first
        stack.extend(children)
    return ctx.finish(best_mapping, best)


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
                heap, (cost + ctx.delete_cost[i], next(counter), used, mapping + (-1,))
            )
            kept.append(heapq.heappop(heap))
        while len(kept) < width and heap:
            kept.append(heapq.heappop(heap))
        frontier = kept
    cost, _, mapping = min(
        (cost + ctx.completion_delta(used), seq, mapping)
        for cost, seq, used, mapping in frontier
    )
    return ctx.finish(mapping, cost)


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

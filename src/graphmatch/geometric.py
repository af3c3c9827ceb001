"""Geometric graph distances: assignment-based matching of plane graphs.

Vertices are compared by Euclidean distance between coordinates; edges by
one feature row each, the rows of a graph stacked in one (slots, 6) float
array with the columns

* 0: theta, the undirected slope angle in degrees, canonicalized to [0, 180);
* 1: length;
* 2-5: the two endpoints in canonical order ("left" = smaller x, tie on y),
  left x, left y, right x, right y.

Every distance here is a setting of one weighted family,
w1 * VD + sum(w2 * E^A + w3 * E^L + w4 * E^P) over an optimal edge
assignment.  VD is the minimal total vertex movement; per matched edge pair,
E^A is the absolute angle difference in radians, E^L the absolute length
difference, E^P the mean distance between corresponding canonical endpoints.
The edge distance ED is the (., 1, 1, 0) setting and its metric variant EDM
the (., 1, 1, 1) setting; GD and GDM add VD at w1 = 1.  Weights of 1 and 0
are exact, so these equal the weighted distance bit for bit.  At w1 = 0, the
ED/EDM-style settings, ``geometric_graph_distance`` solves no vertex
assignment: VD is finite, so 0 * VD adds exactly nothing.  Every vertex
assignment goes through one helper, ``_vertex_assignment``.  E^A, E^L and
E^P read no weight: ``_edge_terms`` is the one place they are computed and
``_weighted`` the one place they are weighted: every edge cost matrix is
``_weighted(_edge_terms(a, b), w)``, and ``bench.tune_weights``, scoring a
pair under many weight vectors, builds its terms once and hands them to
``geometric_graph_distance`` as ``terms``.

Graphs of unequal size are padded: extra vertices at the mean coordinate of
the smaller graph's own vertices, extra edge slots as "empty" rows
(angle 0, length 0, endpoints at the graph mean).  Empty slots are counted
on the graph (``empty_edges``), never materialized as structural edges.
Every mean is summed left to right in vertex order, by one function
(``_means``).

The weighted distance and the isomorphism verdict share one pair path on
rows (``_pair``): each graph's ``GeometricRows`` (coordinates, edge endpoint
indices, feature rows), which ``geometric_rows`` extracts once per
graph, padded to one size by ``_padded``, then g2's rows aligned to g1's
when asked.  Graphs appear only at the API edge: ``pad_to_equal`` pads rows
too and, like a transform or an alignment, rebuilds the graphs it changed
with ``_moved``; the distance and the alignment accept rows in place of
graphs, so a graph matched many times is prepared once, aligned or not, and
the verdict's endpoint and tolerance checks read the rows too.  Rows
remember each size they were padded to (``GeometricRows.pads``) for as long
as they live, so rows re-scored under many weight vectors are padded once
per size; rows built from a graph inside one call die with that call and
take their padding with them.  Aligned rows own their arrays and keep none
of the other alignment candidates alive.

Alignment searches for a similarity transform (rotation, translation,
uniform scaling) of g2 that minimizes the edge distance against g1: every
nondegenerate edge of g2, in both endpoint orders, is mapped onto g1's
longest edge, and the identity is always a candidate, so aligning never
hurts.  All of this happens in g1's own coordinate frame, which keeps
tolerance thresholds in input units.  Candidates are never built as graphs:
one numpy expression places g2's coordinates for all of them, and one call
gives all their feature rows.  One vectorized lower bound,
``_transport_bound`` (sorted 1-D transports of angle, length and edge
midpoint), screens every candidate before any cost matrix exists; only a
candidate whose bound does not exceed the best score so far (plus the tie
margin) gets its own cost matrix and assignment solve.  Scores equal the
one-candidate-at-a-time computation bit for bit, so the same candidate
wins.  The transform arithmetic lives in one place, ``_similarity`` (the
parameters) and ``_placements`` (the moved coordinates), and the feature
rows of every placement, a graph's own included, come from
``_placement_features``.

Importing this module (and so ``editdist`` or ``bench``) loads numpy but
not scipy.  ``solve_lsap``, the one assignment solve, calls scipy's solver
through a module global that ``load_lsap`` binds by loading the solver's C
extension alone, never the ``scipy.optimize`` package.  ``bench.MatcherSpec``
calls ``load_lsap`` when it builds a ``bipartite`` or ``geometric`` matcher,
before any timed call; a direct call into this module (a distance, an
alignment, ``geometric_graph_isomorphism``) or ``bench.tune_weights`` binds
the solver on its first solve.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from importlib import import_module
from importlib.machinery import ExtensionFileLoader, PathFinder
from importlib.util import module_from_spec

import numpy as np

from .graphs import GeometricGraph, canonical_edge


class Assignment:
    """An optimal row-to-column assignment: scipy's row and column index
    arrays plus the total cost; the index pairs are built when read."""

    __slots__ = ("rows", "cols", "total_cost")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, total_cost: float):
        self.rows, self.cols, self.total_cost = rows, cols, total_cost

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.rows.tolist(), self.cols.tolist()))


# scipy's solver, bound by ``load_lsap``; None until the first load
_lsap = None


def load_lsap():
    """scipy's assignment solver, bound on the first call.

    Only the solver's C extension, ``scipy.optimize._lsap``, is loaded (and
    registered under that name), not the ``scipy.optimize`` package, whose
    import costs about 49 MB and 0.3 s; a later ``import scipy.optimize``
    reuses the registered extension, so both name the same solver.  A scipy
    whose solver is not that one extension loads the package.  Without
    scipy this raises ``ModuleNotFoundError``.
    """
    global _lsap
    if _lsap is None:
        import scipy

        name = "scipy.optimize._lsap"
        module = sys.modules.get(name)
        if module is None:
            spec = PathFinder.find_spec(name, [os.path.join(p, "optimize") for p in scipy.__path__])
            if spec is not None and isinstance(spec.loader, ExtensionFileLoader):
                module = module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[name] = module
            else:
                module = import_module("scipy.optimize")
        _lsap = module.linear_sum_assignment
    return _lsap


def solve_lsap(cost: np.ndarray) -> Assignment:
    """Minimum-cost linear sum assignment: scipy's shortest augmenting path
    solver (Crouse 2016, "On implementing 2D rectangular assignment
    algorithms", IEEE TAES 52), O(n^3) in the worst case.

    Infinite entries mark forbidden pairings; the matrix must still admit a
    feasible assignment.  Every assignment solve of the package goes through
    here.  Unless ``load_lsap`` has run, the first non-empty solve runs it.
    """
    matrix = np.asarray(cost, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"cost matrix must be square, got {matrix.shape}")
    if matrix.size == 0:
        none = np.zeros(0, dtype=np.intp)
        return Assignment(none, none, 0.0)
    rows, cols = (_lsap or load_lsap())(matrix)
    return Assignment(rows, cols, float(matrix[rows, cols].sum()))


@dataclass(frozen=True)
class DistanceWeights:
    """Term weights of the weighted geometric distance (finite, >= 0)."""

    w1: float = 1.0  # vertex term
    w2: float = 1.0  # edge angle term
    w3: float = 1.0  # edge length term
    w4: float = 1.0  # edge position term

    def __post_init__(self):
        for name in ("w1", "w2", "w3", "w4"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.w1, self.w2, self.w3, self.w4)


_ED_WEIGHTS = DistanceWeights(w4=0.0)
_EDM_WEIGHTS = DistanceWeights()


def _edge_terms(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E^A, E^L, E^P) for every pair of feature rows, the angle in radians:
    the one place these terms are computed.  None of them reads a weight.

    ``a`` is (..., m, 6) and ``b`` is (..., m', 6) with broadcastable leading
    axes; each term is (..., m, m').
    """
    d = a[..., :, None, :] - b[..., None, :, :]
    angle = np.abs(d[..., 0]) * math.pi / 180.0
    length = np.abs(d[..., 1])
    position = (np.hypot(d[..., 2], d[..., 3]) + np.hypot(d[..., 4], d[..., 5])) / 2.0
    return angle, length, position


def _weighted(terms, weights: DistanceWeights) -> np.ndarray:
    """w2 * E^A + w3 * E^L + w4 * E^P of ``_edge_terms``' terms: the one place
    they are weighted."""
    angle, length, position = terms
    return weights.w2 * angle + weights.w3 * length + weights.w4 * position


def _transport_bound(a: np.ndarray, b: np.ndarray, weights: DistanceWeights) -> np.ndarray:
    """A lower bound on the assignment optimum of ``_weighted(_edge_terms(a,
    b), weights)`` for the (m, 6) rows ``a`` and each (..., m, 6) row set ``b``.

    Per column c of theta, length, midpoint x and midpoint y, t_c sums
    |sort(a_c) - sort(b_c)|; the bound is
    w2 * t_theta * pi / 180 + w3 * t_length + w4 * max(t_mid_x, t_mid_y).
    It holds because the optimum of a sum of cost matrices is at least the
    sum of their optima, the sorted matching is optimal for the 1-D cost
    |x - y| (Villani 2003, Topics in Optimal Transportation, ch. 2), and
    E^P >= |midpoint difference| >= either axis of it (triangle inequality).
    """

    def sorted_columns(rows):
        cols = np.swapaxes(rows, -1, -2)
        mids = (cols[..., 2:4, :] + cols[..., 4:6, :]) / 2.0
        return np.sort(np.concatenate((cols[..., :2, :], mids), axis=-2), axis=-1)

    t = np.abs(sorted_columns(a) - sorted_columns(b)).sum(axis=-1)
    angle, length, position = t[..., 0] * math.pi / 180.0, t[..., 1], t[..., 2:].max(axis=-1)
    return weights.w2 * angle + weights.w3 * length + weights.w4 * position


# -- prepared rows -----------------------------------------------------------

# math's atan2 and hypot, elementwise: numpy's own differ from them in the
# last bit on a few percent of inputs, which would move feature rows, and
# with them distances and alignment near-ties, off the scalar math values.
_atan2 = np.frompyfunc(math.atan2, 2, 1)
_hypot = np.frompyfunc(math.hypot, 2, 1)


@dataclass(frozen=True, eq=False)
class GeometricRows:
    """What the weighted distance and the alignment read of one plane graph.

    ``coords`` holds the coordinates in vertex order (n, 2), ``ends`` each
    real edge's endpoint indices into ``coords`` in edge order (m, 2) and
    ``edges`` the feature rows of all m + empty_edges slots, the empty ones
    at the ``_means`` of the coordinates.  ``pads`` remembers ``_padded``'s
    results by (n, slots), so rows matched many times are padded once per
    size; the memo lives exactly as long as these rows.
    """

    coords: np.ndarray
    ends: np.ndarray
    edges: np.ndarray
    pads: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _means(coords: np.ndarray) -> np.ndarray:
    """The mean coordinate (C, 2) of each of C placements (C, n, 2), the
    origin for n = 0: the one mean of plane graphs, a running sum from 0.0,
    left to right in vertex order."""
    sums = np.concatenate((np.zeros((len(coords), 1, 2)), coords), axis=1).cumsum(axis=1)
    return sums[:, -1] / max(coords.shape[1], 1)


def _placement_features(coords: np.ndarray, ends: np.ndarray, slots: int) -> np.ndarray:
    """Edge feature rows (C, slots, 6) of C placements (C, n, 2) of one graph.

    Row k < m = len(ends) describes the segment between the endpoints
    ``ends[k]``; the rows past them are empty slots at the placement's own
    mean.
    """
    m = len(ends)
    p, q = coords[:, ends[:, 0]], coords[:, ends[:, 1]]
    # canonical order: p is left when (px, py) <= (qx, qy)
    p_left = (p[..., 0] < q[..., 0]) | ((p[..., 0] == q[..., 0]) & (p[..., 1] <= q[..., 1]))
    left = np.where(p_left[..., None], p, q)
    right = np.where(p_left[..., None], q, p)
    dx, dy = right[..., 0] - left[..., 0], right[..., 1] - left[..., 1]
    feats = np.zeros((len(coords), slots, 6))
    feats[:, :m, 0] = np.degrees(_atan2(dy, dx).astype(float)) % 180.0
    feats[:, :m, 1] = _hypot(dx, dy).astype(float)
    feats[:, :m, 2:4] = left
    feats[:, :m, 4:6] = right
    feats[:, m:, 2:4] = feats[:, m:, 4:6] = _means(coords)[:, None]
    return feats


def geometric_rows(g: GeometricGraph) -> GeometricRows:
    """g's rows for ``geometric_graph_distance`` and ``graph_alignment``;
    ValueError unless g has coordinates.  The one reader of a plane graph's
    coordinates and edges."""
    if not isinstance(g, GeometricGraph):
        raise ValueError("geometric distance needs graphs with coordinates")
    index = {v: i for i, v in enumerate(g.vertices)}
    coords = np.array([g.coords[v] for v in g.vertices]).reshape(-1, 2)
    ends = np.array([(index[u], index[v]) for u, v in g.edges], dtype=np.intp).reshape(-1, 2)
    feats = _placement_features(coords[None], ends, g.m + g.empty_edges)[0]
    return GeometricRows(coords, ends, feats)


def _rows_of(g) -> GeometricRows:
    return g if isinstance(g, GeometricRows) else geometric_rows(g)


def edge_features(g: GeometricGraph) -> np.ndarray:
    """Feature rows of g, shape (m + empty_edges, 6): one row
    (theta, length, left x, left y, right x, right y) per real edge in edge
    order, then one empty row (angle 0, length 0, both endpoints at the mean
    coordinate) per empty slot."""
    return geometric_rows(g).edges


def _padded(r: GeometricRows, n: int, slots: int) -> GeometricRows:
    """r padded to n vertices and ``slots`` edge slots, for ``_pair`` and so
    for ``pad_to_equal``: new vertices at r's ``_means``, then r's real rows,
    then every empty slot at the padded ``_means``.  r itself when it has
    that size already; otherwise the same padded rows for every call with
    that size (remembered in ``r.pads``)."""
    if n == len(r.coords) and slots == len(r.edges):
        return r
    padded = r.pads.get((n, slots))
    if padded is None:
        m, new = len(r.ends), n - len(r.coords)
        coords = np.concatenate((r.coords, np.full((new, 2), _means(r.coords[None])[0])))
        mx, my = _means(coords[None])[0]
        feats = np.concatenate((r.edges[:m], np.full((slots - m, 6), (0.0, 0.0, mx, my, mx, my))))
        padded = r.pads[n, slots] = GeometricRows(coords, r.ends, feats)
    return padded


def _has_alignable_edge(g) -> bool:
    """Whether g (a graph or its rows) has an edge of positive length."""
    r = _rows_of(g)
    return bool((r.edges[: len(r.ends), 1] > 0.0).any())


# -- elementary distances ----------------------------------------------------


def _vertex_cost_matrix(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Euclidean distance between every pair of (n, 2) coordinate rows."""
    return np.hypot(c1[:, 0, None] - c2[:, 0], c1[:, 1, None] - c2[:, 1])


def _vertex_assignment(c1: np.ndarray, c2: np.ndarray) -> Assignment:
    """The optimal assignment between two (n, 2) coordinate arrays by
    Euclidean distance; its total is VD.  The one vertex-assignment path."""
    return solve_lsap(_vertex_cost_matrix(c1, c2))


def vertex_distance(g1: GeometricGraph, g2: GeometricGraph) -> float:
    """Minimal total Euclidean movement matching the two vertex sets."""
    if g1.n != g2.n:
        raise ValueError(f"unequal vertex counts ({g1.n} vs {g2.n}); pad first")
    return _vertex_assignment(geometric_rows(g1).coords, geometric_rows(g2).coords).total_cost


def _edge_assignment(
    g1: GeometricGraph, g2: GeometricGraph, weights: DistanceWeights
) -> Assignment:
    feats1, feats2 = edge_features(g1), edge_features(g2)
    if len(feats1) != len(feats2):
        raise ValueError(
            f"unequal edge counts ({len(feats1)} vs {len(feats2)}); pad first"
        )
    return solve_lsap(_weighted(_edge_terms(feats1, feats2), weights))


def edge_distance(g1: GeometricGraph, g2: GeometricGraph) -> float:
    """Optimal-assignment sum of angle and length differences."""
    return _edge_assignment(g1, g2, _ED_WEIGHTS).total_cost


def edge_distance_metric(g1: GeometricGraph, g2: GeometricGraph) -> float:
    """Like edge_distance but with the endpoint-position term added."""
    return _edge_assignment(g1, g2, _EDM_WEIGHTS).total_cost


def graph_distance(g1: GeometricGraph, g2: GeometricGraph) -> float:
    return vertex_distance(g1, g2) + edge_distance(g1, g2)


def graph_distance_metric(g1: GeometricGraph, g2: GeometricGraph) -> float:
    return vertex_distance(g1, g2) + edge_distance_metric(g1, g2)


# -- padding -----------------------------------------------------------------


def pad_to_equal(
    g1: GeometricGraph, g2: GeometricGraph
) -> tuple[GeometricGraph, GeometricGraph]:
    """Equalize vertex and edge counts.

    The smaller vertex set receives fresh vertices at the mean coordinate of
    its own existing vertices (the origin for an empty graph); the smaller
    edge list receives empty feature slots (``_pair``'s padding, on graphs).
    A graph already at both sizes comes back as itself.
    """
    rows = geometric_rows(g1), geometric_rows(g2)
    g1, g2 = (
        g if p is r else _moved(g, p.coords, len(p.edges))
        for g, r, p in zip((g1, g2), rows, _pair(*rows, None))
    )
    return g1, g2


# -- alignment ---------------------------------------------------------------

def _similarity(p, q, e_ref):
    """(scale, cos, sin, fx, fy, ax, ay) of the similarity transform mapping
    segment p-q onto ``e_ref``: x goes to (ax, ay) + scale * R (x - (fx, fy)),
    where (fx, fy) is p-q's canonical left endpoint and (ax, ay) e_ref's
    first point."""
    (fx, fy), (rx, ry) = (p, q) if (p[0], p[1]) <= (q[0], q[1]) else (q, p)
    length = math.hypot(rx - fx, ry - fy)
    if length == 0.0:
        raise ValueError("cannot align on a zero-length edge")
    (ax, ay), (bx, by) = e_ref
    ref_len = math.hypot(bx - ax, by - ay)
    if ref_len == 0.0:
        raise ValueError("reference segment has zero length")
    angle = math.atan2(by - ay, bx - ax) - math.atan2(ry - fy, rx - fx)
    return ref_len / length, math.cos(angle), math.sin(angle), fx, fy, ax, ay


def _placements(coords: np.ndarray, moves) -> np.ndarray:
    """The (n, 2) coordinates as they are, then under each ((i, j), e_ref)
    move, the transform mapping the segment from point i to point j onto
    e_ref: shape (1 + len(moves), n, 2).  This and ``_similarity`` are the
    one place the transform is computed."""
    points = coords.tolist()
    params = np.array([_similarity(points[i], points[j], e) for (i, j), e in moves])
    scale, cos_a, sin_a, fx, fy, ax, ay = params.reshape(-1, 7).T[..., None]
    px, py = coords[:, 0] - fx, coords[:, 1] - fy
    moved = (ax + scale * (cos_a * px - sin_a * py), ay + scale * (sin_a * px + cos_a * py))
    return np.concatenate((coords[None], np.stack(moved, -1)))


def _moved(g: GeometricGraph, coords: np.ndarray, slots: int) -> GeometricGraph:
    """g on the (n, 2) ``coords`` in vertex order, n >= g.n, with ``slots``
    edge slots: the vertices past g's own take the next free ids and empty
    labels."""
    start = max(g.vertices, default=-1) + 1
    vertices = g.vertices + tuple(range(start, start + len(coords) - g.n))
    return GeometricGraph(
        vertices, g.edges, dict(zip(vertices, coords.tolist())), g.node_labels,
        g.edge_labels, empty_edges=slots - g.m,
    )


def geometric_transform(
    g: GeometricGraph,
    f: tuple[int, int],
    e_ref: tuple[tuple[float, float], tuple[float, float]],
) -> GeometricGraph:
    """Similarity transform mapping edge ``f`` of ``g`` onto segment ``e_ref``.

    The canonical left endpoint of f lands on e_ref's first point, f's
    direction turns onto e_ref's direction, and the whole graph is scaled
    uniformly so f's length becomes e_ref's length.  Ratios between all
    coordinates are preserved; labels are untouched (geometric operations
    read coordinates only).
    """
    u, v = canonical_edge(*f)
    if not g.has_edge(u, v):
        raise ValueError(f"no edge ({u}, {v})")
    move = ((g.vertices.index(u), g.vertices.index(v)), e_ref)
    return _moved(g, _placements(geometric_rows(g).coords, [move])[1], g.m + g.empty_edges)


def graph_alignment(
    g1: GeometricGraph | GeometricRows, g2: GeometricGraph | GeometricRows, variant: str = "ed"
) -> GeometricGraph | GeometricRows:
    """Rotate/translate/scale g2 to fit g1 as well as possible.

    Either graph may be given as its ``geometric_rows``; g2 comes back in the
    form it was given, and as g2 itself when the identity wins.

    Candidates are g2 itself plus, for every nondegenerate edge f of g2, the
    transforms mapping f onto g1's longest edge in either endpoint order; the
    candidate minimizing the edge distance ("ed") or its metric variant
    ("edm") against g1 wins.  Near-ties fall back to the position-aware
    score, then to candidate order, so the identity keeps exact ties.

    Candidates are visited in that order.  One whose ``_transport_bound``
    exceeds the best primary score so far plus the tie margin can neither
    win nor tie, so its cost matrix is never built and its assignment never
    solved.
    """
    if variant not in ("ed", "edm"):
        raise ValueError(f"unknown alignment variant {variant!r}")
    r1, r2 = _rows_of(g1), _rows_of(g2)
    if not _has_alignable_edge(r1) or not _has_alignable_edge(r2):
        raise ValueError("alignment needs a positive-length edge in both graphs")
    primary_weights = _EDM_WEIGHTS if variant == "edm" else _ED_WEIGHTS
    # g1's longest edge; argmax takes the first in edge order
    _, _, lx, ly, rx, ry = r1.edges[np.argmax(r1.edges[:, 1])].tolist()
    # every candidate keeps g2's edge slots, so g1's side is padded to them once
    if len(r1.edges) < len(r2.edges):
        r1 = _padded(r1, len(r1.coords), len(r2.edges))
    a, slots = r1.edges, len(r1.edges)

    # candidate 0 is g2 itself, candidate i > 0 applies moves[i - 1]
    moves = [
        (ends, e_ref)
        for ends, length in zip(r2.ends.tolist(), r2.edges[:, 1].tolist())
        if length > 0.0
        for e_ref in (((lx, ly), (rx, ry)), ((rx, ry), (lx, ly)))
    ]
    placements = _placements(r2.coords, moves)
    feats = _placement_features(placements, r2.ends, slots)
    bounds = _transport_bound(a, feats, primary_weights).tolist()

    # The slope angle is blind to 180-degree rotations, so a point-reflected
    # candidate ties the true inverse on ED; among near-ties the smaller
    # position-aware score picks the right witness.
    best, best_primary, best_secondary = 0, math.inf, math.inf
    for k, b in enumerate(feats):
        if bounds[k] > best_primary + 1e-9:
            continue  # can neither win nor tie: skip its cost matrix and LSAP
        terms = _edge_terms(a, b)
        primary = solve_lsap(_weighted(terms, primary_weights)).total_cost
        if primary > best_primary + 1e-9:
            continue
        secondary = primary  # "edm" has no separate tie-break score
        if variant == "ed":
            secondary = solve_lsap(_weighted(terms, _EDM_WEIGHTS)).total_cost
        if primary < best_primary - 1e-9 or secondary < best_secondary - 1e-9:
            best, best_primary, best_secondary = k, primary, secondary
    if best == 0:
        return g2
    if isinstance(g2, GeometricRows):
        # copies: views would keep every candidate's placement and rows alive
        return GeometricRows(
            placements[best].copy(), r2.ends, feats[best, : len(r2.edges)].copy()
        )
    return _moved(g2, placements[best], len(r2.edges))


# -- verdicts and weighted distance ------------------------------------------


@dataclass(frozen=True)
class GeometricIsomorphism:
    """An isomorphism verdict, its distance and the optimal vertex assignment.

    ``vertex_mapping`` holds positions, not vertex ids: each pair is (index
    into g1's padded vertex order, index into g2's).  Vertices (10, 20, 30)
    matched onto (7, 5, 3) in reverse read ((0, 2), (1, 1), (2, 0)).
    """

    verdict: str  # "isomorphic" | "t_tolerant" | "distance"
    distance: float
    vertex_mapping: tuple[tuple[int, int], ...] = ()


def _edge_endpoints_consistent(
    r1: GeometricRows,
    r2: GeometricRows,
    vertex_pairs,
    edge_pairs,
) -> bool:
    """Every real g1 edge must map onto a real g2 edge (not an empty slot)
    joining the images of its endpoints: the vertex and edge assignments must
    tell the same story.  Both assignments list their rows in order."""
    image = dict(vertex_pairs)
    ends2 = r2.ends.tolist()
    return all(
        j < len(ends2) and {image[a], image[b]} == set(ends2[j])
        for (a, b), (_, j) in zip(r1.ends.tolist(), edge_pairs)
    )


def _pair(g1, g2, variant: str | None) -> tuple[GeometricRows, GeometricRows]:
    """The rows of g1 and g2 (graphs or rows) padded to one size, with g2
    aligned to g1 under ``variant`` ("ed" or "edm"; None for no alignment):
    the one pair path of the distance and the isomorphism verdict.  Each
    side is padded once.  g2 stays where it is unless both padded sides
    have a positive-length edge to align on."""
    r1, r2 = _rows_of(g1), _rows_of(g2)
    n, slots = max(len(r1.coords), len(r2.coords)), max(len(r1.edges), len(r2.edges))
    r1, r2 = _padded(r1, n, slots), _padded(r2, n, slots)
    if variant and _has_alignable_edge(r1) and _has_alignable_edge(r2):
        r2 = graph_alignment(r1, r2, variant)
    return r1, r2


def geometric_graph_isomorphism(
    g1: GeometricGraph, g2: GeometricGraph, tolerance: float = 0.0
) -> GeometricIsomorphism:
    """Three-way verdict: exactly isomorphic under a similarity transform,
    isomorphic within a coordinate tolerance, or merely at some distance.

    g2 is aligned to g1 first.  "Isomorphic" requires the combined vertex +
    edge distance to vanish (<= 1e-9) with consistent assignments;
    "t_tolerant" relaxes vanishing to per-axis coordinate differences
    strictly below ``tolerance`` for every matched vertex pair.  Graphs of
    unequal size are padded and can only yield a distance verdict.  Unless
    ``load_lsap`` has run, the first call loads scipy.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    r1, r2 = _rows_of(g1), _rows_of(g2)
    sizes_match = len(r1.coords) == len(r2.coords) and len(r1.edges) == len(r2.edges)
    r1, r2 = _pair(r1, r2, "ed")
    vassign = _vertex_assignment(r1.coords, r2.coords)
    mapping = vassign.pairs
    terms = _edge_terms(r1.edges, r2.edges)
    ed_costs = _weighted(terms, _ED_WEIGHTS)
    eassign = solve_lsap(ed_costs)
    gd = vassign.total_cost + eassign.total_cost
    if not sizes_match:
        return GeometricIsomorphism("distance", gd, mapping)

    consistent = _edge_endpoints_consistent(r1, r2, mapping, eassign.pairs)
    if not consistent:
        # Edges with identical angle and length tie in the assignment and the
        # solver may pick a geometrically crossed optimum; retry with the
        # position term as tie-break, accepted only when it costs no more.
        tie_broken = solve_lsap(_weighted(terms, _EDM_WEIGHTS))
        retry_cost = math.fsum(ed_costs[i, j] for i, j in tie_broken.pairs)
        if retry_cost <= eassign.total_cost + 1e-9:
            consistent = _edge_endpoints_consistent(
                r1, r2, mapping, tie_broken.pairs
            )
    if gd <= 1e-9 and consistent:
        return GeometricIsomorphism("isomorphic", gd, mapping)

    if tolerance > 0 and consistent:
        if (np.abs(r1.coords[vassign.rows] - r2.coords[vassign.cols]) < tolerance).all():
            return GeometricIsomorphism("t_tolerant", gd, mapping)
    return GeometricIsomorphism("distance", gd, mapping)


def geometric_graph_distance(
    g1: GeometricGraph | GeometricRows,
    g2: GeometricGraph | GeometricRows,
    weights: DistanceWeights = DistanceWeights(),
    align: bool = False,
    *,
    terms=None,
) -> float:
    """Weighted geometric distance between arbitrary plane graphs.

    Pads to equal size, optionally aligns g2 to g1 (metric variant), then
    returns w1 * VD plus the optimal assignment total of
    w2 * E^A + w3 * E^L + w4 * E^P over the edge features.  With unit weights
    and no alignment this equals graph_distance_metric on the padded pair.
    At w1 = 0 no vertex assignment is solved; the result is the same bit
    for bit.  Both graphs must be GeometricGraphs (ValueError otherwise);
    either may be given as its ``geometric_rows``, with the same result bit
    for bit, so that a graph matched many times is prepared once.

    ``terms``, when given, are the ``_edge_terms`` of the pair's padded
    feature rows, so that a caller scoring one pair under many weight
    vectors builds them once; only their weighting and the edge assignment
    run per call, and the result is the same bit for bit.  Terms of another
    shape, or terms together with ``align``, raise ValueError.
    """
    if terms is not None and align:
        raise ValueError("edge terms cannot be given for an aligned pair")
    r1, r2 = _pair(g1, g2, "edm" if align else None)
    if terms is None:
        terms = _edge_terms(r1.edges, r2.edges)
    else:
        angle, length, position = terms
        if not angle.shape == length.shape == position.shape == (len(r1.edges), len(r2.edges)):
            raise ValueError(f"edge terms do not fit the padded pair's {len(r1.edges)} slots")
    vd = _vertex_assignment(r1.coords, r2.coords).total_cost if weights.w1 else 0.0
    return weights.w1 * vd + solve_lsap(_weighted(terms, weights)).total_cost

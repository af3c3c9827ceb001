"""Geometric graph distances: assignment-based matching of plane graphs.

Vertices are compared by Euclidean distance between coordinates; edges by
features extracted per edge:

* theta, the undirected slope angle in degrees, canonicalized to [0, 180);
* length;
* the two endpoints in canonical order ("left" = smaller x, tie on y).

Every distance here is a setting of one weighted family,
w1 * VD + sum(w2 * E^A + w3 * E^L + w4 * E^P) over an optimal edge
assignment.  VD is the minimal total vertex movement; per matched edge pair,
E^A is the absolute angle difference in radians, E^L the absolute length
difference, E^P the mean distance between corresponding canonical endpoints.
The edge distance ED is the (., 1, 1, 0) setting and its metric variant EDM
the (., 1, 1, 1) setting; GD and GDM add VD at w1 = 1.  Weights of 1 and 0
are exact, so these equal the weighted distance bit for bit.

Graphs of unequal size are padded: extra vertices at the mean coordinate of
the smaller graph's own vertices, extra edge slots as "empty" features
(angle 0, length 0, endpoints at the graph mean).  Empty slots are counted
on the graph (``empty_edges``), never materialized as structural edges.

Alignment searches for a similarity transform (rotation, translation,
uniform scaling) of g2 that minimizes the edge distance against g1: every
nondegenerate edge of g2, in both endpoint orders, is mapped onto g1's
longest edge, and the identity is always a candidate, so aligning never
hurts.  All of this happens in g1's own coordinate frame, which keeps
tolerance thresholds in input units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graphs import GeometricGraph, canonical_edge

CostMatrix = np.ndarray


@dataclass(frozen=True)
class Assignment:
    """An optimal row-to-column assignment: index pairs plus total cost."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def solve_lsap(cost: CostMatrix) -> Assignment:
    """Minimum-cost linear sum assignment (Hungarian method, O(n^3)).

    Infinite entries mark forbidden pairings; the matrix must still admit a
    feasible assignment.
    """
    matrix = np.asarray(cost, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"cost matrix must be square, got {matrix.shape}")
    if matrix.size == 0:
        return Assignment((), 0.0)
    rows, cols = linear_sum_assignment(matrix)
    total = float(matrix[rows, cols].sum())
    return Assignment(tuple(zip(rows.tolist(), cols.tolist())), total)


# -- edge features -----------------------------------------------------------


@dataclass(frozen=True)
class EdgeFeature:
    theta: float  # degrees, in [0, 180)
    length: float
    left: tuple[float, float]
    right: tuple[float, float]


def edge_feature(p: tuple[float, float], q: tuple[float, float]) -> EdgeFeature:
    """Feature of the segment p-q with endpoints in canonical order."""
    left, right = (p, q) if (p[0], p[1]) <= (q[0], q[1]) else (q, p)
    dx, dy = right[0] - left[0], right[1] - left[1]
    theta = math.degrees(math.atan2(dy, dx)) % 180.0
    return EdgeFeature(theta, math.hypot(dx, dy), left, right)


def empty_edge_feature(mean: tuple[float, float]) -> EdgeFeature:
    return EdgeFeature(0.0, 0.0, mean, mean)


def edge_features(g: GeometricGraph) -> list[EdgeFeature]:
    """Features of the real edges followed by the graph's empty slots."""
    feats = [edge_feature(g.coords[u], g.coords[v]) for u, v in g.edges]
    if g.empty_edges:
        feats.extend([empty_edge_feature(g.mean_coord())] * g.empty_edges)
    return feats


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


def _edge_cost_matrix(
    feats1: list[EdgeFeature], feats2: list[EdgeFeature], weights: DistanceWeights
) -> np.ndarray:
    """w2 * E^A + w3 * E^L + w4 * E^P for every pair of edge features (the
    one place these terms are computed)."""
    a, b = (
        np.array([(f.theta, f.length, *f.left, *f.right) for f in feats]).reshape(-1, 6)
        for feats in (feats1, feats2)
    )
    d = a[:, None, :] - b[None, :, :]
    angle = np.abs(d[..., 0]) * math.pi / 180.0
    length = np.abs(d[..., 1])
    position = (np.hypot(d[..., 2], d[..., 3]) + np.hypot(d[..., 4], d[..., 5])) / 2.0
    return weights.w2 * angle + weights.w3 * length + weights.w4 * position


# -- elementary distances ----------------------------------------------------


def _vertex_assignment(g1: GeometricGraph, g2: GeometricGraph) -> tuple[float, Assignment]:
    if g1.n != g2.n:
        raise ValueError(f"unequal vertex counts ({g1.n} vs {g2.n}); pad first")
    c1, c2 = (np.array([g.coords[v] for v in g.vertices]).reshape(-1, 2) for g in (g1, g2))
    d = c1[:, None, :] - c2[None, :, :]
    assignment = solve_lsap(np.hypot(d[..., 0], d[..., 1]))
    return assignment.total_cost, assignment


def vertex_distance(g1: GeometricGraph, g2: GeometricGraph) -> float:
    """Minimal total Euclidean movement matching the two vertex sets."""
    return _vertex_assignment(g1, g2)[0]


def _edge_assignment(
    g1: GeometricGraph, g2: GeometricGraph, weights: DistanceWeights
) -> tuple[float, Assignment]:
    feats1, feats2 = edge_features(g1), edge_features(g2)
    if len(feats1) != len(feats2):
        raise ValueError(
            f"unequal edge counts ({len(feats1)} vs {len(feats2)}); pad first"
        )
    assignment = solve_lsap(_edge_cost_matrix(feats1, feats2, weights))
    return assignment.total_cost, assignment


def edge_distance(g1: GeometricGraph, g2: GeometricGraph) -> float:
    """Optimal-assignment sum of angle and length differences."""
    return _edge_assignment(g1, g2, _ED_WEIGHTS)[0]


def edge_distance_metric(g1: GeometricGraph, g2: GeometricGraph) -> float:
    """Like edge_distance but with the endpoint-position term added."""
    return _edge_assignment(g1, g2, _EDM_WEIGHTS)[0]


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
    edge list receives empty feature slots.
    """

    def pad(g: GeometricGraph, n_target: int, f_target: int) -> GeometricGraph:
        extra_n = n_target - g.n
        extra_f = f_target - (g.m + g.empty_edges)
        if extra_n == 0 and extra_f == 0:
            return g
        vertices = list(g.vertices)
        coords = dict(g.coords)
        labels = dict(g.node_labels)
        mean = g.mean_coord()
        next_id = max(vertices, default=-1) + 1
        for _ in range(extra_n):
            vertices.append(next_id)
            coords[next_id] = mean
            labels[next_id] = None
            next_id += 1
        return GeometricGraph(
            vertices,
            g.edges,
            coords,
            labels,
            dict(g.edge_labels),
            empty_edges=g.empty_edges + extra_f,
        )

    n_target = max(g1.n, g2.n)
    f_target = max(g1.m + g1.empty_edges, g2.m + g2.empty_edges)
    return pad(g1, n_target, f_target), pad(g2, n_target, f_target)


# -- alignment ---------------------------------------------------------------


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
    feat = edge_feature(g.coords[u], g.coords[v])
    if feat.length == 0.0:
        raise ValueError("cannot align on a zero-length edge")
    (ax, ay), (bx, by) = e_ref
    ref_len = math.hypot(bx - ax, by - ay)
    if ref_len == 0.0:
        raise ValueError("reference segment has zero length")
    scale = ref_len / feat.length
    angle = math.atan2(by - ay, bx - ax) - math.atan2(
        feat.right[1] - feat.left[1], feat.right[0] - feat.left[0]
    )
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    fx, fy = feat.left

    def transform(p):
        px, py = p[0] - fx, p[1] - fy
        return (
            ax + scale * (cos_a * px - sin_a * py),
            ay + scale * (sin_a * px + cos_a * py),
        )

    return GeometricGraph(
        g.vertices,
        g.edges,
        {w: transform(g.coords[w]) for w in g.vertices},
        dict(g.node_labels),
        dict(g.edge_labels),
        empty_edges=g.empty_edges,
    )


def _has_alignable_edge(g: GeometricGraph) -> bool:
    return any(
        g.coords[u] != g.coords[v] for u, v in g.edges
    )


def graph_alignment(
    g1: GeometricGraph, g2: GeometricGraph, variant: str = "ed"
) -> GeometricGraph:
    """Rotate/translate/scale g2 to fit g1 as well as possible.

    Candidates are g2 itself plus, for every nondegenerate edge f of g2, the
    transforms mapping f onto g1's longest edge in either endpoint order; the
    candidate minimizing the edge distance ("ed") or its metric variant
    ("edm") against g1 wins.  Near-ties fall back to the position-aware
    score, then to candidate order, so the identity keeps exact ties.
    """
    if variant not in ("ed", "edm"):
        raise ValueError(f"unknown alignment variant {variant!r}")
    if not _has_alignable_edge(g1) or not _has_alignable_edge(g2):
        raise ValueError("alignment needs a positive-length edge in both graphs")
    # the primary score first, the position-aware tie-break score last
    score_weights = (_EDM_WEIGHTS,) if variant == "edm" else (_ED_WEIGHTS, _EDM_WEIGHTS)
    feats1 = edge_features(g1)
    # g1's longest edge; ties go to the first in canonical edge order
    ref = max(feats1, key=lambda f: f.length)
    # every candidate keeps g2's edge slots, so g1's side is padded once
    n = max(len(feats1), g2.m + g2.empty_edges)
    feats1 += [empty_edge_feature(g1.mean_coord())] * (n - len(feats1))

    def scores(candidate: GeometricGraph) -> tuple[float, float]:
        feats2 = edge_features(candidate)
        feats2 += [empty_edge_feature(candidate.mean_coord())] * (n - len(feats2))
        costs = [
            solve_lsap(_edge_cost_matrix(feats1, feats2, w)).total_cost
            for w in score_weights
        ]
        return costs[0], costs[-1]

    # The slope angle is blind to 180-degree rotations, so a point-reflected
    # candidate ties the true inverse on ED; among near-ties the smaller
    # position-aware score picks the right witness.
    best, (best_primary, best_secondary) = g2, scores(g2)
    for f in g2.edges:
        if g2.coords[f[0]] == g2.coords[f[1]]:
            continue
        for e_ref in ((ref.left, ref.right), (ref.right, ref.left)):
            candidate = geometric_transform(g2, f, e_ref)
            primary, secondary = scores(candidate)
            if primary < best_primary - 1e-9 or (
                primary <= best_primary + 1e-9
                and secondary < best_secondary - 1e-9
            ):
                best = candidate
                best_primary, best_secondary = primary, secondary
    return best


# -- verdicts and weighted distance ------------------------------------------


@dataclass(frozen=True)
class GeometricIsomorphism:
    verdict: str  # "isomorphic" | "t_tolerant" | "distance"
    distance: float
    vertex_mapping: tuple[tuple[int, int], ...] = ()


def _edge_endpoints_consistent(
    g1: GeometricGraph,
    g2: GeometricGraph,
    vertex_pairs,
    edge_pairs,
) -> bool:
    """Every real g1 edge must map onto a real g2 edge joining the images of
    its endpoints (the vertex and edge assignments must tell the same story).
    """
    vmap = {g1.vertices[i]: g2.vertices[j] for i, j in vertex_pairs}
    edges2 = g2.edges
    assigned = dict(edge_pairs)
    for idx, (a, b) in enumerate(g1.edges):
        j = assigned.get(idx)
        if j is None or j >= len(edges2):
            return False  # matched onto an empty slot
        if canonical_edge(vmap[a], vmap[b]) != edges2[j]:
            return False
    return True


def geometric_graph_isomorphism(
    g1: GeometricGraph, g2: GeometricGraph, tolerance: float = 0.0
) -> GeometricIsomorphism:
    """Three-way verdict: exactly isomorphic under a similarity transform,
    isomorphic within a coordinate tolerance, or merely at some distance.

    g2 is aligned to g1 first.  "Isomorphic" requires the combined vertex +
    edge distance to vanish (<= 1e-9) with consistent assignments;
    "t_tolerant" relaxes vanishing to per-axis coordinate differences
    strictly below ``tolerance`` for every matched vertex pair.  Graphs of
    unequal size are padded and can only yield a distance verdict.
    """
    sizes_match = g1.n == g2.n and g1.m + g1.empty_edges == g2.m + g2.empty_edges
    p1, p2 = pad_to_equal(g1, g2)
    if _has_alignable_edge(p1) and _has_alignable_edge(p2):
        p2 = graph_alignment(p1, p2, "ed")
    vd, vassign = _vertex_assignment(p1, p2)
    ed, eassign = _edge_assignment(p1, p2, _ED_WEIGHTS)
    gd = vd + ed
    if not sizes_match:
        return GeometricIsomorphism("distance", gd, vassign.pairs)

    consistent = _edge_endpoints_consistent(p1, p2, vassign.pairs, eassign.pairs)
    if not consistent:
        # Edges with identical angle and length tie in the assignment and the
        # solver may pick a geometrically crossed optimum; retry with the
        # position term as tie-break, accepted only when it costs no more.
        _, tie_broken = _edge_assignment(p1, p2, _EDM_WEIGHTS)
        ed_costs = _edge_cost_matrix(edge_features(p1), edge_features(p2), _ED_WEIGHTS)
        retry_cost = sum(ed_costs[i, j] for i, j in tie_broken.pairs)
        if retry_cost <= ed + 1e-9:
            consistent = _edge_endpoints_consistent(
                p1, p2, vassign.pairs, tie_broken.pairs
            )
    if gd <= 1e-9 and consistent:
        return GeometricIsomorphism("isomorphic", gd, vassign.pairs)

    if tolerance > 0 and consistent:
        within = all(
            abs(p1.coords[p1.vertices[i]][0] - p2.coords[p2.vertices[j]][0]) < tolerance
            and abs(p1.coords[p1.vertices[i]][1] - p2.coords[p2.vertices[j]][1]) < tolerance
            for i, j in vassign.pairs
        )
        if within:
            return GeometricIsomorphism("t_tolerant", gd, vassign.pairs)
    return GeometricIsomorphism("distance", gd, vassign.pairs)


def geometric_graph_distance(
    g1: GeometricGraph,
    g2: GeometricGraph,
    weights: DistanceWeights = DistanceWeights(),
    align: bool = False,
) -> float:
    """Weighted geometric distance between arbitrary plane graphs.

    Pads to equal size, optionally aligns g2 to g1 (metric variant), then
    returns w1 * VD plus the optimal assignment total of
    w2 * E^A + w3 * E^L + w4 * E^P over the edge features.  With unit weights
    and no alignment this equals graph_distance_metric on the padded pair.
    """
    p1, p2 = pad_to_equal(g1, g2)
    if align and _has_alignable_edge(p1) and _has_alignable_edge(p2):
        p2 = graph_alignment(p1, p2, "edm")
    vd = vertex_distance(p1, p2)
    ed, _ = _edge_assignment(p1, p2, weights)
    return weights.w1 * vd + ed

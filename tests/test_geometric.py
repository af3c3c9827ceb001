"""Geometric distances, alignment and isomorphism against permutation oracles."""

from __future__ import annotations

import gc
import itertools
import math
import random
import weakref

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from graphmatch import geometric
from graphmatch.bench import MatcherSpec
from graphmatch.geometric import (
    DistanceWeights,
    GeometricIsomorphism,
    _edge_cost_matrix,
    _pair,
    _placement_features,
    _placements,
    _transport_bound,
    edge_distance,
    edge_distance_metric,
    edge_features,
    geometric_graph_distance,
    geometric_graph_isomorphism,
    geometric_rows,
    geometric_transform,
    graph_alignment,
    graph_distance,
    graph_distance_metric,
    pad_to_equal,
    solve_lsap,
    vertex_distance,
)
from graphmatch.graphs import AttributedGraph, GeometricGraph, canonical_edge, random_graph


# -- oracles and generators ---------------------------------------------------


def oracle_lsap(matrix):
    """Assignment minimum by trying all permutations."""
    n = len(matrix)
    return min(
        sum(matrix[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def oracle_vertex_distance(g1, g2):
    c1 = [g1.coords[v] for v in g1.vertices]
    c2 = [g2.coords[v] for v in g2.vertices]
    return min(
        sum(math.dist(p, c2[j]) for p, j in zip(c1, perm))
        for perm in itertools.permutations(range(len(c2)))
    )


def left_to_right_mean(points):
    """Mean of (x, y) points summed left to right from 0.0, the origin for
    none: the mean ``geometric._means`` must equal bit for bit."""
    sx = sy = 0.0
    for x, y in points:
        sx += x
        sy += y
    n = max(len(points), 1)
    return (sx / n, sy / n)


# Feature rows: column 0 = theta, 1 = length, 2:4 = left, 4:6 = right.


def _feature_cost(a, b, position, w=(1.0, 1.0, 1.0)):
    cost = w[0] * abs(a[0] - b[0]) * math.pi / 180.0
    cost += w[1] * abs(a[1] - b[1])
    if position:
        cost += w[2] * (math.dist(a[2:4], b[2:4]) + math.dist(a[4:6], b[4:6])) / 2.0
    return cost


def oracle_edge_distance(g1, g2, position, w=(1.0, 1.0, 1.0)):
    f1, f2 = edge_features(g1), edge_features(g2)
    if not len(f1):
        return 0.0
    return min(
        sum(_feature_cost(a, f2[j], position, w) for a, j in zip(f1, perm))
        for perm in itertools.permutations(range(len(f2)))
    )


def random_geometric(rng, n, p=0.5, span=4.0):
    base = random_graph(n, p, seed=rng.randrange(10**9))
    coords = {v: (rng.uniform(0, span), rng.uniform(0, span)) for v in base.vertices}
    return GeometricGraph(base.vertices, base.edges, coords)


def random_geometric_fixed(rng, n, m, span=4.0):
    """n vertices, exactly m edges, nobody isolated (metric-lemma shape)."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        edges = rng.sample(pairs, m)
        if all(any(v in e for e in edges) for v in range(n)):
            break
    coords = {v: (rng.uniform(0, span), rng.uniform(0, span)) for v in range(n)}
    return GeometricGraph(range(n), edges, coords)


def similarity_copy(g, angle, scale, shift):
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    coords = {
        v: (
            scale * (cos_a * x - sin_a * y) + shift[0],
            scale * (sin_a * x + cos_a * y) + shift[1],
        )
        for v, (x, y) in g.coords.items()
    }
    return GeometricGraph(g.vertices, g.edges, coords)


def square(side=1.0, origin=(0.0, 0.0)):
    ox, oy = origin
    coords = {
        0: (ox, oy),
        1: (ox + side, oy),
        2: (ox + side, oy + side),
        3: (ox, oy + side),
    }
    return GeometricGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)], coords)


def reference_lsap(matrix):
    """(pairs, total) of ``solve_lsap`` as an eager solver builds them: the
    index pairs as a tuple right away, the total as a Python float."""
    if matrix.size == 0:
        return (), 0.0
    rows, cols = linear_sum_assignment(matrix)
    return tuple(zip(rows.tolist(), cols.tolist())), float(matrix[rows, cols].sum())


# -- assignment solver ---------------------------------------------------


class TestSolveLsap:
    def test_identity_favoring(self):
        a = solve_lsap(np.array([[0.0, 9.0], [9.0, 0.0]]))
        assert dict(a.pairs) == {0: 0, 1: 1}
        assert a.total_cost == 0.0

    def test_all_equal_is_a_tie(self):
        a = solve_lsap(np.full((4, 4), 2.5))
        assert a.total_cost == pytest.approx(10.0)
        assert sorted(j for _, j in a.pairs) == [0, 1, 2, 3]

    def test_empty(self):
        assert solve_lsap(np.zeros((0, 0))).pairs == ()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            solve_lsap(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            solve_lsap(np.zeros(4))

    def test_matches_permutation_oracle(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 6)
            matrix = [[rng.randint(0, 20) for _ in range(n)] for _ in range(n)]
            got = solve_lsap(np.array(matrix, dtype=float))
            assert got.total_cost == pytest.approx(oracle_lsap(matrix))
            assert got.total_cost == pytest.approx(
                sum(matrix[i][j] for i, j in got.pairs)
            )

    def test_respects_forbidden_entries(self):
        matrix = np.array([[np.inf, 1.0], [1.0, np.inf]])
        a = solve_lsap(matrix)
        assert dict(a.pairs) == {0: 1, 1: 0}
        assert a.total_cost == pytest.approx(2.0)

    @pytest.mark.parametrize("matrix", [
        np.zeros((0, 0)),
        np.array([[4.5]]),
        np.full((4, 4), 2.5),
        np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 2.0], [0.0, 3.0, 3.0]]),
        np.array([[np.inf, 1.0, 2.0], [1.0, np.inf, 2.0], [2.0, 2.0, np.inf]]),
    ])
    def test_pairs_and_total_as_the_eager_solver_built_them(self, matrix):
        a = solve_lsap(matrix)
        pairs, total = reference_lsap(matrix)
        assert a.pairs == pairs
        assert type(a.total_cost) is float
        assert a.total_cost == total


class TestTransportBound:
    @staticmethod
    def row_sets():
        """(a, b): g1's padded rows (slots, 6) and a stack (C, slots, 6) of g2's
        placements onto g1's longest edge, g2 itself first."""
        rng = random.Random(5)
        for _ in range(60):
            g1 = random_geometric(rng, rng.randint(2, 14), p=rng.uniform(0.15, 0.6))
            g2 = random_geometric(rng, rng.randint(2, 14), p=rng.uniform(0.15, 0.6))
            coords = dict(g2.coords)
            for u, v in rng.sample(g2.edges, min(rng.randint(0, 2), g2.m)):
                coords[v] = coords[u]  # zero-length edges
            g2 = GeometricGraph(g2.vertices, g2.edges, coords, empty_edges=rng.randint(0, 3))
            p1, p2 = pad_to_equal(g1, g2)
            a = edge_features(p1)
            if not len(a):
                continue
            ref = max(a, key=lambda f: f[1]).tolist()
            r2 = geometric_rows(p2)
            moves = [
                (ends, e_ref)
                for ends, length in zip(r2.ends.tolist(), r2.edges[:, 1].tolist())
                if length > 0.0 and ref[1] > 0.0
                for e_ref in ((ref[2:4], ref[4:6]), (ref[4:6], ref[2:4]))
            ]
            yield a, _placement_features(_placements(r2.coords, moves), r2.ends, len(a))
        for n in (1, 4, 9):  # all-equal rows
            row = (30.0, 1.5, 0.2, 0.1, 1.1, 0.9)
            yield np.tile(row, (n, 1)), np.tile(row, (3, n, 1))

    @staticmethod
    def weights():
        rng = random.Random(6)
        yield DistanceWeights(w4=0.0)  # ED
        yield DistanceWeights()  # EDM
        for _ in range(6):
            yield DistanceWeights(*(rng.choice((0.0, rng.uniform(0.0, 3.0))) for _ in range(4)))

    def test_never_exceeds_the_optimum(self):
        checked = 0
        for a, b in self.row_sets():
            for w in self.weights():
                for bound, rows in zip(_transport_bound(a, b, w), b):
                    assert bound <= solve_lsap(_edge_cost_matrix(a, rows, w)).total_cost + 1e-12
                    checked += 1
        assert checked >= 5000

    def test_batch_axis_bounds_each_candidate(self):
        for a, b in self.row_sets():
            for w in self.weights():
                bounds = _transport_bound(a, b, w)
                assert bounds.shape == (len(b),)
                for bound, rows in zip(bounds, b):
                    assert bound == _transport_bound(a, rows, w)


def reference_edge_terms(a, b):
    """E^A, E^L and E^P as the one-step edge cost kernel computed them."""
    d = a[..., :, None, :] - b[..., None, :, :]
    angle = np.abs(d[..., 0]) * math.pi / 180.0
    length = np.abs(d[..., 1])
    position = (np.hypot(d[..., 2], d[..., 3]) + np.hypot(d[..., 4], d[..., 5])) / 2.0
    return angle, length, position


def reference_edge_cost_matrix(a, b, weights):
    angle, length, position = reference_edge_terms(a, b)
    return weights.w2 * angle + weights.w3 * length + weights.w4 * position


def same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestEdgeTerms:
    """The weight-free terms and their weighting split the one-step kernel
    without moving a bit."""

    @staticmethod
    def row_pairs():
        """2-D rows of equal and unequal slot counts, the alignment's (slots, 6)
        against (C, slots, 6), and pairs with no slot on one side or both."""
        for a, b in TestTransportBound.row_sets():
            yield a, b[0]
            yield a[: max(len(a) - 2, 0)], b[0]
            yield a, b
            yield a[:0], b[0][:0]
            yield a[:0], b[0]
            yield a, b[:, :0]

    def test_terms_equal_the_one_step_kernel(self):
        checked = 0
        for a, b in self.row_pairs():
            got, want = geometric._edge_terms(a, b), reference_edge_terms(a, b)
            assert len(got) == 3
            assert all(same_bits(x, y) for x, y in zip(got, want))
            checked += 1
        assert checked >= 300

    def test_weighted_terms_equal_the_one_step_kernel(self):
        sizes = set()
        for a, b in self.row_pairs():
            for w in TestTransportBound.weights():
                got = _edge_cost_matrix(a, b, w)
                assert same_bits(got, reference_edge_cost_matrix(a, b, w))
                sizes.add(got.size)
        assert 0 in sizes and len(sizes) > 10


# -- edge features -------------------------------------------------------


def segment_row(p, q):
    """Feature row of the one edge p-q (p is vertex 0, q vertex 1)."""
    return edge_features(GeometricGraph([0, 1], [(0, 1)], {0: p, 1: q}))[0]


class TestEdgeFeature:
    def test_diagonal(self):
        f = segment_row((0.0, 0.0), (1.0, 1.0))
        assert f[0] == pytest.approx(45.0)
        assert f[1] == pytest.approx(math.sqrt(2))
        assert tuple(f[2:4]) == (0.0, 0.0)

    def test_orientation_independent(self):
        assert (segment_row((1.0, 1.0), (0.0, 0.0)) == segment_row(
            (0.0, 0.0), (1.0, 1.0)
        )).all()

    def test_vertical_edge(self):
        f = segment_row((0.0, 1.0), (0.0, 0.0))
        assert f[0] == pytest.approx(90.0)
        assert tuple(f[2:4]) == (0.0, 0.0)  # x tie broken on y

    def test_angle_stays_below_180(self):
        # Down-right segment reads as an upward angle from its left end.
        f = segment_row((1.0, 0.0), (0.0, 1.0))
        assert f[0] == pytest.approx(135.0)
        assert tuple(f[2:4]) == (0.0, 1.0)

    def test_horizontal_is_zero(self):
        assert segment_row((3.0, 2.0), (1.0, 2.0))[0] == 0.0

    def test_padding_features_follow_real_edges(self):
        g = GeometricGraph(
            [0, 1], [(0, 1)], {0: (0.0, 0.0), 1: (2.0, 0.0)}, empty_edges=2
        )
        feats = edge_features(g)
        assert len(feats) == 3
        assert feats[1][1] == 0.0 and feats[2][1] == 0.0
        assert tuple(feats[1][2:4]) == (1.0, 0.0)  # mean coordinate

    def test_edgeless_shapes(self):
        assert edge_features(GeometricGraph([])).shape == (0, 6)
        assert edge_features(GeometricGraph([0, 1], coords={0: (0, 0), 1: (1, 1)})).shape == (0, 6)

    def test_rows_then_empty_slots_at_mean(self):
        rng = random.Random(5)
        for _ in range(20):
            base = random_geometric(rng, rng.randint(1, 7))
            extra = rng.randint(0, 3)
            g = GeometricGraph(base.vertices, base.edges, base.coords, empty_edges=extra)
            feats = edge_features(g)
            assert feats.shape == (g.m + extra, 6)
            for row, (u, v) in zip(feats, g.edges):
                assert (row == segment_row(g.coords[u], g.coords[v])).all()
            mx, my = left_to_right_mean([g.coords[v] for v in g.vertices])
            assert (feats[g.m :] == (0.0, 0.0, mx, my, mx, my)).all()

    def test_means_sum_each_placement_left_to_right(self):
        rng = np.random.default_rng(13)
        for c, n in ((1, 0), (1, 1), (3, 5), (4, 40)):
            placements = rng.normal(size=(c, n, 2)) * 10.0 ** rng.integers(-3, 9, size=(c, n, 1))
            got = geometric._means(placements)
            assert got.shape == (c, 2)
            for mean, coords in zip(got.tolist(), placements.tolist()):
                assert tuple(mean) == left_to_right_mean(coords)
        # -0.0 summed from 0.0 is +0.0, as in the Python loop
        assert math.copysign(1.0, geometric._means(np.full((1, 1, 2), -0.0))[0, 0]) == 1.0


# -- elementary distances --------------------------------------------------


class TestVertexDistance:
    def test_identical_multisets(self):
        g = random_geometric(random.Random(7), 5)
        assert vertex_distance(g, g) == 0.0

    def test_two_single_vertices(self):
        a = GeometricGraph([0], coords={0: (0.0, 0.0)})
        b = GeometricGraph([0], coords={0: (3.0, 4.0)})
        assert vertex_distance(a, b) == pytest.approx(5.0)

    def test_matches_permutation_oracle(self):
        rng = random.Random(13)
        for _ in range(25):
            g1 = random_geometric(rng, 6)
            g2 = random_geometric(rng, 6)
            assert vertex_distance(g1, g2) == pytest.approx(
                oracle_vertex_distance(g1, g2)
            )

    def test_unequal_counts_rejected(self):
        g1 = random_geometric(random.Random(1), 3)
        g2 = random_geometric(random.Random(2), 4)
        with pytest.raises(ValueError):
            vertex_distance(g1, g2)


class TestEdgeDistance:
    def test_identical(self):
        g = random_geometric(random.Random(17), 5)
        assert edge_distance(g, g) == 0.0

    def test_horizontal_vs_vertical_unit_edges(self):
        h = GeometricGraph([0, 1], [(0, 1)], {0: (0.0, 0.0), 1: (1.0, 0.0)})
        v = GeometricGraph([0, 1], [(0, 1)], {0: (0.0, 0.0), 1: (0.0, 1.0)})
        assert edge_distance(h, v) == pytest.approx(math.pi / 2)

    def test_translation_invariant_exactly(self):
        # Dyadic coordinates keep the shifted differences bit-identical, so
        # the zero here is exact, not approximate.
        rng = random.Random(19)
        for _ in range(10):
            base = random_graph(5, 0.6, seed=rng.randrange(10**9))
            coords = {
                v: (rng.randrange(16) / 4.0, rng.randrange(16) / 4.0)
                for v in base.vertices
            }
            g = GeometricGraph(base.vertices, base.edges, coords)
            dx, dy = rng.randrange(-8, 8) / 2.0, rng.randrange(-8, 8) / 2.0
            moved = GeometricGraph(
                base.vertices,
                base.edges,
                {v: (x + dx, y + dy) for v, (x, y) in coords.items()},
            )
            assert edge_distance(g, moved) == 0.0

    def test_translation_invariant_float(self):
        rng = random.Random(23)
        g = random_geometric(rng, 6, p=0.7)
        moved = similarity_copy(g, 0.0, 1.0, (rng.uniform(-9, 9), rng.uniform(-9, 9)))
        assert edge_distance(g, moved) == pytest.approx(0.0, abs=1e-9)

    def test_lengths_survive_rigid_motion(self):
        rng = random.Random(29)
        g = random_geometric(rng, 6, p=0.7)
        moved = similarity_copy(g, rng.uniform(0, math.tau), 1.0, (2.0, -1.0))
        lengths = sorted(edge_features(g)[:, 1])
        moved_lengths = sorted(edge_features(moved)[:, 1])
        assert lengths == pytest.approx(moved_lengths)

    def test_matches_permutation_oracle(self):
        rng = random.Random(31)
        for _ in range(20):
            g1 = random_geometric_fixed(rng, 5, 5)
            g2 = random_geometric_fixed(rng, 5, 5)
            assert edge_distance(g1, g2) == pytest.approx(
                oracle_edge_distance(g1, g2, position=False)
            )
            assert edge_distance_metric(g1, g2) == pytest.approx(
                oracle_edge_distance(g1, g2, position=True)
            )

    def test_unequal_edge_counts_rejected(self):
        g1 = GeometricGraph([0, 1], [(0, 1)], {0: (0.0, 0.0), 1: (1.0, 0.0)})
        g2 = GeometricGraph([0, 1], [], {0: (0.0, 0.0), 1: (1.0, 0.0)})
        with pytest.raises(ValueError):
            edge_distance(g1, g2)


class TestEdgeDistanceMetric:
    def test_translated_single_edge_costs_the_shift(self):
        g1 = GeometricGraph([0, 1], [(0, 1)], {0: (0.0, 0.0), 1: (1.0, 0.0)})
        g2 = GeometricGraph([0, 1], [(0, 1)], {0: (3.0, 4.0), 1: (4.0, 4.0)})
        assert edge_distance(g1, g2) == 0.0
        assert edge_distance_metric(g1, g2) == pytest.approx(5.0)

    def test_separates_what_vd_and_ed_miss(self):
        # Same six vertices; both graphs carry two unit horizontal strokes,
        # but at swapped corners.  VD and ED vanish, the position term not.
        coords = {
            0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0),
            3: (0.0, 1.0), 4: (1.0, 1.0), 5: (2.0, 1.0),
        }
        g1 = GeometricGraph(range(6), [(0, 1), (4, 5)], coords)
        g2 = GeometricGraph(range(6), [(1, 2), (3, 4)], coords)
        assert vertex_distance(g1, g2) == 0.0
        assert edge_distance(g1, g2) == 0.0
        assert edge_distance_metric(g1, g2) > 0.5

    def test_metric_axioms_on_random_triples(self):
        rng = random.Random(37)
        for _ in range(40):
            a = random_geometric_fixed(rng, 5, 5)
            b = random_geometric_fixed(rng, 5, 5)
            c = random_geometric_fixed(rng, 5, 5)
            ab = edge_distance_metric(a, b)
            assert ab >= 0.0
            assert ab == pytest.approx(edge_distance_metric(b, a), abs=1e-9)
            assert edge_distance_metric(a, a) == 0.0
            assert ab <= (
                edge_distance_metric(a, c) + edge_distance_metric(c, b) + 1e-9
            )


class TestGraphDistance:
    def test_sums_of_parts(self):
        rng = random.Random(41)
        for _ in range(15):
            g1 = random_geometric_fixed(rng, 5, 6)
            g2 = random_geometric_fixed(rng, 5, 6)
            assert graph_distance(g1, g2) == pytest.approx(
                oracle_vertex_distance(g1, g2)
                + oracle_edge_distance(g1, g2, position=False)
            )
            assert graph_distance_metric(g1, g2) == pytest.approx(
                oracle_vertex_distance(g1, g2)
                + oracle_edge_distance(g1, g2, position=True)
            )

    def test_gdm_identity_axiom(self):
        coords = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0)}
        g = GeometricGraph(range(4), [(0, 1), (2, 3)], coords)
        assert graph_distance_metric(g, g) == 0.0
        nudged = GeometricGraph(
            range(4),
            [(0, 1), (2, 3)],
            {**coords, 3: (0.0, 1.01)},
        )
        assert graph_distance_metric(g, nudged) > 0.0
        rewired = GeometricGraph(range(4), [(0, 1), (1, 2)], coords)
        assert graph_distance_metric(g, rewired) > 0.0


# -- padding ---------------------------------------------------------------


class TestPadToEqual:
    def test_equal_inputs_untouched(self):
        g = random_geometric(random.Random(43), 4)
        p1, p2 = pad_to_equal(g, g)
        assert p1 is g and p2 is g

    def test_mean_coordinate_vertex(self):
        g1 = random_geometric(random.Random(47), 3, p=0.0)
        g2 = GeometricGraph([0, 1], coords={0: (0.0, 0.0), 1: (2.0, 0.0)})
        _, p2 = pad_to_equal(g1, g2)
        assert p2.n == 3
        new = [v for v in p2.vertices if v not in g2.vertices]
        assert p2.coords[new[0]] == (1.0, 0.0)

    def test_empty_graph_pads_at_origin(self):
        g1 = GeometricGraph([0], coords={0: (5.0, 5.0)})
        _, p2 = pad_to_equal(g1, GeometricGraph([]))
        assert p2.n == 1
        assert list(p2.coords.values()) == [(0.0, 0.0)]

    def test_edge_slots_counted_not_materialized(self):
        g1 = square()
        g2 = GeometricGraph([0, 1], [(0, 1)], {0: (0.0, 0.0), 1: (1.0, 0.0)})
        p1, p2 = pad_to_equal(g1, g2)
        assert p1 is g1
        assert p2.m == 1 and p2.empty_edges == 3
        assert p2.n == 4
        assert len(edge_features(p2)) == 4

    @staticmethod
    def labeled_pairs():
        """Seeded pairs of graphs with vector node labels, symbol edge labels
        and explicit empty slots, sizes 0-6."""
        rng = random.Random(211)
        for _ in range(60):
            g1, g2 = (random_geometric(rng, rng.randint(0, 6)) for _ in range(2))
            yield tuple(
                GeometricGraph(
                    g.vertices,
                    g.edges,
                    g.coords,
                    node_labels={v: g.coords[v] for v in g.vertices if rng.random() < 0.7},
                    edge_labels={e: rng.choice("ab") for e in g.edges},
                    empty_edges=rng.randint(0, 3),
                )
                for g in (g1, g2)
            )

    def test_graphs_pad_as_their_rows_pad(self):
        for g1, g2 in self.labeled_pairs():
            padded = pad_to_equal(g1, g2)
            for k, r in enumerate(_pair(g1, g2, None)):
                got = geometric_rows(padded[k])
                assert got.coords.tolist() == r.coords.tolist()
                assert got.edges.tolist() == r.edges.tolist()

    def test_matches_graph_padding_reference(self):
        def reference_pad(g, n, slots):
            # padding on the graph itself, kept as the reference
            if g.n == n and g.m + g.empty_edges == slots:
                return g
            start = max(g.vertices, default=-1) + 1
            new = range(start, start + n - g.n)
            mean = left_to_right_mean([g.coords[v] for v in g.vertices])
            coords = {**g.coords, **dict.fromkeys(new, mean)}
            return GeometricGraph(
                g.vertices + tuple(new), g.edges, coords, g.node_labels, g.edge_labels,
                empty_edges=slots - g.m,
            )

        grown = 0
        for g1, g2 in self.labeled_pairs():
            n = max(g1.n, g2.n)
            slots = max(g1.m + g1.empty_edges, g2.m + g2.empty_edges)
            for got, g in zip(pad_to_equal(g1, g2), (g1, g2)):
                want = reference_pad(g, n, slots)
                assert (got is g) == (want is g)
                grown += got.n > g.n
                assert got.vertices == want.vertices and got.edges == want.edges
                assert got.coords == want.coords
                assert got.node_labels == want.node_labels
                assert got.edge_labels == want.edge_labels
                assert got.empty_edges == want.empty_edges
        assert grown > 20

    def test_vertex_and_feature_counts_always_equalized(self):
        rng = random.Random(53)
        for _ in range(20):
            g1 = random_geometric(rng, rng.randint(0, 5))
            g2 = random_geometric(rng, rng.randint(0, 5))
            p1, p2 = pad_to_equal(g1, g2)
            assert p1.n == p2.n
            assert p1.m + p1.empty_edges == p2.m + p2.empty_edges
            # The original ids keep their coordinates.
            assert all(p1.coords[v] == g1.coords[v] for v in g1.vertices)
            assert all(p2.coords[v] == g2.coords[v] for v in g2.vertices)


# -- transform and alignment ------------------------------------------------


class TestGeometricTransform:
    def test_coincident_edge_is_identity(self):
        g = square()
        ref = (g.coords[0], g.coords[1])
        t = geometric_transform(g, (0, 1), ref)
        for v in g.vertices:
            assert t.coords[v] == pytest.approx(g.coords[v], abs=1e-12)

    def test_translated_square_maps_back(self):
        ref_square = square()
        moved = square(origin=(5.0, 5.0))
        t = geometric_transform(
            moved, (0, 1), (ref_square.coords[0], ref_square.coords[1])
        )
        for v in ref_square.vertices:
            assert t.coords[v] == pytest.approx(ref_square.coords[v], abs=1e-9)

    def test_preserves_distance_ratios(self):
        rng = random.Random(59)
        for _ in range(10):
            g = random_geometric(rng, 5, p=0.8)
            if g.m == 0:
                continue
            f = g.edges[rng.randrange(g.m)]
            if g.coords[f[0]] == g.coords[f[1]]:
                continue
            e_ref = ((rng.uniform(0, 3), rng.uniform(0, 3)), (rng.uniform(4, 7), rng.uniform(4, 7)))
            t = geometric_transform(g, f, e_ref)
            pairs = list(itertools.combinations(g.vertices, 2))
            before = [math.dist(g.coords[a], g.coords[b]) for a, b in pairs]
            after = [math.dist(t.coords[a], t.coords[b]) for a, b in pairs]
            nonzero = [(x, y) for x, y in zip(before, after) if x > 1e-12]
            ratios = [y / x for x, y in nonzero]
            assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)

    def test_zero_length_inputs_rejected(self):
        g = GeometricGraph(
            [0, 1], [(0, 1)], {0: (1.0, 1.0), 1: (1.0, 1.0)}
        )
        with pytest.raises(ValueError):
            geometric_transform(g, (0, 1), ((0.0, 0.0), (1.0, 0.0)))
        h = square()
        with pytest.raises(ValueError):
            geometric_transform(h, (0, 1), ((2.0, 2.0), (2.0, 2.0)))
        with pytest.raises(ValueError):
            geometric_transform(h, (0, 2), ((0.0, 0.0), (1.0, 0.0)))  # no edge


class TestGraphAlignment:
    def test_self_alignment_returns_input(self):
        g = square()
        aligned = graph_alignment(g, g)
        assert aligned.coords == g.coords

    def test_recovers_similarity_copy(self):
        rng = random.Random(61)
        for _ in range(15):
            g1 = random_geometric_fixed(rng, 5, 6)
            g2 = similarity_copy(
                g1,
                rng.uniform(0, math.tau),
                rng.uniform(0.5, 2.0),
                (rng.uniform(-5, 5), rng.uniform(-5, 5)),
            )
            aligned = graph_alignment(g1, g2)
            assert edge_distance(g1, aligned) == pytest.approx(0.0, abs=1e-7)

    def test_never_worse_than_identity(self):
        rng = random.Random(67)
        for _ in range(100):
            g1 = random_geometric_fixed(rng, 4, 4)
            g2 = random_geometric_fixed(rng, 4, 4)
            for variant, dist in (
                ("ed", edge_distance),
                ("edm", edge_distance_metric),
            ):
                aligned = graph_alignment(g1, g2, variant)
                assert dist(g1, aligned) <= dist(g1, g2) + 1e-9

    def test_rejects_bad_inputs(self):
        g = square()
        with pytest.raises(ValueError):
            graph_alignment(g, g, variant="vd")
        edgeless = GeometricGraph([0], coords={0: (0.0, 0.0)})
        with pytest.raises(ValueError):
            graph_alignment(g, edgeless)
        with pytest.raises(ValueError):
            graph_alignment(edgeless, g)


def padded_features(g, n):
    """g's feature rows followed by empty rows at its mean, n rows in all."""
    mx, my = left_to_right_mean([g.coords[v] for v in g.vertices])
    feats = edge_features(g)
    return np.vstack((feats, np.tile((0.0, 0.0, mx, my, mx, my), (n - len(feats), 1))))


def longest_edge_ends(feats):
    """(left, right) of the first longest row."""
    ref = max(feats, key=lambda f: f[1]).tolist()
    return tuple(ref[2:4]), tuple(ref[4:6])


def reference_alignment(g1, g2, variant="ed"):
    """graph_alignment as a plain loop: every candidate is built as a graph
    and scored by full assignments (ED then EDM, or EDM alone)."""
    score_weights = (
        (DistanceWeights(),) if variant == "edm"
        else (DistanceWeights(w4=0.0), DistanceWeights())
    )
    feats1 = edge_features(g1)
    left, right = longest_edge_ends(feats1)
    n = max(len(feats1), g2.m + g2.empty_edges)
    feats1 = padded_features(g1, n)

    def scores(candidate):
        feats2 = padded_features(candidate, n)
        costs = [
            solve_lsap(_edge_cost_matrix(feats1, feats2, w)).total_cost
            for w in score_weights
        ]
        return costs[0], costs[-1]

    best, (best_primary, best_secondary) = g2, scores(g2)
    for f in g2.edges:
        if g2.coords[f[0]] == g2.coords[f[1]]:
            continue
        for e_ref in ((left, right), (right, left)):
            candidate = geometric_transform(g2, f, e_ref)
            primary, secondary = scores(candidate)
            if primary < best_primary - 1e-9 or (
                primary <= best_primary + 1e-9
                and secondary < best_secondary - 1e-9
            ):
                best = candidate
                best_primary, best_secondary = primary, secondary
    return best


def reference_isomorphism(g1, g2, tolerance=0.0):
    """geometric_graph_isomorphism on graphs: pad_to_equal, the
    candidate-by-candidate reference_alignment, and an endpoint check keyed
    by vertex ids."""
    sizes_match = g1.n == g2.n and g1.m + g1.empty_edges == g2.m + g2.empty_edges
    p1, p2 = pad_to_equal(g1, g2)
    if geometric._has_alignable_edge(p1) and geometric._has_alignable_edge(p2):
        p2 = reference_alignment(p1, p2, "ed")
    c1, c2 = geometric._coord_array(p1), geometric._coord_array(p2)
    f1, f2 = edge_features(p1), edge_features(p2)
    vassign = solve_lsap(geometric._vertex_cost_matrix(c1, c2))
    ed_costs = _edge_cost_matrix(f1, f2, DistanceWeights(w4=0.0))
    eassign = solve_lsap(ed_costs)
    gd = vassign.total_cost + eassign.total_cost
    if not sizes_match:
        return GeometricIsomorphism("distance", gd, vassign.pairs)

    vmap = {p1.vertices[i]: p2.vertices[j] for i, j in vassign.pairs}

    def consistent(edge_pairs):
        assigned = dict(edge_pairs)
        return all(
            assigned[k] < p2.m and canonical_edge(vmap[a], vmap[b]) == p2.edges[assigned[k]]
            for k, (a, b) in enumerate(p1.edges)
        )

    ok = consistent(eassign.pairs)
    if not ok:
        tie_broken = solve_lsap(_edge_cost_matrix(f1, f2, DistanceWeights()))
        if sum(ed_costs[i, j] for i, j in tie_broken.pairs) <= eassign.total_cost + 1e-9:
            ok = consistent(tie_broken.pairs)
    if gd <= 1e-9 and ok:
        return GeometricIsomorphism("isomorphic", gd, vassign.pairs)
    if tolerance > 0 and ok and all(
        abs(a - b) < tolerance
        for i, j in vassign.pairs
        for a, b in zip(p1.coords[p1.vertices[i]], p2.coords[p2.vertices[j]])
    ):
        return GeometricIsomorphism("t_tolerant", gd, vassign.pairs)
    return GeometricIsomorphism("distance", gd, vassign.pairs)


def jittered(g, rng, t):
    coords = {v: (x + rng.uniform(-t, t), y + rng.uniform(-t, t)) for v, (x, y) in g.coords.items()}
    return GeometricGraph(g.vertices, g.edges, coords)


def regular_polygon(k, radius=1.0):
    coords = {
        i: (radius * math.cos(math.tau * i / k), radius * math.sin(math.tau * i / k))
        for i in range(k)
    }
    return GeometricGraph(range(k), [(i, (i + 1) % k) for i in range(k)], coords)


class TestAlignmentMatchesReference:
    """The batched, bound-pruned candidate scan returns exactly the graph the
    candidate-by-candidate loop returns."""

    @staticmethod
    def random_pairs():
        rng = random.Random(101)
        for _ in range(40):  # independent sizes: either side may be padded
            yield (
                random_geometric(rng, rng.randint(2, 18), p=rng.uniform(0.1, 0.3)),
                random_geometric(rng, rng.randint(2, 18), p=rng.uniform(0.1, 0.3)),
            )
        for _ in range(30):  # noisy similarity copies: close competing candidates
            g1 = random_geometric(rng, rng.randint(3, 18), p=rng.uniform(0.1, 0.3))
            copy = similarity_copy(
                g1, rng.uniform(0, math.tau), rng.uniform(0.5, 2.0), (rng.uniform(-5, 5), 1.0)
            )
            yield g1, jittered(copy, rng, rng.choice((1e-3, 0.05, 0.3)))
        for _ in range(10):  # a smaller graph against a larger one, both ways
            small = random_geometric(rng, rng.randint(2, 6), p=0.7)
            big = random_geometric(rng, rng.randint(10, 18), p=0.2)
            yield small, big
            yield big, small
        for _ in range(15):  # explicit empty slots on one or both inputs
            g1 = random_geometric(rng, rng.randint(3, 10), p=0.5)
            g2 = random_geometric(rng, rng.randint(3, 10), p=0.5)
            yield (
                GeometricGraph(g1.vertices, g1.edges, g1.coords, empty_edges=rng.randint(0, 3)),
                GeometricGraph(g2.vertices, g2.edges, g2.coords, empty_edges=rng.randint(1, 4)),
            )
        for _ in range(15):  # zero-length edges in g2
            g1 = random_geometric(rng, rng.randint(3, 10), p=0.5)
            g2 = random_geometric(rng, rng.randint(4, 12), p=0.5)
            coords = dict(g2.coords)
            for u, v in rng.sample(g2.edges, min(2, g2.m)):
                coords[v] = coords[u]
            yield g1, GeometricGraph(g2.vertices, g2.edges, coords)

    @staticmethod
    def tie_pairs():
        sq, hexagon = square(), regular_polygon(6)
        yield sq, sq, True
        yield sq, square(2.0, (3.0, -1.0)), False
        yield hexagon, hexagon, True
        yield hexagon, regular_polygon(6, 3.0), False
        g = random_geometric_fixed(random.Random(103), 6, 7)
        yield g, similarity_copy(g, math.pi, 1.0, (0.0, 0.0)), False
        yield g, similarity_copy(g, math.pi, 1.0, (2.5, -1.5)), False

    @staticmethod
    def assert_same_graph(got, want):
        assert got.coords == want.coords
        assert got.vertices == want.vertices
        assert got.edges == want.edges
        assert got.empty_edges == want.empty_edges

    def test_random_pairs_both_variants(self, monkeypatch):
        builds = []
        monkeypatch.setattr(
            geometric,
            "geometric_transform",
            lambda *args: builds.append(args) or geometric_transform(*args),
        )
        moved = 0
        for g1, g2 in self.random_pairs():
            p1, p2 = pad_to_equal(g1, g2)
            if not (geometric._has_alignable_edge(p1) and geometric._has_alignable_edge(p2)):
                continue
            for variant in ("ed", "edm"):
                builds.clear()
                got = graph_alignment(p1, p2, variant)
                assert len(builds) <= 1  # only the winner is built
                want = reference_alignment(p1, p2, variant)
                self.assert_same_graph(got, want)
                moved += got is not p2
        assert moved >= 150  # most pairs do pick a transform

    def test_unpadded_pairs_both_variants(self):
        # either side may hold more edge slots, so g1's rows get padded here
        padded = 0
        for g1, g2 in self.random_pairs():
            if not (geometric._has_alignable_edge(g1) and geometric._has_alignable_edge(g2)):
                continue
            padded += g2.m + g2.empty_edges > g1.m + g1.empty_edges
            for variant in ("ed", "edm"):
                got = graph_alignment(g1, g2, variant)
                self.assert_same_graph(got, reference_alignment(g1, g2, variant))
        assert padded >= 20

    def test_rows_align_as_graphs(self):
        pairs = [*self.random_pairs(), *((g1, g2) for g1, g2, _ in self.tie_pairs())]
        identity = 0
        for g1, g2 in pairs:
            if not (geometric._has_alignable_edge(g1) and geometric._has_alignable_edge(g2)):
                continue
            r1, r2 = geometric_rows(g1), geometric_rows(g2)
            for variant in ("ed", "edm"):
                aligned = graph_alignment(g1, g2, variant)
                got, want = graph_alignment(r1, r2, variant), geometric_rows(aligned)
                assert np.array_equal(got.coords, want.coords)
                assert np.array_equal(got.edges, want.edges)
                assert np.array_equal(got.ends, want.ends)
                assert (got is r2) == (aligned is g2)
                identity += got is r2
        assert identity >= 10

    def test_aligned_rows_own_their_arrays(self):
        # views into the candidate arrays would keep every candidate alive
        moved = 0
        for g1, g2 in self.random_pairs():
            if not (geometric._has_alignable_edge(g1) and geometric._has_alignable_edge(g2)):
                continue
            r1, r2 = geometric_rows(g1), geometric_rows(g2)
            for variant in ("ed", "edm"):
                got = graph_alignment(r1, r2, variant)
                if got is r2:
                    continue
                want = geometric_rows(graph_alignment(g1, g2, variant))
                assert got.coords.base is None and got.edges.base is None
                assert np.array_equal(got.coords, want.coords)
                assert np.array_equal(got.edges, want.edges)
                moved += 1
        assert moved >= 100

    def test_placements_equal_built_candidates(self):
        for g1, g2 in self.random_pairs():
            p1, p2 = pad_to_equal(g1, g2)
            if not (geometric._has_alignable_edge(p1) and geometric._has_alignable_edge(p2)):
                continue
            left, right = longest_edge_ends(edge_features(p1))
            moves = [
                (f, e_ref)
                for f in p2.edges
                if p2.coords[f[0]] != p2.coords[f[1]]
                for e_ref in ((left, right), (right, left))
            ]
            index = {v: i for i, v in enumerate(p2.vertices)}
            placements = _placements(
                geometric._coord_array(p2),
                [((index[u], index[v]), e_ref) for (u, v), e_ref in moves],
            )
            ends = np.array([(index[u], index[v]) for u, v in p2.edges]).reshape(-1, 2)
            slots = p2.m + p2.empty_edges + 2
            feats = _placement_features(placements, ends, slots)
            built = [p2] + [geometric_transform(p2, *move) for move in moves]
            for coords, row, g in zip(placements, feats, built):
                assert coords.tolist() == [list(g.coords[v]) for v in p2.vertices]
                assert (row == padded_features(g, slots)).all()

    def test_exact_ties(self):
        for g1, g2, identity_wins in self.tie_pairs():
            for variant in ("ed", "edm"):
                got = graph_alignment(g1, g2, variant)
                self.assert_same_graph(got, reference_alignment(g1, g2, variant))
                if identity_wins:
                    assert got is g2

    def test_isomorphism_matches_reference(self):
        pairs = [(g1, g2) for g1, g2 in self.random_pairs()]
        pairs += [(g1, g2) for g1, g2, _ in self.tie_pairs()]
        got = [geometric_graph_isomorphism(g1, g2, tolerance=0.1) for g1, g2 in pairs]
        want = [reference_isomorphism(g1, g2, tolerance=0.1) for g1, g2 in pairs]
        assert got == want
        assert {r.verdict for r in got} == {"isomorphic", "t_tolerant", "distance"}


class TestAlignmentScreen:
    """At molecule scale the transport bound keeps most candidates away from
    the cost-matrix kernel, and the scan still picks the reference winner."""

    @staticmethod
    def molecule_pairs():
        rng = random.Random(211)
        for _ in range(12):
            g1 = random_geometric(rng, rng.randint(14, 18), p=0.25, span=1.0)
            yield g1, jittered(g1, rng, 0.05)  # same class
            yield g1, random_geometric(rng, rng.randint(14, 18), p=0.25, span=1.0)  # cross

    def test_few_candidates_reach_the_kernel(self, monkeypatch):
        kernel = geometric._edge_cost_matrix
        reached = []  # candidates per kernel call: the leading axes of b

        def counted(a, b, weights):
            reached.append(b[..., 0, 0].size)
            return kernel(a, b, weights)

        monkeypatch.setattr(geometric, "_edge_cost_matrix", counted)
        candidates = 0
        for g1, g2 in self.molecule_pairs():
            p1, p2 = pad_to_equal(g1, g2)
            positive = sum(p2.coords[u] != p2.coords[v] for u, v in p2.edges)
            for variant in ("ed", "edm"):
                got = graph_alignment(p1, p2, variant)
                TestAlignmentMatchesReference.assert_same_graph(
                    got, reference_alignment(p1, p2, variant)
                )
                candidates += 1 + 2 * positive
        assert candidates >= 1500
        assert 3 * sum(reached) <= candidates


# -- isomorphism verdicts ---------------------------------------------------


class TestGeometricIsomorphism:
    def test_identical_graphs(self):
        g = square()
        r = geometric_graph_isomorphism(g, g)
        assert r.verdict == "isomorphic"
        assert r.distance <= 1e-9

    def test_similarity_transforms_detected(self):
        rng = random.Random(71)
        for _ in range(30):
            g1 = random_geometric_fixed(rng, rng.randint(4, 6), 5)
            g2 = similarity_copy(
                g1,
                rng.uniform(0, math.tau),
                rng.uniform(0.5, 3.0),
                (rng.uniform(-5, 5), rng.uniform(-5, 5)),
            )
            r = geometric_graph_isomorphism(g1, g2)
            assert r.verdict == "isomorphic"

    def test_tied_features_still_resolve(self):
        # A square against its rotation: every side shares (theta, length)
        # with its parallel partner, so the plain assignment can cross.
        g = square()
        rotated = similarity_copy(g, math.pi / 4, 1.0, (3.0, 3.0))
        assert geometric_graph_isomorphism(g, rotated).verdict == "isomorphic"

    def test_jitter_within_tolerance(self):
        rng = random.Random(73)
        t = 0.02
        for _ in range(20):
            g1 = random_geometric_fixed(rng, 5, 6, span=3.0)
            jittered = GeometricGraph(
                g1.vertices,
                g1.edges,
                {
                    v: (x + rng.uniform(0, t), y + rng.uniform(0, t))
                    for v, (x, y) in g1.coords.items()
                },
            )
            r = geometric_graph_isomorphism(g1, jittered, tolerance=2 * t)
            assert r.verdict == "t_tolerant"

    def test_zero_tolerance_downgrades_to_distance(self):
        g1 = square()
        nudged = GeometricGraph(
            g1.vertices,
            g1.edges,
            {**g1.coords, 2: (1.0, 1.1)},
        )
        r = geometric_graph_isomorphism(g1, nudged)
        assert r.verdict == "distance"
        assert r.distance > 0.0

    def test_single_edges_are_similarity_equivalent(self):
        g1 = GeometricGraph([0, 1], [(0, 1)], {0: (0.0, 0.0), 1: (4.0, 0.0)})
        skewed = GeometricGraph([0, 1], [(0, 1)], {0: (0.0, 0.0), 1: (4.0, 0.3)})
        # One edge can always be mapped exactly onto another one.
        assert geometric_graph_isomorphism(g1, skewed).verdict == "isomorphic"

    def test_tolerance_is_per_axis(self):
        coords = {0: (0.0, 0.0), 1: (4.0, 0.0), 2: (1.0, 1.0)}
        g1 = GeometricGraph(range(3), [(0, 1), (0, 2), (1, 2)], coords)

        def moved(dx, dy):
            return GeometricGraph(
                range(3),
                g1.edges,
                {**coords, 2: (1.0 + dx, 1.0 + dy)},
            )

        ok = geometric_graph_isomorphism(g1, moved(0.04, 0.04), tolerance=0.05)
        assert ok.verdict == "t_tolerant"
        # Small x shift but a y shift past the threshold: no verdict upgrade.
        r = geometric_graph_isomorphism(g1, moved(0.01, 0.3), tolerance=0.05)
        assert r.verdict == "distance"
        assert r.distance > 0.0

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
    def test_invalid_tolerance_rejected(self, tolerance):
        # A jittered copy would otherwise get a silent "distance" verdict.
        g1 = square()
        nudged = GeometricGraph(g1.vertices, g1.edges, {**g1.coords, 2: (1.0, 1.01)})
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            geometric_graph_isomorphism(g1, nudged, tolerance=tolerance)

    def test_structurally_different_same_size(self):
        coords = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0)}
        g1 = GeometricGraph(range(4), [(0, 1), (1, 2), (2, 3)], coords)
        g2 = GeometricGraph(range(4), [(0, 1), (1, 2), (1, 3)], coords)
        r = geometric_graph_isomorphism(g1, g2)
        assert r.verdict == "distance"
        assert r.distance > 0.0

    def test_unequal_sizes_always_distance(self):
        g1 = square()
        extra = GeometricGraph(
            range(5),
            [(0, 1), (1, 2), (2, 3), (0, 3)],
            {**g1.coords, 4: (0.5, 0.5)},
        )
        r = geometric_graph_isomorphism(g1, extra, tolerance=10.0)
        assert r.verdict == "distance"

    def test_vertex_mapping_reported(self):
        g = square()
        r = geometric_graph_isomorphism(g, g)
        assert dict(r.vertex_mapping) == {0: 0, 1: 1, 2: 2, 3: 3}
        # positions in each graph's vertex order, not vertex ids
        a, b, c = (0.0, 0.0), (1.0, 0.0), (0.0, 2.0)
        g1 = GeometricGraph((10, 20, 30), [(10, 20), (20, 30)], {10: a, 20: b, 30: c})
        g2 = GeometricGraph((7, 5, 3), [(3, 5), (5, 7)], {7: c, 5: b, 3: a})
        r = geometric_graph_isomorphism(g1, g2)
        assert r.verdict == "isomorphic"
        assert r.vertex_mapping == ((0, 2), (1, 1), (2, 0))

    @pytest.mark.parametrize("extra_vertex", [False, True])
    def test_rows_extracted_once_per_graph(self, monkeypatch, extra_vertex):
        g1 = square()
        g2 = similarity_copy(g1, 0.3, 2.0, (1.0, -1.0))
        if extra_vertex:  # unequal sizes: the pair is padded
            g2 = GeometricGraph(range(5), g2.edges, {**g2.coords, 4: (0.5, 0.5)})
        extracted, forbidden = [], []
        monkeypatch.setattr(
            geometric, "geometric_rows", lambda g: extracted.append(g) or geometric_rows(g)
        )
        for name in ("pad_to_equal", "_moved"):
            monkeypatch.setattr(geometric, name, lambda *args, name=name: forbidden.append(name))
        r = geometric_graph_isomorphism(g1, g2, tolerance=0.1)
        assert r.verdict == ("distance" if extra_vertex else "isomorphic")
        assert extracted == [g1, g2]
        assert forbidden == []


# -- weighted distance -------------------------------------------------------


class TestGeometricGraphDistance:
    def test_identical_any_weights(self):
        g = square()
        for w in (DistanceWeights(), DistanceWeights(0.35, 0.23, 0.11, 0.31)):
            assert geometric_graph_distance(g, g, w) == 0.0

    def test_unit_weights_match_gdm_after_padding(self):
        rng = random.Random(79)
        for _ in range(15):
            g1 = random_geometric(rng, rng.randint(1, 5))
            g2 = random_geometric(rng, rng.randint(1, 5))
            padded = pad_to_equal(g1, g2)
            assert geometric_graph_distance(g1, g2) == pytest.approx(
                graph_distance_metric(*padded)
            )

    def test_named_distances_are_exact_weight_settings(self):
        # weights of 1 and 0 are exact, so GDM and GD equal the weighted
        # distance bit for bit
        rng = random.Random(97)
        for _ in range(30):
            g1 = random_geometric(rng, rng.randint(1, 6))
            g2 = random_geometric(rng, rng.randint(1, 6))
            p1, p2 = pad_to_equal(g1, g2)
            assert graph_distance_metric(p1, p2) == geometric_graph_distance(g1, g2)
            assert graph_distance(p1, p2) == geometric_graph_distance(
                g1, g2, DistanceWeights(1, 1, 1, 0)
            )

    def test_matches_weighted_permutation_oracle(self):
        rng = random.Random(83)
        w = DistanceWeights(0.35, 0.23, 0.11, 0.31)
        for _ in range(15):
            g1 = random_geometric_fixed(rng, 4, 4)
            g2 = random_geometric_fixed(rng, 4, 4)
            expected = w.w1 * oracle_vertex_distance(g1, g2) + oracle_edge_distance(
                g1, g2, position=True, w=(w.w2, w.w3, w.w4)
            )
            assert geometric_graph_distance(g1, g2, w) == pytest.approx(expected)

    def test_vertex_weight_scales_vertex_term(self):
        g1 = GeometricGraph([0], coords={0: (0.0, 0.0)})
        g2 = GeometricGraph([0], coords={0: (3.0, 4.0)})
        assert geometric_graph_distance(g1, g2, DistanceWeights(w1=2.0)) == (
            pytest.approx(10.0)
        )

    def test_alignment_cancels_similarity_transforms(self):
        rng = random.Random(89)
        g1 = random_geometric_fixed(rng, 5, 6)
        g2 = similarity_copy(g1, 1.1, 1.7, (4.0, -2.0))
        unaligned = geometric_graph_distance(g1, g2)
        aligned = geometric_graph_distance(g1, g2, align=True)
        assert aligned == pytest.approx(0.0, abs=1e-7)
        assert aligned < unaligned

    def test_alignment_skipped_without_a_positive_length_edge(self):
        point = GeometricGraph([0, 1], [(0, 1)], coords={0: (2.0, 2.0), 1: (2.0, 2.0)})
        edgeless = GeometricGraph([0], coords={0: (3.0, 4.0)})
        for other in (point, edgeless):
            for g1, g2 in ((square(), other), (other, square()), (other, other)):
                aligned = geometric_graph_distance(g1, g2, align=True)
                assert aligned == geometric_graph_distance(g1, g2)
                assert geometric_graph_isomorphism(g1, g2).distance == pytest.approx(
                    geometric_graph_distance(g1, g2, DistanceWeights(w4=0.0))
                )

    def test_alignment_not_called_without_a_positive_length_edge(self, monkeypatch):
        def no_alignment(*args, **kwargs):
            raise AssertionError("graph_alignment called")

        point = GeometricGraph([0, 1], [(0, 1)], coords={0: (2.0, 2.0), 1: (2.0, 2.0)})
        edgeless = GeometricGraph([0], coords={0: (3.0, 4.0)})
        monkeypatch.setattr(geometric, "graph_alignment", no_alignment)
        for other in (point, edgeless):
            for g1, g2 in ((square(), other), (other, square())):
                aligned = geometric_graph_distance(g1, g2, align=True)
                assert aligned == geometric_graph_distance(g1, g2)
                assert geometric_graph_isomorphism(g1, g2).distance == geometric_graph_distance(
                    g1, g2, DistanceWeights(w4=0.0)
                )

    def test_requires_coordinates(self):
        plain = AttributedGraph([0, 1], [(0, 1)])
        for g1, g2 in ((plain, square()), (square(), plain), (plain, plain)):
            for align in (False, True):
                with pytest.raises(ValueError, match="coordinates"):
                    geometric_graph_distance(g1, g2, align=align)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            DistanceWeights(w2=-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            DistanceWeights(w1=value)
        with pytest.raises(ValueError, match="finite"):
            DistanceWeights(1.0, 1.0, 1.0, value)

    def test_weights_tuple_round_trip(self):
        w = DistanceWeights(0.35, 0.23, 0.11, 0.31)
        assert w.as_tuple() == (0.35, 0.23, 0.11, 0.31)


# -- the pair step against its eager form -----------------------------------


def reference_padded(r, n, slots):
    """``_padded`` without its memo: fresh padded rows on every call."""
    coords, feats = r.coords, r.edges
    if n == len(coords) and slots == len(feats):
        return r
    mean = left_to_right_mean(coords.tolist())
    if n > len(coords):
        coords = np.concatenate((coords, np.array([mean] * (n - len(coords)))))
        mean = left_to_right_mean(coords.tolist())
        feats = feats[: len(r.ends)]
    if slots > len(feats):
        mx, my = mean
        empty = np.array([(0.0, 0.0, mx, my, mx, my)] * (slots - len(feats)))
        feats = np.concatenate((feats, empty))
    return geometric.GeometricRows(coords, r.ends, feats)


def reference_vertex_costs(c1, c2):
    """The vertex cost matrix through one 3-D coordinate difference."""
    d = c1[:, None, :] - c2[None, :, :]
    return np.hypot(d[..., 0], d[..., 1])


def reference_pair(g1, g2, variant):
    """``_pair`` on fresh rows, padded by ``reference_padded``."""
    r1, r2 = geometric_rows(g1), geometric_rows(g2)
    n, slots = max(len(r1.coords), len(r2.coords)), max(len(r1.edges), len(r2.edges))
    r1, r2 = reference_padded(r1, n, slots), reference_padded(r2, n, slots)
    if variant and geometric._has_alignable_edge(r1) and geometric._has_alignable_edge(r2):
        r2 = graph_alignment(r1, r2, variant)
    return r1, r2


def reference_distance(g1, g2, weights, align):
    r1, r2 = reference_pair(g1, g2, "edm" if align else None)
    _, vd = reference_lsap(reference_vertex_costs(r1.coords, r2.coords))
    return weights.w1 * vd + reference_lsap(_edge_cost_matrix(r1.edges, r2.edges, weights))[1]


def reference_pair_isomorphism(g1, g2, tolerance):
    """``geometric_graph_isomorphism`` through the eager pair step."""
    sizes_match = g1.n == g2.n and g1.m + g1.empty_edges == g2.m + g2.empty_edges
    r1, r2 = reference_pair(g1, g2, "ed")
    vpairs, vd = reference_lsap(reference_vertex_costs(r1.coords, r2.coords))
    ed_costs = _edge_cost_matrix(r1.edges, r2.edges, DistanceWeights(w4=0.0))
    epairs, ed = reference_lsap(ed_costs)
    gd = vd + ed
    if not sizes_match:
        return GeometricIsomorphism("distance", gd, vpairs)
    consistent = geometric._edge_endpoints_consistent(r1, r2, vpairs, epairs)
    if not consistent:
        tie_broken, _ = reference_lsap(_edge_cost_matrix(r1.edges, r2.edges, DistanceWeights()))
        if math.fsum(ed_costs[i, j] for i, j in tie_broken) <= ed + 1e-9:
            consistent = geometric._edge_endpoints_consistent(r1, r2, vpairs, tie_broken)
    if gd <= 1e-9 and consistent:
        return GeometricIsomorphism("isomorphic", gd, vpairs)
    i, j = np.array(vpairs, dtype=np.intp).reshape(-1, 2).T
    if tolerance > 0 and consistent and (np.abs(r1.coords[i] - r2.coords[j]) < tolerance).all():
        return GeometricIsomorphism("t_tolerant", gd, vpairs)
    return GeometricIsomorphism("distance", gd, vpairs)


PAIR_STEP_WEIGHTS = (
    DistanceWeights(1, 1, 1, 1),
    DistanceWeights(0.35, 0.23, 0.11, 0.31),
    DistanceWeights(0.25, 0.25, 0.25, 0.25),
)


def pair_step_graphs():
    """Seeded pairs of unequal sizes both ways round, pairs with explicit
    empty slots, edgeless and single-vertex graphs, and near-copies."""
    rng = random.Random(211)
    for _ in range(12):
        g1 = random_geometric(rng, rng.randint(2, 9), p=rng.uniform(0.2, 0.6))
        g2 = random_geometric(rng, rng.randint(2, 9), p=rng.uniform(0.2, 0.6))
        yield g1, g2
        yield g2, g1
    for _ in range(6):
        g1 = random_geometric(rng, rng.randint(3, 7))
        g2 = random_geometric(rng, rng.randint(3, 7))
        yield (
            GeometricGraph(g1.vertices, g1.edges, g1.coords, empty_edges=rng.randint(0, 3)),
            GeometricGraph(g2.vertices, g2.edges, g2.coords, empty_edges=rng.randint(1, 4)),
        )
    edgeless = GeometricGraph([0, 1, 2], coords={0: (1.0, 0.5), 1: (2.0, 3.0), 2: (0.0, 1.5)})
    single = GeometricGraph([4], coords={4: (3.0, -1.0)})
    for g in (square(), random_geometric(rng, 6), edgeless, single):
        for h in (edgeless, single):
            yield g, h
            yield h, g
    for _ in range(6):
        g = random_geometric_fixed(rng, 5, 6)
        copy = similarity_copy(g, rng.uniform(0, math.tau), rng.uniform(0.5, 2.0), (1.0, -2.0))
        yield g, jittered(copy, rng, rng.choice((0.0, 1e-3, 0.05)))


class TestPairStepMatchesEagerForm:
    """Remembered padding, the two-column vertex matrix and assignments that
    build their index pairs on demand give every distance and verdict bit for
    bit as the eager pair step gave them."""

    @pytest.mark.parametrize("align", [False, True])
    def test_distances_equal_on_graphs_and_on_rows(self, align):
        for g1, g2 in pair_step_graphs():
            r1, r2 = geometric_rows(g1), geometric_rows(g2)
            for w in PAIR_STEP_WEIGHTS:
                expected = reference_distance(g1, g2, w, align)
                assert geometric_graph_distance(g1, g2, w, align=align) == expected
                assert geometric_graph_distance(r1, r2, w, align=align) == expected

    @pytest.mark.parametrize("align", [False, True])
    def test_tune_like_rescoring_of_warm_rows_equals_cold_graphs(self, align):
        rng = random.Random(223)
        graphs = [random_geometric(rng, rng.randint(2, 8), p=0.4) for _ in range(8)]
        rows = [geometric_rows(g) for g in graphs]
        weights = [DistanceWeights(*(rng.uniform(0.0, 1.0) for _ in range(4)))
                   for _ in range(25)]
        for w in weights:
            for (a, ra), (b, rb) in itertools.product(zip(graphs, rows), repeat=2):
                warm = geometric_graph_distance(ra, rb, w, align=align)
                assert warm == geometric_graph_distance(a, b, w, align=align)
                assert warm == reference_distance(a, b, w, align)
        assert any(r.pads for r in rows)

    @pytest.mark.parametrize("tolerance", [0.0, 0.01, 0.2])
    def test_isomorphism_verdicts_distances_and_mappings_equal(self, tolerance):
        for g1, g2 in pair_step_graphs():
            got = geometric_graph_isomorphism(g1, g2, tolerance)
            assert got == reference_pair_isomorphism(g1, g2, tolerance)

    def test_vertex_costs_equal_the_3d_difference(self):
        rng = np.random.default_rng(227)
        for n in (0, 1, 4, 17):
            c1, c2 = rng.normal(size=(n, 2)) * 50, rng.normal(size=(n, 2))
            got = geometric._vertex_cost_matrix(c1, c2)
            assert got.shape == (n, n)
            assert np.array_equal(got, reference_vertex_costs(c1, c2))


class TestDistanceOnGivenTerms:
    """A pair's edge terms, built once and passed to the distance, give the
    distance bit for bit under every weight vector."""

    @pytest.mark.parametrize("align", [False, True])
    def test_given_terms_give_the_same_distance(self, align):
        for g1, g2 in pair_step_graphs():
            r1, r2 = _pair(g1, g2, "edm" if align else None)  # the distance's own rows
            terms = geometric._edge_terms(r1.edges, r2.edges)
            for w in PAIR_STEP_WEIGHTS:
                expected = geometric_graph_distance(g1, g2, w, align=align)
                assert geometric_graph_distance(r1, r2, w, terms=terms) == expected
                assert geometric_graph_distance(r1, r2, w) == expected

    def test_terms_of_the_unpadded_rows_rejected(self):
        g1, g2 = square(), GeometricGraph([0, 1], [(0, 1)], {0: (0, 0), 1: (1, 2)})
        r1, r2 = geometric_rows(g1), geometric_rows(g2)
        with pytest.raises(ValueError, match="edge terms"):
            geometric_graph_distance(r1, r2, terms=geometric._edge_terms(r1.edges, r2.edges))
        p1, p2 = _pair(r1, r2, None)
        terms = geometric._edge_terms(p1.edges, p2.edges)
        for wrong in (
            geometric._edge_terms(p1.edges[:-1], p2.edges),
            geometric._edge_terms(p1.edges, p2.edges[None]),
            (terms[0], terms[1], terms[2][:, :1]),
        ):
            with pytest.raises(ValueError, match="edge terms"):
                geometric_graph_distance(p1, p2, terms=wrong)
        assert geometric_graph_distance(p1, p2, terms=terms) == geometric_graph_distance(g1, g2)

    def test_terms_with_alignment_rejected(self):
        g = square()
        r = geometric_rows(g)
        with pytest.raises(ValueError, match="aligned"):
            geometric_graph_distance(r, r, align=True, terms=geometric._edge_terms(r.edges, r.edges))


class TestPaddingMemo:
    @staticmethod
    def rows(n=4, p=0.5, empty_edges=0, seed=229):
        g = random_geometric(random.Random(seed), n, p)
        return geometric_rows(GeometricGraph(g.vertices, g.edges, g.coords, empty_edges=empty_edges))

    def test_repeated_padding_returns_the_same_rows(self):
        r = self.rows(empty_edges=1)
        for n, slots in ((6, len(r.edges) + 3), (4, len(r.edges) + 2), (7, len(r.edges))):
            first = geometric._padded(r, n, slots)
            assert geometric._padded(r, n, slots) is first
            fresh = reference_padded(r, n, slots)
            assert np.array_equal(first.coords, fresh.coords)
            assert np.array_equal(first.ends, fresh.ends)
            assert np.array_equal(first.edges, fresh.edges)

    def test_rows_are_not_mutated_and_come_back_at_their_own_size(self):
        r = self.rows()
        coords, edges = r.coords.copy(), r.edges.copy()
        assert geometric._padded(r, len(r.coords), len(r.edges)) is r
        assert r.pads == {}
        geometric._padded(r, len(r.coords) + 2, len(r.edges) + 5)
        assert np.array_equal(r.coords, coords)
        assert np.array_equal(r.edges, edges)

    def test_memo_holds_only_the_sizes_asked_for(self):
        r = self.rows()
        n, m = len(r.coords), len(r.edges)
        for size in ((n + 1, m), (n, m + 2), (n + 1, m), (n, m)):
            geometric._padded(r, *size)
        assert set(r.pads) == {(n + 1, m), (n, m + 2)}
        assert all(not padded.pads for padded in r.pads.values())

    def test_memo_stays_out_of_repr(self):
        r = self.rows()
        before = repr(r)
        geometric._padded(r, len(r.coords) + 1, len(r.edges))
        assert repr(r) == before
        assert "pads" not in before

    def test_distance_on_raw_graphs_leaves_no_memo_behind(self, monkeypatch):
        made = []

        def recording_rows(g):
            r = geometric_rows(g)
            made.append(weakref.ref(r))
            return r

        monkeypatch.setattr(geometric, "geometric_rows", recording_rows)
        g1, g2 = square(), random_geometric(random.Random(233), 6)
        distance = MatcherSpec("geometric(1,1,1,1)").distance(g1, g2)
        assert distance == reference_distance(g1, g2, DistanceWeights(), False)
        gc.collect()
        assert len(made) == 2
        assert all(ref() is None for ref in made)

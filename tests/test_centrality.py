"""Centrality measures against worked values and brute-force oracles."""

from __future__ import annotations

import itertools
import math
import random
from collections import deque

import pytest

from graphmatch.centrality import (
    MEASURES,
    CentralityVector,
    centrality,
    r_centrality_ged,
    r_centrality_node_contraction,
    t_centrality_ged,
    t_centrality_node_contraction,
)
from graphmatch.contraction import k_star_ged, k_star_node_contraction
from graphmatch.editdist import ged
from graphmatch.graphs import (
    AttributedGraph,
    component_count,
    connected_components,
    is_cut_vertex,
    random_graph,
)

# the six-vertex worked example: A..F = 0..5, hub F, pendant E on D
FIG = AttributedGraph(
    range(6), [(0, 1), (0, 5), (1, 2), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5)]
)

STAR = AttributedGraph(range(4), [(0, 1), (0, 2), (0, 3)])


# -- oracles -----------------------------------------------------------------


def bfs_dist(g, s):
    dist = {s: 0}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def oracle_betweenness(g):
    """Pair dependencies by explicit enumeration of every shortest path."""
    scores = {v: 0.0 for v in g.vertices}
    for s, t in itertools.combinations(g.vertices, 2):
        dist = bfs_dist(g, s)
        if t not in dist:
            continue
        paths = []
        stack = [[s]]
        while stack:
            path = stack.pop()
            if path[-1] == t:
                paths.append(path)
                continue
            for w in g.neighbors(path[-1]):
                if dist.get(w) == len(path):
                    stack.append(path + [w])
        for path in paths:
            for v in path[1:-1]:
                scores[v] += 1.0 / len(paths)
    return scores


def simulate_rounds(g, scores, rounds):
    """Selection semantics replayed from a raw score table."""
    current = g
    removed = []
    left = set(g.vertices)
    for _ in range(rounds):
        if not left:
            break
        v = min(left, key=lambda u: (scores[u], u))
        left.remove(v)
        if current.degree(v) > 0 and not is_cut_vertex(current, v):
            current = current.without_vertices([v])
            removed.append(v)
    return tuple(removed)


def relabeled(g, mapping):
    return AttributedGraph(
        [mapping[v] for v in g.vertices],
        [(mapping[u], mapping[w]) for u, w in g.edges],
    )


def random_tree(rng, n):
    return AttributedGraph(range(n), [(i, rng.randrange(i)) for i in range(1, n)])


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield AttributedGraph(range(n), [e for i, e in enumerate(pairs) if bits >> i & 1])


# -- the dispatcher and the measures ------------------------------------------


class TestCentrality:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            centrality(AttributedGraph([]), "degree")

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            centrality(FIG, "closeness")

    def test_scores_cover_all_vertices(self):
        for measure in MEASURES:
            vector = centrality(FIG, measure)
            assert isinstance(vector, CentralityVector)
            assert vector.measure == measure
            assert set(vector.scores) == set(FIG.vertices)
            assert all(s >= 0.0 for s in vector.scores.values())
            assert vector[5] == vector.scores[5]

    def test_permutation_equivariant(self):
        rng = random.Random(3)
        for _ in range(12):
            n = rng.randint(2, 9)
            g = random_graph(n, rng.uniform(0.2, 0.7), seed=rng.getrandbits(16))
            mapping = dict(zip(range(n), rng.sample(range(n), n)))
            h = relabeled(g, mapping)
            for measure in MEASURES:
                original = centrality(g, measure).scores
                shuffled = centrality(h, measure).scores
                for v in g.vertices:
                    assert shuffled[mapping[v]] == pytest.approx(original[v], abs=1e-7)


class TestDegree:
    def test_worked_values(self):
        scores = centrality(FIG, "degree").scores
        assert [scores[v] for v in range(6)] == [2, 3, 3, 3, 1, 4]


class TestBetweenness:
    def test_worked_values(self):
        scores = centrality(FIG, "betweenness").scores
        assert [scores[v] for v in range(6)] == pytest.approx([0, 0.5, 1, 4, 0, 3.5])

    def test_path_midpoint(self):
        scores = centrality(AttributedGraph([0, 1, 2], [(0, 1), (1, 2)]), "betweenness").scores
        assert [scores[v] for v in range(3)] == pytest.approx([0, 1, 0])

    def test_all_four_vertex_graphs_match_oracle(self):
        for g in all_graphs(4):
            scores = centrality(g, "betweenness").scores
            expect = oracle_betweenness(g)
            for v in g.vertices:
                assert scores[v] == pytest.approx(expect[v], abs=1e-12)

    def test_random_graphs_match_oracle(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_graph(rng.randint(5, 7), rng.uniform(0.2, 0.8), seed=rng.getrandbits(16))
            scores = centrality(g, "betweenness").scores
            expect = oracle_betweenness(g)
            for v in g.vertices:
                assert scores[v] == pytest.approx(expect[v], abs=1e-9)


class TestEigenvector:
    def test_complete_graph_is_uniform(self):
        for n in (2, 3, 5, 8):
            g = AttributedGraph(range(n), itertools.combinations(range(n), 2))
            scores = centrality(g, "eigenvector").scores
            assert all(s == 1.0 for s in scores.values())

    def test_eigenpair_residual(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_graph(rng.randint(2, 10), rng.uniform(0.2, 0.7), seed=rng.getrandbits(16))
            scores = centrality(g, "eigenvector").scores
            for comp in connected_components(g):
                ax = {v: sum(scores[w] for w in g.neighbors(v)) for v in comp}
                norm = sum(scores[v] ** 2 for v in comp)
                kappa = sum(ax[v] * scores[v] for v in comp) / norm
                assert max(abs(ax[v] - kappa * scores[v]) for v in comp) <= 1e-6

    def test_bipartite_graphs_converge(self):
        # plain power iteration on A would oscillate on these
        for g in (
            STAR,
            AttributedGraph(range(4), [(0, 1), (1, 2), (2, 3)]),
            AttributedGraph(range(6), [(i, (i + 1) % 6) for i in range(6)]),
        ):
            scores = centrality(g, "eigenvector").scores
            assert max(scores.values()) == pytest.approx(1.0)

    def test_per_component_normalization(self):
        g = AttributedGraph(range(5), [(0, 1), (0, 2), (1, 2)])  # triangle + 2 isolated
        scores = centrality(g, "eigenvector").scores
        assert scores[0] == scores[1] == scores[2] == 1.0
        assert scores[3] == scores[4] == 1.0


class TestPagerank:
    def test_worked_values(self):
        scores = centrality(FIG, "pagerank").scores
        targets = (0.09, 0.18, 0.15, 0.26, 0.05, 0.25)
        for v, target in zip(range(6), targets):
            assert abs(scores[v] - target) <= 0.02

    def test_scores_sum_to_one(self):
        rng = random.Random(41)
        for _ in range(15):
            g = random_graph(rng.randint(1, 12), rng.uniform(0.0, 0.7), seed=rng.getrandbits(16))
            scores = centrality(g, "pagerank").scores
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)

    def test_positive_on_connected_graphs(self):
        rng = random.Random(43)
        for _ in range(10):
            tree = random_tree(rng, rng.randint(2, 10))
            assert all(s > 0 for s in centrality(tree, "pagerank").scores.values())


# -- centrality-guided contraction -----------------------------------------


class TestRContraction:
    def test_zero_fraction_is_identity(self):
        g = random_graph(7, 0.4, seed=5)
        out, report = r_centrality_node_contraction(g, 0.0, "degree")
        assert out.vertices == g.vertices and out.edges == g.edges
        assert report.removed == ()

    def test_full_fraction_on_star_keeps_center(self):
        out, report = r_centrality_node_contraction(STAR, 1.0, "degree")
        assert out.vertices == (0,)
        assert report.removed == (1, 2, 3)
        assert report.components_after == 1

    def test_single_round_takes_pendant(self):
        out, report = r_centrality_node_contraction(FIG, 1 / 6, "degree")
        assert report.removed == (4,)

    def test_fraction_bounds_checked(self):
        for r in (-0.1, 1.1):
            with pytest.raises(ValueError):
                r_centrality_node_contraction(FIG, r, "degree")

    def test_components_preserved_for_every_measure(self):
        rng = random.Random(59)
        for _ in range(10):
            g = random_graph(rng.randint(2, 10), rng.uniform(0.15, 0.6), seed=rng.getrandbits(16))
            for measure in MEASURES:
                for r in (0.3, 0.7, 1.0):
                    out, report = r_centrality_node_contraction(g, r, measure)
                    assert component_count(out) == component_count(g)
                    assert report.after_n == report.before_n - len(report.removed)

    def test_matches_rank_replay_and_ignores_score_scale(self):
        rng = random.Random(61)
        for _ in range(10):
            g = random_graph(rng.randint(3, 9), rng.uniform(0.2, 0.6), seed=rng.getrandbits(16))
            for measure in MEASURES:
                scores = centrality(g, measure).scores
                rounds = math.ceil(0.5 * g.n)
                _, report = r_centrality_node_contraction(g, 0.5, measure)
                assert report.removed == simulate_rounds(g, scores, rounds)
                scaled = {v: 7.25 * s for v, s in scores.items()}
                assert report.removed == simulate_rounds(g, scaled, rounds)


class TestTContraction:
    def test_zero_rounds_is_identity(self):
        out, report = t_centrality_node_contraction(FIG, 0, "betweenness")
        assert out.vertices == FIG.vertices
        assert report.removed == ()

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            t_centrality_node_contraction(FIG, -1, "degree")

    def test_blocked_selection_consumes_its_round(self):
        # the isolated vertex ranks first but can never be removed; with
        # t=2 only one endpoint of the path goes
        g = AttributedGraph(range(4), [(0, 1), (1, 2)])
        out, report = t_centrality_node_contraction(g, 2, "degree")
        assert report.removed == (0,)
        assert 3 in out.vertices

    def test_rounds_beyond_vertex_count_are_harmless(self):
        g = random_graph(6, 0.4, seed=77)
        out, report = t_centrality_node_contraction(g, g.n + 5, "degree")
        assert component_count(out) == component_count(g)
        assert out.n >= 1

    def test_tree_peels_inward(self):
        rng = random.Random(67)
        for _ in range(10):
            tree = random_tree(rng, rng.randint(2, 12))
            out, report = t_centrality_node_contraction(tree, tree.n, "degree")
            assert component_count(out) == 1
            assert out.n >= 1

    def test_leaf_count_rounds_equal_degree_one_cascade(self):
        rng = random.Random(71)
        for _ in range(50):
            tree = random_tree(rng, rng.randint(2, 12))
            leaves = sum(1 for v in tree.vertices if tree.degree(v) == 1)
            via_rounds, _ = t_centrality_node_contraction(tree, leaves, "degree")
            via_cascade, _ = k_star_node_contraction(tree, 1)
            assert via_rounds.vertices == via_cascade.vertices
            assert via_rounds.edges == via_cascade.edges


class TestCentralityGed:
    def test_zero_fraction_equals_ged(self):
        g1 = random_graph(5, 0.4, seed=83)
        g2 = random_graph(4, 0.5, seed=84)
        assert r_centrality_ged(g1, g2, 0.0, "degree").total_cost == ged(g1, g2).total_cost
        assert t_centrality_ged(g1, g2, 0, "pagerank").total_cost == ged(g1, g2).total_cost

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, m: r_centrality_node_contraction(g, 0.0, m),
            lambda g, m: t_centrality_node_contraction(g, 0, m),
            lambda g, m: t_centrality_node_contraction(AttributedGraph([]), 2, m),
            lambda g, m: t_centrality_node_contraction(g, 1, m),
            lambda g, m: r_centrality_ged(g, g, 0.0, m),
            lambda g, m: t_centrality_ged(g, g, 0, m),
        ],
        ids=["r0", "t0", "t2-empty", "t1", "r-ged-r0", "t-ged-t0"],
    )
    def test_unknown_measure_rejected_even_without_rounds(self, call):
        with pytest.raises(ValueError, match="unknown centrality measure"):
            call(FIG, "closeness")

    def test_self_distance_zero(self):
        g = random_graph(8, 0.35, seed=89)
        for measure in MEASURES:
            assert r_centrality_ged(g, g, 0.5, measure).total_cost == 0.0
            assert t_centrality_ged(g, g, 3, measure).total_cost == 0.0

    def test_equals_degree_cascade_ged_on_trees(self):
        rng = random.Random(97)
        trees = [random_tree(rng, rng.randint(4, 10)) for _ in range(40)]
        by_leaves = {}
        for tree in trees:
            leaves = sum(1 for v in tree.vertices if tree.degree(v) == 1)
            by_leaves.setdefault(leaves, []).append(tree)
        pairs = [
            pair
            for group in by_leaves.values()
            for pair in zip(group[::2], group[1::2])
        ][:20]
        assert len(pairs) >= 10
        for a, b in pairs:
            leaves = sum(1 for v in a.vertices if a.degree(v) == 1)
            expected = k_star_ged(a, b, 1).total_cost
            assert t_centrality_ged(a, b, leaves, "degree").total_cost == expected

    def test_beam_width_passthrough(self):
        g1 = random_graph(8, 0.4, seed=101)
        g2 = random_graph(8, 0.5, seed=102)
        exact = r_centrality_ged(g1, g2, 0.25, "degree").total_cost
        bounded = r_centrality_ged(g1, g2, 0.25, "degree", beam_width=1).total_cost
        assert bounded >= exact - 1e-12

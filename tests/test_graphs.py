import math
import random

import pytest
from scipy import stats

from graphmatch.graphs import (
    AttributedGraph,
    GeometricGraph,
    canonical_edge,
    component_count,
    connected_components,
    is_cut_vertex,
    random_graph,
    subdivide_edge,
)


def union_find_components(n_vertices, edges):
    """Independent component oracle: plain union-find over the edge list."""
    parent = {v: v for v in n_vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups = {}
    for v in n_vertices:
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0])


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            AttributedGraph([0, 1], [(0, 0)])

    def test_rejects_parallel_edge(self):
        with pytest.raises(ValueError, match="parallel"):
            AttributedGraph([0, 1], [(0, 1), (1, 0)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError):
            AttributedGraph([0, 1], [(0, 2)])

    def test_rejects_mixed_label_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            AttributedGraph([0, 1], [], node_labels={0: (1.0,), 1: (1.0, 2.0)})

    def test_rejects_mixed_label_kinds(self):
        with pytest.raises(ValueError, match="kinds"):
            AttributedGraph([0, 1], [], node_labels={0: "C", 1: (1.0, 2.0)})

    def test_empty_labels_allowed_alongside_vectors(self):
        g = AttributedGraph([0, 1], [(0, 1)], node_labels={0: (1.0, 2.0)})
        assert g.node_label(0) == (1.0, 2.0)
        assert g.node_label(1) is None

    def test_edges_canonicalized_and_sorted(self):
        g = AttributedGraph([3, 1, 2], [(3, 1), (2, 3)])
        assert g.edges == ((1, 3), (2, 3))
        assert g.has_edge(1, 3) and g.has_edge(3, 1)

    def test_rejects_label_for_unknown_vertex(self):
        # string keys name no vertex: the ids are ints
        with pytest.raises(ValueError, match="unknown vertices"):
            AttributedGraph(["0", "1"], node_labels={"0": "a"})
        with pytest.raises(ValueError, match="unknown vertices"):
            GeometricGraph([0], coords={0: (0.0, 0.0)}, node_labels={1: "a"})
        # mixed-type keys in the message are never sorted
        with pytest.raises(ValueError, match=r"\['x', 2\]"):
            AttributedGraph([0], node_labels={"x": "a", 0: "b", 2: "c"})

    def test_rejects_coordinate_for_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertices"):
            GeometricGraph([0], coords={0: (0.0, 0.0), 1: (1.0, 1.0)})
        with pytest.raises(ValueError, match="unknown vertices"):
            GeometricGraph(["0"], coords={"0": (0.0, 0.0)})

    def test_geometric_requires_total_finite_coords(self):
        with pytest.raises(ValueError, match="no coordinate"):
            GeometricGraph([0, 1], [], coords={0: (0.0, 0.0)})
        with pytest.raises(ValueError, match="non-finite"):
            GeometricGraph([0], [], coords={0: (math.inf, 0.0)})

    @pytest.mark.parametrize(
        "build, error, match",
        [
            (lambda: AttributedGraph([0, 1, 0]), ValueError, "duplicate vertex ids"),
            (lambda: AttributedGraph([0], node_labels={0: (1.0, math.nan)}),
             ValueError, "non-finite label vector"),
            (lambda: AttributedGraph([0], node_labels={0: 1.5}), TypeError, "unsupported label"),
            (lambda: AttributedGraph([0, 1, 2], [(0, 1)], edge_labels={(2, 1): "x"}),
             ValueError, "label for missing edge"),
            (lambda: GeometricGraph([0], coords={0: (0.0, 0.0)}, empty_edges=-1),
             ValueError, "empty_edges"),
            (lambda: is_cut_vertex(AttributedGraph([0, 1], [(0, 1)]), 2),
             KeyError, "unknown vertex 2"),
        ],
        ids=["duplicate-ids", "nan-label", "float-label", "missing-edge-label",
             "negative-empty-edges", "unknown-cut-vertex"],
    )
    def test_rejects_invalid_input(self, build, error, match):
        with pytest.raises(error, match=match):
            build()

    def test_degree_and_neighbors(self):
        g = AttributedGraph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.neighbors(0) == (1, 2, 3)
        assert [g.degree(v) for v in (1, 2, 3)] == [1, 1, 1]


class TestConnectivity:
    def test_components_match_union_find_on_random_graphs(self):
        for seed in range(60):
            n = random.Random(seed).randint(0, 25)
            g = random_graph(n, 0.08, seed=seed)
            assert connected_components(g) == union_find_components(g.vertices, g.edges)

    def test_isolated_vertex_not_cut(self):
        g = AttributedGraph([0], [])
        assert not is_cut_vertex(g, 0)

    def test_k2_endpoints_not_cut(self):
        g = AttributedGraph([0, 1], [(0, 1)])
        assert not is_cut_vertex(g, 0) and not is_cut_vertex(g, 1)

    def test_path_midpoint_is_cut(self):
        g = AttributedGraph([0, 1, 2], [(0, 1), (1, 2)])
        assert is_cut_vertex(g, 1)

    def test_is_cut_vertex_matches_component_splitting(self):
        # Direct definition: v is a cut vertex iff its component splits.
        for seed in range(40):
            g = random_graph(10, 0.2, seed=seed + 1000)
            for v in g.vertices:
                comp = next(c for c in connected_components(g) if v in c)
                rest = [u for u in comp if u != v]
                sub = AttributedGraph(
                    rest, [e for e in g.edges if e[0] in rest and e[1] in rest]
                )
                assert is_cut_vertex(g, v) == (component_count(sub) > 1)


class TestRandomGraph:
    def test_deterministic_per_seed(self):
        a = random_graph(40, 0.1, seed=7)
        b = random_graph(40, 0.1, seed=7)
        assert a.edges == b.edges

    def test_edge_probability_boundaries(self):
        assert random_graph(12, 0.0, seed=1).m == 0
        assert random_graph(12, 1.0, seed=1).m == 12 * 11 // 2

    def test_mean_edge_count_within_5_percent(self):
        n, p = 1000, 0.01
        expected = p * n * (n - 1) / 2
        counts = [random_graph(n, p, seed=s).m for s in range(100)]
        mean = sum(counts) / len(counts)
        assert abs(mean - expected) / expected < 0.05

    def test_degree_distribution_chi_square(self):
        # Aggregate 10^4 vertex degrees; they should follow Binomial(n-1, p).
        n, p, samples = 100, 0.05, 100
        degrees = []
        for s in range(samples):
            g = random_graph(n, p, seed=20_000 + s)
            degrees.extend(g.degree(v) for v in g.vertices)
        assert len(degrees) == n * samples
        binom = stats.binom(n - 1, p)
        # Bin the right tail so every expected count is >= 5.
        cut = 0
        while binom.sf(cut) * len(degrees) >= 5:
            cut += 1
        observed = [0] * (cut + 1)
        for d in degrees:
            observed[min(d, cut)] += 1
        expected = [binom.pmf(k) * len(degrees) for k in range(cut)]
        expected.append(binom.sf(cut - 1) * len(degrees))
        chi2, pvalue = stats.chisquare(observed, f_exp=expected)
        assert pvalue > 0.01

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            random_graph(-1, 0.5)
        with pytest.raises(ValueError):
            random_graph(5, 1.5)


class TestSubdivision:
    def test_subdivide_plain_edge(self):
        g = AttributedGraph([0, 1], [(0, 1)], edge_labels={(0, 1): "bond"})
        h = subdivide_edge(g, (0, 1))
        assert h.n == 3 and h.m == 2
        w = 2
        assert h.degree(w) == 2
        assert not h.has_edge(0, 1)
        assert h.edge_label(0, w) == "bond" and h.edge_label(w, 1) == "bond"

    def test_subdivide_geometric_midpoint(self):
        g = GeometricGraph(
            [0, 1],
            [(0, 1)],
            coords={0: (0.0, 0.0), 1: (2.0, 4.0)},
            node_labels={0: (0.0, 0.0), 1: (2.0, 4.0)},
        )
        h = subdivide_edge(g, (0, 1))
        assert h.coords[2] == (1.0, 2.0)
        assert h.node_label(2) == (1.0, 2.0)

    def test_missing_edge_rejected(self):
        g = AttributedGraph([0, 1, 2], [(0, 1)])
        with pytest.raises(ValueError):
            subdivide_edge(g, (0, 2))

    def test_canonical_edge(self):
        assert canonical_edge(5, 2) == (2, 5)

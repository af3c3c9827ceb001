"""Path and degree contraction, their reports, and the derived distances."""

from __future__ import annotations

import collections
import itertools
import math
import random
import statistics
from dataclasses import replace

import pytest

from graphmatch.centrality import (
    MEASURES,
    centrality,
    r_centrality_node_contraction,
    t_centrality_node_contraction,
)
from graphmatch.contraction import (
    ContractionReport,
    _contract_runs,
    _merged_label,
    _runs,
    hged,
    k_node_contraction,
    k_star_ged,
    k_star_node_contraction,
    k_star_node_deletion,
    path_contract,
)
from graphmatch.editdist import EditCostParams, EditOp, _price, ged
from graphmatch.graphs import (
    AttributedGraph,
    GeometricGraph,
    canonical_edge,
    component_count,
    is_cut_vertex,
    random_graph,
    subdivide_edge,
)


# -- oracles and helpers ---------------------------------------------------


def is_isomorphic(g1, g2) -> bool:
    """Brute-force unlabeled isomorphism test, fine for n <= 8."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(map(g1.degree, g1.vertices)) != sorted(map(g2.degree, g2.vertices)):
        return False
    targets = {frozenset(e) for e in g2.edges}
    for image in itertools.permutations(g2.vertices):
        m = dict(zip(g1.vertices, image))
        if all(frozenset((m[u], m[v])) in targets for u, v in g1.edges):
            return True
    return False


def degree_census(g) -> collections.Counter:
    """How many vertices of each degree, with degree 2 masked out."""
    census = collections.Counter(g.degree(v) for v in g.vertices)
    census.pop(2, None)
    return census


def open_chain_edges(g) -> list:
    """Edges joining two degree-2 vertices whose run has distinct anchors.

    Any such edge means a chain that path contraction should have collapsed;
    runs that close back on themselves (cycles) are exempt because they keep
    interior vertices by design.
    """
    bad = []
    for u, v in g.edges:
        if g.degree(u) != 2 or g.degree(v) != 2:
            continue
        ends = []
        closed = False
        for head, tail in ((u, v), (v, u)):
            prev, cur = tail, head
            steps = 0
            while g.degree(cur) == 2:
                onward = [w for w in g.neighbors(cur) if w != prev]
                prev, cur = cur, onward[0]
                steps += 1
                if steps > g.n:
                    closed = True
                    break
            ends.append(cur)
        if not closed and ends[0] != ends[1]:
            bad.append((u, v))
    return bad


def random_tree(rng: random.Random, n: int) -> AttributedGraph:
    return AttributedGraph(range(n), [(i, rng.randrange(i)) for i in range(1, n)])


def subdivide_all(g) -> AttributedGraph:
    out = g
    for e in g.edges:
        out = subdivide_edge(out, e)
    return out


def path3(labels=None, edge_labels=None) -> AttributedGraph:
    return AttributedGraph(
        [0, 1, 2], [(0, 1), (1, 2)], node_labels=labels, edge_labels=edge_labels
    )


K4 = AttributedGraph(range(4), list(itertools.combinations(range(4), 2)))
TRIANGLE = AttributedGraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
STAR = AttributedGraph(range(4), [(0, 1), (0, 2), (0, 3)])


def check_report(g, out, report):
    assert report.before_n == g.n
    assert report.after_n == out.n
    assert report.after_n == report.before_n - len(report.removed)
    assert report.components_before == component_count(g)
    assert report.components_after == component_count(out)


# -- path contraction --------------------------------------------------------


class TestPathContract:
    def test_smooths_a_path(self):
        out, report = path_contract(path3())
        assert out.vertices == (0, 2)
        assert out.edges == ((0, 2),)
        assert report.removed == (1,)
        check_report(path3(), out, report)

    def test_square_becomes_canonical_triangle(self):
        c4 = AttributedGraph([10, 11, 12, 13], [(10, 11), (11, 12), (12, 13), (10, 13)])
        out, report = path_contract(c4)
        assert out.vertices == (10, 11, 12)
        assert set(out.edges) == {(10, 11), (10, 12), (11, 12)}
        assert report.removed == (13,)
        assert degree_census(c4) == degree_census(out)

    def test_inverts_repeated_subdivision(self):
        g = subdivide_edge(K4, (0, 1))
        g = subdivide_edge(g, (4, 1))  # chain of two inside one edge
        g = subdivide_edge(g, (2, 3))
        out, report = path_contract(g)
        assert is_isomorphic(out, K4)
        assert len(report.removed) == 3

    def test_parallel_runs_keep_one_interior(self):
        # three vertex-disjoint runs between the same anchors: collapsing
        # them all to 0-1 would need parallel edges
        theta = AttributedGraph(
            range(6), [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)]
        )
        out, report = path_contract(theta)
        assert set(out.edges) == {(0, 1), (0, 3), (1, 3), (0, 4), (1, 4)}
        assert report.removed == (2, 5)
        assert degree_census(theta) == degree_census(out)

    def test_run_anchored_at_one_vertex_keeps_two(self):
        pan = AttributedGraph([0, 1, 2, 3, 9], [(0, 1), (1, 2), (2, 3), (0, 3), (0, 9)])
        out, report = path_contract(pan)
        assert set(out.edges) == {(0, 1), (1, 2), (0, 2), (0, 9)}
        assert report.removed == (3,)
        assert degree_census(pan) == degree_census(out)

    def test_chord_blocks_full_collapse(self):
        # the anchors are already adjacent, so the run must keep a vertex
        g = AttributedGraph([0, 1, 2, 3], [(0, 1), (0, 2), (2, 3), (3, 1), (0, 3)])
        out, _ = path_contract(g)
        bad = [e for e in out.edges if out.edges.count(e) > 1]
        assert not bad
        assert degree_census(g) == degree_census(out)

    def test_homeomorphic_census_on_random_graphs(self):
        for seed in range(40):
            g = random_graph(5 + seed % 8, 0.2 + (seed % 5) * 0.1, seed=seed)
            out, report = path_contract(g)
            assert degree_census(g) == degree_census(out)
            check_report(g, out, report)
            assert report.components_before == report.components_after

    def test_no_open_chain_survives(self):
        for seed in range(40):
            g = random_graph(6 + seed % 7, 0.25, seed=seed)
            out, _ = path_contract(g)
            assert open_chain_edges(out) == []

    def test_idempotent(self):
        for seed in range(30):
            g = random_graph(5 + seed % 8, 0.3, seed=seed)
            once, _ = path_contract(g)
            twice, report = path_contract(once)
            assert report.removed == ()
            assert twice.vertices == once.vertices
            assert twice.edges == once.edges

    def test_subdividing_first_does_not_change_outcome(self):
        fixtures = [
            K4,
            STAR,
            AttributedGraph(range(6), [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)]),
            AttributedGraph([0, 1, 2, 3, 9], [(0, 1), (1, 2), (2, 3), (0, 3), (0, 9)]),
        ]
        for g in fixtures:
            direct, _ = path_contract(g)
            via_subdivision, _ = path_contract(subdivide_all(g))
            assert is_isomorphic(direct, via_subdivision)

    def test_merged_edge_keeps_agreeing_label(self):
        g = path3(edge_labels={(0, 1): "a", (1, 2): "a"})
        out, _ = path_contract(g)
        assert out.edge_label(0, 2) == "a"

    def test_merged_edge_drops_conflicting_labels(self):
        g = path3(edge_labels={(0, 1): "a", (1, 2): "b"})
        out, _ = path_contract(g)
        assert out.edge_label(0, 2) is None

    def test_subdivision_roundtrip_restores_edge_label(self):
        g = AttributedGraph([0, 1], [(0, 1)], edge_labels={(0, 1): "bond"})
        out, _ = path_contract(subdivide_edge(g, (0, 1)))
        assert out.edge_label(0, 1) == "bond"

    def test_geometric_graphs_keep_type_and_coords(self):
        g = GeometricGraph(
            [0, 1, 2], [(0, 1), (1, 2)], coords={0: (0, 0), 1: (1, 1), 2: (2, 0)}
        )
        out, _ = path_contract(g)
        assert isinstance(out, GeometricGraph)
        assert out.coords == {0: (0.0, 0.0), 2: (2.0, 0.0)}

    def test_small_graphs_untouched(self):
        for g in (AttributedGraph([]), AttributedGraph([5]), AttributedGraph([0, 1], [(0, 1)]), TRIANGLE):
            out, report = path_contract(g)
            assert out.vertices == g.vertices
            assert out.edges == g.edges
            assert report.removed == ()

    def test_cycle_component_beside_other_structure(self):
        g = AttributedGraph(
            range(9),
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]  # C5
            + [(5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)],  # K4
        )
        out, report = path_contract(g)
        assert set(report.removed) == {3, 4}
        assert component_count(out) == 2
        assert degree_census(g) == degree_census(out)


# -- homeomorphic edit distance ----------------------------------------------


class TestHged:
    def test_self_distance_zero(self):
        for seed in range(5):
            g = random_graph(6, 0.4, seed=seed)
            assert hged(g, g).total_cost == 0.0

    def test_zero_across_subdivision(self):
        rng = random.Random(11)
        for _ in range(20):
            tree = random_tree(rng, rng.randint(3, 10))
            assert hged(tree, subdivide_all(tree)).total_cost == 0.0

    def test_preprocessing_cost_uses_anchor_labels(self):
        g1 = path3(labels={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (3.0, 0.0)})
        g2 = AttributedGraph([7, 8], [(7, 8)], node_labels={7: (0.0, 0.0), 8: (3.0, 0.0)})
        path = hged(g1, g2)
        assert path.total_cost == 0.0
        assert [op.kind for op in path.preprocessing] == ["path_contract"]
        op = path.preprocessing[0]
        assert op.source == (0, 1, 2)
        assert op.cost == pytest.approx(3.0)

    def test_contraction_cost_excluded_from_total(self):
        g1 = path3(labels={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (3.0, 0.0)})
        params = EditCostParams(z_path=0.5)
        path = hged(g1, g1, params)
        assert path.total_cost == 0.0
        assert sum(op.cost for op in path.preprocessing) == pytest.approx(3.0)

    def test_beam_width_gives_upper_bound(self):
        g1 = random_graph(7, 0.4, seed=3)
        g2 = random_graph(7, 0.5, seed=4)
        exact = hged(g1, g2).total_cost
        assert hged(g1, g2, beam_width=1).total_cost >= exact - 1e-12


# -- degree-k node contraction -------------------------------------------


class TestKNodeContraction:
    def test_star_leaves_removed(self):
        out, report = k_node_contraction(STAR, 1)
        assert out.vertices == (0,)
        assert report.removed == (1, 2, 3)
        assert report.components_after == 1

    def test_cut_vertex_protected(self):
        out, report = k_node_contraction(path3(), 2)
        assert out.vertices == (0, 1, 2)
        assert report.removed == ()

    def test_triangle_removes_exactly_two(self):
        # flags are set before the sweep: vertices 1 and 2 have dropped to
        # degree 1 by their visit, but stay marked; only the survivor rule
        # stops the sweep from erasing the component
        out, report = k_node_contraction(TRIANGLE, 2)
        assert report.removed == (0, 1)
        assert out.vertices == (2,)
        assert report.components_before == report.components_after == 1

    def test_degree_zero_vertices_survive(self):
        g = AttributedGraph([0, 1, 2], [(1, 2)])
        out, report = k_node_contraction(g, 0)
        assert out.vertices == (0, 1, 2)
        assert report.removed == ()

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            k_node_contraction(STAR, -1)

    def test_report_arithmetic(self):
        for seed in range(20):
            g = random_graph(10, 0.25, seed=seed)
            for k in range(4):
                out, report = k_node_contraction(g, k)
                check_report(g, out, report)
                assert report.components_before == report.components_after


class TestKStarNodeContraction:
    def test_zero_is_identity(self):
        g = random_graph(8, 0.3, seed=9)
        out, report = k_star_node_contraction(g, 0)
        assert out.vertices == g.vertices and out.edges == g.edges
        assert report.removed == ()

    def test_cascade_starts_at_degree_one(self):
        p4 = AttributedGraph(range(4), [(0, 1), (1, 2), (2, 3)])
        cascade, _ = k_star_node_contraction(p4, 2)
        single, _ = k_node_contraction(p4, 2)
        # the degree-1 sweep strips the endpoints first; a bare degree-2
        # sweep finds only protected cut vertices
        assert cascade.vertices == (1, 2)
        assert single.vertices == (0, 1, 2, 3)

    def test_node_counts_nonincreasing_in_k(self):
        for seed in range(25):
            g = random_graph(12, 0.2, seed=seed)
            sizes = [k_star_node_contraction(g, k)[0].n for k in range(5)]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_components_never_change(self):
        for seed in range(40):
            g = random_graph(4 + seed % 10, 0.15 + (seed % 4) * 0.1, seed=seed)
            for k in (1, 2, 3):
                out, report = k_star_node_contraction(g, k)
                assert component_count(out) == component_count(g)
                check_report(g, out, report)

    def test_sparse_removal_count_matches_expectation(self):
        """Survivor counts on G(30, 0.3) track the degree-1 census.

        Per vertex, P(deg = 1) = (n-1)p(1-p)^(n-2); the guard almost never
        fires at this density, so the k=1 cascade removes about n times
        that per graph.  Monte-Carlo noise dominates the tiny expectation,
        hence the standard-error margin.
        """
        n, p, seeds = 30, 0.3, 200
        removed = [
            len(k_star_node_contraction(random_graph(n, p, seed=s), 1)[1].removed)
            for s in range(seeds)
        ]
        mean = statistics.mean(removed)
        per_vertex = (n - 1) * p * (1 - p) ** (n - 2)
        margin = 3 * statistics.stdev(removed) / math.sqrt(seeds)
        assert abs(mean - n * per_vertex) <= margin
        assert n - mean <= n - per_vertex + margin


class TestKStarNodeDeletion:
    def test_zero_is_identity(self):
        g = random_graph(8, 0.3, seed=2)
        out, report = k_star_node_deletion(g, 0)
        assert out.vertices == g.vertices
        assert report.removed == ()

    def test_unguarded_sweep_may_split(self):
        p5 = AttributedGraph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
        out, report = k_star_node_deletion(p5, 2)
        assert out.vertices == (1, 3)
        assert report.components_before == 1
        assert report.components_after == 2

    def test_never_keeps_more_than_contraction(self):
        for seed in range(60):
            g = random_graph(5 + seed % 12, 0.15 + (seed % 5) * 0.1, seed=seed)
            for k in (1, 2, 3):
                kept_nd = k_star_node_deletion(g, k)[0].n
                kept_nc = k_star_node_contraction(g, k)[0].n
                assert kept_nd <= kept_nc


# -- differential check of the degree sweeps -------------------------------


def reference_sweeps(g, degrees, guarded):
    """Flag-then-sweep semantics replayed one removal at a time: each stage
    flags the vertices of its degree, then removes them in ascending id
    order, rebuilding the graph after every removal."""
    current = g
    removed = []
    for k in degrees:
        for v in sorted(v for v in current.vertices if current.degree(v) == k):
            if guarded and not (current.degree(v) > 0 and not is_cut_vertex(current, v)):
                continue
            current = current.without_vertices([v])
            removed.append(v)
    return current, tuple(removed)


def labelled_graph(n, mask):
    """Edge subset ``mask`` of K_n, vertices listed in descending id order,
    with a distinct label on every vertex and edge."""
    pairs = [e for bit, e in enumerate(itertools.combinations(range(n), 2)) if mask >> bit & 1]
    return AttributedGraph(
        range(n - 1, -1, -1),
        pairs,
        node_labels={v: f"v{v}" for v in range(n)},
        edge_labels={e: f"e{e[0]}{e[1]}" for e in pairs},
    )


def assert_same_result(g, actual, expected):
    """A contraction of ``g`` against the reference: the same graph, and the
    whole report, its sizes and component counts recomputed from ``g`` and
    the reference graph."""
    (out, report), (ref, ref_removed) = actual, expected
    assert type(out) is type(ref)
    assert out.vertices == ref.vertices
    assert out.edges == ref.edges
    assert out.node_labels == ref.node_labels
    assert out.edge_labels == ref.edge_labels
    assert report == ContractionReport(
        removed=ref_removed,
        before_n=g.n,
        after_n=ref.n,
        components_before=component_count(g),
        components_after=component_count(ref),
    )


def sweeps_under_test(k):
    """Each degree sweep paired with the reference call it must reproduce."""
    return (
        (lambda g: k_node_contraction(g, k), lambda g: reference_sweeps(g, [k], True)),
        (
            lambda g: k_star_node_contraction(g, k),
            lambda g: reference_sweeps(g, range(1, k + 1), True),
        ),
        (
            lambda g: k_star_node_deletion(g, k),
            lambda g: reference_sweeps(g, range(1, k + 1), False),
        ),
    )


class TestSweepsMatchReference:
    def test_every_small_graph(self):
        for n in range(6):
            for mask in range(2 ** (n * (n - 1) // 2)):
                g = labelled_graph(n, mask)
                for k in range(5):
                    for sweep, reference in sweeps_under_test(k):
                        assert_same_result(g, sweep(g), reference(g))

    def test_geometric_graph_keeps_coordinates_and_padding(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)]
        g = GeometricGraph(
            range(7),
            edges,
            coords={v: (float(v), float(v * v % 5)) for v in range(7)},
            node_labels={v: (float(v), -1.0) for v in range(7)},
            edge_labels={e: (float(e[0] + e[1]),) for e in edges},
            empty_edges=3,
        )
        for k in range(5):
            for sweep, reference in sweeps_under_test(k):
                out, report = sweep(g)
                ref, removed = reference(g)
                assert_same_result(g, (out, report), (ref, removed))
                assert out.coords == ref.coords
                assert out.empty_edges == 3

    def test_cascade_beyond_maximum_degree_is_unchanged(self):
        for seed in range(8):
            g = random_graph(8, 0.2 + 0.1 * (seed % 4), seed=seed)
            for contract in (k_star_node_contraction, k_star_node_deletion):
                huge, huge_report = contract(g, 10**9)
                at_n, at_n_report = contract(g, g.n)
                assert (huge.vertices, huge.edges) == (at_n.vertices, at_n.edges)
                assert huge_report == at_n_report


def reference_rounds(g, rounds, measure):
    """Centrality rounds replayed one removal at a time: the ``rounds``
    least central vertices of the input in (score, id) order, each removed
    unless it is isolated or a cut vertex of the graph left so far,
    rebuilding the graph after every removal."""
    if rounds == 0 or g.n == 0:
        return g, ()
    scores = centrality(g, measure).scores
    current = g
    removed = []
    for v in sorted(g.vertices, key=lambda u: (scores[u], u))[:rounds]:
        if current.degree(v) > 0 and not is_cut_vertex(current, v):
            current = current.without_vertices([v])
            removed.append(v)
    return current, tuple(removed)


class TestCentralityRoundsMatchReference:
    def test_every_small_graph(self):
        for n in range(6):
            for mask in range(2 ** (n * (n - 1) // 2)):
                g = labelled_graph(n, mask)
                for measure in MEASURES:
                    for r in (0.0, 0.25, 0.5, 1.0):
                        assert_same_result(
                            g,
                            r_centrality_node_contraction(g, r, measure),
                            reference_rounds(g, math.ceil(r * g.n), measure),
                        )
                    for t in range(4):
                        assert_same_result(
                            g,
                            t_centrality_node_contraction(g, t, measure),
                            reference_rounds(g, t, measure),
                        )


# -- differential check of path contraction --------------------------------


def reference_contract_runs(g, cases=None):
    """Path contraction with one hand-written branch per run case, each
    laying its own pieces; ``cases`` counts the cases met."""
    runs = _runs(g)
    interior = set()
    for kind, path in runs:
        interior.update(path if kind == "cycle" else path[1:-1])
    survivors = set()
    edges = {e: g.edge_labels[e] for e in g.edges if not interior.intersection(e)}
    segments = []

    def lay(path):
        edges[canonical_edge(path[0], path[-1])] = _merged_label(g, path)
        if len(path) > 2:
            segments.append(tuple(path))

    for kind, path in runs:
        if kind == "cycle" and len(path) == 3:
            case = "triangle"
            survivors.update(path)
            for i in range(3):
                lay([path[i], path[(i + 1) % 3]])
        elif kind == "cycle":
            case = "cycle"
            keep = sorted(path)[:3]
            survivors.update(keep)
            pos = sorted(path.index(c) for c in keep)
            for i, p in enumerate(pos):
                q = pos[(i + 1) % 3]
                lay(path[p : q + 1] if q > p else path[p:] + path[: q + 1])
        elif path[0] == path[-1]:
            case = "anchored cycle"
            survivors.update(path[1:3])
            lay(path[:2])
            lay(path[1:3])
            lay(path[2:])
        elif canonical_edge(path[0], path[-1]) in edges:
            case = "joined chain"
            w = min(path[1:-1])
            survivors.add(w)
            i = path.index(w)
            lay(path[: i + 1])
            lay(path[i:])
        else:
            case = "chain"
            lay(path)
        if cases is not None:
            cases[case] += 1

    contracted = g._rebuild(
        [v for v in g.vertices if v not in interior or v in survivors], list(edges), edges
    )
    removed = sorted(interior - survivors)
    return contracted, ContractionReport.of(g, contracted, removed), segments


def reference_contract_op(g, segment, params):
    """A segment's path_contract op, built unpriced and then priced by
    ``_price``."""
    op = EditOp(
        "path_contract",
        segment,
        canonical_edge(segment[0], segment[-1]),
        g.node_label(segment[0]),
        g.node_label(segment[-1]),
    )
    return replace(op, cost=_price(op.kind, op.source_label, op.target_label, params))


def planted_graph(rng):
    """Up to 14 vertices with shuffled, non-contiguous ids, a few disjoint
    planted cycles, sparse random edges on top, vector vertex labels and
    edge labels drawn from a small set (None included)."""
    n = rng.randint(0, 14)
    ids = rng.sample(range(-4, 40), n)
    pool = ids[:]
    edges = set()
    while len(pool) >= 3 and rng.random() < 0.6:
        k = rng.randint(3, min(len(pool), 7))
        ring, pool = pool[:k], pool[k:]
        edges.update(canonical_edge(ring[i], ring[(i + 1) % k]) for i in range(k))
    p = rng.choice((0.0, 0.08, 0.15, 0.25))
    edges.update(e for e in itertools.combinations(sorted(ids), 2) if rng.random() < p)
    return AttributedGraph(
        ids,
        sorted(edges),
        node_labels={v: (float(rng.randint(0, 3)), 0.0) for v in ids},
        edge_labels={e: rng.choice(("a", "b", None)) for e in edges},
    )


def assert_same_contraction(g, cases=None):
    """``_contract_runs`` and ``path_contract`` against the reference."""
    ref, ref_report, ref_segments = reference_contract_runs(g, cases)
    out, report, segments = _contract_runs(g)
    for actual in ((out, report), path_contract(g)):
        assert_same_result(g, actual, (ref, ref_report.removed))
        assert actual[1] == ref_report
    assert segments == ref_segments


ALL_RUN_CASES = {"triangle", "cycle", "anchored cycle", "joined chain", "chain"}


class TestPathContractMatchesReference:
    def test_every_small_graph(self):
        cases = collections.Counter()
        for n in range(7):
            for mask in range(2 ** (n * (n - 1) // 2)):
                assert_same_contraction(labelled_graph(n, mask), cases)
        assert set(cases) == ALL_RUN_CASES

    def test_seeded_random_graphs(self):
        rng = random.Random(2024)
        cases = collections.Counter()
        for _ in range(4000):
            assert_same_contraction(planted_graph(rng), cases)
        assert set(cases) == ALL_RUN_CASES

    def test_hged_matches_reference(self):
        rng = random.Random(77)
        params = EditCostParams(z_path=0.5)
        checked = contracted = priced = 0
        while checked < 200:
            g1, g2 = planted_graph(rng), planted_graph(rng)
            h1, _, segments1 = reference_contract_runs(g1)
            h2, _, segments2 = reference_contract_runs(g2)
            if max(h1.n, h2.n) > 6:
                continue
            pre = tuple(
                reference_contract_op(g, seg, params)
                for g, segments in ((g1, segments1), (g2, segments2))
                for seg in segments
            )
            path = hged(g1, g2, params)
            assert path.total_cost == ged(h1, h2, params).total_cost
            assert path.preprocessing == pre
            checked += 1
            contracted += bool(pre)
            priced += any(op.cost > 0.0 for op in pre)
        assert contracted >= 50
        assert priced >= 20


# -- contraction-based edit distance ----------------------------------------


class TestKStarGed:
    def test_zero_degree_equals_ged(self):
        rng = random.Random(17)
        for _ in range(30):
            g1 = random_graph(rng.randint(1, 4), rng.uniform(0.2, 0.9), seed=rng.getrandbits(16))
            g2 = random_graph(rng.randint(1, 4), rng.uniform(0.2, 0.9), seed=rng.getrandbits(16))
            assert k_star_ged(g1, g2, 0).total_cost == ged(g1, g2).total_cost

    def test_self_distance_zero_for_all_k(self):
        g = random_graph(8, 0.35, seed=21)
        for k in range(4):
            assert k_star_ged(g, g, k).total_cost == 0.0

    def test_matches_ged_of_contracted_graphs(self):
        g1 = random_graph(8, 0.3, seed=31)
        g2 = random_graph(7, 0.4, seed=32)
        for k in (1, 2):
            h1, _ = k_star_node_contraction(g1, k)
            h2, _ = k_star_node_contraction(g2, k)
            assert k_star_ged(g1, g2, k).total_cost == ged(h1, h2).total_cost

    def test_beam_width_passthrough(self):
        g1 = random_graph(8, 0.35, seed=41)
        g2 = random_graph(8, 0.45, seed=42)
        exact = k_star_ged(g1, g2, 1).total_cost
        assert k_star_ged(g1, g2, 1, beam_width=1).total_cost >= exact - 1e-12

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            k_star_ged(STAR, STAR, -2)

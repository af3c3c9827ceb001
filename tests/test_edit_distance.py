"""Exact, beam and bipartite edit distance against a brute-force oracle."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from graphmatch.editdist import (
    DEFAULT_PARAMS,
    _SearchContext,
    EditCostParams,
    EditOp,
    edit_cost,
    ged,
    ged_bipartite,
    label_distance,
    path_from_mapping,
)
from graphmatch.graphs import AttributedGraph, canonical_edge, random_graph


# -- oracle --------------------------------------------------------------


def _dist(a, b):
    if a is None and b is None:
        return 0.0
    if isinstance(a, tuple) and isinstance(b, tuple):
        return math.dist(a, b)
    if isinstance(a, str) and isinstance(b, str):
        return 0.0 if a == b else 1.0
    return 1.0


def oracle_ged(g1, g2, params=DEFAULT_PARAMS):
    """Minimum edit cost over every injective partial node mapping.

    Prices each mapping from scratch, sharing no code with the search under
    test.  Exponential, fine for the tiny graphs used here.
    """
    v1, v2 = list(g1.vertices), list(g2.vertices)
    best = math.inf
    for k in range(min(len(v1), len(v2)) + 1):
        for kept in itertools.combinations(v1, k):
            for image in itertools.permutations(v2, k):
                m = dict(zip(kept, image))
                cost = sum(
                    params.y_node * _dist(g1.node_label(u), g2.node_label(v))
                    for u, v in m.items()
                )
                cost += params.x_node * (len(v1) - k)
                cost += params.x_node * (len(v2) - k)
                hit = set()
                for a, b in g1.edges:
                    if a in m and b in m and g2.has_edge(m[a], m[b]):
                        f = canonical_edge(m[a], m[b])
                        hit.add(f)
                        cost += params.y_edge * _dist(
                            g1.edge_label(a, b), g2.edge_label(*f)
                        )
                    else:
                        cost += params.x_edge
                cost += params.x_edge * sum(1 for f in g2.edges if f not in hit)
                best = min(best, cost)
    return best


def all_graphs(n):
    """Every unlabeled graph on vertex set 0..n-1, one per edge subset."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield AttributedGraph(
            range(n), [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        )


def labeled_graph(rng, n, p):
    """Random graph with coarse grid labels so exact ties do occur."""
    base = random_graph(n, p, seed=rng.randrange(10**9))
    node_labels = {
        v: (rng.randrange(4) / 2.0, rng.randrange(4) / 2.0) for v in base.vertices
    }
    edge_labels = {e: (rng.randrange(4) / 2.0,) for e in base.edges}
    return AttributedGraph(base.vertices, base.edges, node_labels, edge_labels)


def is_same_labeled_graph(g1, g2):
    """Brute-force isomorphism with label equality, for the identity axiom."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    v2 = list(g2.vertices)
    for perm in itertools.permutations(v2):
        m = dict(zip(g1.vertices, perm))
        if any(g1.node_label(u) != g2.node_label(m[u]) for u in g1.vertices):
            continue
        ok = True
        for a, b in g1.edges:
            if not g2.has_edge(m[a], m[b]):
                ok = False
                break
            if g1.edge_label(a, b) != g2.edge_label(m[a], m[b]):
                ok = False
                break
        if ok:
            return True
    return False


# -- unit costs ------------------------------------------------------------


class TestEditCost:
    def test_node_delete_constant(self):
        for op in (EditOp("node_del", source=0), EditOp("node_ins", target=0)):
            assert edit_cost(op) == 1.0
            assert edit_cost(op, EditCostParams(x_node=2.5)) == 2.5

    def test_node_substitution_euclidean(self):
        op = EditOp("node_sub", 0, 1, (0.0, 0.0), (3.0, 4.0))
        assert edit_cost(op) == pytest.approx(5.0)
        assert edit_cost(op, EditCostParams(y_node=0.5)) == pytest.approx(2.5)

    def test_symbolic_substitution(self):
        assert edit_cost(EditOp("node_sub", 0, 1, "C", "C")) == 0.0
        assert edit_cost(EditOp("node_sub", 0, 1, "C", "N")) == 1.0
        assert edit_cost(EditOp("edge_sub", 0, 1, "s", "d")) == 1.0

    def test_empty_labels_substitute_free(self):
        assert edit_cost(EditOp("node_sub", 0, 1, None, None)) == 0.0

    def test_kind_mismatch_is_maximal(self):
        assert label_distance("C", (1.0,)) == 1.0
        assert label_distance(None, "C") == 1.0

    def test_edge_operations(self):
        p = EditCostParams(x_edge=3.0, y_edge=2.0)
        assert edit_cost(EditOp("edge_del"), p) == 3.0
        assert edit_cost(EditOp("edge_ins"), p) == 3.0
        assert edit_cost(EditOp("edge_sub", 0, 1, (0.0,), (2.0,)), p) == 4.0

    def test_path_contraction_cost(self):
        op = EditOp("path_contract", 0, 2, (0.0, 0.0), (1.0, 0.0))
        assert edit_cost(op) == pytest.approx(1.0)
        assert edit_cost(op, EditCostParams(z_path=0.25)) == pytest.approx(0.25)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            edit_cost(EditOp("edge_flip"))

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            EditCostParams(x_node=-0.1)

    def test_non_finite_params_rejected(self):
        with pytest.raises(ValueError):
            EditCostParams(x_node=float("nan"))
        with pytest.raises(ValueError):
            EditCostParams(x_edge=float("inf"))


# -- path construction -------------------------------------------------------


class TestPathFromMapping:
    def test_total_is_sum_of_op_costs(self):
        rng = random.Random(5)
        for _ in range(20):
            g1 = labeled_graph(rng, 4, 0.5)
            g2 = labeled_graph(rng, 3, 0.5)
            mapping = {0: 1, 2: 0}
            path = path_from_mapping(g1, g2, mapping)
            assert path.total_cost == pytest.approx(
                sum(op.cost for op in path.ops)
            )
            assert path.mapping == mapping

    def test_rejects_non_injective(self):
        g = AttributedGraph(range(2))
        with pytest.raises(ValueError):
            path_from_mapping(g, g, {0: 0, 1: 0})

    def test_ops_account_for_every_vertex_and_edge(self):
        g1 = AttributedGraph(range(3), [(0, 1), (1, 2)])
        g2 = AttributedGraph(range(4), [(0, 1), (2, 3)])
        path = path_from_mapping(g1, g2, {0: 0, 1: 1})
        kinds = [op.kind for op in path.ops]
        assert kinds.count("node_sub") == 2
        assert kinds.count("node_del") == 1
        assert kinds.count("node_ins") == 2
        # (0,1) substituted, (1,2) deleted with vertex 2, (2,3) inserted.
        assert kinds.count("edge_sub") == 1
        assert kinds.count("edge_del") == 1
        assert kinds.count("edge_ins") == 1
        assert path.total_cost == pytest.approx(1 + 2 + 1 + 1)

    def test_empty_mapping_prices_full_rebuild(self):
        g1 = AttributedGraph(range(2), [(0, 1)])
        g2 = AttributedGraph(range(2), [(0, 1)])
        path = path_from_mapping(g1, g2, {})
        assert path.total_cost == pytest.approx(2 + 1 + 2 + 1)


# -- exact search --------------------------------------------------------


class TestExactGed:
    def test_identity(self):
        rng = random.Random(1)
        for _ in range(10):
            g = labeled_graph(rng, 4, 0.5)
            path = ged(g, g)
            assert path.total_cost == 0.0
            assert path.complete

    def test_empty_graphs(self):
        e = AttributedGraph([])
        assert ged(e, e).total_cost == 0.0
        assert ged(e, e).ops == ()

    def test_single_deletion(self):
        g = AttributedGraph([0], node_labels={0: (0.0, 0.0)})
        assert ged(g, AttributedGraph([])).total_cost == 1.0

    def test_insertion_of_whole_graph(self):
        g = AttributedGraph(range(2), [(0, 1)])
        assert ged(AttributedGraph([]), g).total_cost == pytest.approx(3.0)

    def test_matches_oracle_on_all_small_pairs(self):
        graphs = [g for n in range(3) for g in all_graphs(n)]
        graphs += list(all_graphs(3))
        for g1 in graphs:
            for g2 in graphs:
                expected = oracle_ged(g1, g2)
                assert ged(g1, g2).total_cost == pytest.approx(expected)

    def test_matches_oracle_on_four_vertex_sample(self):
        rng = random.Random(11)
        four = list(all_graphs(4))
        for _ in range(40):
            g1, g2 = rng.choice(four), rng.choice(four)
            assert ged(g1, g2).total_cost == pytest.approx(oracle_ged(g1, g2))

    def test_matches_oracle_with_labels_and_params(self):
        rng = random.Random(23)
        params = EditCostParams(
            x_node=0.7, y_node=1.3, x_edge=0.4, y_edge=0.9
        )
        for _ in range(30):
            g1 = labeled_graph(rng, rng.randrange(4), 0.6)
            g2 = labeled_graph(rng, rng.randrange(4), 0.6)
            expected = oracle_ged(g1, g2, params)
            assert ged(g1, g2, params).total_cost == pytest.approx(expected)

    def test_symmetry(self):
        rng = random.Random(37)
        for _ in range(20):
            g1 = labeled_graph(rng, 4, 0.5)
            g2 = labeled_graph(rng, 4, 0.5)
            assert ged(g1, g2).total_cost == pytest.approx(
                ged(g2, g1).total_cost
            )

    def test_zero_iff_identical_up_to_isomorphism(self):
        rng = random.Random(41)
        for _ in range(60):
            g1 = labeled_graph(rng, 3, 0.5)
            g2 = labeled_graph(rng, 3, 0.5)
            cost = ged(g1, g2).total_cost
            assert cost >= 0.0
            assert (cost == 0.0) == is_same_labeled_graph(g1, g2)

    def test_heuristic_preserves_optimality(self):
        rng = random.Random(53)
        for _ in range(25):
            g1 = labeled_graph(rng, rng.randrange(5), 0.5)
            g2 = labeled_graph(rng, rng.randrange(5), 0.5)
            guided = ged(g1, g2).total_cost
            assert guided == pytest.approx(oracle_ged(g1, g2))

    def test_returned_path_transforms_g1_into_g2(self):
        rng = random.Random(67)
        for _ in range(20):
            g1 = labeled_graph(rng, 4, 0.5)
            g2 = labeled_graph(rng, 4, 0.5)
            path = ged(g1, g2)
            m = path.mapping
            subs = {op.source for op in path.ops if op.kind == "node_sub"}
            dels = {op.source for op in path.ops if op.kind == "node_del"}
            ins = {op.target for op in path.ops if op.kind == "node_ins"}
            assert subs | dels == set(g1.vertices)
            assert set(m.values()) | ins == set(g2.vertices)
            edge_targets = {
                op.target for op in path.ops if op.kind in ("edge_sub", "edge_ins")
            }
            assert edge_targets == set(g2.edges)
            edge_sources = {
                op.source for op in path.ops if op.kind in ("edge_sub", "edge_del")
            }
            assert edge_sources == set(g1.edges)


# -- search tables and bound ------------------------------------------------


def _reference_deltas(g1, g2, params, mapping, i, j):
    """Substitution and deletion deltas asked of the graph objects directly.

    The loop the search tables replace; a mapping holds -1 for a deleted
    vertex.  The tables must give the same floats, bit for bit.
    """
    u, v = g1.vertices[i], g2.vertices[j]
    sub = params.y_node * label_distance(g1.node_label(u), g2.node_label(v))
    dele = params.x_node
    for q in range(i):
        uq = g1.vertices[q]
        e1 = g1.has_edge(u, uq)
        if e1:
            dele += params.x_edge
        if mapping[q] < 0:
            if e1:
                sub += params.x_edge
            continue
        vq = g2.vertices[mapping[q]]
        e2 = g2.has_edge(v, vq)
        if e1 and e2:
            sub += params.y_edge * label_distance(
                g1.edge_label(u, uq), g2.edge_label(v, vq)
            )
        elif e1 or e2:
            sub += params.x_edge
    return sub, dele


def _enumerate_prefixes(ctx, check):
    """Walk every complete mapping; call ``check(g, i, used, best)`` at each
    prefix, where ``best`` is the cheapest total among its completions."""

    def walk(i, used, mapping, g):
        if i == ctx.n1:
            best = g + ctx.completion_delta(used)
        else:
            best = walk(i + 1, used, mapping + (-1,), g + ctx.delete_delta(i))
            for j in range(ctx.n2):
                if not used >> j & 1:
                    c = g + ctx.substitute_delta(mapping, i, j)
                    best = min(best, walk(i + 1, used | 1 << j, mapping + (j,), c))
        check(g, i, used, best)
        return best

    return walk(0, 0, (), 0.0)


BOUND_PARAMS = (
    DEFAULT_PARAMS,
    EditCostParams(x_node=0.7, y_node=1.3, x_edge=0.4, y_edge=0.9),
)


class TestSearchBound:
    def test_tables_match_graph_queries_exactly(self):
        rng = random.Random(103)
        for params in BOUND_PARAMS:
            for _ in range(20):
                g1 = labeled_graph(rng, rng.randrange(1, 6), 0.5)
                g2 = labeled_graph(rng, rng.randrange(1, 6), 0.5)
                ctx = _SearchContext(g1, g2, params)
                for i in range(g1.n):
                    mapping = tuple(rng.randrange(-1, g2.n) for _ in range(i))
                    for j in range(g2.n):
                        sub, dele = _reference_deltas(g1, g2, params, mapping, i, j)
                        assert ctx.substitute_delta(mapping, i, j) == sub
                        assert ctx.delete_delta(i) == dele

    def test_bound_is_admissible_at_every_prefix(self):
        rng = random.Random(107)
        checked = 0

        def check(g, i, used, best):
            nonlocal checked
            checked += 1
            assert g + ctx.heuristic(i, used) <= best + 1e-9

        for params in BOUND_PARAMS:
            for _ in range(80):
                g1 = labeled_graph(rng, rng.randrange(3, 6), 0.5)
                g2 = labeled_graph(rng, rng.randrange(3, 6), 0.5)
                ctx = _SearchContext(g1, g2, params)
                _enumerate_prefixes(ctx, check)
        for _ in range(80):
            g1 = random_graph(rng.randrange(3, 6), 0.5, seed=rng.randrange(10**9))
            g2 = random_graph(rng.randrange(3, 6), 0.5, seed=rng.randrange(10**9))
            ctx = _SearchContext(g1, g2, DEFAULT_PARAMS)
            best = _enumerate_prefixes(ctx, check)
            assert best == pytest.approx(oracle_ged(g1, g2))
        assert checked > 100_000

    def test_exact_matches_oracle_up_to_six_vertices(self):
        rng = random.Random(109)
        for params in BOUND_PARAMS:
            for _ in range(8):
                g1 = labeled_graph(rng, rng.randrange(7), 0.5)
                g2 = labeled_graph(rng, rng.randrange(7), 0.5)
                expected = oracle_ged(g1, g2, params)
                assert ged(g1, g2, params).total_cost == pytest.approx(expected)

    def test_root_bound_below_exact_below_bipartite(self):
        rng = random.Random(113)
        for params in BOUND_PARAMS:
            for _ in range(30):
                g1 = labeled_graph(rng, rng.randrange(7), 0.5)
                g2 = labeled_graph(rng, rng.randrange(7), 0.5)
                root = _SearchContext(g1, g2, params).heuristic(0, 0)
                exact = ged(g1, g2, params).total_cost
                assert root <= exact + 1e-9
                assert exact <= ged_bipartite(g1, g2, params).total_cost + 1e-9


# -- beam search ---------------------------------------------------------


class TestBeamSearch:
    def test_width_must_be_positive(self):
        g = AttributedGraph(range(2))
        with pytest.raises(ValueError):
            ged(g, g, beam_width=0)

    def test_upper_bounds_exact(self):
        rng = random.Random(71)
        for _ in range(30):
            g1 = labeled_graph(rng, 5, 0.5)
            g2 = labeled_graph(rng, 5, 0.5)
            exact = ged(g1, g2).total_cost
            for w in (1, 3, 10):
                approx = ged(g1, g2, beam_width=w).total_cost
                assert approx >= exact - 1e-9

    def test_wide_beam_is_exact(self):
        rng = random.Random(73)
        for _ in range(15):
            g1 = labeled_graph(rng, 4, 0.5)
            g2 = labeled_graph(rng, 4, 0.5)
            assert ged(g1, g2, beam_width=10**6).total_cost == pytest.approx(
                ged(g1, g2).total_cost
            )

    def test_monotone_in_width_on_fixed_corpus(self):
        rng = random.Random(79)
        pairs = [
            (labeled_graph(rng, 5, 0.5), labeled_graph(rng, 5, 0.5))
            for _ in range(100)
        ]
        for g1, g2 in pairs:
            exact = ged(g1, g2).total_cost
            previous = math.inf
            for w in (1, 2, 5, 10, 50):
                cost = ged(g1, g2, beam_width=w).total_cost
                assert cost <= previous + 1e-9
                assert cost >= exact - 1e-9
                previous = cost

    def test_beam_path_is_complete(self):
        rng = random.Random(83)
        g1 = labeled_graph(rng, 6, 0.4)
        g2 = labeled_graph(rng, 4, 0.6)
        path = ged(g1, g2, beam_width=2)
        assert path.complete
        assert path.total_cost == pytest.approx(sum(op.cost for op in path.ops))


# -- bipartite approximation ------------------------------------------------


class TestBipartite:
    def test_identity_and_trivial_cases(self):
        g = AttributedGraph(range(3), [(0, 1), (1, 2)])
        assert ged_bipartite(g, g).total_cost == 0.0
        single = AttributedGraph([0])
        empty = AttributedGraph([])
        assert ged_bipartite(single, empty).total_cost == 1.0
        assert ged_bipartite(empty, single).total_cost == 1.0
        assert ged_bipartite(empty, empty).total_cost == 0.0

    def test_upper_bounds_oracle_on_small_pairs(self):
        rng = random.Random(89)
        four = list(all_graphs(4))
        for _ in range(50):
            g1, g2 = rng.choice(four), rng.choice(four)
            upper = ged_bipartite(g1, g2).total_cost
            assert upper >= oracle_ged(g1, g2) - 1e-9

    def test_upper_bound_with_labels(self):
        rng = random.Random(97)
        for _ in range(30):
            g1 = labeled_graph(rng, 4, 0.5)
            g2 = labeled_graph(rng, 4, 0.5)
            upper = ged_bipartite(g1, g2).total_cost
            exact = ged(g1, g2).total_cost
            assert upper >= exact - 1e-9
            # The returned path must price to its stated cost.
            path = ged_bipartite(g1, g2)
            assert path.total_cost == pytest.approx(sum(op.cost for op in path.ops))

    def test_often_exact_on_sparse_pairs(self):
        # Not an invariant, just a sanity floor: the bound should usually be
        # tight on tiny sparse graphs.
        rng = random.Random(101)
        hits = 0
        for _ in range(40):
            g1 = random_graph(3, 0.3, seed=rng.randrange(10**9))
            g2 = random_graph(3, 0.3, seed=rng.randrange(10**9))
            if ged_bipartite(g1, g2).total_cost == pytest.approx(
                ged(g1, g2).total_cost
            ):
                hits += 1
        assert hits >= 30

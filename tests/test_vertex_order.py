"""Which matchers depend on the order a graph stores its vertices in.

Each graph of two benchmark-scale corpora is rebuilt once with its vertices
shuffled by ``random.Random(7)``; edges, labels and coordinates stay the
same.  The exact search, the contractions feeding it and the bipartite
assignment give ``==`` distances either way; the geometric distance,
aligned or not, moves only in its last bits, since it sums in vertex order.
The beam takes g1 in stored order, so its distance depends on that order.
"""

from __future__ import annotations

import random

import pytest

from graphmatch.bench import MatcherSpec
from graphmatch.datasets import synthesize_corpus
from graphmatch.graphs import GeometricGraph


def reordered(g, rng):
    vertices = list(g.vertices)
    rng.shuffle(vertices)
    return GeometricGraph(
        vertices, g.edges, g.coords, g.node_labels, g.edge_labels, empty_edges=g.empty_edges
    )


# synthesize_corpus arguments of two seed-0 benchmark corpora: classes, train
# and test graphs per class, sigma, prototype seed, vertex range, edge
# probability, train and test jitter seeds
CORPORA = {
    "exact-ged": (8, (3, 2), 0.1, 5, (5, 7), 0.35, (5, 6)),
    "letter": (15, (6, 3), 0.02, 31, (4, 7), 0.4, (31, 77)),
}


def pairs_both_ways(name):
    """Every other one of a corpus's first 600 (test, train) pairs, each once
    as stored and once with both graphs reordered."""
    classes, (train_per, test_per), sigma, seed, n_range, p, (train_jitter, test_jitter) = (
        CORPORA[name]
    )
    train = synthesize_corpus(classes, train_per, sigma, seed, n_range, p, "train", train_jitter)
    test = synthesize_corpus(classes, test_per, sigma, seed, n_range, p, "test", test_jitter)
    rng = random.Random(7)
    graphs = [inst.graph for inst in train.instances + test.instances]
    moved = {id(g): reordered(g, rng) for g in graphs}
    pairs = [(a.graph, b.graph) for a in test.instances for b in train.instances][:600:2]
    return [((g1, g2), (moved[id(g1)], moved[id(g2)])) for g1, g2 in pairs]


ORDER_FREE = [
    ("exact-ged", "ged"),
    ("exact-ged", "hged"),
    ("exact-ged", "kstar-ged(1)"),
    ("exact-ged", "kstar-ged(2)"),
    ("exact-ged", "bipartite"),
    ("letter", "kstar-ged(1)"),
    ("letter", "r-ged(0.5,betweenness)"),
    ("letter", "t-ged(2,eigenvector)"),
    ("letter", "bipartite"),
]


@pytest.mark.parametrize("corpus, method", ORDER_FREE)
def test_edit_matchers_ignore_vertex_order(corpus, method):
    spec = MatcherSpec(method)
    for stored, shuffled in pairs_both_ways(corpus):
        assert spec.distance(*stored) == spec.distance(*shuffled)


@pytest.mark.parametrize("method", ["geometric(0.35,0.23,0.11,0.31)", "geometric(1,1,1,1,align)"])
def test_geometric_distance_ignores_vertex_order_to_rounding(method):
    spec = MatcherSpec(method)
    for stored, shuffled in pairs_both_ways("letter"):
        assert abs(spec.distance(*stored) - spec.distance(*shuffled)) <= 1e-12


def test_documented_behaviour_beam_depends_on_vertex_order():
    """Today's beam takes g1 in stored order and ranks partial paths by cost
    alone, so reordering vertices moves its distance on most pairs; it stays
    an upper bound on the exact distance either way.  Until the beam is made
    order-free this pins the dependence as documented behaviour."""
    beam, exact = MatcherSpec("ged-beam(10)"), MatcherSpec("ged")
    pairs = pairs_both_ways("exact-ged")
    changed = 0
    for stored, shuffled in pairs:
        a, b = beam.distance(*stored), beam.distance(*shuffled)
        assert min(a, b) >= exact.distance(*stored) - 1e-9
        changed += a != b
    assert changed >= len(pairs) // 2

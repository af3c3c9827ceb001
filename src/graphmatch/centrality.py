"""Vertex centrality and centrality-guided contraction distances.

Four measures: degree, betweenness (shortest-path pair dependencies),
eigenvector (dominant adjacency eigenvector) and a PageRank-style damped
score.  On top of them sit two contraction schemes that strip the least
central vertices, one taking a fraction r of the graph and one an absolute
count t, plus the edit distances computed on the contracted graphs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .contraction import ContractionReport, _sweep
from .editdist import DEFAULT_PARAMS, EditCostParams, EditPath, ged
from .graphs import AttributedGraph, connected_components
from .graphs import is_cut_vertex  # noqa: F401 -- perfbench/tracing.py wraps this name

__all__ = [
    "CentralityVector",
    "centrality",
    "r_centrality_node_contraction",
    "t_centrality_node_contraction",
    "r_centrality_ged",
    "t_centrality_ged",
]


@dataclass(frozen=True)
class CentralityVector:
    """Scores of one measure for every vertex of a graph."""

    measure: str
    scores: dict[int, float]

    def __getitem__(self, v: int) -> float:
        return self.scores[v]


def _degree_scores(g: AttributedGraph) -> dict[int, float]:
    return {v: float(g.degree(v)) for v in g.vertices}


def _betweenness_scores(g: AttributedGraph) -> dict[int, float]:
    """Brandes pair dependencies over unordered pairs, endpoints excluded."""
    scores = {v: 0.0 for v in g.vertices}
    for s in g.vertices:
        order = []
        preds: dict[int, list[int]] = {v: [] for v in g.vertices}
        sigma = {v: 0 for v in g.vertices}
        sigma[s] = 1
        dist = {v: -1 for v in g.vertices}
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in g.neighbors(v):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: 0.0 for v in g.vertices}
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                scores[w] += delta[w]
    # the accumulation visits each unordered pair from both endpoints
    return {v: x / 2.0 for v, x in scores.items()}


def _eigenvector_scores(g: AttributedGraph) -> dict[int, float]:
    """Power iteration per component, largest entry normalized to 1.

    Iterating on A + I instead of A keeps the dominant eigenvector while
    shifting every eigenvalue up by one, so bipartite components (where the
    plain iteration flips sign forever) still converge.
    """
    scores: dict[int, float] = {}
    for comp in connected_components(g):
        x = {v: 1.0 for v in comp}
        for _ in range(100000):
            y = {v: x[v] + sum(x[w] for w in g.neighbors(v)) for v in comp}
            top = max(y.values())
            y = {v: y[v] / top for v in comp}
            done = max(abs(y[v] - x[v]) for v in comp) < 1e-8
            x = y
            if done:
                break
        scores.update(x)
    return scores


def _pagerank_scores(g: AttributedGraph) -> dict[int, float]:
    """One damped redistribution step from the uniform vector.

    Every vertex spreads its 1/n mass equally over its neighbors (degree-0
    mass goes to everyone), damped by alpha with the remainder shared
    uniformly; the scores sum to one.
    """
    n = g.n
    alpha = 0.9
    start = 1.0 / n
    base = (1.0 - alpha) / n
    dangling = sum(start / n for v in g.vertices if g.degree(v) == 0)
    return {
        v: base + alpha * (dangling + sum(start / g.degree(w) for w in g.neighbors(v)))
        for v in g.vertices
    }


_SCORERS = {
    "degree": _degree_scores,
    "betweenness": _betweenness_scores,
    "eigenvector": _eigenvector_scores,
    "pagerank": _pagerank_scores,
}

MEASURES = tuple(_SCORERS)


def centrality(g: AttributedGraph, measure: str) -> CentralityVector:
    """Centrality scores of every vertex under the given measure."""
    if g.n == 0:
        raise ValueError("centrality of an empty graph")
    if measure not in _SCORERS:
        raise ValueError(f"unknown centrality measure {measure!r}")
    return CentralityVector(measure, _SCORERS[measure](g))


# -- centrality-guided contraction -----------------------------------------


def _rounds_contraction(g: AttributedGraph, rounds: int, measure: str):
    """Strip minimum-centrality vertices over a fixed number of rounds.

    The ranking is computed once on the input, so round r takes the r-th
    vertex in (score, id) order and removes it unless that would change the
    component count; a blocked selection still uses up its round.
    """
    if rounds == 0 or g.n == 0:
        return g, []
    ranking = centrality(g, measure).scores
    return _sweep(g, sorted(g.vertices, key=lambda u: (ranking[u], u))[:rounds], True)


def r_centrality_node_contraction(
    g: AttributedGraph, r: float, measure: str
) -> tuple[AttributedGraph, ContractionReport]:
    """Contract the least central ceil(r * n) vertices, components kept."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must be in [0, 1]")
    out, removed = _rounds_contraction(g, math.ceil(r * g.n), measure)
    return out, ContractionReport.of(g, out, removed)


def t_centrality_node_contraction(
    g: AttributedGraph, t: int, measure: str
) -> tuple[AttributedGraph, ContractionReport]:
    """Contract the least central vertices over exactly t rounds."""
    if t < 0:
        raise ValueError("t must be >= 0")
    out, removed = _rounds_contraction(g, t, measure)
    return out, ContractionReport.of(g, out, removed)


def r_centrality_ged(
    g1: AttributedGraph,
    g2: AttributedGraph,
    r: float,
    measure: str,
    params: EditCostParams = DEFAULT_PARAMS,
    *,
    beam_width: int | None = None,
) -> EditPath:
    """Edit distance after fraction-r centrality contraction of both inputs.

    r=0 leaves the graphs alone and reduces to plain ``ged``.
    """
    h1, _ = r_centrality_node_contraction(g1, r, measure)
    h2, _ = r_centrality_node_contraction(g2, r, measure)
    return ged(h1, h2, params, beam_width=beam_width)


def t_centrality_ged(
    g1: AttributedGraph,
    g2: AttributedGraph,
    t: int,
    measure: str,
    params: EditCostParams = DEFAULT_PARAMS,
    *,
    beam_width: int | None = None,
) -> EditPath:
    """Edit distance after t-round centrality contraction of both inputs."""
    h1, _ = t_centrality_node_contraction(g1, t, measure)
    h2, _ = t_centrality_node_contraction(g2, t, measure)
    return ged(h1, h2, params, beam_width=beam_width)

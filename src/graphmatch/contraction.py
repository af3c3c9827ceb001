"""Topology-reducing graph simplification and the distances built on it.

Two reduction families.  Path contraction replaces every chain of
degree-2 vertices by a single edge, producing a homeomorphic graph;
``hged`` is the edit distance between the contracted inputs.  Degree-based
node contraction removes low-degree vertices outright, either guarded so
the number of connected components never changes (``k_node_contraction``
and the degree-1..k cascade ``k_star_node_contraction``) or unguarded
(``k_star_node_deletion``); ``k_star_ged`` matches the cascade-contracted
graphs.

Sweeps flag their victims up front: a pass over degree k first marks every
vertex currently of degree k, then visits the marked vertices in ascending
id order and removes each one the guard allows, even if earlier removals
changed its degree.  A triangle at k=2 therefore loses two vertices, not
one.  Guards are evaluated on the graph left so far, and each sweep builds
its result graph once.  Each degree up to the input's maximum is swept
exactly once per pass (removals never raise a degree, so no higher stage
could flag a vertex); the cascade is not a fixpoint iteration: contracting
can expose new low-degree vertices that only a later call would pick up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .editdist import (
    DEFAULT_PARAMS,
    EditCostParams,
    EditOp,
    EditPath,
    edit_cost,
    ged,
)
from .graphs import (
    AttributedGraph,
    _separates,
    canonical_edge,
    component_count,
    is_cut_vertex,  # noqa: F401 -- perfbench/tracing.py wraps this name
)

__all__ = [
    "ContractionReport",
    "path_contract",
    "hged",
    "k_node_contraction",
    "k_star_node_contraction",
    "k_star_node_deletion",
    "k_star_ged",
]


@dataclass(frozen=True)
class ContractionReport:
    """Which vertices a contraction removed and how the topology moved."""

    removed: tuple[int, ...]
    before_n: int
    after_n: int
    components_before: int
    components_after: int

    @classmethod
    def of(cls, g: AttributedGraph, out: AttributedGraph, removed) -> "ContractionReport":
        """The report of contracting ``g`` to ``out`` by removing ``removed``."""
        return cls(
            removed=tuple(removed),
            before_n=g.n,
            after_n=out.n,
            components_before=component_count(g),
            components_after=component_count(out),
        )


# -- path contraction --------------------------------------------------------


def _walk(g: AttributedGraph, deg2: set, start: int, first: int):
    """Follow degree-2 vertices from ``start`` towards ``first``.

    Returns the interior vertices passed, in order, and the stopping vertex:
    either an anchor (degree != 2) or ``start`` again when the run closes
    into a cycle.
    """
    run = []
    prev, cur = start, first
    while cur in deg2 and cur != start:
        run.append(cur)
        onward = [w for w in g.neighbors(cur) if w != prev]
        prev, cur = cur, onward[0]
    return run, cur


def _runs(g: AttributedGraph):
    """Maximal degree-2 runs, each either an open chain or a full cycle.

    A chain is reported with its two anchors included (equal anchors mean
    the run is a cycle hanging off a single vertex); a 2-regular cycle is
    reported as its vertices in cycle order.
    """
    deg2 = {v for v in g.vertices if g.degree(v) == 2}
    seen: set[int] = set()
    out = []
    for v in g.vertices:
        if v not in deg2 or v in seen:
            continue
        n0, n1 = g.neighbors(v)
        fwd, end_f = _walk(g, deg2, v, n1)
        if end_f == v:
            cycle = [v] + fwd
            seen.update(cycle)
            out.append(("cycle", cycle))
            continue
        back, end_b = _walk(g, deg2, v, n0)
        path = [end_b] + back[::-1] + [v] + fwd + [end_f]
        seen.update(path[1:-1])
        out.append(("chain", path))
    return out


def _merged_label(g: AttributedGraph, run) -> object:
    """Common label of the run's edges, or None when they disagree."""
    labels = {g.edge_label(run[i], run[i + 1]) for i in range(len(run) - 1)}
    return labels.pop() if len(labels) == 1 else None


def _contract_runs(g: AttributedGraph):
    """Path-contraction core: contracted graph, report, merged segments.

    A segment is the vertex sequence a contraction replaced by one edge
    (anchors included); segments of a single edge are never reported.
    """
    runs = _runs(g)
    interior: set[int] = set()
    for kind, path in runs:
        interior.update(path if kind == "cycle" else path[1:-1])

    survivors: set[int] = set()
    edges: dict[tuple[int, int], object] = {
        e: g.edge_labels[e]
        for e in g.edges
        if e[0] not in interior and e[1] not in interior
    }
    segments: list[tuple[int, ...]] = []

    def lay(path) -> None:
        e = canonical_edge(path[0], path[-1])
        edges[e] = _merged_label(g, path)
        if len(path) > 2:
            segments.append(tuple(path))

    for kind, path in runs:
        if kind == "cycle":
            # no anchors at all: reduce to a triangle on the three smallest
            # ids so the cycle's presence survives without self-loops
            if len(path) == 3:
                survivors.update(path)
                for i in range(3):
                    lay([path[i], path[(i + 1) % 3]])
                continue
            keep = sorted(path)[:3]
            survivors.update(keep)
            pos = sorted(path.index(c) for c in keep)
            for i, p in enumerate(pos):
                q = pos[(i + 1) % 3]
                lay(path[p : q + 1] if q > p else path[p:] + path[: q + 1])
        elif path[0] == path[-1]:
            # cycle anchored at one vertex: full contraction would need a
            # self-loop, so the first two interiors stay as a triangle
            v1, v2 = path[1], path[2]
            survivors.update((v1, v2))
            lay(path[:2])
            lay(path[1:3])
            lay(path[2:])
        else:
            a, b = path[0], path[-1]
            if canonical_edge(a, b) in edges:
                # a parallel run or an original chord already owns a-b; keep
                # one interior so this run contracts to a distinct 2-path
                w = min(path[1:-1])
                survivors.add(w)
                i = path.index(w)
                lay(path[: i + 1])
                lay(path[i:])
            else:
                lay(path)

    keep_order = [v for v in g.vertices if v not in interior or v in survivors]
    contracted = g._rebuild(keep_order, list(edges), edges)
    removed = sorted(interior - survivors)
    return contracted, ContractionReport.of(g, contracted, removed), segments


def path_contract(g: AttributedGraph) -> tuple[AttributedGraph, ContractionReport]:
    """Replace every maximal run of degree-2 vertices by a single edge.

    The result is homeomorphic to the input: smoothing inverts edge
    subdivision, so vertex counts per degree other than 2 are unchanged.
    Runs that cannot collapse to one edge without breaking simplicity
    (parallel runs between the same anchors, cycles) keep just enough
    interior vertices to stay simple.  A merged edge keeps the label its
    constituent edges agree on, and drops to None when they differ.
    """
    contracted, report, _ = _contract_runs(g)
    return contracted, report


def _contract_op(g: AttributedGraph, segment, params: EditCostParams) -> EditOp:
    op = EditOp(
        kind="path_contract",
        source=segment,
        target=canonical_edge(segment[0], segment[-1]),
        source_label=g.node_label(segment[0]),
        target_label=g.node_label(segment[-1]),
    )
    return replace(op, cost=edit_cost(op, params))


def hged(
    g1: AttributedGraph,
    g2: AttributedGraph,
    params: EditCostParams = DEFAULT_PARAMS,
    *,
    beam_width: int | None = None,
) -> EditPath:
    """Edit distance between the path-contracted graphs.

    Homeomorphic inputs with matching anchor labels come out at zero.  The
    contractions themselves are logged as preprocessing operations, each
    costed at z_path times the label distance between its segment's
    endpoints, and are not part of ``total_cost``.
    """
    h1, _, segments1 = _contract_runs(g1)
    h2, _, segments2 = _contract_runs(g2)
    pre = tuple(
        _contract_op(g, seg, params)
        for g, segments in ((g1, segments1), (g2, segments2))
        for seg in segments
    )
    path = ged(h1, h2, params, beam_width=beam_width)
    return replace(path, preprocessing=pre)


# -- degree-based node contraction -------------------------------------------


def _sweep(g: AttributedGraph, candidates, guarded: bool):
    """Remove ``candidates`` in order; with ``guarded``, keep any whose
    removal would change the component count of what is left.  Builds the
    result once, and returns ``g`` itself when nothing was removed."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    removed = []
    for v in candidates:
        if guarded and (not adj[v] or _separates(adj, v)):
            continue
        for w in adj.pop(v):
            adj[w].discard(v)
        removed.append(v)
    return (g.without_vertices(removed) if removed else g), removed


def _cascade(g: AttributedGraph, k: int, guarded: bool):
    if k < 0:
        raise ValueError("k must be >= 0")
    current, removed = g, []
    top = max(map(g.degree, g.vertices), default=0)  # removals never raise a degree
    for degree in range(1, min(k, top) + 1):
        flagged = sorted(v for v in current.vertices if current.degree(v) == degree)
        current, gone = _sweep(current, flagged, guarded)
        removed.extend(gone)
    return current, removed


def k_node_contraction(g: AttributedGraph, k: int) -> tuple[AttributedGraph, ContractionReport]:
    """Remove the vertices of degree k, keeping the component count.

    Vertices are flagged before the sweep and visited in ascending id
    order; a flagged vertex is removed unless that would split a component
    or erase one (cut vertices and sole survivors stay).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    out, removed = _sweep(g, sorted(v for v in g.vertices if g.degree(v) == k), True)
    return out, ContractionReport.of(g, out, removed)


def k_star_node_contraction(g: AttributedGraph, k: int) -> tuple[AttributedGraph, ContractionReport]:
    """Degree-1 through degree-k contraction sweeps, each on the last result."""
    out, removed = _cascade(g, k, guarded=True)
    return out, ContractionReport.of(g, out, removed)


def k_star_node_deletion(g: AttributedGraph, k: int) -> tuple[AttributedGraph, ContractionReport]:
    """The degree-1..k cascade without the guard; components may split."""
    out, removed = _cascade(g, k, guarded=False)
    return out, ContractionReport.of(g, out, removed)


def k_star_ged(
    g1: AttributedGraph,
    g2: AttributedGraph,
    k: int,
    params: EditCostParams = DEFAULT_PARAMS,
    *,
    beam_width: int | None = None,
) -> EditPath:
    """Edit distance after degree-1..k contraction of both graphs.

    The contraction is preprocessing: removed vertices cost nothing and the
    returned path edits the contracted graphs.  k=0 is exactly ``ged``.
    """
    h1, _ = k_star_node_contraction(g1, k)
    h2, _ = k_star_node_contraction(g2, k)
    return ged(h1, h2, params, beam_width=beam_width)

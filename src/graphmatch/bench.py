"""Benchmark harness: matcher specs, kNN classification, timing, tuning.

A matcher is named by a compact text form, e.g. ``ged-beam(10)`` or
``r-ged(0.25,pagerank)``; ``MatcherSpec`` validates the text once, prepares
graphs (every edit matcher as the edit tables of the graph or of its
contraction, every ``geometric`` form, aligned or not, as its geometric
rows) and turns pairs of prepared graphs into distances.  On top
of that sit a nearest-neighbor classifier with deterministic tie-breaking, a
wall-clock timing loop, and a steepest-ascent search over the geometric
distance weights.
"""

from __future__ import annotations

import math
import operator
import re
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from . import centrality, contraction, geometric
from .centrality import MEASURES
# perfbench/tracing.py wraps these names here; the pair steps no longer call them
from .centrality import r_centrality_ged, t_centrality_ged  # noqa: F401
from .contraction import hged, k_star_ged  # noqa: F401
from .datasets import DatasetSplit
from .editdist import DEFAULT_PARAMS, EditCostParams, edit_tables, ged, ged_bipartite
from .geometric import DistanceWeights, geometric_graph_distance

# the matcher grammar: name -> (argument form, fewest arguments, most arguments)
_FORMS = {
    "ged": ("no arguments", 0, 0),
    "ged-beam": ("(w)", 1, 1),
    "bipartite": ("no arguments", 0, 0),
    "hged": ("[(w)]", 0, 1),
    "kstar-ged": ("(k[,w])", 1, 2),
    "r-ged": ("(r,measure)", 2, 2),
    "t-ged": ("(t,measure)", 2, 2),
    "geometric": ("(w1,w2,w3,w4[,align])", 4, 5),
}
METHODS = tuple(_FORMS)


def _int_arg(text: str, what: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")
    return value


def _float_arg(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{what} must be a number, got {text!r}") from None


def _parse_method(text: str) -> tuple[str, list[str]]:
    m = re.fullmatch(r"\s*([a-z-]+)\s*(?:\((.*)\))?\s*", text)
    if m is None or m.group(1) not in METHODS:
        raise ValueError(f"unknown matcher {text!r} (one of {', '.join(METHODS)})")
    name = m.group(1)
    args = [a.strip() for a in m.group(2).split(",")] if m.group(2) else []
    form, fewest, most = _FORMS[name]
    if not fewest <= len(args) <= most:
        raise ValueError(f"{name} takes {form}")
    return name, args


@dataclass(frozen=True, eq=False)
class PreparedGraph:
    """A graph as one matcher's pair step reads it (``MatcherSpec.prepare``).

    ``spec`` is the preparing matcher's (method, cost_params) and ``data``
    its per-graph result: the ``editdist.EditTables`` of the graph or of its
    contraction, or its geometric rows.
    """

    spec: tuple[str, EditCostParams]
    data: object


@dataclass(frozen=True)
class MatcherSpec:
    """A named graph distance plus its edit-cost constants.

    Method forms are listed once, in ``_FORMS`` (e.g. ``kstar-ged(k[,w])``,
    ``geometric(w1,w2,w3,w4[,align])``), with w >= 1, k >= 0, t >= 0 and
    0 <= r <= 1; a wrong argument count raises ValueError naming the form.

    A distance runs in two steps: ``prepare`` does the per-graph work once
    (the contraction of the contracting matchers and the ``edit_tables``
    of every edit matcher; the ``geometric_rows`` of ``geometric``, aligned
    or not), and the pair step matches two prepared graphs.  ``distance``
    accepts graphs and prepared graphs alike.
    """

    method: str
    cost_params: EditCostParams = DEFAULT_PARAMS

    def __post_init__(self):
        _compiled(self.method, self.cost_params)

    def prepare(self, g) -> PreparedGraph:
        """g prepared for this matcher; a graph it prepared already is
        returned as it is."""
        key = (self.method, self.cost_params)
        if isinstance(g, PreparedGraph):
            if g.spec != key:
                raise ValueError(f"graph prepared for {g.spec[0]!r}, not {self.method!r}")
            return g
        return PreparedGraph(key, _compiled(*key)[0](g))

    def distance(self, g1, g2) -> float:
        pair = _compiled(self.method, self.cost_params)[1]
        return pair(self.prepare(g1).data, self.prepare(g2).data)


@lru_cache(maxsize=None)
def _compiled(method: str, p: EditCostParams):
    """(prepare, pair): the per-graph step and the pair step of a method."""
    name, args = _parse_method(method)

    def beam(i):
        # the optional beam width at args[i]; None runs the exact search
        return _int_arg(args[i], "beam width", 1) if len(args) > i else None

    def edit_distance(w=None):
        # module-level names are looked up at call time, so patched ones are honoured
        return lambda a, b: ged(a, b, p, beam_width=w).total_cost

    if name in ("ged", "ged-beam"):
        return edit_tables, edit_distance(beam(0))
    if name == "bipartite":
        return edit_tables, lambda a, b: ged_bipartite(a, b, p).total_cost
    if name == "hged":
        return (lambda g: edit_tables(contraction.path_contract(g)[0])), edit_distance(beam(0))
    if name == "kstar-ged":
        k = _int_arg(args[0], "k", 0)
        return (
            lambda g: edit_tables(contraction.k_star_node_contraction(g, k)[0])
        ), edit_distance(beam(1))
    if name in ("r-ged", "t-ged"):
        measure = args[1]
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r} (one of {', '.join(MEASURES)})")
        if name == "r-ged":
            r = _float_arg(args[0], "r")
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"r must be in [0, 1], got {r}")
            return (
                lambda g: edit_tables(centrality.r_centrality_node_contraction(g, r, measure)[0])
            ), edit_distance()
        t = _int_arg(args[0], "t", 0)
        return (
            lambda g: edit_tables(centrality.t_centrality_node_contraction(g, t, measure)[0])
        ), edit_distance()
    weights = DistanceWeights(*(_float_arg(a, "weight") for a in args[:4]))
    if len(args) == 5 and args[4] != "align":
        raise ValueError(f"fifth geometric argument must be 'align', got {args[4]!r}")
    align = len(args) == 5
    return (lambda g: geometric.geometric_rows(g)), (
        lambda a, b: geometric_graph_distance(a, b, weights, align=align)
    )


def split_method_list(text: str) -> list[str]:
    """Split a comma-separated method list, ignoring commas inside parens."""
    parts = [p.strip() for p in re.split(r",(?![^()]*\))", text)]
    return [p for p in parts if p]


# -- nearest-neighbor classification -----------------------------------------


@dataclass(frozen=True)
class BenchResult:
    """Accuracies of one kNN run.  ``mean_time_ms`` and ``pair_count`` cover
    the pairs that returned a distance and time the pair step only: each
    graph's preparation runs once per run, outside the per-pair timers."""

    method: MatcherSpec
    per_class_accuracy: dict[str, float]
    mean_accuracy: float
    mean_time_ms: float
    pair_count: int
    failures: tuple[str, ...] = ()

    def __post_init__(self):
        values = [self.mean_accuracy, *self.per_class_accuracy.values()]
        if not all(0.0 <= v <= 100.0 for v in values):
            raise ValueError("accuracies must be percentages")
        if self.mean_time_ms < 0:
            raise ValueError("mean_time_ms must be >= 0")


def _prepared(matcher, instances):
    """(source id, graph prepared for the matcher) of every instance.  A graph
    whose preparation raises stays as it is, so that each of its pairs raises
    the same error in ``_distance_row``."""
    out = []
    for inst in instances:
        try:
            g = matcher.prepare(inst.graph)
        except (ValueError, TypeError):
            g = inst.graph
        out.append((inst.source_id, g))
    return out


def _distance_row(matcher, test, train):
    """Distances from one prepared test graph to every prepared training graph.

    ``test`` is a (source id, graph) pair and ``train`` a list of them.
    Returns (distances, times, failures); failed pairs hold None and are
    excluded from timing.
    """
    test_id, test_graph = test
    distances, times, failures = [], [], []
    for train_id, train_graph in train:
        start = time.perf_counter()
        try:
            d = matcher.distance(test_graph, train_graph)
        except (ValueError, TypeError, MemoryError) as e:
            # a MemoryError usually carries no message; its type is the reason
            reason = "MemoryError" if isinstance(e, MemoryError) else e
            distances.append(None)
            failures.append(f"{test_id} vs {train_id}: {reason}")
            continue
        times.append(time.perf_counter() - start)
        distances.append(d)
    return distances, times, failures


def _vote(distances, train, k: int) -> str | None:
    """Majority class among the k nearest; ties fall to the candidate class
    with the smaller summed distance inside the neighborhood, then to the
    lexicographically smaller name.  None when every pair failed.
    """
    ranked = sorted(
        (d, i) for i, d in enumerate(distances) if d is not None
    )[:k]
    if not ranked:
        return None
    votes = Counter(train.instances[i].class_label for _, i in ranked)
    top = max(votes.values())
    tied = [c for c, count in votes.items() if count == top]
    if len(tied) == 1:
        return tied[0]
    sums = {
        c: math.fsum(d for d, i in ranked if train.instances[i].class_label == c)
        for c in tied
    }
    return min(tied, key=lambda c: (sums[c], c))


def _audit_predictions(rows, train, k, predictions):
    # independent re-check from the distance rows; ties rank by train index
    for row, predicted in zip(rows, predictions):
        ranked = sorted((d, i) for i, d in enumerate(row) if d is not None)
        head = [(d, train.instances[i].class_label) for d, i in ranked[:k]]
        if not head:
            recheck = None
        else:
            counts = Counter(label for _, label in head)
            recheck = min(
                counts,
                key=lambda c: (-counts[c], math.fsum(d for d, l in head if l == c), c),
            )
        if recheck != predicted:
            raise RuntimeError(
                f"audit mismatch: {predicted!r} classified, {recheck!r} rechecked"
            )


def knn_classify(
    train: DatasetSplit,
    test: DatasetSplit,
    matcher: MatcherSpec,
    k: int,
) -> BenchResult:
    """Classify each test instance by majority vote of its k nearest
    training instances under the matcher's distance.

    Each train and test graph is prepared once per call
    (``MatcherSpec.prepare``) and every pair then runs the matcher's pair
    step on the prepared graphs; nothing prepared outlives the call.
    Accuracy is the percentage of correctly labeled test instances, overall
    and per class.  Pairs on which the matcher raises are recorded as
    failures, excluded from timing, and leave the test instance to be
    classified from whatever distances remain (none at all counts as a
    miss).  Every pair runs in the calling process and is timed by the wall
    clock of its pair step.  Every prediction is re-checked from the distance
    rows (``_audit_predictions``); a mismatch raises RuntimeError.  A k that
    is not an integer or is below 1 raises ValueError before any graph is
    prepared.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise ValueError("k must be >= 1")
    if not train.instances or not test.instances:
        raise ValueError("train and test splits must be nonempty")
    train_graphs = _prepared(matcher, train.instances)
    test_graphs = _prepared(matcher, test.instances)
    results = [_distance_row(matcher, t, train_graphs) for t in test_graphs]

    rows = [r[0] for r in results]
    times = [t for r in results for t in r[1]]
    failures = tuple(f for r in results for f in r[2])
    predictions = [_vote(row, train, k) for row in rows]
    _audit_predictions(rows, train, k, predictions)

    per_class_total = Counter(inst.class_label for inst in test.instances)
    per_class_hit: Counter[str] = Counter()
    for inst, predicted in zip(test.instances, predictions):
        if predicted == inst.class_label:
            per_class_hit[inst.class_label] += 1
    correct = sum(per_class_hit.values())
    return BenchResult(
        method=matcher,
        per_class_accuracy={
            c: 100.0 * per_class_hit[c] / total for c, total in sorted(per_class_total.items())
        },
        mean_accuracy=100.0 * correct / len(test.instances),
        mean_time_ms=1000.0 * statistics.mean(times) if times else 0.0,
        pair_count=len(times),
        failures=failures,
    )


# -- timing ------------------------------------------------------------------


@dataclass(frozen=True)
class TimingSummary:
    method: str
    pair_count: int
    mean_ms: float
    median_ms: float
    min_ms: float
    distances: tuple[float, ...] = field(default=(), repr=False)


def benchmark(pairs, matcher: MatcherSpec, repetitions: int = 3) -> TimingSummary:
    """Wall-clock the matcher over a list of graph pairs.

    Each pair runs ``repetitions`` times (no warmup), each time a full
    ``distance(g1, g2)`` call with both graphs' preparation included, and
    contributes its fastest time; the summary aggregates mean/median/min
    across pairs.  The distance of each pair is kept for cross-method
    comparison plots.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    per_pair_ms, distances = [], []
    for g1, g2 in pairs:
        best = None
        d = 0.0
        for _ in range(repetitions):
            start = time.perf_counter()
            d = matcher.distance(g1, g2)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        per_pair_ms.append(1000.0 * best)
        distances.append(d)
    if not per_pair_ms:
        return TimingSummary(matcher.method, 0, 0.0, 0.0, 0.0)
    return TimingSummary(
        matcher.method,
        len(per_pair_ms),
        statistics.mean(per_pair_ms),
        statistics.median(per_pair_ms),
        min(per_pair_ms),
        tuple(distances),
    )


# -- weight search -----------------------------------------------------------


def _normalized(values) -> DistanceWeights:
    total = math.fsum(values)
    if total <= 0:
        raise ValueError("weights must have a positive sum")
    return DistanceWeights(*(v / total for v in values))


def _weight_free_pairs(train_rows, validation_rows, align):
    """Per validation graph, one (r1, r2, vd) per train graph: the two rows
    padded to one size by ``geometric._pair`` (r2 aligned to r1 under "edm"
    when ``align``) and their vertex distance.  None of it reads a weight."""
    variant = "edm" if align else None
    pairs = [[geometric._pair(a, b, variant) for b in train_rows] for a in validation_rows]
    return [
        [(r1, r2, geometric._vertex_assignment(r1.coords, r2.coords).total_cost) for r1, r2 in row]
        for row in pairs
    ]


def _weighted_accuracies(train, validation, pairs, candidates):
    """The 1-NN validation accuracy of each weight vector in ``candidates``,
    voting exactly as ``knn_classify`` does, in one pass over the pairs.

    ``pairs`` is ``_weight_free_pairs``'s.  Each pair builds its weight-free
    edge terms (``geometric._edge_terms``) once, then costs one distance call
    per weight vector on its equal-size rows and those terms, with w1 = 0,
    plus w1 * vd: the distance ``geometric_graph_distance`` returns under
    that vector, bit for bit.  The terms are dropped before the next pair.
    """
    edge_weights = [DistanceWeights(0.0, w.w2, w.w3, w.w4) for w in candidates]
    correct = [0] * len(candidates)
    for inst, row in zip(validation.instances, pairs):
        distances = [[] for _ in candidates]
        for r1, r2, vd in row:
            terms = geometric._edge_terms(r1.edges, r2.edges)
            for out, w, edge_w in zip(distances, candidates, edge_weights):
                out.append(w.w1 * vd + geometric_graph_distance(r1, r2, edge_w, terms=terms))
        for k, row_distances in enumerate(distances):
            if _vote(row_distances, train, 1) == inst.class_label:
                correct[k] += 1
    return [c / len(validation.instances) for c in correct]


def tune_weights(
    train: DatasetSplit,
    validation: DatasetSplit,
    start: DistanceWeights = DistanceWeights(0.25, 0.25, 0.25, 0.25),
    delta: float = 0.02,
    align: bool = False,
) -> DistanceWeights:
    """Steepest-ascent search over the geometric distance weights.

    Starting from ``start`` normalized onto the simplex, repeatedly take the
    single +/-delta coordinate move (renormalized) that most improves 1-NN
    validation accuracy; stop when no move improves it.  Deterministic:
    moves are tried in a fixed order and only strict improvements are taken.

    Each train and validation graph is prepared once per call (its
    ``geometric_rows``).  Each (validation, train) pair is then padded, and
    aligned when ``align`` is set, once per call, and its vertex distance
    solved once.  The start and then each step's moves are scored in one
    pass over the pairs (``_weighted_accuracies``): per pass a pair builds
    its edge terms once and every weight vector re-weights them and solves
    only the edge assignment.  With ``align`` the call so holds one aligned
    row set per pair until it returns; a pair's terms live for one pass
    over that pair, and nothing prepared outlives the call.
    """
    if not train.instances or not validation.instances:
        raise ValueError("train and validation splits must be nonempty")
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    rows = geometric.geometric_rows
    prepared = [[rows(inst.graph) for inst in split.instances] for split in (train, validation)]
    pairs = _weight_free_pairs(*prepared, align)
    current = _normalized(start.as_tuple())
    [current_accuracy] = _weighted_accuracies(train, validation, pairs, [current])
    while True:
        candidates = []
        for i in range(4):
            for step in (delta, -delta):
                moved = list(current.as_tuple())
                moved[i] += step
                if moved[i] >= 0 and any(moved):
                    candidates.append(_normalized(moved))
        best_move = None
        for candidate, accuracy in zip(
            candidates, _weighted_accuracies(train, validation, pairs, candidates)
        ):
            if accuracy > current_accuracy and (best_move is None or accuracy > best_move[0]):
                best_move = (accuracy, candidate)
        if best_move is None:
            return current
        current_accuracy, current = best_move

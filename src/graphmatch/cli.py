"""Command-line harness.

Subcommands: ``classify`` (kNN over a dataset), ``bench`` (wall-clock
timing), ``contract`` (apply a contraction to one GXL file), ``isocheck``
(geometric isomorphism verdict via exit code), ``tune`` (weight search) and
``synth`` (write a synthetic corpus).  All outputs are CSV, JSON, or GXL
files; figures are produced downstream from the CSVs.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path

from .bench import (
    MatcherSpec,
    benchmark,
    knn_classify,
    split_method_list,
    tune_weights,
)
from .centrality import (
    MEASURES,
    r_centrality_node_contraction,
    t_centrality_node_contraction,
)
from .contraction import k_star_node_contraction, path_contract
from .datasets import (
    PROFILES,
    load_dataset,
    parse_gxl,
    synthesize_corpus,
    write_cxl,
    write_gxl,
)
from .editdist import DEFAULT_PARAMS, EditCostParams
from .geometric import DistanceWeights, GeometricGraph, geometric_graph_isomorphism

_ISOCHECK_CODES = {"isomorphic": 0, "t_tolerant": 1, "distance": 2}


def _cost_params(text: str | None) -> EditCostParams:
    if text is None:
        return DEFAULT_PARAMS
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise ValueError("--cost needs 5 values: x_node,y_node,x_edge,y_edge,z_path")
    return EditCostParams(*(float(p) for p in parts))


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _weights(text: str | None) -> DistanceWeights:
    if text is None:
        return DistanceWeights(0.25, 0.25, 0.25, 0.25)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("--start needs 4 values: w1,w2,w3,w4")
    return DistanceWeights(*(float(p) for p in parts))


def _read_graph(path: str, profile: str):
    return parse_gxl(Path(path).read_bytes(), profile)


def _load_split(index, data_dir, profile, name):
    split = load_dataset(index, data_dir, profile, name=name)
    if split.errors:
        print(
            f"warning: {name}: {len(split.errors)} entries skipped, "
            f"{len(split.instances)} loaded",
            file=sys.stderr,
        )
        for error in split.errors:
            print(f"  {error}", file=sys.stderr)
    return split


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- subcommands -------------------------------------------------------------


def _cmd_classify(args) -> int:
    matcher = MatcherSpec(args.method, _cost_params(args.cost))
    train = _load_split(args.train, args.data, args.profile, "train")
    test = _load_split(args.test, args.data, args.profile, "test")
    result = knn_classify(
        train, test, matcher, args.knn, jobs=args.jobs, audit=args.audit
    )
    if result.failures and result.pair_count == 0:
        raise ValueError(f"every pair failed: {result.failures[0]}")
    classes = sorted(result.per_class_accuracy)
    _write_csv(
        args.out,
        ["method", "k", "pair_count", "mean_time_ms", "mean_accuracy"]
        + [f"acc_{c}" for c in classes],
        [
            [
                matcher.method,
                args.knn,
                result.pair_count,
                f"{result.mean_time_ms:.6f}",
                f"{result.mean_accuracy:.4f}",
            ]
            + [f"{result.per_class_accuracy[c]:.4f}" for c in classes]
        ],
    )
    if result.failures:
        print(f"warning: {len(result.failures)} pairs failed", file=sys.stderr)
    print(
        f"{matcher.method}: mean accuracy {result.mean_accuracy:.2f} "
        f"over {len(test.instances)} test instances"
    )
    return 0


_SYNTH_PAIRS = re.compile(r"synth:(\d+)x(\d+):([^:]+):(\d+)$")


def _bench_pairs(args):
    m = _SYNTH_PAIRS.fullmatch(args.pairs)
    if m:
        split = synthesize_corpus(
            classes=int(m.group(1)),
            per_class=int(m.group(2)),
            sigma=float(m.group(3)),
            seed=int(m.group(4)),
        )
    else:
        index = Path(args.pairs)
        split = _load_split(index, args.data or index.parent, args.profile, "test")
    graphs = [inst.graph for inst in split.instances]
    if len(graphs) < 2:
        raise ValueError(f"bench needs two graphs or more, {args.pairs} gives {len(graphs)}")
    pairs = list(zip(graphs, graphs[1:]))
    return pairs[: args.limit]


def _cmd_bench(args) -> int:
    pairs = _bench_pairs(args)
    params = _cost_params(args.cost)
    rows, distance_rows = [], []
    for method in split_method_list(args.methods):
        summary = benchmark(pairs, MatcherSpec(method, params), args.reps)
        rows.append(
            [
                summary.method,
                summary.pair_count,
                f"{summary.mean_ms:.6f}",
                f"{summary.median_ms:.6f}",
                f"{summary.min_ms:.6f}",
            ]
        )
        distance_rows.extend(
            [summary.method, i, f"{d:.9g}"] for i, d in enumerate(summary.distances)
        )
        print(f"{summary.method}: mean {summary.mean_ms:.3f} ms over {summary.pair_count} pairs")
    _write_csv(args.out, ["method", "pair_count", "mean_ms", "median_ms", "min_ms"], rows)
    if args.distances_out:
        _write_csv(args.distances_out, ["method", "pair_index", "distance"], distance_rows)
    return 0


def _cmd_contract(args) -> int:
    g = _read_graph(args.infile, args.profile)
    if args.mode == "path":
        contracted, report = path_contract(g)
    elif args.mode == "kstar":
        if args.k is None:
            raise ValueError("--mode kstar needs --k")
        contracted, report = k_star_node_contraction(g, args.k)
    elif args.mode == "rcentrality":
        if args.r is None:
            raise ValueError("--mode rcentrality needs --r")
        contracted, report = r_centrality_node_contraction(g, args.r, args.measure)
    else:
        if args.t is None:
            raise ValueError("--mode tcentrality needs --t")
        contracted, report = t_centrality_node_contraction(g, args.t, args.measure)
    Path(args.out).write_text(write_gxl(contracted))
    print(
        f"{report.before_n} -> {report.after_n} vertices "
        f"({len(report.removed)} removed), "
        f"components {report.components_before} -> {report.components_after}"
    )
    return 0


def _cmd_isocheck(args) -> int:
    g1 = _read_graph(args.g1, args.profile)
    g2 = _read_graph(args.g2, args.profile)
    if not isinstance(g1, GeometricGraph) or not isinstance(g2, GeometricGraph):
        raise ValueError("isocheck needs coordinates; use the letter or generic profile")
    result = geometric_graph_isomorphism(g1, g2, args.tolerance)
    print(f"{result.verdict} distance={result.distance:.9g}")
    return _ISOCHECK_CODES[result.verdict]


def _cmd_tune(args) -> int:
    train = _load_split(args.train, args.data, args.profile, "train")
    validation = _load_split(args.validation, args.data, args.profile, "validation")
    weights = tune_weights(
        train, validation, _weights(args.start), delta=args.delta, align=args.align
    )
    w1, w2, w3, w4 = weights.as_tuple()
    method = f"geometric({w1!r},{w2!r},{w3!r},{w4!r}" + (",align)" if args.align else ")")
    accuracy = knn_classify(train, validation, MatcherSpec(method), 1).mean_accuracy
    with open(args.out, "w") as fh:
        json.dump(
            {"w1": w1, "w2": w2, "w3": w3, "w4": w4, "accuracy": accuracy},
            fh,
            indent=2,
        )
        fh.write("\n")
    print(f"weights ({w1:.4f}, {w2:.4f}, {w3:.4f}, {w4:.4f}), accuracy {accuracy:.2f}")
    return 0


def _cmd_synth(args) -> int:
    split = synthesize_corpus(
        classes=args.classes,
        per_class=args.per_class,
        sigma=args.sigma,
        seed=args.seed,
        n_range=(args.n_lo, args.n_hi),
        p=args.p,
        name=args.split,
        jitter_seed=args.jitter_seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for inst in split.instances:
        file = f"{inst.source_id}.gxl"
        (out / file).write_text(write_gxl(inst.graph, graph_id=inst.source_id))
        entries.append((file, inst.class_label))
    index = out / f"{args.split}.cxl"
    index.write_text(write_cxl(entries))
    print(f"wrote {len(entries)} graphs and {index}")
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmatch", description="graph matching experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="k-nearest-neighbor classification")
    p.add_argument("--train", required=True, help="training CXL index")
    p.add_argument("--test", required=True, help="test CXL index")
    p.add_argument("--data", required=True, help="directory holding the GXL files")
    p.add_argument("--profile", choices=PROFILES, default="letter")
    p.add_argument("--method", required=True, help="matcher spec, e.g. kstar-ged(1)")
    p.add_argument("--knn", type=positive_int, default=1)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--audit", action="store_true", help="re-check predictions")
    p.add_argument("--cost", help="x_node,y_node,x_edge,y_edge,z_path")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("bench", help="per-pair wall-clock timing")
    p.add_argument(
        "--pairs",
        required=True,
        help="CXL index, or synth:<classes>x<per_class>:<sigma>:<seed>",
    )
    p.add_argument("--data", help="GXL directory (defaults to the index directory)")
    p.add_argument("--profile", choices=PROFILES, default="letter")
    p.add_argument("--methods", required=True, help="comma-separated matcher specs")
    p.add_argument("--reps", type=positive_int, default=3)
    p.add_argument("--limit", type=positive_int, default=50, help="max pairs")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--distances-out", help="optional per-pair distance CSV")
    p.add_argument("--cost", help="x_node,y_node,x_edge,y_edge,z_path")
    p.set_defaults(run=_cmd_bench)

    p = sub.add_parser("contract", help="contract one GXL graph")
    p.add_argument("--in", dest="infile", required=True, help="input GXL")
    p.add_argument(
        "--mode", choices=("kstar", "rcentrality", "tcentrality", "path"), required=True
    )
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=float)
    p.add_argument("--t", type=int)
    p.add_argument("--measure", choices=MEASURES, default="degree")
    p.add_argument("--profile", choices=PROFILES, default="generic")
    p.add_argument("--out", required=True, help="output GXL")
    p.set_defaults(run=_cmd_contract)

    p = sub.add_parser(
        "isocheck", help="geometric isomorphism; exit 0/1/2 = isomorphic/tolerant/distance"
    )
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--tolerance", type=float, default=0.0)
    p.add_argument("--profile", choices=PROFILES, default="letter")
    p.set_defaults(run=_cmd_isocheck)

    p = sub.add_parser("tune", help="steepest-ascent geometric weight search")
    p.add_argument("--train", required=True)
    p.add_argument("--validation", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--profile", choices=PROFILES, default="letter")
    p.add_argument("--delta", type=float, default=0.02)
    p.add_argument("--start", help="w1,w2,w3,w4 (default uniform)")
    p.add_argument("--align", action="store_true")
    p.add_argument("--out", required=True, help="JSON output path")
    p.set_defaults(run=_cmd_tune)

    p = sub.add_parser("synth", help="write a synthetic geometric corpus")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jitter-seed", type=int)
    p.add_argument("--split", choices=("train", "validation", "test"), default="train")
    p.add_argument("--n-lo", type=int, default=4)
    p.add_argument("--n-hi", type=int, default=8)
    p.add_argument("--p", type=float, default=0.4)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(run=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness.

Subcommands: ``classify`` (kNN over a dataset), ``bench`` (wall-clock
timing), ``contract`` (apply a contraction to one GXL file), ``isocheck``
(geometric isomorphism verdict via exit code), ``tune`` (weight search) and
``synth`` (write a synthetic corpus).  All outputs are CSV, JSON, or GXL
files; figures are produced downstream from the CSVs.

Import rule: at module level this module imports only the standard library
and ``.datasets`` (which brings ``.graphs``).  The ``classify``, ``bench``,
``contract``, ``isocheck`` and ``tune`` handlers import the matcher stack,
and with it numpy and scipy, in their own bodies.  So ``synth``, ``--help``
and usage errors start without numpy and ``scipy.optimize``, whose import
takes most of their start-up time.  The library modules keep their eager
imports: ``import graphmatch.bench`` loads scipy up front, so no timed
matcher call ever pays for an import.  ``main``, ``synthesize_corpus`` and
``write_gxl`` stay module attributes, looked up at call time, so a wrapper
set on this module reaches them.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

from .datasets import (
    PROFILES,
    load_dataset,
    parse_gxl,
    synthesize_corpus,
    write_cxl,
    write_gxl,
)
from .graphs import GeometricGraph

_ISOCHECK_CODES = {"isomorphic": 0, "t_tolerant": 1, "distance": 3}


def _float_fields(text: str | None, flag: str, default):
    """``flag``'s comma-separated floats as the fields of ``default``'s
    dataclass, in order; ``default`` itself when the flag is absent."""
    if text is None:
        return default
    names = [f.name for f in fields(default)]
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(names):
        raise ValueError(f"{flag} needs {len(names)} values: {','.join(names)}")
    values = []
    for name, part in zip(names, parts):
        try:
            values.append(float(part))
        except ValueError:
            raise ValueError(f"{flag}: {name} is not a number: {part!r}") from None
    return type(default)(*values)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
    from .bench import MatcherSpec, knn_classify
    from .editdist import DEFAULT_PARAMS

    matcher = MatcherSpec(args.method, _float_fields(args.cost, "--cost", DEFAULT_PARAMS))
    train = _load_split(args.train, args.data, args.profile, "train")
    test = _load_split(args.test, args.data, args.profile, "test")
    result = knn_classify(train, test, matcher, args.knn)
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
        print(
            f"warning: {len(result.failures)} pairs failed; first: {result.failures[0]}",
            file=sys.stderr,
        )
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
    from .bench import MatcherSpec, benchmark, split_method_list
    from .editdist import DEFAULT_PARAMS

    methods = split_method_list(args.methods)
    if not methods:
        raise ValueError(f"--methods {args.methods!r} names no method")
    pairs = _bench_pairs(args)
    params = _float_fields(args.cost, "--cost", DEFAULT_PARAMS)
    rows, distance_rows = [], []
    for method in methods:
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


# each contract mode and the option it needs (None for none)
_CONTRACT_OPTIONS = {"kstar": "k", "rcentrality": "r", "tcentrality": "t", "path": None}


def _cmd_contract(args) -> int:
    from .centrality import (
        MEASURES,
        r_centrality_node_contraction,
        t_centrality_node_contraction,
    )
    from .contraction import k_star_node_contraction, path_contract

    if args.measure not in MEASURES:
        raise ValueError(f"unknown --measure {args.measure!r} (one of {', '.join(MEASURES)})")
    option = _CONTRACT_OPTIONS[args.mode]
    if option and getattr(args, option) is None:
        raise ValueError(f"--mode {args.mode} needs --{option}")
    contract = {
        "kstar": lambda g: k_star_node_contraction(g, args.k),
        "rcentrality": lambda g: r_centrality_node_contraction(g, args.r, args.measure),
        "tcentrality": lambda g: t_centrality_node_contraction(g, args.t, args.measure),
        "path": path_contract,
    }[args.mode]
    contracted, report = contract(_read_graph(args.infile, args.profile))
    Path(args.out).write_text(write_gxl(contracted))
    print(
        f"{report.before_n} -> {report.after_n} vertices "
        f"({len(report.removed)} removed), "
        f"components {report.components_before} -> {report.components_after}"
    )
    return 0


def _cmd_isocheck(args) -> int:
    from .geometric import geometric_graph_isomorphism

    g1 = _read_graph(args.g1, args.profile)
    g2 = _read_graph(args.g2, args.profile)
    if not isinstance(g1, GeometricGraph) or not isinstance(g2, GeometricGraph):
        raise ValueError("isocheck needs coordinates; use the letter or generic profile")
    result = geometric_graph_isomorphism(g1, g2, args.tolerance)
    print(f"{result.verdict} distance={result.distance:.9g}")
    return _ISOCHECK_CODES[result.verdict]


def _cmd_tune(args) -> int:
    from .bench import MatcherSpec, knn_classify, tune_weights
    from .geometric import DistanceWeights

    train = _load_split(args.train, args.data, args.profile, "train")
    validation = _load_split(args.validation, args.data, args.profile, "validation")
    start = _float_fields(args.start, "--start", DistanceWeights(0.25, 0.25, 0.25, 0.25))
    weights = tune_weights(train, validation, start, delta=args.delta, align=args.align)
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
    p.add_argument("--mode", choices=tuple(_CONTRACT_OPTIONS), required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=float)
    p.add_argument("--t", type=int)
    p.add_argument("--measure", default="degree", help="centrality measure")
    p.add_argument("--profile", choices=PROFILES, default="generic")
    p.add_argument("--out", required=True, help="output GXL")
    p.set_defaults(run=_cmd_contract)

    p = sub.add_parser(
        "isocheck",
        help="geometric isomorphism; exit 0/1/3 = isomorphic/tolerant/distance, 2 = bad input",
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

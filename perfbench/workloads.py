"""Workload definitions, corpus building and output checks.

Every workload builds its corpus the way a user would: ``graphmatch synth``
(in-process ``cli.main``) writes GXL/CXL files, and ``load_dataset`` reads
them back with the letter profile.  Each split goes to its own directory:
``graphmatch synth`` names files ``<class>-<i>.gxl`` whatever the split, so
writing two splits into one directory overwrites the first (see README.md).

The workload seed re-draws the coordinate noise of both splits and keeps the
class prototypes fixed.  Graph sizes and edge counts therefore stay the same
for every seed, so runs with different seeds measure the code rather than the
luck of the draw (drawing new prototypes moves exact-GED sweep time by 2x).
Seed 0 reproduces the corpora measured at the seed commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path

# The checkout this benchmark belongs to; the program is built from its src/.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Noise seeds of two consecutive workload seeds differ by this much, so the
# noise streams of different workload seeds never coincide.
SEED_STRIDE = 1000


class MissingProgram(RuntimeError):
    """The checkout holds no graphmatch sources to benchmark."""


def import_graphmatch():
    """Import graphmatch from this checkout's src/, never from elsewhere."""
    if not (SRC / "graphmatch" / "__init__.py").is_file():
        raise MissingProgram(f"no graphmatch package under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("graphmatch")
    if Path(package.__file__).resolve().parent != SRC / "graphmatch":
        raise MissingProgram(f"graphmatch imported from {package.__file__}, not {SRC}")
    return package


@dataclass(frozen=True)
class Corpus:
    """Arguments of ``graphmatch synth`` shared by both splits."""

    classes: int
    train_per_class: int
    eval_per_class: int
    sigma: float
    n_lo: int
    n_hi: int
    p: float
    proto_seed: int
    train_jitter: int
    eval_jitter: int


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Corpus
    eval_split: str  # "test" for kNN workloads, "validation" for tuning
    matchers: tuple[tuple[str, str], ...]  # (metric suffix, matcher spec)
    tune: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "letter-knn",
            Corpus(15, 6, 3, 0.02, 4, 7, 0.4, 31, 31, 77),
            "test",
            (
                ("geometric", "geometric(0.35,0.23,0.11,0.31)"),
                ("geometric_align", "geometric(1,1,1,1,align)"),
                ("beam", "ged-beam(10)"),
                ("bipartite", "bipartite"),
                ("kstar1", "kstar-ged(1)"),
                ("rged", "r-ged(0.5,betweenness)"),
                ("tged", "t-ged(2,eigenvector)"),
            ),
        ),
        Workload(
            "molecule-knn",
            Corpus(4, 6, 3, 0.05, 14, 18, 0.25, 13, 13, 55),
            "test",
            (
                ("geometric", "geometric(1,1,1,1)"),
                ("geometric_align", "geometric(1,1,1,1,align)"),
                ("beam", "ged-beam(10)"),
                ("bipartite", "bipartite"),
            ),
        ),
        Workload(
            "exact-ged",
            Corpus(8, 3, 2, 0.1, 5, 7, 0.35, 5, 5, 6),
            "test",
            (
                ("ged", "ged"),
                ("hged", "hged"),
                ("kstar1", "kstar-ged(1)"),
                ("kstar2", "kstar-ged(2)"),
            ),
        ),
        Workload(
            "geometric-tune",
            Corpus(15, 6, 3, 0.25, 4, 7, 0.4, 31, 31, 78),
            "validation",
            (("tune", "tune_weights(delta=0.02)"),),
            tune=True,
        ),
    )
}

# Every kNN matcher suffix of any workload, in order of first appearance.
ALL_MATCHERS = tuple(dict.fromkeys(
    label for w in WORKLOADS.values() if not w.tune for label, _ in w.matchers))


def source_digest() -> str:
    """Digest of the benchmarked sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "graphmatch").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def synth_args(corpus: Corpus, split: str, seed: int, out: Path) -> list[str]:
    """``graphmatch synth`` arguments for one split under a workload seed."""
    train = split == "train"
    jitter = corpus.train_jitter if train else corpus.eval_jitter
    return [
        "synth",
        "--classes", str(corpus.classes),
        "--per-class", str(corpus.train_per_class if train else corpus.eval_per_class),
        "--sigma", repr(corpus.sigma),
        "--seed", str(corpus.proto_seed),
        "--jitter-seed", str(jitter + SEED_STRIDE * seed),
        "--split", split,
        "--n-lo", str(corpus.n_lo),
        "--n-hi", str(corpus.n_hi),
        "--p", repr(corpus.p),
        "--out", str(out),
    ]


def write_corpus(cli, workload: Workload, seed: int, root: Path) -> None:
    """Write train and evaluation splits, each into its own directory."""
    for split in ("train", workload.eval_split):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(synth_args(workload.corpus, split, seed, root / split))
        if code != 0:
            raise RuntimeError(f"graphmatch synth exited {code} for the {split} split")


def load_corpus(datasets, workload: Workload, root: Path):
    """Read both splits back with the letter profile."""
    splits = []
    for split in ("train", workload.eval_split):
        loaded = datasets.load_dataset(
            root / split / f"{split}.cxl", root / split, profile="letter"
        )
        if loaded.errors:
            raise RuntimeError(f"{split}: {len(loaded.errors)} files failed to load")
        splits.append(loaded)
    return tuple(splits)


def fingerprint(*splits) -> str:
    """Digest of every graph's split, class, structure and exact coordinates.

    File names are left out, so renaming the files synth writes keeps it.
    """
    h = hashlib.sha256()
    for split in splits:
        for inst in split.instances:
            g = inst.graph
            h.update(repr((split.name, inst.class_label, g.vertices, g.edges,
                           [g.coords[v] for v in g.vertices])).encode())
    return h.hexdigest()


def coordinate_twins(train, evaluation) -> list[str]:
    """Evaluation graphs whose coordinates equal some train graph's exactly."""
    seen = {tuple(sorted(inst.graph.coords.items())): inst.source_id
            for inst in train.instances}
    return [
        f"{inst.source_id} = train {seen[key]}"
        for inst in evaluation.instances
        if (key := tuple(sorted(inst.graph.coords.items()))) in seen
    ]


def sums_agree(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)

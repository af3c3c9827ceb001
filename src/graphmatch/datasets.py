"""GXL and CXL ingestion plus synthetic corpus generation.

The on-disk format is the IAM graph-repository flavor of GXL: a single
``graph`` element whose nodes carry typed ``attr`` children, indexed by CXL
files listing ``print file=... class=...`` entries.  Three parsing profiles
cover the data of interest:

``letter``
    every node must provide float attributes ``x`` and ``y``; the pair
    becomes both the vertex coordinate and a 2-vector node label.  Edge
    labels are ignored (letter data has none).
``molecule``
    nodes carry a chemical symbol in attribute ``symbol`` or, as in some
    AIDS-style files, ``chem``.  Coordinates are used when every node has
    them, otherwise the result is a plain attributed graph and geometric
    operations on it stay unavailable.
``generic``
    node and edge labels come from ``label`` attributes, coordinates from
    ``x``/``y`` when total.  This profile parses anything ``write_gxl``
    emits back to an identical graph; the one unrepresentable case is an
    empty geometric graph, which comes back attributed.
"""

from __future__ import annotations

import math
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .graphs import AttributedGraph, GeometricGraph, canonical_edge, random_graph

PROFILES = ("letter", "molecule", "generic")


class GxlParseError(ValueError):
    """Structurally invalid GXL or CXL document."""


class MissingCoordinateError(GxlParseError):
    """A profile that requires coordinates met a node without one."""


class DanglingEdgeError(GxlParseError):
    """An edge references a node id that does not exist."""


# -- dataset types -----------------------------------------------------------


@dataclass(frozen=True)
class LabeledInstance:
    graph: AttributedGraph
    class_label: str
    source_id: str

    def __post_init__(self):
        if not self.class_label:
            raise ValueError("class_label must be nonempty")


@dataclass(frozen=True)
class DatasetSplit:
    name: str  # train | validation | test
    instances: tuple[LabeledInstance, ...]
    errors: tuple[str, ...] = ()

    def __post_init__(self):
        if self.name not in ("train", "validation", "test"):
            raise ValueError(f"unknown split name {self.name!r}")
        ids = [inst.source_id for inst in self.instances]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate source_ids within a split")

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(sorted({inst.class_label for inst in self.instances}))


# -- GXL reading -------------------------------------------------------------


def _decode_value(el: ET.Element):
    """An attr's value: a scalar or a tup of scalars.  No profile reads a
    nested tup, so a tup inside a tup is an error, not a recursion."""
    if el.tag.lower() == "tup":
        return tuple(_decode_scalar(child) for child in el)
    return _decode_scalar(el)


def _decode_scalar(el: ET.Element):
    """A scalar value; ``string`` text verbatim, literals without their
    surrounding whitespace."""
    tag = el.tag.lower()
    text = el.text or ""
    if tag in ("string", "str"):
        return text
    text = text.strip()
    try:
        if tag == "float":
            return float(text)
        if tag in ("int", "integer"):
            return int(text)
    except ValueError:
        raise GxlParseError(f"bad {tag} literal {text!r}") from None
    if tag == "bool":
        return text.lower() == "true"
    if tag == "tup":
        raise GxlParseError("nested tup values are not supported")
    raise GxlParseError(f"unsupported attr value type {el.tag!r}")


def _attrs(el: ET.Element) -> dict[str, object]:
    out: dict[str, object] = {}
    for attr in el.findall("attr"):
        name = attr.get("name")
        if name is None:
            raise GxlParseError("attr element without a name")
        value = next(iter(attr), None)
        out[name] = (attr.text or "").strip() if value is None else _decode_value(value)
    return out


def _as_float(value, what: str) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        raise GxlParseError(f"{what} is not a float: {value!r:.40}") from None


def _label_from(value):
    # strings pass through; numbers become 1-vectors and tup values vectors
    if value is None or isinstance(value, str):
        return value
    entries = value if isinstance(value, tuple) else (value,)
    return tuple(_as_float(x, "label entry") for x in entries)


def _graph_element(root: ET.Element) -> ET.Element:
    found = [root] if root.tag == "graph" else root.findall(".//graph")
    if len(found) != 1:
        raise GxlParseError(f"expected exactly one graph element, found {len(found)}")
    return found[0]


def _vertex_ids(raw_ids: Sequence[str]) -> list[int]:
    # keep IAM-style numeric ids ("_3", "7") so written graphs parse back
    # with their original vertex ids; anything else numbers by document order
    resolved = []
    for raw in raw_ids:
        m = re.fullmatch(r"_?(-?\d+)", raw)
        resolved.append(int(m.group(1)) if m else None)
    if None in resolved or len(set(resolved)) != len(resolved):
        return list(range(len(raw_ids)))
    return resolved


def parse_gxl(content: bytes | str, profile: str) -> AttributedGraph:
    """Parse one GXL document into a graph under the given profile."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    try:
        root = ET.fromstring(content)
    except (ET.ParseError, LookupError) as e:  # LookupError: unknown encoding
        raise GxlParseError(f"malformed document: {e}") from None
    graph = _graph_element(root)

    node_elements = graph.findall("node")
    raw_ids = []
    for node in node_elements:
        raw = node.get("id")
        if raw is None:
            raise GxlParseError("node element without an id")
        raw_ids.append(raw)
    if len(set(raw_ids)) != len(raw_ids):
        raise GxlParseError("duplicate node ids")
    ids = _vertex_ids(raw_ids)
    id_map = dict(zip(raw_ids, ids))

    coords: dict[int, tuple[float, float]] = {}
    node_labels: dict[int, object] = {}
    for raw, v, node in zip(raw_ids, ids, node_elements):
        attrs = _attrs(node)
        x, y = attrs.get("x"), attrs.get("y")
        if x is not None and y is not None:
            coords[v] = (_as_float(x, "x coordinate"), _as_float(y, "y coordinate"))
        elif profile == "letter":
            raise MissingCoordinateError(f"node {raw!r} lacks x/y coordinates")
        if profile == "letter":
            node_labels[v] = coords[v]
        elif profile == "molecule":
            symbol = attrs.get("symbol", attrs.get("chem"))
            node_labels[v] = None if symbol is None else str(symbol).strip()
        else:
            node_labels[v] = _label_from(attrs.get("label"))

    edges: list[tuple[int, int]] = []
    edge_labels: dict[tuple[int, int], object] = {}
    for edge in graph.findall("edge"):
        a, b = edge.get("from"), edge.get("to")
        if a is None or b is None:
            raise GxlParseError("edge element without from/to")
        if a not in id_map or b not in id_map:
            raise DanglingEdgeError(f"edge references unknown node {a!r} or {b!r}")
        u, w = id_map[a], id_map[b]
        edges.append((u, w))
        if profile != "letter":
            label = _label_from(_attrs(edge).get("label"))
            if label is not None:
                edge_labels[canonical_edge(u, w)] = label

    try:
        if profile == "letter" or (ids and len(coords) == len(ids)):
            return GeometricGraph(
                ids, edges, coords=coords, node_labels=node_labels, edge_labels=edge_labels
            )
        return AttributedGraph(ids, edges, node_labels=node_labels, edge_labels=edge_labels)
    except ValueError as e:
        raise GxlParseError(str(e)) from None


# -- GXL and CXL writing -----------------------------------------------------


def _encode_value(parent: ET.Element, value) -> None:
    if isinstance(value, str):
        ET.SubElement(parent, "string").text = value
    elif isinstance(value, tuple):
        tup = ET.SubElement(parent, "tup")
        for item in value:
            _encode_value(tup, item)
    else:
        ET.SubElement(parent, "float").text = repr(float(value))


def _put_attr(el: ET.Element, name: str, value) -> None:
    _encode_value(ET.SubElement(el, "attr", name=name), value)


def write_gxl(g: AttributedGraph, graph_id: str = "g") -> str:
    """Serialize a graph in the same GXL flavor ``parse_gxl`` reads.

    Node ids are written as ``_<vertex id>``, so the generic profile parses
    the output back with identical vertex ids and order.  Coordinates use
    ``repr`` floats and survive the round trip exactly.  Phantom padding
    slots (``empty_edges``) have no representation and are dropped.
    """
    root = ET.Element("gxl")
    el = ET.SubElement(root, "graph", id=graph_id, edgeids="false", edgemode="undirected")
    geometric = isinstance(g, GeometricGraph)
    for v in g.vertices:
        node = ET.SubElement(el, "node", id=f"_{v}")
        if geometric:
            x, y = g.coords[v]
            _put_attr(node, "x", x)
            _put_attr(node, "y", y)
        if g.node_labels[v] is not None:
            _put_attr(node, "label", g.node_labels[v])
    for a, b in g.edges:
        edge = ET.SubElement(el, "edge", **{"from": f"_{a}", "to": f"_{b}"})
        if g.edge_labels[(a, b)] is not None:
            _put_attr(edge, "label", g.edge_labels[(a, b)])
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def write_cxl(entries: Iterable[tuple[str, str]]) -> str:
    """CXL index text for an iterable of (file name, class label) pairs."""
    root = ET.Element("GraphCollection")
    entries = list(entries)
    fingerprints = ET.SubElement(root, "fingerprints", count=str(len(entries)))
    for file, cls in entries:
        ET.SubElement(fingerprints, "print", file=file, **{"class": cls})
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


# -- dataset loading ---------------------------------------------------------


_SPLIT_PREFIXES = (("train", "train"), ("valid", "validation"), ("test", "test"))


def _infer_split_name(path: Path) -> str:
    stem = path.stem.lower()
    for prefix, name in _SPLIT_PREFIXES:
        if stem.startswith(prefix):
            return name
    return "test"


def load_dataset(
    index_path: str | Path,
    data_dir: str | Path,
    profile: str,
    name: str | None = None,
) -> DatasetSplit:
    """Load every graph a CXL index references.

    An unreadable or malformed index is fatal.  Individual files that are
    missing, malformed, or listed twice are recorded in ``errors`` and
    skipped; the split holds whatever loaded cleanly.  The split name is
    inferred from the index file name unless given.
    """
    index_path = Path(index_path)
    data_dir = Path(data_dir)
    try:
        root = ET.parse(index_path).getroot()
    except (ET.ParseError, LookupError) as e:
        raise GxlParseError(f"malformed index: {e}") from None
    instances: list[LabeledInstance] = []
    errors: list[str] = []
    seen: set[str] = set()
    for entry in root.iter("print"):
        file, cls = entry.get("file"), entry.get("class")
        if file is None or cls is None:
            errors.append("print entry without file/class attributes")
            continue
        if file in seen:
            errors.append(f"{file}: duplicate index entry")
            continue
        seen.add(file)
        try:
            graph = parse_gxl((data_dir / file).read_bytes(), profile)
            instances.append(LabeledInstance(graph, cls, file))
        except (OSError, ValueError) as e:
            errors.append(f"{file}: {e}")
    return DatasetSplit(
        name or _infer_split_name(index_path), tuple(instances), tuple(errors)
    )


# -- synthetic corpora -------------------------------------------------------


def synthesize_corpus(
    classes: int,
    per_class: int,
    sigma: float,
    seed: int,
    n_range: tuple[int, int] = (4, 8),
    p: float = 0.4,
    name: str = "train",
    jitter_seed: int | None = None,
) -> DatasetSplit:
    """Letter-style corpus without the letter data.

    Each class gets one random plane-graph prototype (random structure,
    coordinates uniform in the unit square, the coordinate doubling as the
    node label) and ``per_class`` copies with every coordinate perturbed
    uniformly in [-sigma, sigma].  Prototypes depend only on ``seed``; the
    noise stream is seeded separately so two corpora can share prototypes
    while disagreeing in jitter (train/test pairs for classification runs).
    Reproducible bit for bit given the same arguments.
    """
    if classes < 1 or per_class < 1:
        raise ValueError("classes and per_class must be >= 1")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and >= 0")
    lo, hi = n_range
    if lo < 1 or hi < lo:
        raise ValueError("n_range must satisfy 1 <= lo <= hi")
    if jitter_seed is None:
        jitter_seed = seed
    instances = []
    for c in range(classes):
        proto_rng = random.Random(f"{seed}:{c}:proto")
        jitter_rng = random.Random(f"{jitter_seed}:{c}:jitter")
        n = proto_rng.randint(lo, hi)
        skeleton = random_graph(n, p, seed=proto_rng.getrandbits(32))
        prototype = {
            v: (proto_rng.random(), proto_rng.random()) for v in skeleton.vertices
        }
        cls = f"c{c:02d}"
        for i in range(per_class):
            coords = {
                v: (
                    x + jitter_rng.uniform(-sigma, sigma),
                    y + jitter_rng.uniform(-sigma, sigma),
                )
                for v, (x, y) in prototype.items()
            }
            graph = GeometricGraph(
                skeleton.vertices, skeleton.edges, coords=coords, node_labels=coords
            )
            instances.append(LabeledInstance(graph, cls, f"{cls}-{i:03d}"))
    return DatasetSplit(name, tuple(instances))

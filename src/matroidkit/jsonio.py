"""Canonical JSON encodings for family specs, graphs and certificates.

Emission is byte-stable: keys are sorted, element lists follow ground-set
order, and optional fields are omitted when they hold their defaults.
"""

from __future__ import annotations

import json
from typing import Any

from .core import GroundSet, default_labels
from .errors import InputError
from .graphs import Multigraph
from .intersection import IntersectionCertificate
from .menger import MengerCertificate, MengerInstance
from .union import PairState
from .zoo import (
    Binary,
    Dual,
    Explicit,
    FamilySpec,
    Graphic,
    Minor,
    Partition,
    Sum,
    Uniform,
)


# Family specs nest through "dual", "minor" and "sum".  Every level adds
# stack frames to each rank query on the built handle, so the depth is
# capped well inside Python's recursion limit.
MAX_SPEC_DEPTH = 64

# A spec can name a huge ground set in a few bytes ("n" of a uniform
# matroid), so ground sets are capped at this many elements and graphs at
# this many vertices and edges, checked before any label tuple is built.
# A sum counts all of its parts against one cap.  The cap sits far past
# the sizes the algorithms handle in seconds (a 20 x 20 grid has 760 edges).
MAX_GROUND_SIZE = 10_000


def canonical_dumps(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise InputError("JSON nested too deeply to parse") from None


def _typed(value: Any, kind: type | tuple[type, ...], what: str) -> Any:
    """``value`` when it has the JSON type ``kind``; a bool never counts as an int."""
    if isinstance(value, bool) or not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        names = " or ".join(k.__name__ for k in kinds)
        raise InputError(f"{what} must be {names}, got {value!r}")
    return value


def _expect(obj: Any, key: str, kind: type) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"missing field {key!r} in {obj!r}")
    return _typed(obj[key], kind, f"field {key!r}")


def _check_size(count: int, what: str) -> int:
    if count > MAX_GROUND_SIZE:
        raise InputError(f"{what} has {count} elements, more than the cap of {MAX_GROUND_SIZE}")
    return count


def _labels(values: Any, what: str = "label list") -> tuple[str, ...]:
    """Element or vertex labels: JSON strings, or integers rendered with ``str``."""
    return tuple(str(_typed(x, (str, int), "a label")) for x in _typed(values, list, what))


# -- graphs ----------------------------------------------------------------


def graph_to_obj(g: Multigraph) -> dict:
    return {
        "vertices": list(g.vertex_labels),
        "edges": [
            [g.edge_labels[e], g.vertex_labels[u], g.vertex_labels[v]]
            for e, (u, v) in enumerate(g.endpoints)
        ],
    }


def graph_from_obj(obj: Any) -> Multigraph:
    vertices = _expect(obj, "vertices", list)
    edges = _expect(obj, "edges", list)
    _check_size(len(vertices), "graph vertex list")
    _check_size(len(edges), "graph edge list")
    triples = []
    for entry in edges:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise InputError(f"edge entries must be [label, endpoint, endpoint]: {entry!r}")
        triples.append(_labels(entry))
    return Multigraph.from_labels(_labels(vertices), triples)


# -- family specs ------------------------------------------------------------


def spec_to_obj(spec: FamilySpec) -> dict:
    if isinstance(spec, Uniform):
        out: dict[str, Any] = {"type": "uniform", "n": spec.n, "k": spec.k}
        if spec.labels is not None and tuple(spec.labels) != default_labels(spec.n):
            out["labels"] = list(spec.labels)
        return out
    if isinstance(spec, Partition):
        return {
            "type": "partition",
            "blocks": [list(b) for b in spec.blocks],
            "caps": list(spec.caps),
        }
    if isinstance(spec, Graphic):
        return {"type": "graphic", "graph": graph_to_obj(spec.graph)}
    if isinstance(spec, Binary):
        out = {"type": "binary", "matrix": [list(r) for r in spec.matrix]}
        width = len(spec.matrix[0]) if spec.matrix else 0
        if spec.labels is not None and tuple(spec.labels) != default_labels(width):
            out["labels"] = list(spec.labels)
        return out
    if isinstance(spec, Explicit):
        return {
            "type": "explicit",
            "ground": list(spec.ground),
            "independent": [sorted(m) for m in spec.independent],
        }
    if isinstance(spec, Sum):
        return {"type": "sum", "parts": [spec_to_obj(p) for p in spec.parts]}
    if isinstance(spec, Dual):
        return {"type": "dual", "of": spec_to_obj(spec.of)}
    if isinstance(spec, Minor):
        return {
            "type": "minor",
            "of": spec_to_obj(spec.of),
            "contract": sorted(spec.contract),
            "delete": sorted(spec.delete),
        }
    raise InputError(f"cannot serialize family spec {spec!r}")


def spec_from_obj(obj: Any) -> FamilySpec:
    """Parse a family spec, rejecting nesting deeper than MAX_SPEC_DEPTH levels
    and ground sets larger than MAX_GROUND_SIZE elements."""
    return _spec_from_obj(obj, 1)[0]


def _spec_from_obj(obj: Any, depth: int) -> tuple[FamilySpec, int]:
    """The spec and the size of the largest ground set building it makes."""
    if depth > MAX_SPEC_DEPTH:
        raise InputError(f"family spec nested deeper than {MAX_SPEC_DEPTH} levels")
    kind = _expect(obj, "type", str)
    if kind == "uniform":
        n = _check_size(_expect(obj, "n", int), "uniform matroid")
        labels = obj.get("labels")
        spec = Uniform(
            n=n,
            k=_expect(obj, "k", int),
            labels=_labels(labels) if labels is not None else None,
        )
        return spec, n
    if kind == "partition":
        blocks = _expect(obj, "blocks", list)
        caps = _expect(obj, "caps", list)
        blocks = [_typed(b, list, "a partition block") for b in blocks]
        size = _check_size(sum(map(len, blocks)), "partition")
        spec = Partition(
            blocks=tuple(_labels(b, "a partition block") for b in blocks),
            caps=tuple(_typed(c, int, "a partition cap") for c in caps),
        )
        return spec, size
    if kind == "graphic":
        graph = graph_from_obj(_expect(obj, "graph", dict))
        return Graphic(graph), graph.edge_count
    if kind == "binary":
        matrix = [_typed(row, list, "a matrix row") for row in _expect(obj, "matrix", list)]
        width = _check_size(len(matrix[0]) if matrix else 0, "binary matrix")
        labels = obj.get("labels")
        spec = Binary(
            matrix=tuple(tuple(_typed(x, int, "a matrix entry") for x in row) for row in matrix),
            labels=_labels(labels) if labels is not None else None,
        )
        return spec, width
    if kind == "explicit":
        ground = _expect(obj, "ground", list)
        size = _check_size(len(ground), "explicit system")
        members = _expect(obj, "independent", list)
        spec = Explicit(
            ground=_labels(ground),
            independent=tuple(_labels(m, "an independent set") for m in members),
        )
        return spec, size
    if kind == "sum":
        parts = []
        size = 0
        for p in _expect(obj, "parts", list):
            part, part_size = _spec_from_obj(p, depth + 1)
            parts.append(part)
            size = _check_size(size + part_size, "sum")
        return Sum(parts=tuple(parts)), size
    if kind == "dual":
        of, size = _spec_from_obj(_expect(obj, "of", dict), depth + 1)
        return Dual(of=of), size
    if kind == "minor":
        of, size = _spec_from_obj(_expect(obj, "of", dict), depth + 1)
        spec = Minor(
            of=of,
            contract=_labels(obj.get("contract", [])),
            delete=_labels(obj.get("delete", [])),
        )
        return spec, size
    raise InputError(f"unknown family type {kind!r}")


# -- certificates -------------------------------------------------------------


def intersection_cert_to_obj(cert: IntersectionCertificate, ground: GroundSet) -> dict:
    return {
        "I": ground.labels_of(cert.i),
        "J1": ground.labels_of(cert.j1),
        "J2": ground.labels_of(cert.j2),
        "size": len(cert.i),
    }


def intersection_cert_from_obj(obj: Any, ground: GroundSet) -> IntersectionCertificate:
    return IntersectionCertificate(
        i=ground.subset_from_labels(_labels(_expect(obj, "I", list))),
        j1=ground.subset_from_labels(_labels(_expect(obj, "J1", list))),
        j2=ground.subset_from_labels(_labels(_expect(obj, "J2", list))),
    )


def union_state_to_obj(state: PairState, ground: GroundSet) -> dict:
    return {
        "I1": ground.labels_of(state.i1),
        "I2": ground.labels_of(state.i2),
        "size": len(state.union),
        "union": ground.labels_of(state.union),
    }


def menger_cert_to_obj(cert: MengerCertificate, g: Multigraph) -> dict:
    return {
        "count": cert.count,
        "paths": [[g.vertex_labels[v] for v in p] for p in cert.paths],
        "separator": [g.vertex_labels[v] for v in sorted(cert.separator)],
    }


def menger_cert_from_obj(obj: Any, g: Multigraph) -> MengerCertificate:
    paths = _expect(obj, "paths", list)
    separator = _expect(obj, "separator", list)
    return MengerCertificate(
        paths=tuple(tuple(map(g.vertex_index, _labels(p, "a path"))) for p in paths),
        separator=frozenset(map(g.vertex_index, _labels(separator))),
    )


def menger_instance_to_obj(inst: MengerInstance) -> dict:
    return {
        "graph": graph_to_obj(inst.graph),
        "s": [inst.graph.vertex_labels[v] for v in sorted(inst.s)],
        "t": [inst.graph.vertex_labels[v] for v in sorted(inst.t)],
    }


def menger_instance_from_obj(obj: Any) -> MengerInstance:
    g = graph_from_obj(_expect(obj, "graph", dict))
    return MengerInstance.from_labels(
        g,
        _labels(_expect(obj, "s", list)),
        _labels(_expect(obj, "t", list)),
    )

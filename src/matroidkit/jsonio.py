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
    """Parse a family spec, rejecting nesting deeper than MAX_SPEC_DEPTH levels."""
    return _spec_from_obj(obj, 1)


def _spec_from_obj(obj: Any, depth: int) -> FamilySpec:
    if depth > MAX_SPEC_DEPTH:
        raise InputError(f"family spec nested deeper than {MAX_SPEC_DEPTH} levels")
    kind = _expect(obj, "type", str)
    if kind == "uniform":
        labels = obj.get("labels")
        return Uniform(
            n=_expect(obj, "n", int),
            k=_expect(obj, "k", int),
            labels=_labels(labels) if labels is not None else None,
        )
    if kind == "partition":
        blocks = _expect(obj, "blocks", list)
        caps = _expect(obj, "caps", list)
        return Partition(
            blocks=tuple(_labels(b, "a partition block") for b in blocks),
            caps=tuple(_typed(c, int, "a partition cap") for c in caps),
        )
    if kind == "graphic":
        return Graphic(graph_from_obj(_expect(obj, "graph", dict)))
    if kind == "binary":
        matrix = _expect(obj, "matrix", list)
        labels = obj.get("labels")
        return Binary(
            matrix=tuple(
                tuple(_typed(x, int, "a matrix entry") for x in _typed(row, list, "a matrix row"))
                for row in matrix
            ),
            labels=_labels(labels) if labels is not None else None,
        )
    if kind == "explicit":
        ground = _expect(obj, "ground", list)
        members = _expect(obj, "independent", list)
        return Explicit(
            ground=_labels(ground),
            independent=tuple(_labels(m, "an independent set") for m in members),
        )
    if kind == "sum":
        parts = _expect(obj, "parts", list)
        return Sum(parts=tuple(_spec_from_obj(p, depth + 1) for p in parts))
    if kind == "dual":
        return Dual(of=_spec_from_obj(_expect(obj, "of", dict), depth + 1))
    if kind == "minor":
        return Minor(
            of=_spec_from_obj(_expect(obj, "of", dict), depth + 1),
            contract=_labels(obj.get("contract", [])),
            delete=_labels(obj.get("delete", [])),
        )
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

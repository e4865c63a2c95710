"""Concrete matroid families, all exposed through the same oracle handle.

Families: uniform, partition, graphic (acyclic edge sets of a multigraph),
binary (column independence over GF(2)), explicit set systems, direct sums,
plus dual and minor wrappers for composing them.  Every family except the
explicit one supplies a native rank function; explicit systems keep their
membership predicate and rank through the core's greedy sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .axioms import ExplicitSystem
from .core import GroundSet, Matroid, default_labels
from .errors import InputError
from .graphs import Multigraph, UnionFind


@dataclass(frozen=True)
class Uniform:
    n: int
    k: int
    labels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks with per-block capacities; capacity 0 makes loops."""

    blocks: tuple[tuple[str, ...], ...]
    caps: tuple[int, ...]


@dataclass(frozen=True)
class Graphic:
    graph: Multigraph


@dataclass(frozen=True)
class Binary:
    """Rows of 0/1 entries; columns are the elements."""

    matrix: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Explicit:
    ground: tuple[str, ...]
    independent: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Sum:
    parts: tuple["FamilySpec", ...]


@dataclass(frozen=True)
class Dual:
    of: "FamilySpec"


@dataclass(frozen=True)
class Minor:
    of: "FamilySpec"
    contract: tuple[str, ...] = ()
    delete: tuple[str, ...] = ()


FamilySpec = Union[Uniform, Partition, Graphic, Binary, Explicit, Sum, Dual, Minor]


def _build_uniform(spec: Uniform) -> Matroid:
    if spec.n < 0 or spec.k < 0:
        raise InputError("uniform matroid needs n >= 0 and k >= 0")
    labels = spec.labels if spec.labels is not None else default_labels(spec.n)
    if len(labels) != spec.n:
        raise InputError("uniform labels must match the element count")
    ground = GroundSet(tuple(labels))
    k = spec.k

    def rank(xs: frozenset[int]) -> int:
        return min(len(xs), k)

    return Matroid(ground, provenance=f"uniform({spec.n},{spec.k})", rank=rank)


def _build_partition(spec: Partition) -> Matroid:
    """The ground set is the union of the blocks in label-sorted order, so
    block listing order never affects element ids."""
    if len(spec.blocks) != len(spec.caps):
        raise InputError("partition blocks and capacities disagree in length")
    if any(c < 0 for c in spec.caps):
        raise InputError("partition capacities must be non-negative")
    labels: list[str] = []
    for block in spec.blocks:
        labels.extend(block)
    if len(set(labels)) != len(labels):
        raise InputError("partition blocks overlap")
    ground = GroundSet(tuple(sorted(labels)))
    block_of: dict[int, int] = {}
    for bi, block in enumerate(spec.blocks):
        for lbl in block:
            block_of[ground.index(lbl)] = bi
    caps = spec.caps

    def rank(xs: frozenset[int]) -> int:
        counts = [0] * len(caps)
        for e in xs:
            counts[block_of[e]] += 1
        return sum(min(c, cap) for c, cap in zip(counts, caps))

    blocks_repr = "|".join(",".join(b) for b in spec.blocks)
    return Matroid(
        ground, provenance=f"partition({blocks_repr};caps={list(spec.caps)})", rank=rank
    )


def _build_graphic(spec: Graphic) -> Matroid:
    g = spec.graph
    ground = GroundSet(g.edge_labels)
    endpoints = g.endpoints

    def rank(xs: frozenset[int]) -> int:
        """Successful union-find merges; a loop never merges anything."""
        return UnionFind().merge_all(map(endpoints.__getitem__, xs))

    return Matroid(
        ground, provenance=f"graphic(V={g.vertex_count},E={g.edge_count})", rank=rank
    )


def _build_binary(spec: Binary) -> Matroid:
    if spec.matrix:
        width = len(spec.matrix[0])
        if any(len(row) != width for row in spec.matrix):
            raise InputError("binary matrix rows must have equal length")
    else:
        width = 0
    for row in spec.matrix:
        if any(entry not in (0, 1) for entry in row):
            raise InputError("binary matrix entries must be 0 or 1")
    labels = spec.labels if spec.labels is not None else default_labels(width)
    if len(labels) != width:
        raise InputError("binary labels must match the column count")
    ground = GroundSet(tuple(labels))
    columns = tuple(
        sum(spec.matrix[r][c] << r for r in range(len(spec.matrix)))
        for c in range(width)
    )

    def rank(xs: frozenset[int]) -> int:
        """Size of the GF(2) elimination basis, keyed by leading bit."""
        basis: dict[int, int] = {}
        for e in xs:
            v = columns[e]
            while v:
                high = v.bit_length() - 1
                if high not in basis:
                    basis[high] = v
                    break
                v ^= basis[high]
        return len(basis)

    return Matroid(ground, provenance=f"binary({len(spec.matrix)}x{width})", rank=rank)


def _build_explicit(spec: Explicit) -> Matroid:
    system = explicit_system(spec)
    members = system.member_set()

    def indep(xs: frozenset[int]) -> bool:
        return xs in members

    return Matroid(system.ground, indep, provenance=f"explicit(|I|={len(members)})")


def _build_sum(spec: Sum) -> Matroid:
    parts = [build(p) for p in spec.parts]
    labels: list[str] = []
    slices: list[tuple[int, int]] = []
    for part in parts:
        start = len(labels)
        labels.extend(part.ground.labels)
        slices.append((start, start + part.ground.size))
    ground = GroundSet(tuple(labels))  # rejects label clashes across parts

    def rank(xs: frozenset[int]) -> int:
        return sum(
            part._rank(frozenset(e - start for e in xs if start <= e < stop))
            for part, (start, stop) in zip(parts, slices)
        )

    inner = ",".join(p.provenance for p in parts)
    return Matroid(ground, provenance=f"sum({inner})", rank=rank)


def explicit_system(spec: Explicit) -> ExplicitSystem:
    ground = GroundSet(tuple(spec.ground))
    members = tuple(ground.subset_from_labels(m) for m in spec.independent)
    return ExplicitSystem(ground, members)


def build(spec: FamilySpec) -> Matroid:
    """Construct the oracle handle for a family description."""
    if isinstance(spec, Uniform):
        return _build_uniform(spec)
    if isinstance(spec, Partition):
        return _build_partition(spec)
    if isinstance(spec, Graphic):
        return _build_graphic(spec)
    if isinstance(spec, Binary):
        return _build_binary(spec)
    if isinstance(spec, Explicit):
        return _build_explicit(spec)
    if isinstance(spec, Sum):
        return _build_sum(spec)
    if isinstance(spec, Dual):
        return build(spec.of).dual()
    if isinstance(spec, Minor):
        base = build(spec.of)
        return base.minor(
            base.ground.subset_from_labels(spec.contract),
            base.ground.subset_from_labels(spec.delete),
        )
    raise InputError(f"unrecognized family spec: {spec!r}")

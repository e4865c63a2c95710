"""Concrete matroid families, all exposed through the same oracle handle.

Families: uniform, partition, graphic (acyclic edge sets of a multigraph),
binary (column independence over GF(2)), explicit set systems, direct sums,
plus dual and minor wrappers for composing them.  Every family except the
explicit one supplies a native rank function; explicit systems keep their
membership predicate and rank through the core's greedy sweep.  Uniform,
partition and graphic matroids also supply a native anchor, which answers
closure and fundamental circuits against one fixed set and follows that
set through one-element updates; U(n, k) uses the partition anchor on one
block of cap k.

Partition and uniform matroids also supply a native dual: the partition
on the same blocks with caps |B| - min(c, |B|), and U(n, n - min(k, n)).
Each keeps the ``dual(...)`` provenance, and its own dual is the original
family again.  Every other family's dual is the core's wrapper, answered
by rank identity and, over the graphic forest's cocircuits, by ``DualAnchor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Union

from .axioms import ExplicitSystem
from .core import GroundSet, Matroid, default_labels
from .errors import InputError
from .graphs import Multigraph


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


class BlockAnchor:
    """Partition anchor: answers from how many elements of ``a`` the block
    of ``x`` holds, counted on the first query of that block.

    Where ``a`` overfills a block, its base keeps the least ids there.  The
    updates work in place: they keep a base already found, and advance
    the counts taken so far.
    """

    __slots__ = ("_members", "_block_of", "_caps", "_anchored", "_base", "_held")

    def __init__(self, members, block_of, caps, a: frozenset[int]):
        self._members = members
        self._block_of = block_of
        self._caps = caps
        self._anchored = a
        self._base: frozenset[int] | None = None
        self._held: list[int | None] = [None] * len(caps)

    @property
    def base(self) -> frozenset[int]:
        if self._base is None:
            caps, block_of = self._caps, self._block_of
            kept = [0] * len(caps)
            base = []
            for e in sorted(self._anchored):
                bi = block_of[e]
                if kept[bi] < caps[bi]:
                    kept[bi] += 1
                    base.append(e)
            self._base = frozenset(base)
        return self._base

    def extends(self, x: int) -> bool:
        bi = self._block_of[x]
        held = self._held[bi]
        if held is None:
            held = self._held[bi] = len(self._anchored & self._members[bi])
        return held < self._caps[bi]

    def circuit(self, x: int) -> frozenset[int]:
        bi = self._block_of[x]
        inside = self._anchored & self._members[bi]
        if len(inside) > self._caps[bi]:
            inside = inside & self.base
        return inside | {x}

    def grow(self, x: int) -> "BlockAnchor":
        if self._base is not None:
            self._base = self._base | {x}
        self._anchored = self._anchored | {x}
        self._advance(x, 1)
        return self

    def exchange(self, y: int, z: int) -> "BlockAnchor":
        if self._base is not None:
            self._base = self._base - {z} | {y}
        self._anchored = self._anchored - {z} | {y}
        self._advance(z, -1)
        self._advance(y, 1)
        return self

    def _advance(self, x: int, step: int) -> None:
        bi = self._block_of[x]
        if self._held[bi] is not None:
            self._held[bi] += step


class ForestAnchor:
    """Graphic anchor: a rooted spanning forest of ``a`` with depths, built
    in one search.

    ``root`` names each vertex's tree (-1 off the forest), and ``up`` maps a
    vertex to its parent and the tree edge between them.  ``extends`` is a
    component test; ``circuit`` climbs the two tree paths from the ends of
    ``x`` to where they meet.

    The updates work in place on the forest, through its tree edges and
    tree sizes, which the first update collects.  ``grow`` hangs the
    smaller of the two trees it joins from the other one; ``exchange``
    cuts ``z`` and hangs the part that falls off back on through ``y``.
    Either way only the re-hung vertices change their parent and depth, and
    a base already read is carried along as ``base + x`` or ``base - z + y``.
    """

    __slots__ = ("_endpoints", "_incident", "_root", "_depth", "_up", "_base", "_tree", "_size")

    def __init__(self, endpoints, incident, a: frozenset[int]):
        adjacent: dict[int, list[tuple[int, int]]] = {}
        for e in a:
            u, v = endpoints[e]
            if u != v:
                adjacent.setdefault(u, []).append((v, e))
                adjacent.setdefault(v, []).append((u, e))
        root = [-1] * len(incident)
        depth = [0] * len(incident)
        up: dict[int, tuple[int, int]] = {}
        for start in adjacent:
            if root[start] >= 0:
                continue
            root[start] = start
            stack = [start]
            while stack:
                node = stack.pop()
                below = depth[node] + 1
                for nxt, e in adjacent[node]:
                    if root[nxt] < 0:
                        root[nxt] = start
                        depth[nxt] = below
                        up[nxt] = (node, e)
                        stack.append(nxt)
        self._endpoints, self._incident = endpoints, incident
        self._root, self._depth, self._up = root, depth, up
        self._base: frozenset[int] | None = None
        self._tree: dict[int, dict[int, int]] | None = None
        self._size: dict[int, int] | None = None

    @property
    def base(self) -> frozenset[int]:
        if self._base is None:
            self._base = frozenset(e for _, e in self._up.values())
        return self._base

    def extends(self, x: int) -> bool:
        u, v = self._endpoints[x]
        root = self._root
        return root[u] != root[v] or (root[u] < 0 and u != v)

    def circuit(self, x: int) -> frozenset[int]:
        u, v = self._endpoints[x]
        depth, up = self._depth, self._up
        path = [x]
        while depth[u] > depth[v]:
            u, e = up[u]
            path.append(e)
        while depth[v] > depth[u]:
            v, e = up[v]
            path.append(e)
        while u != v:
            u, e = up[u]
            path.append(e)
            v, e = up[v]
            path.append(e)
        return frozenset(path)

    def cocircuit(self, y: int) -> frozenset[int]:
        """The edges that leave the subtree below tree edge ``y``, which
        spans the rest of its component once the forest spans the graph,
        read from ``incident``: each vertex's ``(edge, far end)`` pairs over
        the graph's non-loop edges."""
        u, v = self._endpoints[y]
        top = u if self._depth[u] > self._depth[v] else v
        tree, incident = self._edges(), self._incident
        below = {top}
        stack = [(top, y)]
        while stack:
            node, came = stack.pop()
            for e, nxt in tree[node].items():
                if e != came:
                    below.add(nxt)
                    stack.append((nxt, e))
        return frozenset(e for w in below for e, far in incident[w] if far not in below)

    def _edges(self) -> dict[int, dict[int, int]]:
        """Each forest vertex's tree edges, mapped to their far ends; the
        first call also counts the vertices of each tree."""
        if self._tree is None:
            tree: dict[int, dict[int, int]] = {}
            for v, (p, e) in self._up.items():
                tree.setdefault(v, {})[e] = p
                tree.setdefault(p, {})[e] = v
            size: dict[int, int] = {}
            for r in self._root:
                if r >= 0:
                    size[r] = size.get(r, 0) + 1
            self._tree, self._size = tree, size
        return self._tree

    def _hang(self, top: int, parent: int, edge: int) -> None:
        """Link ``top`` to ``parent`` by tree edge ``edge`` and re-root the
        tree hanging from ``top`` below it: parent, depth and tree name."""
        tree, root, depth, up = self._edges(), self._root, self._depth, self._up
        tree.setdefault(top, {})[edge] = parent
        tree.setdefault(parent, {})[edge] = top
        name = root[parent]
        up[top] = (parent, edge)
        depth[top] = depth[parent] + 1
        root[top] = name
        stack = [(top, edge)]
        while stack:
            node, came = stack.pop()
            below = depth[node] + 1
            for e, nxt in tree[node].items():
                if e != came:
                    up[nxt] = (node, e)
                    depth[nxt] = below
                    root[nxt] = name
                    stack.append((nxt, e))

    def grow(self, x: int) -> "ForestAnchor":
        u, v = self._endpoints[x]
        self._edges()
        root, size = self._root, self._size
        for w in (u, v):
            if root[w] < 0:  # off the forest: a tree of its own
                root[w] = w
                size[w] = 1
        if size[root[u]] < size[root[v]]:
            u, v = v, u
        size[root[u]] += size.pop(root[v])
        self._hang(v, u, x)
        if self._base is not None:
            self._base = self._base | {x}
        return self

    def exchange(self, y: int, z: int) -> "ForestAnchor":
        depth, up = self._depth, self._up
        a, b = self._endpoints[z]
        cut = a if depth[a] > depth[b] else b  # the lower end of z
        tree = self._edges()
        del tree[a][z], tree[b][z]
        top, parent = self._endpoints[y]
        w = top
        while depth[w] > depth[cut]:
            w = up[w][0]
        if w != cut:  # exactly one end of y lies below the cut; hang it from the other
            top, parent = parent, top
        self._hang(top, parent, y)
        if self._base is not None:
            self._base = self._base - {z} | {y}
        return self


def _build_uniform(spec: Uniform) -> Matroid:
    if spec.n < 0 or spec.k < 0:
        raise InputError("uniform matroid needs n >= 0 and k >= 0")
    labels = spec.labels if spec.labels is not None else default_labels(spec.n)
    if len(labels) != spec.n:
        raise InputError("uniform labels must match the element count")
    provenance = f"uniform({spec.n},{spec.k})"
    co_k = spec.n - min(spec.k, spec.n)
    return _uniform_matroid(
        GroundSet(tuple(labels)), spec.k, co_k, provenance, f"dual({provenance})"
    )


def _uniform_matroid(
    ground: GroundSet, k: int, co_k: int, provenance: str, dual_provenance: str
) -> Matroid:
    """U(n, k), whose dual U(n, co_k) is built from the same plain data with
    the two ranks and the two provenances swapped.  The anchor is the block
    anchor of the whole ground set as one block of cap k; the rank kernel
    stays O(1) rather than counting down that block."""

    def rank(xs: frozenset[int]) -> int:
        return min(len(xs), k)

    dual = partial(_uniform_matroid, ground, co_k, k, dual_provenance, provenance)
    return Matroid(
        ground,
        provenance=provenance,
        rank=rank,
        anchor=partial(BlockAnchor, (ground.full(),), (0,) * ground.size, (k,)),
        dual=dual,
    )


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
    members = tuple(frozenset(ground.index(lbl) for lbl in block) for block in spec.blocks)
    block_index = {lbl: bi for bi, block in enumerate(spec.blocks) for lbl in block}
    block_of = tuple(block_index[lbl] for lbl in ground.labels)
    blocks_repr = "|".join(",".join(b) for b in spec.blocks)
    provenance = f"partition({blocks_repr};caps={list(spec.caps)})"
    co_caps = tuple(len(block) - min(c, len(block)) for block, c in zip(members, spec.caps))
    return _partition_matroid(
        ground, members, block_of, spec.caps, co_caps, provenance, f"dual({provenance})"
    )


def _partition_matroid(
    ground: GroundSet,
    members: tuple[frozenset[int], ...],
    block_of: tuple[int, ...],
    caps: tuple[int, ...],
    co_caps: tuple[int, ...],
    provenance: str,
    dual_provenance: str,
) -> Matroid:
    """The partition handle; its dual is the partition on the same blocks
    with caps ``co_caps``, built from the same plain data with the two cap
    tuples and the two provenances swapped."""

    def rank(xs: frozenset[int]) -> int:
        """Count down each block's remaining capacity over ``xs`` alone."""
        left = list(caps)
        taken = 0
        for e in xs:
            bi = block_of[e]
            if left[bi]:
                left[bi] -= 1
                taken += 1
        return taken

    dual = partial(
        _partition_matroid, ground, members, block_of, co_caps, caps, dual_provenance, provenance
    )
    return Matroid(
        ground,
        provenance=provenance,
        rank=rank,
        anchor=partial(BlockAnchor, members, block_of, caps),
        dual=dual,
    )


def _build_graphic(spec: Graphic) -> Matroid:
    g = spec.graph
    ground = GroundSet(g.edge_labels)
    endpoints = g.endpoints
    roots = tuple(g.vertices())  # list(range(n)) per call would make every int past 256 anew
    incident: tuple[list[tuple[int, int]], ...] = tuple([] for _ in roots)
    for e, (u, v) in enumerate(endpoints):
        if u != v:
            incident[u].append((e, v))
            incident[v].append((e, u))

    def rank(xs: frozenset[int]) -> int:
        """Successful merges of an array union-find with path halving; a
        loop never merges anything."""
        parent = list(roots)
        merged = 0
        for e in xs:
            u, v = endpoints[e]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[v] = u
                merged += 1
        return merged

    return Matroid(
        ground,
        provenance=f"graphic(V={g.vertex_count},E={g.edge_count})",
        rank=rank,
        anchor=partial(ForestAnchor, endpoints, incident),
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

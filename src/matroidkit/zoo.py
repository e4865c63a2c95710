"""Concrete matroid families, all exposed through the same oracle handle.

Families: uniform, partition, graphic (acyclic edge sets of a multigraph),
binary (column independence over GF(2)), explicit set systems, direct sums,
plus dual and minor wrappers for composing them.  Every family supplies a
native rank function; an explicit system's is the greedy membership sweep,
and only systems on which that sweep accepts exactly the listed sets are
built.  Uniform, partition, graphic and cographic matroids also supply a
native anchor, which answers closure and fundamental circuits against one
fixed set and follows that set through one-element updates; the graphic
and the cographic anchor both root their spanning forest with one search,
``graphs.rooted_forest``, over the incidence lists the graphic handle
builds once.  U(n, k) is built as the partition with one block of cap k,
under its own provenance, and ranks as every partition does, counting
each block's cap down.

Partition, uniform, graphic and cographic handles also supply exact
one-pass tests for the union's chain re-check (``Matroid``'s
``is_circuit=`` and ``extends=`` hooks): a block-size test for both
questions on the partition side, a cycle test for graphic circuits, and
on the cographic side one two-sided search from the ends of an edge,
which answers both the bond test and the bridge test.  The graphic 'add'
question stays a rank evaluation.

Partition and uniform matroids also supply a native dual: the partition
on the same blocks with caps |B| - min(c, |B|), and U(n, n - min(k, n)).
Each keeps the ``dual(...)`` provenance, and its own dual is an equal
handle of the original family.  The graphic family builds its cographic
dual with the core's ``dual_matroid``, which also builds the rank-only
wrapper: rank by the dual identity, the graphic handle as its dual, and
this module's hooks.  Every hook is a module function bound with
``partial`` over the family's plain data, and the cographic ones over the
graphic handle too, so no handle holds a reference back to itself.  The
cographic anchor at a co-independent ``b`` is
``CotreeAnchor``: the graphic matroid's standard form [I | D] over a
spanning forest B0 of E - b, whose rows are the fundamental cocircuits
and whose columns are the fundamental circuits, kept as int bitmasks over
E.  Both queries read one row, and a change of B0 is a pivot, which XORs
one row into the rows on a circuit and one column into the columns on a
cocircuit.  Where ``b`` is dependent, so B0 does not span, the hook
declines and the core anchors ``b`` with ``RankAnchor``.  Every other
family's dual is the core's rank-only wrapper, whose own dual is the very
handle it wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Union

from .axioms import ExplicitSystem, check_downward_closure
from .core import GroundSet, Matroid, default_labels, dual_matroid
from .errors import InputError, InternalInvariantError
from .graphs import Multigraph, incidence, rooted_forest


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

    Where ``a`` overfills a block, its base keeps the least ids there, and
    so does a circuit in that block.  The updates work in place: they
    advance the counts taken so far.
    """

    __slots__ = ("_members", "_block_of", "_caps", "_anchored", "_held")

    def __init__(self, members, block_of, caps, a: frozenset[int]):
        self._members = members
        self._block_of = block_of
        self._caps = caps
        self._anchored = a
        self._held: list[int | None] = [None] * len(caps)

    @property
    def base(self) -> frozenset[int]:
        caps, block_of = self._caps, self._block_of
        kept = [0] * len(caps)
        base = []
        for e in sorted(self._anchored):
            bi = block_of[e]
            if kept[bi] < caps[bi]:
                kept[bi] += 1
                base.append(e)
        return frozenset(base)

    def extends(self, x: int) -> bool:
        bi = self._block_of[x]
        held = self._held[bi]
        if held is None:
            held = self._held[bi] = len(self._anchored & self._members[bi])
        return held < self._caps[bi]

    def circuit(self, x: int) -> frozenset[int]:
        bi = self._block_of[x]
        inside = self._anchored & self._members[bi]
        cap = self._caps[bi]
        if len(inside) > cap:
            inside = frozenset(sorted(inside)[:cap])
        return inside | {x}

    def grow(self, x: int) -> "BlockAnchor":
        self._anchored = self._anchored | {x}
        self._advance(x, 1)
        return self

    def exchange(self, y: int, z: int) -> "BlockAnchor":
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
    by ``graphs.rooted_forest`` over ``incident``, the graph's
    ``graphs.incidence`` lists, with only the edges of ``a`` kept.  Every
    vertex lies on a tree, an isolated one alone.

    ``_root`` names each vertex's tree, ``_parent`` and ``_up`` give its
    parent and the tree edge between them (-1 at a root), and ``_on`` flags
    the tree edges; ``_size`` counts a tree's vertices at its root.
    ``extends`` is a component test; ``circuit`` climbs the two tree paths
    from the ends of ``x`` to where they meet.

    The updates work in place, walking ``incident`` over the flagged edges.
    ``grow`` hangs the smaller of the two trees it joins from the other
    one; ``exchange`` cuts ``z`` and hangs the part that falls off back on
    through ``y``.  Either way only the re-hung vertices change their
    parent and depth.  ``base`` is read off the tree edges in ``_up``.
    """

    __slots__ = ("_endpoints", "_incident", "_root", "_depth", "_size", "_parent", "_up", "_on")

    def __init__(self, endpoints, incident, a: frozenset[int]):
        keep, on = bytearray(len(endpoints)), bytearray(len(endpoints))
        for e in a:
            keep[e] = 1
        order, parent, up = rooted_forest(incident, keep)
        n = len(incident)
        root, depth, size = list(range(n)), [0] * n, [0] * n
        for v in order:
            p = parent[v]
            if p >= 0:
                root[v] = root[p]
                depth[v] = depth[p] + 1
                on[up[v]] = 1
            size[root[v]] += 1
        self._endpoints, self._incident = endpoints, incident
        self._root, self._depth, self._size = root, depth, size
        self._parent, self._up, self._on = parent, up, on

    @property
    def base(self) -> frozenset[int]:
        return frozenset(e for e in self._up if e >= 0)

    def extends(self, x: int) -> bool:
        u, v = self._endpoints[x]
        return self._root[u] != self._root[v]

    def circuit(self, x: int) -> frozenset[int]:
        u, v = self._endpoints[x]
        depth, parent, up = self._depth, self._parent, self._up
        path = [x]
        while depth[u] > depth[v]:
            path.append(up[u])
            u = parent[u]
        while depth[v] > depth[u]:
            path.append(up[v])
            v = parent[v]
        while u != v:
            path.append(up[u])
            path.append(up[v])
            u, v = parent[u], parent[v]
        return frozenset(path)

    def _hang(self, top: int, parent: int, edge: int) -> None:
        """Link ``top`` to ``parent`` by tree edge ``edge`` and re-root the
        tree hanging from ``top`` below it: parent, depth and tree name.
        A walk that reaches ``parent`` went round a cycle that ``edge``
        closed, an update outside the anchor contract."""
        on, root, depth, up, above = self._on, self._root, self._depth, self._up, self._parent
        incident = self._incident
        on[edge] = 1
        name = root[parent]
        above[top], up[top] = parent, edge
        depth[top] = depth[parent] + 1
        root[top] = name
        stack = [(top, edge)]
        while stack:
            node, came = stack.pop()
            below = depth[node] + 1
            for e, nxt in incident[node]:
                if on[e] and e != came:
                    if nxt == parent:
                        raise InternalInvariantError("a forest update closed a cycle")
                    above[nxt], up[nxt] = node, e
                    depth[nxt] = below
                    root[nxt] = name
                    stack.append((nxt, e))

    def grow(self, x: int) -> "ForestAnchor":
        u, v = self._endpoints[x]
        if u == v:  # a loop closes its cycle without a walk for _hang to see
            raise InternalInvariantError("a forest update closed a cycle")
        root, size = self._root, self._size
        if size[root[u]] < size[root[v]]:
            u, v = v, u
        size[root[u]] += size[root[v]]
        self._hang(v, u, x)
        return self

    def exchange(self, y: int, z: int) -> "ForestAnchor":
        depth, parent = self._depth, self._parent
        a, b = self._endpoints[z]
        cut = a if depth[a] > depth[b] else b  # the lower end of z
        self._on[z] = 0
        top, far = self._endpoints[y]
        w = top
        while depth[w] > depth[cut]:
            w = parent[w]
        if w != cut:  # exactly one end of y lies below the cut; hang it from the other
            top, far = far, top
        self._hang(top, far, y)
        return self


def _ids(mask: int) -> list[int]:
    """The set bits of ``mask``, highest first.  Clearing the highest bit
    each time shrinks the int as it goes, which on long sparse masks beats
    splitting off the lowest bit."""
    ids = []
    while mask:
        e = mask.bit_length() - 1
        ids.append(e)
        mask ^= 1 << e
    return ids


class CotreeAnchor:
    """Cographic anchor at ``b``: the graphic matroid's standard form
    [I | D] over a spanning forest B0 of E - b, with the elements of B0 on
    the identity (Oxley, *Matroid Theory*, 2nd ed., §2.2), kept as int
    bitmasks over E, bit ``e`` for edge ``e``.

    ``_fund[e]`` is the row of D of a tree edge, its fundamental cocircuit
    C*(B0, e): ``e`` and the edges off B0 that leave the subtree below it.
    For any other edge it is the column, its fundamental circuit C(B0, e):
    ``e`` and the tree path between its ends.  A loop's column is the loop
    alone, and a loop lies on no row.  The build is linear: one
    ``graphs.rooted_forest`` search over E - b lists the forest's vertices
    parents first; each tree edge's row is one bottom-up XOR, over the subtree
    below it, of each vertex's mask of the non-tree edges at it; each other
    edge's column is the XOR of the root-path masks of its two ends.
    ``rank`` is |B0|, the rank of E - b, so ``b`` is co-independent exactly
    when it equals r(E); only then do the answers below hold.

    ``b + x`` stays co-independent exactly when E - b - x still spans: ``x``
    lies off B0, or its row has a bit outside b + x.  Otherwise that row
    lies inside b + x and is the circuit of ``x``; its element set is kept
    until the row next changes.

    A change of B0 is a pivot of the standard form (``_pivot``).  ``grow(z)``
    of a tree edge pivots ``z`` out for the least edge of its row outside
    b + z, and ``exchange(y, z)`` pivots ``y`` out for ``z``; a grow by an
    edge off B0 keeps B0.  An update outside the anchor contract raises
    InternalInvariantError and leaves the anchor as it was.
    """

    __slots__ = ("rank", "_fund", "_tree", "_b", "_sets")

    def __init__(self, endpoints, incident, b: frozenset[int]):
        size, n = len(endpoints), len(incident)
        keep, packed = bytearray(b"\x01") * size, bytearray((size >> 3) + 1)
        for e in b:
            keep[e] = 0
            packed[e >> 3] |= 1 << (e & 7)
        order, parent, up = rooted_forest(incident, keep)
        tree, path = bytearray(size), [0] * n
        for v in order:
            e = up[v]
            if e >= 0:
                tree[e] = 1
                path[v] = path[parent[v]] | 1 << e
        leaving, fund = [0] * n, [0] * size
        for e, (u, v) in enumerate(endpoints):
            if not tree[e]:
                # A loop is XORed twice into its one vertex, so it lies on no row.
                bit = 1 << e
                leaving[u] ^= bit
                leaving[v] ^= bit
                fund[e] = path[u] ^ path[v] | bit
        for v in reversed(order):
            e = up[v]
            if e >= 0:
                fund[e] = leaving[v] | 1 << e
                leaving[parent[v]] ^= leaving[v]
        self.rank = sum(tree)
        self._fund, self._tree = fund, tree
        self._b = int.from_bytes(packed, "little")
        self._sets: dict[int, frozenset[int]] = {}

    @property
    def base(self) -> frozenset[int]:
        return frozenset(_ids(self._b))

    def extends(self, x: int) -> bool:
        return not self._tree[x] or self._fund[x] & ~self._b != 1 << x

    def circuit(self, x: int) -> frozenset[int]:
        c = self._sets.get(x)
        if c is None:
            c = self._sets[x] = frozenset(_ids(self._fund[x]))
        return c

    def grow(self, z: int) -> "CotreeAnchor":
        if self._tree[z]:
            free = (self._fund[z] & ~self._b) ^ 1 << z
            if not free:
                raise InternalInvariantError("a cotree grow took a bridge of E - b")
            self._pivot(z, (free & -free).bit_length() - 1)
        self._b |= 1 << z
        return self

    def exchange(self, y: int, z: int) -> "CotreeAnchor":
        if not (self._tree[y] and self._fund[y] >> z & 1 and self._b >> z & 1):
            raise InternalInvariantError("a cotree exchange took z off the cocircuit of y")
        self._pivot(y, z)
        self._b ^= 1 << y | 1 << z
        return self

    def _pivot(self, out: int, into: int) -> None:
        """Trade ``out`` on B0 for ``into`` on its row.  Only the rows of the
        tree edges on C(B0, into) take in the row of ``out``, and only the
        columns of the edges on C*(B0, out) take in the column of ``into``;
        both XORs keep the diagonal bits right.  Then ``into`` takes over
        the row of ``out``, and ``out`` the column of ``into``."""
        fund, sets = self._fund, self._sets
        row, col = fund[out], fund[into]
        ends = 1 << out | 1 << into
        for t in _ids(col ^ ends):
            fund[t] ^= row
            sets.pop(t, None)
        for h in _ids(row ^ ends):
            fund[h] ^= col
        fund[out], fund[into] = col, row
        self._tree[out], self._tree[into] = 0, 1
        if out in sets:
            sets[into] = sets.pop(out)


# Exact one-pass answers to the union re-check's two questions, bound with
# ``partial`` over each family's plain data (``Matroid``'s ``is_circuit=``
# and ``extends=`` hooks).  They share no code with the anchors above, so a
# faulty anchor still meets an independent check.


def _is_block_circuit(members, block_of, caps, c: frozenset[int], known: int) -> bool:
    """Partition circuit: ``c`` lies inside the block B of ``known`` and
    holds cap(B) + 1 elements."""
    bi = block_of[known]
    return len(c) == caps[bi] + 1 and c <= members[bi]


def _block_has_room(members, block_of, caps, part: frozenset[int], x: int) -> bool:
    """Whether independent ``part`` plus ``x`` stays independent: the block of
    ``x`` holds fewer than its cap of ``part``."""
    bi = block_of[x]
    return len(part & members[bi]) < caps[bi]


def _is_cycle(endpoints, c: frozenset[int], known: int) -> bool:
    """Graphic circuit: a single loop, or loop-free edges that meet every
    vertex they touch exactly twice and form one connected walk."""
    ends: dict[int, list[int]] = {}
    for e in c:
        u, v = endpoints[e]
        if u == v:
            return len(c) == 1
        ends.setdefault(u, []).append(e)
        ends.setdefault(v, []).append(e)
    if any(len(at) != 2 for at in ends.values()):
        return False
    # Every vertex has degree 2, so the walk from one vertex closes after
    # going once round its cycle, which is all of c exactly when c is connected.
    start = node = next(iter(ends))
    came, walked = -1, 0
    while True:
        e, f = ends[node]
        if e == came:
            e = f
        u, v = endpoints[e]
        node = v if u == node else u
        came = e
        walked += 1
        if node == start:
            return walked == len(c)


def _dry_side(endpoints, incident, cut: frozenset[int], x: int) -> set[int] | None:
    """Search E - cut - x from the two ends of the loop-free edge ``x``, one
    node from each side in turn.  None when the two sides meet; otherwise
    the vertices of the side that ran dry first, a whole component of
    E - cut - x that holds one end of ``x``.  Taking turns, neither side
    expands more nodes than the dry side holds, plus one (the balancing of
    Even and Shiloach, J. ACM 28, 1981)."""
    u, v = endpoints[x]
    mine, theirs = {u}, {v}
    stack, other = [u], [v]
    while stack:
        for e, far in incident[stack.pop()]:
            if far not in mine and e != x and e not in cut:
                if far in theirs:
                    return None
                mine.add(far)
                stack.append(far)
        mine, theirs, stack, other = theirs, mine, other, stack
    return mine


def _is_bond(endpoints, incident, c: frozenset[int], known: int) -> bool:
    """Cographic circuit, for a ``c`` with ``c - known`` co-independent: then
    E - c + known spans, so E - c splits at most one component in two, and
    ``c`` is a bond exactly when it does, at ``known``, and every edge of
    ``c`` crosses between the two pieces."""
    u, v = endpoints[known]
    if u == v:
        return False
    dry = _dry_side(endpoints, incident, c, known)
    return dry is not None and all((endpoints[e][0] in dry) != (endpoints[e][1] in dry) for e in c)


def _is_no_bridge(endpoints, incident, part: frozenset[int], x: int) -> bool:
    """Whether co-independent ``part`` plus ``x`` stays co-independent: ``x``
    is a loop, or no bridge of E - part, where the two sides of ``x`` meet."""
    u, v = endpoints[x]
    return u == v or _dry_side(endpoints, incident, part, x) is None


def _build_uniform(spec: Uniform) -> Matroid:
    if spec.n < 0 or spec.k < 0:
        raise InputError("uniform matroid needs n >= 0 and k >= 0")
    labels = spec.labels if spec.labels is not None else default_labels(spec.n)
    if len(labels) != spec.n:
        raise InputError("uniform labels must match the element count")
    provenance = f"uniform({spec.n},{spec.k})"
    ground = GroundSet(tuple(labels))
    co_k = spec.n - min(spec.k, spec.n)
    return _partition_matroid(
        ground, (ground.full(),), (0,) * spec.n, (spec.k,), (co_k,), provenance,
        f"dual({provenance})",
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
    ids = ground._ids
    members = []
    block_of = [0] * len(labels)
    for bi, block in enumerate(spec.blocks):
        block_ids = frozenset([ids[lbl] for lbl in block])
        for e in block_ids:
            block_of[e] = bi
        members.append(block_ids)
    members, block_of = tuple(members), tuple(block_of)
    blocks_repr = "|".join(map(",".join, spec.blocks))
    provenance = f"partition({blocks_repr};caps={list(spec.caps)})"
    co_caps = tuple([len(block) - min(c, len(block)) for block, c in zip(members, spec.caps)])
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
    """The partition handle, whose rank counts each block's capacity down
    over X.  Its dual is the partition on the same blocks with caps
    ``co_caps``, built from the same plain data with the two cap tuples and
    the two provenances swapped."""

    def rank(xs: frozenset[int]) -> int:
        left = list(caps)
        taken = 0
        for e in xs:
            bi = block_of[e]
            if left[bi]:
                left[bi] -= 1
                taken += 1
        return taken

    dual_data = (ground, members, block_of, co_caps, caps, dual_provenance, provenance)
    return Matroid(
        ground,
        provenance=provenance,
        rank=rank,
        anchor=partial(BlockAnchor, members, block_of, caps),
        dual=partial(_partition_dual, dual_data),
        is_circuit=partial(_is_block_circuit, members, block_of, caps),
        extends=partial(_block_has_room, members, block_of, caps),
    )


def _partition_dual(dual_data: tuple, primal: Matroid) -> Matroid:
    """The ``dual=`` hook of a partition handle: the partition that
    ``_partition_matroid`` builds from ``dual_data``, which needs nothing
    of the handle ``primal`` it receives."""
    return _partition_matroid(*dual_data)


def graphic_matroid(
    ground: GroundSet, endpoints: tuple[tuple[int, int], ...], n: int
) -> Matroid:
    """The graphic matroid of the multigraph on vertices ``0 .. n-1`` whose
    edge ``e``, the ground element ``e``, joins ``endpoints[e]``.  The
    endpoints must be valid vertex ids, one pair per element of ``ground``;
    they are not checked here.  ``build(Graphic(g))`` calls it with ``g``'s
    own edges, and ``menger.reduce`` with the contracted edges it numbers."""
    roots = tuple(range(n))  # list(range(n)) per call would make every int past 256 anew
    incident = incidence(endpoints, n, range(len(endpoints)))

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
        provenance=f"graphic(V={n},E={len(endpoints)})",
        rank=rank,
        anchor=partial(ForestAnchor, endpoints, incident),
        dual=partial(_cographic, endpoints, incident),
        is_circuit=partial(_is_cycle, endpoints),
    )


def _cographic(endpoints, incident, graphic: Matroid) -> Matroid:
    """The ``dual=`` hook of a graphic handle: the cographic handle, which
    asks every rank of ``graphic`` itself and anchors through
    ``_cotree_anchor``."""
    return dual_matroid(
        graphic,
        anchor=partial(_cotree_anchor, endpoints, incident, graphic),
        is_circuit=partial(_is_bond, endpoints, incident),
        extends=partial(_is_no_bridge, endpoints, incident),
    )


def _cotree_anchor(
    endpoints, incident, graphic: Matroid, b: frozenset[int]
) -> CotreeAnchor | None:
    """The cographic anchor of a co-independent ``b``; None, which leaves
    ``b`` to ``RankAnchor``, where the forest of E - b that the anchor built
    does not span ``graphic``."""
    cotree = CotreeAnchor(endpoints, incident, b)
    return None if cotree.rank < graphic._ground_rank() else cotree


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
    """Rank is the greedy membership sweep in id order, which on a system
    that lists the empty set and is closed under removing one element
    accepts exactly the listed sets.  Any other system is rejected here,
    through the closure check ``check_axioms`` runs, so the error names
    the missing subset of its i2 witness; only ``check-axioms`` reads such
    a system as given."""
    system = explicit_system(spec)
    members = system.member_set()
    if frozenset() not in members:
        raise InputError("explicit system does not list the empty set")
    closed, witness = check_downward_closure(system)
    if not closed:
        member, missing = witness
        raise InputError(
            f"explicit system lists {system.ground.labels_of(member)} "
            f"but not its subset {system.ground.labels_of(missing)}"
        )

    def rank(xs: frozenset[int]) -> int:
        current = frozenset()
        for e in sorted(xs):
            grown = current | {e}
            if grown in members:
                current = grown
        return len(current)

    return Matroid(system.ground, provenance=f"explicit(|I|={len(members)})", rank=rank)


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
        g = spec.graph
        return graphic_matroid(GroundSet(g.edge_labels), g.endpoints, g.vertex_count)
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

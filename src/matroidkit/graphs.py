"""Finite labeled multigraphs: loops and parallel edges are first class."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .core import id_subset
from .errors import InputError


def breadth_first(
    starts: Iterable[int], successors: Callable[[int], Iterable[int]], parents: dict[int, int]
) -> Iterator[list[int]]:
    """Yield the breadth-first layers from ``starts``, each sorted by id.

    A layer is expanded in increasing id order, and ``successors`` may give
    a node's successors in any order: every node reached after the first
    layer is recorded in ``parents`` under the least node of the layer
    before that reaches it; the starts never are.  So neither the layers nor
    the parents depend on that order, and the first node of a layer that
    meets a test is the least one.  A layer is expanded only when the next
    one is requested, so a caller may stop at, or prune, the layer in hand.
    """
    layer = sorted(set(starts))
    seen = set(layer)
    while layer:
        yield layer
        reached = []
        for node in layer:
            for nxt in successors(node):
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = node
                    reached.append(nxt)
        layer = sorted(reached)


def path_to(parents: dict[int, int], node: int) -> list[int]:
    """The nodes from the start of the search down to ``node``."""
    path = [node]
    while path[-1] in parents:
        path.append(parents[path[-1]])
    path.reverse()
    return path


@dataclass(frozen=True)
class Multigraph:
    """Vertices and edges carry dense ids; labels are for display and I/O."""

    vertex_labels: tuple[str, ...]
    endpoints: tuple[tuple[int, int], ...]
    edge_labels: tuple[str, ...]
    _vertex_ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = {lbl: v for v, lbl in enumerate(self.vertex_labels)}
        object.__setattr__(self, "_vertex_ids", ids)
        if len(ids) != len(self.vertex_labels):
            raise InputError("vertex labels are not pairwise distinct")
        if len(set(self.edge_labels)) != len(self.edge_labels):
            raise InputError("edge labels are not pairwise distinct")
        if len(self.endpoints) != len(self.edge_labels):
            raise InputError("edge labels and endpoints disagree in length")
        n = len(self.vertex_labels)
        for u, v in self.endpoints:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge endpoint ({u}, {v}) references a missing vertex")

    @classmethod
    def from_labels(
        cls, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]
    ) -> "Multigraph":
        """Build from (edge label, endpoint label, endpoint label) triples."""
        vlabels = tuple(vertices)
        index = {lbl: i for i, lbl in enumerate(vlabels)}
        elabels = []
        ends = []
        for name, u, v in edges:
            if u not in index or v not in index:
                raise InputError(f"edge {name!r} references missing vertex {u!r} or {v!r}")
            elabels.append(name)
            ends.append((index[u], index[v]))
        return cls(vlabels, tuple(ends), tuple(elabels))

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_labels)

    @property
    def edge_count(self) -> int:
        return len(self.edge_labels)

    def vertices(self) -> range:
        return range(len(self.vertex_labels))

    def edges(self) -> range:
        return range(len(self.edge_labels))

    def vertex_index(self, label: str) -> int:
        try:
            return self._vertex_ids[label]
        except (KeyError, TypeError):
            raise InputError(f"unknown vertex label {label!r}") from None

    def vertex_subset(self, xs: Iterable[int]) -> frozenset[int]:
        return id_subset(xs, len(self.vertex_labels), "vertex {!r} outside graph")

    def edge_subset(self, xs: Iterable[int]) -> frozenset[int]:
        return id_subset(xs, len(self.edge_labels), "edge {!r} outside graph")


def incidence(
    endpoints: tuple[tuple[int, int], ...], n: int, edges: Iterable[int]
) -> list[list[tuple[int, int]]]:
    """Each of the ``n`` vertices' ``(edge, far end)`` pairs over ``edges``,
    in the order the edges are given; a loop is listed once, with its own
    vertex as the far end.  The components, the certificate forest's
    S-T paths, the cographic tests and, through ``rooted_forest``, both
    graphic anchors read these."""
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in edges:
        u, v = endpoints[e]
        incident[u].append((e, v))
        if v != u:
            incident[v].append((e, u))
    return incident


def rooted_forest(
    incident: list[list[tuple[int, int]]], keep
) -> tuple[list[int], list[int], list[int]]:
    """A spanning forest of the edges ``e`` with ``keep[e]``, read from
    ``incident``, a graph's ``graphs.incidence`` lists: one breadth-first
    search per tree, its roots taken in vertex-id order, so every vertex
    lies on a tree, an isolated one alone.  Returns ``(order, parent,
    up)``: every vertex, each tree's root first and each parent before its
    children, and each vertex's parent and parent edge, -1 at a root.  A
    loop is never taken, because its far end, its own vertex, is reached."""
    n = len(incident)
    parent, up = [-1] * n, [-1] * n
    order, seen, done = [], bytearray(n), 0
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        order.append(root)
        while done < len(order):
            node = order[done]
            done += 1
            for e, far in incident[node]:
                if not seen[far] and keep[e]:
                    seen[far] = 1
                    parent[far], up[far] = node, e
                    order.append(far)
    return order, parent, up


@dataclass(frozen=True)
class Component:
    """A connected piece of an edge-spanned subgraph."""

    vertices: frozenset[int]
    edges: frozenset[int]
    is_tree: bool


def graphic_components(g: Multigraph, edge_subset: Iterable[int]) -> list[Component]:
    """Connected components of the subgraph spanned by the given edges,
    ordered by least vertex; ``menger.separator_from_partition`` relies on
    that order.

    Isolated vertices are omitted; a component is a tree exactly when its
    edge count is one less than its vertex count (loops therefore never
    appear in trees).  The incidence lists are built once, and each
    component is taken by one stack search from its least vertex, which
    collects its edges on the way.
    """
    incident = incidence(g.endpoints, g.vertex_count, g.edge_subset(edge_subset))
    seen = [False] * g.vertex_count
    out = []
    for root, at in enumerate(incident):
        if seen[root] or not at:
            continue
        seen[root] = True
        vertices, edges, stack = [root], set(), [root]
        while stack:
            for e, y in incident[stack.pop()]:
                edges.add(e)
                if not seen[y]:
                    seen[y] = True
                    vertices.append(y)
                    stack.append(y)
        is_tree = len(edges) == len(vertices) - 1
        out.append(Component(frozenset(vertices), frozenset(edges), is_tree))
    return out


def merge_map(order: Iterable[int], merged: frozenset[int]) -> dict[int, int]:
    """Each vertex of ``order`` mapped to its number when the vertices are
    numbered from 0 in that order, with the ``merged`` ones as one vertex
    at the place of the least of them.  ``merged`` must be a nonempty subset of
    ``order``; it is not checked here.  ``identify_vertices`` and
    ``menger.reduce`` number their contracted graphs with it."""
    anchor = min(merged)
    vmap: dict[int, int] = {}
    n = 0
    for v in order:
        if v in merged and v != anchor:
            continue
        vmap[v] = n
        n += 1
    for v in merged:
        vmap[v] = vmap[anchor]
    return vmap


def identify_vertices(g: Multigraph, merge: Iterable[int]) -> tuple[Multigraph, dict[int, int]]:
    """Merge the given vertices into one; edge ids and labels are preserved.

    Edges inside the merged set become loops.  The merged vertex sits at the
    position of the smallest merged id and keeps that vertex's label; the
    returned map sends old vertex ids to new ones.
    """
    s = g.vertex_subset(merge)
    if not s:
        raise InputError("cannot identify an empty vertex set")
    vmap = merge_map(g.vertices(), s)
    anchor = min(s)
    labels = tuple(lbl for v, lbl in enumerate(g.vertex_labels) if v not in s or v == anchor)
    ends = tuple((vmap[u], vmap[v]) for u, v in g.endpoints)
    return Multigraph(labels, ends, g.edge_labels), vmap

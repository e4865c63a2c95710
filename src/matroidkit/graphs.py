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
    S-T paths, the forest anchor and the cographic tests read these."""
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in edges:
        u, v = endpoints[e]
        incident[u].append((e, v))
        if v != u:
            incident[v].append((e, u))
    return incident


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


def identified_graph(
    g: Multigraph,
    merged: frozenset[int],
    ends: tuple[tuple[int, int], ...],
    edge_labels: tuple[str, ...],
) -> tuple[Multigraph, dict[int, int]]:
    """``g``'s vertices with ``merged`` identified, and the edges ``ends``
    (labelled ``edge_labels``) between ``g``'s vertices in place of ``g``'s
    own, by the merge rule of ``identify_vertices``: the merged vertex takes
    the position and label of the least merged id, and the other vertices
    keep their order.  ``merged`` must be a nonempty valid vertex set; it is
    not checked here.  ``menger.reduce`` builds its contracted graphs with
    it straight from the edges it keeps."""
    anchor = min(merged)
    vmap: dict[int, int] = {}
    labels = []
    for v, label in enumerate(g.vertex_labels):
        if v in merged and v != anchor:
            continue
        vmap[v] = len(labels)
        labels.append(label)
    for v in merged:
        vmap[v] = vmap[anchor]
    return Multigraph(tuple(labels), tuple((vmap[u], vmap[v]) for u, v in ends), edge_labels), vmap


def identify_vertices(g: Multigraph, merge: Iterable[int]) -> tuple[Multigraph, dict[int, int]]:
    """Merge the given vertices into one; edge ids and labels are preserved.

    Edges inside the merged set become loops.  The merged vertex sits at the
    position of the smallest merged id and keeps that vertex's label; the
    returned map sends old vertex ids to new ones.
    """
    s = g.vertex_subset(merge)
    if not s:
        raise InputError("cannot identify an empty vertex set")
    return identified_graph(g, s, g.endpoints, g.edge_labels)


def induced_subgraph(g: Multigraph, vertices: Iterable[int]) -> tuple[Multigraph, dict[int, int]]:
    """Subgraph on the given vertices with every edge joining two of them.

    Returns the subgraph plus the old-to-new vertex map.
    """
    vs = sorted(g.vertex_subset(vertices))
    vmap = {old: new for new, old in enumerate(vs)}
    elabels = []
    ends = []
    for e in g.edges():
        u, v = g.endpoints[e]
        if u in vmap and v in vmap:
            elabels.append(g.edge_labels[e])
            ends.append((vmap[u], vmap[v]))
    return Multigraph(tuple(g.vertex_labels[v] for v in vs), tuple(ends), tuple(elabels)), vmap

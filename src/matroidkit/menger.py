"""Vertex-disjoint path certificates via matroid intersection.

For vertex sets S and T in a finite graph, two graphic matroids are built
on the edges outside S-internal and T-internal edges: one contracts S to a
point, the other contracts T, each built straight from the kept edges'
endpoints.  A covering-partition certificate for that pair turns into a
forest whose components thread S to T.  Each such component carries one
S-T path, and its pivot, the last vertex of the path before the first edge
of the T-part, is its one vertex on both sides of the split; the pivots
form a separator that picks exactly one vertex from each path.

``solve`` peels the vertices in both S and T and certifies each connected
component that meets both: a component holding every vertex of the graph
in place, on the instance as it stands, and any other on the subgraph it
induces.  It checks the resulting certificate from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import CheckResult, Matroid
from .errors import ConsistencyError, InputError
from .graphs import (
    Component,
    Multigraph,
    breadth_first,
    graphic_components,
    identified_graph,
    incidence,
    induced_subgraph,
    path_to,
)
from .intersection import certify
from .zoo import Graphic, build


@dataclass(frozen=True)
class MengerInstance:
    graph: Multigraph
    s: frozenset[int]
    t: frozenset[int]

    def __post_init__(self):
        if not self.s or not self.t:
            raise InputError("both terminal vertex sets must be nonempty")
        self.graph.vertex_subset(self.s)
        self.graph.vertex_subset(self.t)

    @classmethod
    def from_labels(
        cls, graph: Multigraph, s: Iterable[str], t: Iterable[str]
    ) -> "MengerInstance":
        return cls(
            graph,
            frozenset(graph.vertex_index(lbl) for lbl in s),
            frozenset(graph.vertex_index(lbl) for lbl in t),
        )


@dataclass(frozen=True)
class MengerCertificate:
    """Disjoint S-T paths and a separator meeting each path exactly once.

    A path may be a single vertex when that vertex lies in both S and T.
    """

    paths: tuple[tuple[int, ...], ...]
    separator: frozenset[int]

    @property
    def count(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class MarkedComponent:
    """A tree component of the certificate forest; one that threads S to T
    carries its S-to-T path and the pivot on it."""

    component: Component
    path: tuple[int, ...] | None
    pivot: int | None


def reduce(inst: MengerInstance) -> tuple[Matroid, Matroid, tuple[int, ...]]:
    """Build the matroid pair (M_S, M_T) over the shared edge ground set.

    M_S is the graphic matroid of the graph with S identified to a single
    vertex, restricted to the edges that are internal to neither S nor T;
    M_T is symmetric.  One pass marks each vertex's sides and keeps the
    edges whose ends share no side; each contracted graph is built straight
    from the kept endpoints by ``graphs.identified_graph``, the merge rule of
    ``identify_vertices``.
    The returned tuple maps ground ids back to edge ids of the instance
    graph.
    """
    g = inst.graph
    sides = [0] * g.vertex_count
    for v in inst.s:
        sides[v] = 1
    for v in inst.t:
        sides[v] |= 2
    keep = tuple(e for e, (u, v) in enumerate(g.endpoints) if not sides[u] & sides[v])
    ends = tuple(g.endpoints[e] for e in keep)
    labels = tuple(g.edge_labels[e] for e in keep)
    m_s, m_t = (
        build(Graphic(identified_graph(g, side, ends, labels)[0])) for side in (inst.s, inst.t)
    )
    return m_s, m_t, keep


def forest_structure(
    inst: MengerInstance,
    i_edges: Iterable[int],
    j_s: Iterable[int],
    j_t: Iterable[int],
) -> tuple[MarkedComponent, ...]:
    """Check the certificate forest and mark the pivot of each through-component.

    The components of the edge set are computed in the original graph and
    must be trees touching S or T, with at most one vertex in each terminal
    set.  A component threading both carries the unique S-to-T path; its
    pivot is the last vertex reachable from the S-end before the first
    edge of the T-part.  Split at its pivot, the branches of a tree go
    whole to the part of their attaching edge, so the pivot is the one
    vertex of the component on both sides, and the pivots form the
    separator.
    """
    g = inst.graph
    if inst.s & inst.t:
        raise InputError("terminal sets must be disjoint here; peel shared vertices first")
    i_set = g.edge_subset(i_edges)
    js = g.edge_subset(j_s)
    jt = g.edge_subset(j_t)
    if js & jt or js | jt != i_set:
        raise InputError("the two parts must partition the certificate edges")

    incident = incidence(g.endpoints, g.vertex_count, i_set)
    marked: list[MarkedComponent] = []
    for comp in graphic_components(g, i_set):
        if not comp.is_tree:
            raise ConsistencyError("certificate edges span a component with a cycle")
        s_hits = comp.vertices & inst.s
        t_hits = comp.vertices & inst.t
        if len(s_hits) > 1 or len(t_hits) > 1:
            raise ConsistencyError(
                "a certificate component meets a terminal set more than once"
            )
        if not s_hits and not t_hits:
            raise ConsistencyError("a certificate component avoids both terminal sets")
        path = None
        pivot = None
        if s_hits and t_hits:
            (s,), (t,) = s_hits, t_hits
            path, path_edges = _tree_path(incident, s, t)
            pivot = path[0]
            for e, v in zip(path_edges, path[1:]):
                if e in jt:
                    break
                pivot = v
        marked.append(MarkedComponent(component=comp, path=path, pivot=pivot))
    return tuple(marked)


def _tree_path(
    incident: list[list[tuple[int, int]]], s: int, t: int
) -> tuple[tuple[int, ...], list[int]]:
    """The one path from ``s`` to ``t`` in a forest that joins them, as its
    vertices and the edges between them, read from the forest's
    ``graphs.incidence`` lists: a stack search from ``s`` records each
    vertex's parent and parent edge until it reaches ``t``, and one
    parent-pointer walk from ``t`` reads the path back."""
    parents: dict[int, int] = {}
    parent_edge = {s: -1}
    stack = [s]
    while t not in parent_edge:
        x = stack.pop()
        for e, y in incident[x]:
            if y not in parent_edge:
                parents[y] = x
                parent_edge[y] = e
                stack.append(y)
    path = path_to(parents, t)
    return tuple(path), [parent_edge[v] for v in path[1:]]


def separator_from_partition(components: Iterable[MarkedComponent]) -> MengerCertificate:
    """The through-components' paths, in the order given, with their pivots
    as the separator; ``forest_structure`` gives the components ordered by
    least vertex, and ``solve`` verifies the result from scratch."""
    through = [mc for mc in components if mc.path is not None]
    return MengerCertificate(
        paths=tuple(mc.path for mc in through),
        separator=frozenset(mc.pivot for mc in through),
    )


def solve(inst: MengerInstance) -> MengerCertificate:
    """Full pipeline: peel shared terminals, reduce, certify, read the pivots.

    Vertices in both S and T are forced into any separator; they are taken
    as single-vertex paths and removed before the reduction.  The rest of
    the graph is handled one connected component at a time: only components
    touching both terminal sets can contribute paths.  A component that
    holds every vertex of the graph is certified on the instance as it
    stands; any other is relabelled once, as the subgraph it induces, and
    certified on its own.
    """
    g = inst.graph
    shared = inst.s & inst.t
    paths: list[tuple[int, ...]] = [(v,) for v in sorted(shared)]
    separator = set(shared)

    # The components avoid the shared vertices.  Isolated vertices are left
    # out; once S & T is peeled, none of them can meet both terminal sets.
    avoiding = (e for e, ends in enumerate(g.endpoints) if shared.isdisjoint(ends))
    for comp in graphic_components(g, avoiding):
        s_local = comp.vertices & inst.s
        t_local = comp.vertices & inst.t
        if not s_local or not t_local:
            continue
        if len(comp.vertices) == g.vertex_count:
            # Nothing was peeled and the graph is connected: the component
            # is the instance as it stands.
            local, back = inst, range(g.vertex_count)
        else:
            piece, vmap = induced_subgraph(g, comp.vertices)
            back = {new: old for old, new in vmap.items()}
            local = MengerInstance(
                piece, frozenset(vmap[v] for v in s_local), frozenset(vmap[v] for v in t_local)
            )
        local_cert = _certified(local)
        paths.extend(tuple(back[v] for v in p) for p in local_cert.paths)
        separator.update(back[v] for v in local_cert.separator)

    certificate = MengerCertificate(
        paths=tuple(sorted(paths, key=lambda p: p[0])), separator=frozenset(separator)
    )
    verdict = verify(inst, certificate)
    if not verdict:
        raise ConsistencyError(f"solver produced an invalid certificate: {verdict.reason}")
    return certificate


def _certified(inst: MengerInstance) -> MengerCertificate:
    """The paths and pivots of a connected instance with disjoint terminal
    sets, read off the certificate of its reduced matroid pair."""
    m_s, m_t, ground_edges = reduce(inst)
    cert = certify(m_s, m_t)
    i_edges = frozenset(ground_edges[e] for e in cert.i)
    j_s = frozenset(ground_edges[e] for e in cert.j1)
    j_t = frozenset(ground_edges[e] for e in cert.j2)
    return separator_from_partition(forest_structure(inst, i_edges, j_s, j_t))


def verify(inst: MengerInstance, cert: MengerCertificate) -> CheckResult:
    """Check a path-and-separator certificate from scratch; pure."""
    g = inst.graph
    seen: set[int] = set()
    # Adjacency sets of its own, not ``graphs.incidence``: the from-scratch
    # check shares no lists with the solver, and the separation search
    # below takes set differences, which run faster than scanning lists.
    adjacency: dict[int, set[int]] = {v: set() for v in g.vertices()}
    for u, v in g.endpoints:
        adjacency[u].add(v)
        adjacency[v].add(u)
    for p in cert.paths:
        if not p:
            return CheckResult(False, "empty path")
        try:
            g.vertex_subset(p)
        except InputError:
            return CheckResult(False, "path references unknown vertices")
        if p[0] not in inst.s or p[-1] not in inst.t:
            return CheckResult(False, "path endpoints are not an S-T pair", (p,))
        if len(set(p)) != len(p):
            return CheckResult(False, "path revisits a vertex", (p,))
        for u, v in zip(p, p[1:]):
            if v not in adjacency[u]:
                return CheckResult(False, "path uses a missing edge", (u, v))
        if seen & set(p):
            return CheckResult(False, "paths are not vertex-disjoint", (p,))
        seen.update(p)
    try:
        separator = g.vertex_subset(cert.separator)
    except InputError:
        return CheckResult(False, "separator references unknown vertices")
    if not separator <= seen:
        return CheckResult(False, "separator vertex off every path")
    for p in cert.paths:
        if len(separator & frozenset(p)) != 1:
            return CheckResult(False, "a path does not meet the separator exactly once", (p,))
    # Separation by traversal: no S-T path may survive deleting the separator.
    layers = breadth_first(inst.s - separator, lambda v: adjacency[v] - separator, {})
    reachable = {v for layer in layers for v in layer}
    if reachable & (inst.t - separator):
        return CheckResult(False, "not separating", tuple(sorted(reachable & inst.t)))
    return CheckResult(True)

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
component that meets both in place: the component's own edges and
vertices are numbered straight into the two graphic handles, and the
certificate edges of every component are read as one forest of the
instance's graph.  It checks the resulting certificate from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import CheckResult, GroundSet, Matroid
from .errors import ConsistencyError, InputError
from .graphs import (
    Component,
    Multigraph,
    breadth_first,
    graphic_components,
    incidence,
    merge_map,
    path_to,
)
from .intersection import certify
from .zoo import graphic_matroid


@dataclass(frozen=True)
class MengerInstance:
    graph: Multigraph
    s: frozenset[int]
    t: frozenset[int]

    def __post_init__(self):
        if not self.s or not self.t:
            raise InputError("both terminal vertex sets must be nonempty")
        # Keep the validated frozensets, not the caller's objects: a list
        # would not support ``&`` and a set could change after the check.
        object.__setattr__(self, "s", self.graph.vertex_subset(self.s))
        object.__setattr__(self, "t", self.graph.vertex_subset(self.t))

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


def reduce(
    inst: MengerInstance, comp: Component
) -> tuple[Matroid, Matroid, tuple[int, ...]]:
    """Build the matroid pair (M_S, M_T) of one connected component.

    ``comp`` is a component of the instance's graph, as
    ``graphs.graphic_components`` gives it, that meets both S and T.  The
    ground set is the component's edges, in ascending id order, that are
    internal to neither S nor T.  M_S is the graphic matroid of those edges
    with the component's S vertices identified to one vertex; M_T is
    symmetric.  Both number the component's vertices in ascending id order
    with ``graphs.merge_map``, the merge rule of ``identify_vertices``, and
    are built on one ``GroundSet`` by ``zoo.graphic_matroid``; no graph is
    built on the way.  The returned tuple maps ground ids back to edge ids
    of the instance graph.
    """
    g = inst.graph
    s, t = inst.s, inst.t
    keep = []
    for e in sorted(comp.edges):
        u, v = g.endpoints[e]
        if not (u in s and v in s or u in t and v in t):
            keep.append(e)
    ground = GroundSet(tuple(g.edge_labels[e] for e in keep))
    ends = [g.endpoints[e] for e in keep]
    order = sorted(comp.vertices)
    handles = []
    for side in (comp.vertices & s, comp.vertices & t):
        vmap = merge_map(order, side)
        contracted = tuple((vmap[u], vmap[v]) for u, v in ends)
        handles.append(graphic_matroid(ground, contracted, len(order) - len(side) + 1))
    m_s, m_t = handles
    return m_s, m_t, tuple(keep)


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
    touching both terminal sets can contribute paths, and each of them is
    reduced and certified in place, on the instance's own edge ids.  The
    certificate edges of all of them are then read as one forest of the
    instance's graph with the shared vertices taken out of S and T.
    """
    g = inst.graph
    shared = inst.s & inst.t
    paths: list[tuple[int, ...]] = [(v,) for v in sorted(shared)]
    separator = set(shared)

    # The components avoid the shared vertices.  Isolated vertices are left
    # out; once S & T is peeled, none of them can meet both terminal sets.
    avoiding = (e for e, ends in enumerate(g.endpoints) if shared.isdisjoint(ends))
    i_edges, j_s, j_t = [], [], []  # the certificate's parts, as edge ids of g
    for comp in graphic_components(g, avoiding):
        if comp.vertices.isdisjoint(inst.s) or comp.vertices.isdisjoint(inst.t):
            continue
        m_s, m_t, ground_edges = reduce(inst, comp)
        cert = certify(m_s, m_t)
        i_edges.extend(ground_edges[e] for e in cert.i)
        j_s.extend(ground_edges[e] for e in cert.j1)
        j_t.extend(ground_edges[e] for e in cert.j2)

    # Every certified component joins S to T, so its certificate has an edge.
    if i_edges:
        peeled = MengerInstance(g, inst.s - shared, inst.t - shared)
        through = separator_from_partition(forest_structure(peeled, i_edges, j_s, j_t))
        paths.extend(through.paths)
        separator |= through.separator

    certificate = MengerCertificate(
        paths=tuple(sorted(paths, key=lambda p: p[0])), separator=frozenset(separator)
    )
    verdict = verify(inst, certificate)
    if not verdict:
        raise ConsistencyError(f"solver produced an invalid certificate: {verdict.reason}")
    return certificate


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

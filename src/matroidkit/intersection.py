"""Covering-partition certificates for matroid intersection.

The pipeline: maximize the union of the first matroid with the dual of the
second, read off the base pair (B1, B2*), and split the ground set into
I = B1 and B2, X = B1 and B2*, Y = B2 less I, Z = B2* less X.  A two-colored
exchange digraph on the non-I elements then yields the covering partition
I = J1 + J2 with cl_1(J1) together with cl_2(J2) covering everything.  The
digraph is kept as its nodes' fundamental circuits cut down to I, which the
coloring searches through and the assembly reads J1 and J2 from; its arcs
are built only when read.

The coloring invariants double as a bug detector: a forbidden blue-to-red
path can be rewound into an exchange chain that grows the supposedly
maximal union, and the reconstruction of that chain is implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .core import Anchor, CheckResult, Matroid, ENUMERATION_BOUND, subsets_by_size
from .errors import (
    CapacityError,
    InputError,
    InternalInvariantError,
)
from .graphs import breadth_first, path_to
from .union import (
    COMMON,
    EVEN,
    ODD,
    ExchangeChain,
    PairState,
    maximize_union,
    validate_chain,
)

BLUE = "blue"
RED = "red"


@dataclass(frozen=True)
class IntersectionState:
    """Base pair for the union of M1 with the dual of M2, with its four-way split."""

    b1: frozenset[int]
    b2star: frozenset[int]
    b2: frozenset[int]
    i: frozenset[int]
    x: frozenset[int]
    y: frozenset[int]
    z: frozenset[int]


@dataclass(frozen=True)
class ExchangeDigraph:
    """The exchange digraph, kept as the fundamental circuits that define it.

    ``first[t]`` is C1(t) cut down to I for each node t off B1, ``second[h]``
    is C2(h) cut down to I for each node h off B2; each is a sorted tuple,
    stored only when non-empty.  An arc (t, h) runs whenever the two share an
    element of I, so ``upstream`` passes through I and builds no arc.
    ``spanned_first``/``spanned_second`` record which nodes I spans in each
    matroid, read off the same circuits; ``pre_colors`` reads the coloring's
    starting points off them.
    """

    nodes: frozenset[int]
    first: dict[int, tuple[int, ...]]
    second: dict[int, tuple[int, ...]]
    spanned_first: frozenset[int]
    spanned_second: frozenset[int]

    @cached_property
    def pre_colors(self) -> tuple[frozenset[int], frozenset[int]]:
        """The pre-blue and the pre-red nodes: those I spans in the first
        matroid only, and those it spans in the second only."""
        return (
            self.spanned_first - self.spanned_second,
            self.spanned_second - self.spanned_first,
        )

    @cached_property
    def arcs(self) -> tuple[tuple[int, int, int], ...]:
        """Every arc (tail, head, least shared element of I), sorted by tail
        then head; built on first read, for drawings and the failure path."""
        heads_through = _through(self.second)
        arcs = []
        for tail in sorted(self.first):
            witness: dict[int, int] = {}
            for w in self.first[tail]:
                for head in heads_through.get(w, ()):
                    if head != tail:
                        witness.setdefault(head, w)
            arcs.extend((tail, head, witness[head]) for head in sorted(witness))
        return tuple(arcs)

    def upstream(self, heads: Iterable[int]) -> frozenset[int]:
        """The nodes with a path along the arcs to one of ``heads``, the heads
        included; the search runs against the arcs and passes through each
        element of I once."""
        adjacent: dict[int, Iterable[int]] = _through(self.first)
        adjacent.update(self.second)  # nodes lie off I, so no key is shared
        layers = breadth_first(heads, lambda v: adjacent.get(v, ()), {})
        return frozenset(v for layer in layers for v in layer if v in self.nodes)


def _through(cut: dict[int, tuple[int, ...]]) -> dict[int, list[int]]:
    """Each element of I to the nodes whose cut circuit holds it."""
    index: dict[int, list[int]] = {}
    for v in cut:
        for w in cut[v]:
            index.setdefault(w, []).append(v)
    return index


@dataclass(frozen=True)
class DivisiveColoring:
    """Blue nodes are spanned by I in the first matroid, red in the second,
    and the circuits of same-colored nodes stay disjoint inside I."""

    blue: frozenset[int]
    red: frozenset[int]


@dataclass(frozen=True)
class IntersectionCertificate:
    """A common independent set partitioned so the two closures cover E."""

    i: frozenset[int]
    j1: frozenset[int]
    j2: frozenset[int]


def state_from_bases(
    m1: Matroid, m2: Matroid, b1: frozenset[int], b2star: frozenset[int]
) -> IntersectionState:
    """Assemble the four-way split from explicit bases; no maximality implied.

    Exists so diagnostics and tests can feed deliberately bad base pairs;
    the regular pipeline goes through build_state.
    """
    if m1.ground != m2.ground:
        raise InputError("intersection needs a common ground set")
    ground = m1.ground
    b1 = ground.subset(b1)
    b2star = ground.subset(b2star)
    m2d = m2.dual()
    if m1.maximal_extension(b1) != b1:
        raise InputError("first set is not a base of the first matroid")
    if m2d.maximal_extension(b2star) != b2star:
        raise InputError("second set is not a base of the dual of the second matroid")
    return _split(ground.full(), b1, b2star)


def _split(full: frozenset[int], b1: frozenset[int], b2star: frozenset[int]) -> IntersectionState:
    b2 = full - b2star
    i = b1 & b2
    x = b1 & b2star
    return IntersectionState(
        b1=b1, b2star=b2star, b2=b2, i=i, x=x, y=b2 - i, z=b2star - x
    )


def build_state(m1: Matroid, m2: Matroid) -> IntersectionState:
    """Run the union construction against the dual and split the ground set.

    ``maximize_union`` returns bases, so they are split without the base
    checks of ``state_from_bases``.  The span containments are not checked
    here: ``divisive_coloring`` rejects any node spanned in neither matroid.
    """
    if m1.ground != m2.ground:
        raise InputError("intersection needs a common ground set")
    pair = maximize_union(m1, m2.dual())
    return _split(m1.ground.full(), pair.i1, pair.i2)


def build_digraph(m1: Matroid, m2: Matroid, st: IntersectionState) -> ExchangeDigraph:
    """Exchange digraph on the non-I elements, kept as circuits cut down to I.

    Fundamental circuits are taken into B1 and B2, each through one anchor
    of the base; they do not exist for the members of B1 resp. B2, which is
    exactly why X-nodes are sinks and Y-nodes are sources.  As I lies inside
    both bases, a node off B1 is spanned by I in the first matroid exactly
    when its circuit lies inside I plus itself, and no member of B1 is
    (likewise B2, the second).  No arc is built here: see
    ``ExchangeDigraph.arcs``.
    """
    nodes = m1.ground.full() - st.i
    first, spanned_first = _cut_circuits(m1._anchor(st.b1), nodes - st.b1, st.i)
    second, spanned_second = _cut_circuits(m2._anchor(st.b2), nodes - st.b2, st.i)
    return ExchangeDigraph(nodes, first, second, spanned_first, spanned_second)


def _cut_circuits(
    anchor: Anchor, outside: frozenset[int], i: frozenset[int]
) -> tuple[dict[int, tuple[int, ...]], frozenset[int]]:
    """The anchor's circuit of each node of ``outside`` cut down to I, kept
    when non-empty, and the nodes whose circuit lies inside I plus itself."""
    cut, spanned = {}, set()
    for v in outside:
        circuit = anchor.circuit(v)
        shared = circuit & i
        if len(shared) == len(circuit) - 1:
            spanned.add(v)
        if shared:
            cut[v] = tuple(sorted(shared))
    return cut, frozenset(spanned)


def divisive_coloring(dg: ExchangeDigraph) -> DivisiveColoring:
    """Two-color the digraph so the coloring is divisive.

    Nodes spanned by I in only one matroid are pre-colored (first matroid:
    blue, second: red).  Red is every node with a path along the arcs to a
    pre-red node, found by one search against the arcs, and blue is the
    rest.  A maximal base pair admits no path from a pre-blue to a pre-red
    node, so red holds no pre-blue node; one there means an upstream bug,
    and the failure carries the offending path so it can be rewound into
    the chain that grows the union.
    """
    unspanned = dg.nodes - dg.spanned_first - dg.spanned_second
    if unspanned:
        raise InternalInvariantError(
            "elements spanned by I in neither matroid: "
            + str(sorted(unspanned)),
            payload=sorted(unspanned),
        )
    pre_blue, pre_red = dg.pre_colors
    red = dg.upstream(pre_red)
    if red & pre_blue:
        path = _blue_to_red_path(dg)
        raise InternalInvariantError(
            "a blue node reaches a red node; the base pair cannot have been "
            "maximal (rewind the path with violation_chain for the witness)",
            payload=path,
        )
    return DivisiveColoring(blue=dg.nodes - red, red=red)


def _blue_to_red_path(dg: ExchangeDigraph) -> list[int] | None:
    """Shortest path from a pre-blue node to a pre-red node, ids breaking ties."""
    pre_blue, pre_red = dg.pre_colors
    heads: dict[int, list[int]] = {}
    for tail, head, _ in dg.arcs:
        heads.setdefault(tail, []).append(head)
    parents: dict[int, int] = {}
    for layer in breadth_first(pre_blue, lambda v: heads.get(v, ()), parents):
        for node in layer:
            if node in pre_red:
                return path_to(parents, node)
    return None


def violation_chain(m1: Matroid, m2: Matroid, st: IntersectionState) -> ExchangeChain | None:
    """Rewind a blue-to-red path into a chain on (B1, B2*) proving the base
    pair non-maximal, or None when no such path exists.

    The chain starts outside both bases, ends inside both, and alternates
    through the first matroid and the dual of the second; applying it grows
    the union by one, which is the strongest possible witness that the
    upstream search stopped early.
    """
    dg = build_digraph(m1, m2, st)
    path = _blue_to_red_path(dg)
    if path is None:
        return None
    m2d = m2.dual()

    elements: list[int] = []
    circuits: list[frozenset[int]] = []

    def dual_circuit(element: int) -> frozenset[int]:
        return m2d.fundamental_circuit(st.b2star, element)

    first_node = path[0]
    if first_node in st.y:
        parity = EVEN
        elements.append(first_node)
    else:
        # A blue start off Y is spanned only in the first matroid, so its
        # circuit into B2 must leave I and meet Y; enter through that element.
        start = min(m2.fundamental_circuit(st.b2, first_node) & st.y)
        parity = ODD
        elements.append(start)
        circuits.append(dual_circuit(start))
        elements.append(first_node)
    for tail, head in zip(path, path[1:]):
        witness = min(set(dg.first[tail]).intersection(dg.second[head]))
        circuits.append(m1.fundamental_circuit(st.b1, tail))
        elements.append(witness)
        circuits.append(dual_circuit(witness))
        elements.append(head)
    last_node = path[-1]
    if last_node not in st.x:
        # A red end off X is spanned only in the second matroid, so its
        # circuit into B1 must leave I and meet X; leave through that element.
        circuit = m1.fundamental_circuit(st.b1, last_node)
        circuits.append(circuit)
        elements.append(min(circuit & st.x))

    chain = ExchangeChain(tuple(elements), parity, tuple(circuits), COMMON)
    validate_chain(m1, m2d, PairState(st.b1, st.b2star), chain)
    return chain


def pipeline(
    m1: Matroid, m2: Matroid
) -> tuple[IntersectionState, ExchangeDigraph, DivisiveColoring, IntersectionCertificate]:
    """Run the whole construction and expose the intermediate structures."""
    st = build_state(m1, m2)
    dg = build_digraph(m1, m2, st)
    coloring = divisive_coloring(dg)
    cert = _assemble(m1, m2, st, dg, coloring)
    return st, dg, coloring, cert


def certify(m1: Matroid, m2: Matroid) -> IntersectionCertificate:
    """Produce the covering-partition certificate for a matroid pair."""
    return pipeline(m1, m2)[3]


def _assemble(
    m1: Matroid,
    m2: Matroid,
    st: IntersectionState,
    dg: ExchangeDigraph,
    coloring: DivisiveColoring,
) -> IntersectionCertificate:
    j1 = {w for v in coloring.blue for w in dg.first.get(v, ())}
    j2 = {w for v in coloring.red for w in dg.second.get(v, ())}
    if j1 & j2:
        raise InternalInvariantError(
            "divisive coloring produced overlapping parts", payload=(j1, j2)
        )
    # Elements of I that no colored circuit touches go to the first part;
    # the closure cover only grows with its parts.
    j1.update(st.i - j1 - j2)
    cert = IntersectionCertificate(i=st.i, j1=frozenset(j1), j2=frozenset(j2))
    verdict = verify_certificate(m1, m2, cert)
    if not verdict:
        raise InternalInvariantError(
            f"freshly built certificate failed verification: {verdict.reason}",
            payload=cert,
        )
    return cert


def verify_certificate(
    m1: Matroid, m2: Matroid, cert: IntersectionCertificate
) -> CheckResult:
    """Check a covering-partition certificate from scratch; pure."""
    if m1.ground != m2.ground:
        return CheckResult(False, "matroids disagree on the ground set")
    ground = m1.ground
    try:
        i = ground.subset(cert.i)
        j1 = ground.subset(cert.j1)
        j2 = ground.subset(cert.j2)
    except InputError:
        return CheckResult(False, "certificate references unknown elements")
    if not m1._independent(i):
        return CheckResult(False, "I is dependent in the first matroid")
    if not m2._independent(i):
        return CheckResult(False, "I is dependent in the second matroid")
    if j1 & j2:
        return CheckResult(False, "parts overlap", tuple(sorted(j1 & j2)))
    if j1 | j2 != i:
        return CheckResult(False, "parts do not partition I")
    covered = m1.closure(j1) | m2.closure(j2)
    if covered != ground.full():
        return CheckResult(
            False, "closure cover misses elements", tuple(sorted(ground.full() - covered))
        )
    return CheckResult(True)


def min_rank_value(m1: Matroid, m2: Matroid) -> int:
    """Exact minimum of rank_1(X) + rank_2(E - X) over all X; brute force."""
    if m1.ground != m2.ground:
        raise InputError("intersection needs a common ground set")
    n = m1.ground.size
    if n > ENUMERATION_BOUND:
        raise CapacityError(f"min-rank sweep requires |E| <= {ENUMERATION_BOUND}, got {n}")
    full = m1.ground.full()
    return min(m1.rank(xs) + m2.rank(full - xs) for xs in subsets_by_size(full))

"""Exchange chains and the augmenting construction for matroid union.

A chain (y0, ..., yn) threads alternating fundamental circuits through the
two parts of a pair state: consecutive elements share a circuit inside
"part + y_i" of the matroid owned by that link.  Every chain augments:
applying the alternating swaps along it absorbs y0 into the union of the
two parts, which grows by exactly that element.

Every chain carries its witness circuits and is re-verified before use, so
a stale or forged chain fails loudly instead of corrupting a state.  The
re-check asks each matroid whether a witness is a circuit and whether the
receiving part takes the last element: through the family's exact
one-pass tests where it has them (the ``is_circuit=`` and ``extends=``
hooks of ``Matroid``), and through rank otherwise.  The swaps inside each
part then cost no oracle call on a shortest chain, as every chain the
breadth-first search finds is: the triangular exchange lemma proves them
from the validated circuits (``_triangular``).  Others go through rank.

A search asks its questions of one anchor per part (``Matroid._anchor``),
held by a ``Session`` and built on first use.  Applying a chain through
the session that found it moves the session to the new state, and each
anchor follows the chain's own swaps in its part (``_carried``), so no
anchor is rebuilt after a found chain.  Most chains have no links and
cost one check that ``part + y`` is independent and one anchor grow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Anchor, Matroid
from .errors import ConsistencyError, InputError, InternalInvariantError
from .graphs import breadth_first, path_to

EVEN = "even"
ODD = "odd"

# Terminal kinds: 'common' ends in an element of both parts, which the last
# swap takes out of one of them, and 'add' ends in an element the receiving
# part absorbs outright.  Either way the union grows by the chain's start.
COMMON = "common"
ADD = "add"


@dataclass(slots=True, unsafe_hash=True, init=False)
class PairState:
    """A pair of sets independent in their respective matroids, and their
    union.  Treated as immutable: equality and the hash read all three."""

    i1: frozenset[int]
    i2: frozenset[int]
    union: frozenset[int]

    def __init__(self, i1: frozenset[int], i2: frozenset[int]):
        self.i1, self.i2, self.union = i1, i2, i1 | i2


@dataclass(slots=True, unsafe_hash=True, init=False)
class ExchangeChain:
    """A tuple of elements plus the witness circuit certifying each link.
    Treated as immutable: equality and the hash read all four fields."""

    elements: tuple[int, ...]
    parity: str
    circuits: tuple[frozenset[int], ...]
    terminal: str

    def __init__(
        self,
        elements: tuple[int, ...],
        parity: str,
        circuits: tuple[frozenset[int], ...],
        terminal: str,
    ):
        if parity not in (EVEN, ODD):
            raise InputError(f"chain parity must be 'even' or 'odd', got {parity!r}")
        if terminal not in (COMMON, ADD):
            raise InputError(f"unknown chain terminal kind {terminal!r}")
        if len(circuits) != len(elements) - 1:
            raise InputError("a chain needs exactly one witness circuit per link")
        self.elements, self.parity, self.circuits, self.terminal = (
            elements, parity, circuits, terminal
        )

    @property
    def length(self) -> int:
        return len(self.elements) - 1

    def link_uses_first(self, link: int) -> bool:
        """Whether link i exchanges inside the first matroid."""
        return (link % 2 == 0) == (self.parity == EVEN)

    def receiver_is_first(self) -> bool:
        """For an 'add' terminal: which part absorbs the last element."""
        return self.link_uses_first(self.length)


class Session:
    """The anchors of one pair state's parts, each built on first use.

    A session vouches for the state it serves: ``find_chain`` and
    ``apply_chain`` skip their entry checks when handed the very matroids
    and state object the session serves.  It owns its anchors, and applying
    a chain through it moves it to the new state: the anchors follow the
    parts, and from then on the session serves the new state only.
    """

    __slots__ = ("m1", "m2", "state", "_first", "_second")

    def __init__(self, m1: Matroid, m2: Matroid, state: PairState):
        self.m1, self.m2, self.state = m1, m2, state
        self._first: Anchor | None = None
        self._second: Anchor | None = None

    def first(self) -> Anchor:
        if self._first is None:
            self._first = self.m1._anchor(self.state.i1)
        return self._first

    def second(self) -> Anchor:
        if self._second is None:
            self._second = self.m2._anchor(self.state.i2)
        return self._second

    def serves(self, m1: Matroid, m2: Matroid, state: PairState) -> bool:
        return self.state is state and self.m1 is m1 and self.m2 is m2

    def _moved(self, after: PairState, els: tuple[int, ...], first, second) -> PairState:
        """Serve ``after``, made by applying the chain ``els``.  The anchor of
        each part the chain moved follows what ``_new_part`` found of it, a
        ``(received, links)`` pair (``_carried``); a part the chain left
        alone has None in its place and keeps its anchor."""
        if first is not None:
            self._first = _carried(self._first, els, *first)
        if second is not None:
            self._second = _carried(self._second, els, *second)
        self.state = after
        return after


def _carried(anchor: Anchor | None, els: tuple[int, ...], received, links) -> Anchor | None:
    """The anchor of a part moved through the chain's own steps in it: a
    grow of the last element if the part ``received`` it, then
    ``exchange(y_l, y_(l+1))`` for each of its ``links`` l in descending
    order; None when unbuilt or ``links`` is None (the part failed the
    triangular test).  Descending order keeps each link's circuit as it was
    (``_triangular``), so y_(l+1) still lies on y_l's circuit in the
    anchor's set when link l's turn comes.
    """
    if anchor is None or links is None:
        return None
    if received is not None:
        anchor = anchor.grow(els[-1])
    for link in reversed(links):
        anchor = anchor.exchange(els[link], els[link + 1])
    return anchor


def _is_circuit(matroid: Matroid, candidate: frozenset[int], known: int) -> bool:
    """Whether ``candidate`` is a circuit, given ``known`` on it and
    ``candidate - {known}`` already proved independent: by the family's
    exact test when it has one (``is_circuit=``), in one pass, which may
    lean on that precondition.  Otherwise by the definition, dependent with
    every one-smaller subset independent, which costs |candidate| rank
    evaluations, ``candidate - {known}`` not among them."""
    if matroid._circuit_fn is not None:
        return matroid._circuit_fn(candidate, known)
    if matroid._independent(candidate):
        return False
    return all(matroid._independent(candidate - {e}) for e in candidate if e != known)


def _check_entry(m1: Matroid, m2: Matroid, state: PairState) -> None:
    """Validate a pair state handed in from outside, once, at a public entry:
    a common ground set, both parts inside it, and each part independent in
    its matroid (two evaluations), as a session vouches for its own state."""
    if m1.ground != m2.ground:
        raise InputError("matroid union needs a common ground set")
    m1.ground.subset(state.i1)
    m1.ground.subset(state.i2)
    if not (m1._independent(state.i1) and m2._independent(state.i2)):
        raise InputError("each part of the pair state must be independent in its matroid")


def validate_chain(m1: Matroid, m2: Matroid, state: PairState, chain: ExchangeChain) -> None:
    """Re-verify a chain against the current state; raises ConsistencyError.

    The state and the chain's range are checked as at every public entry
    (``_entry_circuits``), which raises InputError, and the chain as by
    ``apply_chain`` (``_recheck_chain``): the start outside both parts, the
    interior alternating between them, no element repeated, every witness
    circuit, and the terminal condition.
    """
    _recheck_chain(m1, m2, state, chain, _entry_circuits(m1, m2, state, chain))


def _entry_circuits(
    m1: Matroid, m2: Matroid, state: PairState, chain: ExchangeChain
) -> tuple[frozenset[int], ...]:
    """The entry checks of a chain handed in from outside: the state's
    (``_check_entry``), and the chain's elements and circuits inside the
    ground set.  Returns the circuits as validated frozensets."""
    _check_entry(m1, m2, state)
    m1.ground.subset(chain.elements)
    return tuple(m1.ground.subset(c) for c in chain.circuits)


def _extended(matroid: Matroid, part: frozenset[int], last: int) -> frozenset[int]:
    """``part + last`` for an independent receiving part, which must not hold
    ``last``, checked independent once: by the family's exact test when it
    has one (``extends=``), else by one rank evaluation.  Raises
    ConsistencyError when it is not."""
    grown = part | {last}
    test = matroid._extends_fn
    if not (matroid._independent(grown) if test is None else test(part, last)):
        raise ConsistencyError("terminal marked 'add' does not extend the receiver independently")
    return grown


def _recheck_chain(
    m1: Matroid,
    m2: Matroid,
    state: PairState,
    chain: ExchangeChain,
    circuits: tuple[frozenset[int], ...],
) -> tuple[frozenset[int] | None, frozenset[int] | None]:
    """``validate_chain`` without the entry checks, for a state whose parts
    are known independent (by ``_check_entry``, or by the session serving
    it).  The chain's shape comes first: where its start lies, which part
    each interior element lies in, and that no element repeats.  Each
    link's circuit is then checked to lie inside part + y_link and to be a
    circuit (``_is_circuit``).  The 'add' terminal's ``part + last`` is
    checked independent (``_extended``) and returned in the receiving
    part's place of a pair, so the caller knows that very set independent;
    the other place, and both for a 'common' terminal, hold None.
    """
    els = chain.elements
    even = chain.parity == EVEN
    start_set = state.i1 if even else state.i2
    if els[0] in start_set:
        raise ConsistencyError("chain start already belongs to the part it would enter")
    if els[0] in state.union:
        raise ConsistencyError("chain start already lies in the other part")
    if len(els) == 1 and chain.terminal == ADD:
        # A link-free chain's receiving part is the one it starts into, and
        # the start checks have just placed y outside it.
        if even:
            return _extended(m1, start_set, els[0]), None
        return None, _extended(m2, start_set, els[0])
    # Interior elements alternate between the two parts and may not sit in
    # both; only the terminal element may.  A chain without links has none.
    for i, e in enumerate(els[1:-1], start=1):
        first = chain.link_uses_first(i - 1)
        mine, other = (state.i1, state.i2) if first else (state.i2, state.i1)
        if e not in mine or e in other:
            which = "first" if first else "second"
            raise ConsistencyError(f"interior element y_{i} must lie in the {which} part only")
    if len(set(els)) != len(els):
        raise ConsistencyError("chain elements are not pairwise distinct")
    for link in range(len(els) - 1):
        matroid, part = (m1, state.i1) if chain.link_uses_first(link) else (m2, state.i2)
        circuit, y = circuits[link], els[link]
        if y not in circuit or els[link + 1] not in circuit:
            raise ConsistencyError(f"link {link} circuit misses its endpoints")
        if not circuit - {y} <= part:
            raise ConsistencyError(f"link {link} circuit leaks outside part + y_{link}")
        if not _is_circuit(matroid, circuit, y):
            raise ConsistencyError(f"link {link} witness is not a circuit any more")
    last = els[-1]
    if chain.terminal == COMMON:
        if not (last in state.i1 and last in state.i2):
            raise ConsistencyError("terminal marked 'common' is not in both parts")
        return None, None
    into_first = chain.receiver_is_first()
    part = state.i1 if into_first else state.i2
    if last in part:
        raise ConsistencyError("terminal marked 'add' already sits in the receiving part")
    if into_first:
        return _extended(m1, part, last), None
    return None, _extended(m2, part, last)


def apply_chain(
    m1: Matroid, m2: Matroid, state: PairState, chain: ExchangeChain, session: Session | None = None
) -> PairState:
    """Perform the alternating swaps along a chain and return the new state.

    The chain is always re-checked first (``_recheck_chain``).  A ``session``
    serving this very state vouches for the state and for the range of the
    chain it found, so ``validate_chain``'s entry and range checks are
    skipped; without one they run, and cost two evaluations more.  The
    session then moves to the new state, carrying its anchors along, and
    serves it from now on; a session serving another state is left alone.

    No part costs an oracle call beyond the re-check (``_new_part``): a
    part no link runs through is kept as it was, or is the very
    ``part + last`` the re-check has just checked, and the others are
    proved by the triangular test.  A chain without links costs one check,
    that ``part + y`` is independent, and one grow of that part's anchor.
    """
    if session is None or not session.serves(m1, m2, state):
        circuits = _entry_circuits(m1, m2, state, chain)
        session = None
    else:
        circuits = chain.circuits
    r1, r2 = _recheck_chain(m1, m2, state, chain, circuits)
    els = chain.elements
    if len(els) == 1:
        # Only the receiving part moves, to the part + y just re-checked; the
        # other part and its anchor stay as they are.
        if r1 is None:
            after, moves = PairState(state.i1, r2), (None, (r2, ()))
        else:
            after, moves = PairState(r1, state.i2), ((r1, ()), None)
    else:
        even = chain.parity == EVEN
        links1 = range(0 if even else 1, len(els) - 1, 2)
        links2 = range(1 if even else 0, len(els) - 1, 2)
        i1, links1 = _new_part(m1, state.i1 if r1 is None else r1, els, links1, circuits, "first")
        i2, links2 = _new_part(m2, state.i2 if r2 is None else r2, els, links2, circuits, "second")
        after = PairState(i1, i2)
        moves = ((r1, links1), (r2, links2))
    # The re-check placed the start outside the union, so these three checks
    # say that the union grew by exactly the start.
    grown, start = after.union, els[0]
    if len(grown) != len(state.union) + 1 or start not in grown or not state.union <= grown:
        raise InternalInvariantError("augmenting chain did not grow the union by its start")
    return after if session is None else session._moved(after, els, *moves)


def _new_part(
    matroid: Matroid, start: frozenset[int], els: tuple[int, ...], links: range, circuits, which: str
) -> tuple[frozenset[int], range | None]:
    """The ``which`` part after the swaps of its ``links``, from ``start``:
    the part, or the ``part + last`` the re-check proved independent for a
    part receiving an 'add' terminal.  Returns the new part and the links
    its anchor follows (``_carried``): the triangular test on the validated
    ``circuits`` proves it, or else rank does and the links are None.
    """
    if not links:
        return start, links
    swapped = set(start)
    for link in links:
        swapped.remove(els[link + 1])
        swapped.add(els[link])
    new = frozenset(swapped)
    if _triangular(els, circuits, links):
        return new, links
    if not matroid._independent(new):
        raise ConsistencyError(f"{which} part lost independence after the swaps")
    return new, None


def _triangular(els: tuple[int, ...], circuits, links: range) -> bool:
    """Whether one part's ``links`` pass the triangular exchange lemma's
    test: for links l < l', y_(l'+1) lies off C_l, the circuit of link l.
    The lemma: if I is independent, each y_k lies outside I with x_k on
    C(I, y_k), and x_i lies off C(I, y_j) whenever i < j, then
    I - {x_k} + {y_k} is independent (Schrijver, *Combinatorial
    Optimization*, 2003, Cor. 39.13a).  Here x_k = y_(l+1) leaves for y_l in
    descending link order, and C_l, validated as a circuit inside
    part + y_l, is C(part, y_l), and C(part + last, y_l) for a receiving
    part.  A breadth-first chain passes: y_(l'+1) lies deeper than C_l.
    """
    return not any(els[hi + 1] in circuits[lo] for i, hi in enumerate(links) for lo in links[:i])


def _search(session: Session, y: int, parity: str):
    """Breadth-first search for a shortest chain of the given parity.

    Nodes are elements; the matroid used out of a node is forced by which
    part the node lies in, so a BFS tree automatically alternates.  A
    node's successors are its stored circuit, in any order: the layers come
    sorted and parent links are assigned in increasing id order, so the
    search returns at the least terminal of the first layer that has one,
    and the chain is the lexicographically least among the shortest ones.
    """
    state = session.state
    start = session.first() if parity == EVEN else session.second()
    # Most searches end at y itself; answering that here skips setting up
    # the layered search on the hot path, and applying the link-free chain
    # costs one evaluation and one anchor grow (``apply_chain``).
    if start.extends(y):
        return ExchangeChain((y,), parity, (), ADD)

    circuits: dict[int, frozenset[int]] = {}
    parents: dict[int, int] = {}

    def chain(node: int, kind: str) -> ExchangeChain:
        path = path_to(parents, node)
        return ExchangeChain(tuple(path), parity, tuple(circuits[v] for v in path[:-1]), kind)

    # Every node of a layer searched through has its circuit stored.  The
    # circuit holds the node itself, which breadth_first has already seen.
    for layer in breadth_first((y,), circuits.__getitem__, parents):
        for node in layer:
            if node in state.i1 and node in state.i2:
                return chain(node, COMMON)
            if node in state.i1:
                anchor = session.second()
            elif node in state.i2:
                anchor = session.first()
            else:
                anchor = start
            if anchor.extends(node):
                return chain(node, ADD)
            circuits[node] = anchor.circuit(node)
    return None


def find_chain(
    m1: Matroid, m2: Matroid, state: PairState, y: int, session: Session | None = None
) -> ExchangeChain | None:
    """Shortest chain absorbing y into the union, or None when impossible.

    Chains through the first matroid are preferred: the even parity is
    searched exhaustively before the odd one is tried.  A ``session`` made
    for this very state supplies its anchors and vouches for the state and
    for ``y``; without one, the state is checked as at every public entry
    (``_check_entry``), ``y`` is checked to lie in the ground set outside
    the union, and a fresh session is used.
    """
    if session is None or not session.serves(m1, m2, state):
        _check_entry(m1, m2, state)
        if y not in m1.ground.elements():
            raise InputError(f"element {y!r} outside ground set")
        if y in state.union:
            raise InputError(f"element {m1.ground.label(y)} already belongs to the union")
        session = Session(m1, m2, state)
    for parity in (EVEN, ODD):
        chain = _search(session, y, parity)
        if chain is not None:
            return chain
    return None


def maximize_union(m1: Matroid, m2: Matroid) -> PairState:
    """Grow a pair state in one increasing pass, then extend the parts to bases.

    Starting from two empty parts, each element is offered to ``find_chain``
    once, in increasing id order, and its augmenting chain is applied when
    one exists.  One pass is exact because M1 v M2 is a matroid (Edmonds,
    "Matroid partition", 1968) whose independent sets are exactly the unions
    of the pair states: once ``union + y`` is dependent in M1 v M2, it stays
    dependent as the union grows, so an element without a chain never gains
    one later.  The pass therefore applies the same chains, in the same
    order, as rescanning from the smallest id after every augmentation.
    Extending the parts to bases cannot enlarge the final union: an outside
    element addable to a base extension would already have been a
    one-element chain.

    The loop validates nothing it built itself: one session serves each
    state in turn, skipping the entry checks, and follows each applied
    chain with its anchors.  Every chain is still re-checked before it is
    applied.  The final parts are extended through the same anchors, in
    increasing id order as the greedy sweep does, and each extension is
    checked to be a base: its size against r(E), and with one rank
    evaluation when anything was added.
    """
    if m1.ground != m2.ground:
        raise InputError("matroid union needs a common ground set")
    state = PairState(frozenset(), frozenset())
    session = Session(m1, m2, state)
    for y in m1.ground.elements():
        chain = find_chain(m1, m2, state, y, session)
        if chain is None:
            continue
        state = apply_chain(m1, m2, state, chain, session)
    bases = PairState(
        _extend_to_base(m1, state.i1, session.first()),
        _extend_to_base(m2, state.i2, session.second()),
    )
    if bases.union != state.union:
        raise InternalInvariantError(
            "extending the parts to bases escaped the maximal union", payload=(state, bases)
        )
    return bases


def _extend_to_base(matroid: Matroid, part: frozenset[int], anchor: Anchor) -> frozenset[int]:
    """Add every element that extends ``part``, in increasing id order,
    growing ``anchor`` (which it uses up) along; the result must have the
    size r(E), and unless nothing was added, pass one rank check as
    independent (``part`` itself was proved independent when it was made)."""
    base = set(part)
    for e in matroid.elements():
        if e not in base and anchor.extends(e):
            base.add(e)
            anchor = anchor.grow(e)
    extended = frozenset(base)
    if len(extended) != matroid._ground_rank() or (
        len(extended) != len(part) and not matroid._independent(extended)
    ):
        raise ConsistencyError("a part extended through its anchor is not a base")
    return extended

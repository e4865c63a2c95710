"""Rank-oracle matroids with closure and fundamental-circuit services.

A matroid is handled as a ground set plus one native oracle, its rank
function; a set is independent exactly when its rank equals its size.
Minors, and the duals of most families, are lazy wrappers that answer
through rank identities,

    dual:   r*(X) = |X| + r(E - X) - r(E)
    minor:  r'(X) = r(X + C) - r(C)   (C contracted),

so each level of composition costs a constant number of rank queries one
level down, with r(E) computed once per handle.  A family that knows its
dual supplies a native ``dual=`` hook instead, which receives the handle
it is the dual of: the dual of a partition or uniform matroid is again
one, whose rank of X reads X alone rather than E - X, and the graphic
family builds its cographic handle, which keeps the dual rank identity but
anchors through a standard form over a forest.
Both the wrapper and the cographic handle come out of one constructor,
``dual_matroid``, which takes the cographic hooks as keyword arguments.
The dual of any dual is the original handle (M** = M): the dual of a
wrapper or of a cographic handle is the very handle it was built from, and
a partition or uniform dual's dual is an equal native handle, so wrappers
never stack two deep.
Nothing else is cached: every query reaches the native oracle, so a
caller that asks the same set twice pays twice, and callers avoid asking
what they have already proved.

Closure and fundamental circuits are answered by anchors.  An anchor is
built once for a fixed set ``a`` and then answers, for many ``x``, whether
``x`` raises the rank of ``a`` (``extends``) and the fundamental circuit of
``x`` in ``base``, a maximal independent subset of ``a`` (``circuit``).
Graphic, partition and uniform matroids supply a native ``anchor=`` hook,
which always returns an anchor: a rooted spanning forest, or block lookups
with no build step; the graphic family's dual anchors through the
fundamental cocircuits of a spanning forest of the complement, where it
spans, and declines elsewhere.  One search, ``graphs.rooted_forest``,
roots both forests.  Every other handle, the dual wrapper included, and
every set a hook declines, gets the rank-derived anchor, which has no
build step.  Every anchor can also be grown or exchanged by one element,
so a caller whose set changes one element at a time need not build a new
one.

The union's chain re-check asks two more questions, which a family that
can answer them exactly in one pass supplies as hooks of their own:
whether a set C is a circuit, given an element ``known`` of C with
C - known independent (``is_circuit=``), and whether an independent set
stays independent with one more element (``extends=``).  Partition and
uniform handles answer both from the blocks, the graphic family the
first by a cycle test, and its cographic handle both by one two-sided
search from the ends of an edge.  They share no code with the anchors,
so the re-check still catches a faulty anchor.  Every other handle
answers them through rank: one rank function, one anchor and at most
these two tests per family.

Input is validated once, by the public methods; everything below them
works on frozensets already known to lie inside the ground set.  Nothing
is ever materialized unless an enumeration helper is asked for explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator, Protocol

from .errors import CapacityError, InputError, NoFundamentalCircuit

# Hard cap for the exhaustive helpers (circuit listing, orthogonality,
# min-rank sweeps).  Exceeding it raises CapacityError, never truncates.
ENUMERATION_BOUND = 12


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


def id_subset(xs: Iterable[int], n: int, message: str) -> frozenset[int]:
    """Normalize ``xs`` to a frozenset of ids, each an int in ``range(n)``.

    An id outside raises InputError with ``message.format(id, n)``, so the
    message is formatted only on failure.
    """
    s = frozenset(xs)
    for e in s:
        if not isinstance(e, int) or e < 0 or e >= n:
            raise InputError(message.format(e, n))
    return s


@dataclass(frozen=True)
class GroundSet:
    """Dense element ids ``0 .. size-1`` with pairwise-distinct labels."""

    labels: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_ids", {lbl: e for e, lbl in enumerate(labels)})
        if len(self._ids) != len(labels):
            raise InputError(f"ground-set labels are not pairwise distinct: {labels!r}")

    @property
    def size(self) -> int:
        return len(self.labels)

    def elements(self) -> range:
        return range(len(self.labels))

    def label(self, e: int) -> str:
        return self.labels[e]

    def index(self, label: str) -> int:
        try:
            return self._ids[label]
        except (KeyError, TypeError):
            raise InputError(f"unknown element label {label!r}") from None

    def subset(self, xs: Iterable[int]) -> frozenset[int]:
        """Normalize ``xs`` to a frozenset, rejecting out-of-range ids."""
        return id_subset(xs, len(self.labels), "element {!r} outside ground set of size {}")

    def subset_from_labels(self, labels: Iterable[str]) -> frozenset[int]:
        return frozenset(self.index(lbl) for lbl in labels)

    def labels_of(self, xs: Iterable[int]) -> list[str]:
        return [self.labels[e] for e in sorted(xs)]

    def full(self) -> frozenset[int]:
        return frozenset(range(len(self.labels)))


@dataclass(frozen=True)
class CheckResult:
    """Verdict of a verification routine: truthiness mirrors ``ok``."""

    ok: bool
    reason: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def subsets_by_size(elements: Iterable[int]) -> Iterator[frozenset[int]]:
    """All subsets in canonical order: by size, then lexicographically."""
    pool = sorted(elements)
    for k in range(len(pool) + 1):
        for combo in combinations(pool, k):
            yield frozenset(combo)


class Anchor(Protocol):
    """Queries against one fixed set ``a``, answered after a single build.

    ``base`` is a maximal independent subset of ``a``, and ``a`` itself when
    ``a`` is independent.  For ``x`` outside ``a``, ``extends(x)`` says
    whether ``x`` raises the rank of ``a``, which for independent ``a`` is
    "``a + x`` is independent".  For ``x`` outside ``base`` but inside the
    closure of ``a``, ``circuit(x)`` is the fundamental circuit of ``x`` in
    ``base``.  Other arguments are outside the contract.  No query needs
    ``base`` itself, so a native anchor works it out each time it is read;
    ``RankAnchor`` keeps the one it found, since all its queries read it.

    Two updates carry the build over to a neighbouring set, and each
    returns the updated anchor:

    - ``grow(x)``, for an ``x`` with ``extends(x)``: the anchor of
      ``a + x``, with base ``base + x``;
    - ``exchange(y, z)``, for a ``y`` outside ``base`` and a ``z`` on its
      circuit: the anchor of ``a - z + y``, with base ``base - z + y``.

    An update may reuse the anchor's own structures in place, so whoever
    updates an anchor owns it and never asks the old one again.  A union
    ``Session`` owns the anchors of its state's parts, and applying a chain
    through it moves them on to the next state.
    """

    base: frozenset[int]

    def extends(self, x: int) -> bool: ...

    def circuit(self, x: int) -> frozenset[int]: ...

    def grow(self, x: int) -> "Anchor": ...

    def exchange(self, y: int, z: int) -> "Anchor": ...


class RankAnchor:
    """The anchor of a handle without a native one: every answer is a rank
    query, and there is no build step beyond finding the base."""

    __slots__ = ("_matroid", "_anchored", "_base")

    def __init__(
        self, matroid: "Matroid", anchored: frozenset[int], base: frozenset[int] | None = None
    ):
        self._matroid = matroid
        self._anchored = anchored
        self._base = base

    @property
    def base(self) -> frozenset[int]:
        if self._base is None:
            m, a = self._matroid, self._anchored
            self._base = a if m._independent(a) else m._greedy_extend(frozenset(), a)
        return self._base

    def extends(self, x: int) -> bool:
        return self._matroid._independent(self.base | {x})

    def circuit(self, x: int) -> frozenset[int]:
        # base + x holds exactly one circuit, so an element of base lies on it
        # exactly when removing that element leaves base + x independent.
        base = self.base
        extended = base | {x}
        independent = self._matroid._independent
        return frozenset([x, *(e for e in sorted(base) if independent(extended - {e}))])

    def grow(self, x: int) -> "RankAnchor":
        base = None if self._base is None else self._base | {x}
        return RankAnchor(self._matroid, self._anchored | {x}, base)

    def exchange(self, y: int, z: int) -> "RankAnchor":
        base = None if self._base is None else self._base - {z} | {y}
        return RankAnchor(self._matroid, self._anchored - {z} | {y}, base)


class Matroid:
    """Immutable matroid given by one native oracle, its rank function.

    A set is independent exactly when its rank equals its size.  The rank
    function receives a validated ``frozenset`` of element ids and must
    always return the same answer for the same subset.  The only answer a
    handle keeps is r(E), computed once; every other query calls the
    oracle.

    A handle may also take a native ``anchor(a)`` hook that returns an
    ``Anchor`` for the set ``a``, or None to decline; without one, or where
    it declines, the handle anchors with ``RankAnchor``.  Closure and
    fundamental circuits are answered through the anchor, so its answers
    must agree with the rank function; there is no separate closure or
    fundamental-circuit hook.  Chains built from anchored circuits are
    still re-checked before they are applied.

    Two optional hooks answer the re-check's questions exactly, where the
    family can do so in one pass: ``is_circuit(c, known)``, for a ``c``
    that holds ``known`` with ``c - known`` independent, whether ``c`` is
    a circuit, and ``extends(part, x)``, for an independent ``part`` and an
    ``x`` outside it, whether ``part + x`` is independent.  Their answers
    must agree with the rank function wherever these preconditions hold,
    and nothing is asked of them elsewhere; without them the re-check asks
    rank (``union._is_circuit``, ``union._extended``).

    A family that knows its dual may take a native ``dual=`` hook, a
    callable that receives the handle and builds its dual; the dual's rank
    must agree with the rank identity of the dual wrapper, which every
    other handle gets.  The wrapper takes the same hook, returning the
    handle it wraps.  Since the hook is handed the handle, no family's
    hooks hold their own handle, and the library's handles make no
    reference cycle.

    The public methods validate their input once with ``GroundSet.subset``.
    The underscore members ``_independent``, ``_rank`` and ``_anchor`` skip
    that check; they serve callers inside the package that already hold
    frozensets of valid ids.
    """

    __slots__ = (
        "_ground",
        "_full",
        "_rank",
        "_anchor_fn",
        "_dual_fn",
        "_circuit_fn",
        "_extends_fn",
        "provenance",
        "_full_rank",
    )

    def __init__(
        self,
        ground: GroundSet,
        provenance: str = "oracle",
        *,
        rank: Callable[[frozenset[int]], int],
        anchor: Callable[[frozenset[int]], Anchor | None] | None = None,
        dual: Callable[["Matroid"], "Matroid"] | None = None,
        is_circuit: Callable[[frozenset[int], int], bool] | None = None,
        extends: Callable[[frozenset[int], int], bool] | None = None,
    ):
        self._ground = ground
        self._full = ground.full()
        self._rank = rank
        self._anchor_fn = anchor
        self._dual_fn = dual
        self._circuit_fn = is_circuit
        self._extends_fn = extends
        self.provenance = provenance
        self._full_rank: int | None = None

    def __repr__(self) -> str:
        return f"Matroid({self.provenance}, |E|={self._ground.size})"

    @property
    def ground(self) -> GroundSet:
        return self._ground

    @property
    def size(self) -> int:
        return self._ground.size

    def elements(self) -> range:
        return self._ground.elements()

    # -- unvalidated oracle: arguments are frozensets of valid ids ----------

    def _independent(self, s: frozenset[int]) -> bool:
        return self._rank(s) == len(s)

    def _ground_rank(self) -> int:
        if self._full_rank is None:
            self._full_rank = self._rank(self._full)
        return self._full_rank

    def _greedy_extend(self, start: frozenset[int], within: frozenset[int]) -> frozenset[int]:
        """Add the elements of ``within`` in increasing id order while independent."""
        current = start
        for e in sorted(within - start):
            grown = current | {e}
            if self._independent(grown):
                current = grown
        return current

    def _anchor(self, a: frozenset[int]) -> Anchor:
        """The native anchor of ``a`` when the handle has one that does not
        decline ``a``, else ``RankAnchor``."""
        anchor = None if self._anchor_fn is None else self._anchor_fn(a)
        return RankAnchor(self, a) if anchor is None else anchor

    # -- public services: each validates its input once --------------------

    def is_independent(self, xs: Iterable[int]) -> bool:
        return self._independent(self._ground.subset(xs))

    def rank(self, xs: Iterable[int] | None = None) -> int:
        """Size of a maximal independent subset of ``xs`` (default: all of E)."""
        if xs is None:
            return self._ground_rank()
        return self._rank(self._ground.subset(xs))

    def closure(self, xs: Iterable[int]) -> frozenset[int]:
        """``xs`` plus every element whose addition does not raise the rank."""
        a = self._ground.subset(xs)
        extends = self._anchor(a).extends
        return a | frozenset(e for e in self._full - a if not extends(e))

    def fundamental_circuit(self, base: Iterable[int], x: int) -> frozenset[int]:
        """The unique circuit inside ``base + x`` for independent ``base``.

        Raises NoFundamentalCircuit when ``base + x`` is independent, which
        callers must treat as "the circuit does not exist".
        """
        b = self._ground.subset(base)
        if x not in self._ground.elements():
            raise InputError(f"element {x!r} outside ground set")
        if x in b:
            raise InputError(f"element {x} already belongs to the given independent set")
        if not self._independent(b):
            raise InputError("fundamental circuits are defined against independent sets only")
        anchor = self._anchor(b)
        if anchor.extends(x):
            raise NoFundamentalCircuit(
                f"{self._ground.label(x)} extends the given set independently"
            )
        return anchor.circuit(x)

    def maximal_extension(
        self, inside: Iterable[int], within: Iterable[int] | None = None
    ) -> frozenset[int]:
        """Greedily extend independent ``inside`` to a maximal set within ``within``."""
        start = self._ground.subset(inside)
        target = self._full if within is None else self._ground.subset(within)
        if not start <= target:
            raise InputError("extension must take place inside the given superset")
        if not self._independent(start):
            raise InputError("cannot extend a dependent set")
        return self._greedy_extend(start, target)

    # -- composition ------------------------------------------------------

    def dual(self) -> "Matroid":
        """The dual: the handle the native ``dual=`` hook builds, if any.

        Without the hook, the lazy wrapper ``dual_matroid`` builds with no
        hooks of its own: rank through the identity
        r*(X) = |X| + r(E - X) - r(E), anchors through ``RankAnchor``, and
        this very handle as its dual.
        """
        if self._dual_fn is not None:
            return self._dual_fn(self)
        return dual_matroid(self)

    def minor(self, contract: Iterable[int] = (), delete: Iterable[int] = ()) -> "Matroid":
        """Contract and delete, re-indexing the surviving elements densely.

        Survivors keep their labels, so elements stay identifiable across
        the re-indexing.  Rank follows the identity
        rank(X in minor) = rank(X + contract) - rank(contract).
        """
        parent = self
        c = self._ground.subset(contract)
        d = self._ground.subset(delete)
        if c & d:
            raise InputError("contract and delete sets overlap")
        kept = tuple(e for e in self._ground.elements() if e not in c and e not in d)
        ground = GroundSet(tuple(self._ground.labels[e] for e in kept))
        contracted_rank = self._rank(c)

        def rank(xs: frozenset[int]) -> int:
            return parent._rank(frozenset(kept[e] for e in xs) | c) - contracted_rank

        label = (
            f"minor({self.provenance}, contract={self._ground.labels_of(c)}, "
            f"delete={self._ground.labels_of(d)})"
        )
        return Matroid(ground, provenance=label, rank=rank)

    # -- exhaustive helpers ------------------------------------------------

    def circuits(self) -> list[frozenset[int]]:
        """All minimal dependent sets, canonically ordered by (size, ids)."""
        n = self._ground.size
        if n > ENUMERATION_BOUND:
            raise CapacityError(f"circuit enumeration requires |E| <= {ENUMERATION_BOUND}, got {n}")
        found: list[frozenset[int]] = []
        for candidate in subsets_by_size(self._ground.elements()):
            if any(c <= candidate for c in found):
                continue
            if not self._independent(candidate):
                found.append(candidate)
        return found


def dual_matroid(
    primal: Matroid,
    *,
    anchor: Callable[[frozenset[int]], Anchor | None] | None = None,
    is_circuit: Callable[[frozenset[int], int], bool] | None = None,
    extends: Callable[[frozenset[int], int], bool] | None = None,
) -> Matroid:
    """The dual of ``primal`` through the rank identity
    r*(X) = |X| + r(E - X) - r(E), asked of the primal handle's own oracle.

    It carries the ``dual(...)`` provenance, and its own dual is ``primal``
    itself: its ``dual=`` hook returns ``primal`` whatever handle it
    receives.  ``anchor``, ``is_circuit`` and ``extends`` are its hooks, as in
    ``Matroid``; the graphic family passes its cographic ones, and the
    rank-only wrapper of ``Matroid.dual`` passes none.
    """
    full = primal._full

    def rank(xs: frozenset[int]) -> int:
        return len(xs) + primal._rank(full - xs) - primal._ground_rank()

    return Matroid(
        primal._ground,
        provenance=f"dual({primal.provenance})",
        rank=rank,
        anchor=anchor,
        dual=lambda _: primal,
        is_circuit=is_circuit,
        extends=extends,
    )


def check_orthogonality(matroid: Matroid) -> CheckResult:
    """Every circuit meets every cocircuit in a number of elements != 1.

    Returns a falsy result carrying the offending (circuit, cocircuit) pair
    when the property fails; that can only happen for handles that are not
    actually matroids.
    """
    circuits = matroid.circuits()
    cocircuits = matroid.dual().circuits()
    for c in circuits:
        for c_star in cocircuits:
            if len(c & c_star) == 1:
                return CheckResult(False, "circuit meets cocircuit in exactly one element", (c, c_star))
    return CheckResult(True)

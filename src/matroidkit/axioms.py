"""Exhaustive axiom checking for explicitly listed set systems.

The independence axioms (I1)-(I3) are evaluated over the power set of a
small ground set.  Every failed flag comes with a witness that, replayed
against the system, reproduces the violation.  (IM) holds on every finite
system by finiteness, so it is not checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GroundSet, Matroid, subsets_by_size
from .errors import CapacityError, InputError

# check_axioms enumerates pairs of members, so it gets a tighter cap than the
# other exhaustive helpers.
AXIOM_CHECK_BOUND = 10


@dataclass(frozen=True)
class ExplicitSystem:
    """A set system given by listing its members outright."""

    ground: GroundSet
    members: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen = set()
        for m in self.members:
            self.ground.subset(m)
            if m in seen:
                raise InputError(f"duplicate member {sorted(m)!r} in explicit system")
            seen.add(m)

    def member_set(self) -> frozenset[frozenset[int]]:
        return frozenset(self.members)


@dataclass(frozen=True)
class AxiomReport:
    """Verdicts on (I1)-(I3) with replayable witnesses for the failures;
    (IM) holds on every finite system, so it has no field.

    Witness shapes:
      i1: the missing empty set;
      i2: (member, missing proper subset);
      i3: (non-maximal I, maximal I') with no valid exchange element.
    """

    i1_ok: bool
    i2_ok: bool
    i3_ok: bool
    i1_witness: frozenset | None = None
    i2_witness: tuple[frozenset, frozenset] | None = None
    i3_witness: tuple[frozenset, frozenset] | None = None

    @property
    def ok(self) -> bool:
        return self.i1_ok and self.i2_ok and self.i3_ok


def check_downward_closure(system: ExplicitSystem):
    """Whether every member less any one element is a member, else the
    witness (member, missing subset); the explicit build in ``zoo`` runs it
    too.  This decides closure under subsets, since in (size, ids) order a
    one-less subset missing a subset of its own comes first.  Removing the
    largest element first names a largest missing subset."""
    members = system.member_set()
    for m in sorted(system.members, key=lambda s: (len(s), sorted(s))):
        for e in sorted(m, reverse=True):
            if m - {e} not in members:
                return False, (m, m - {e})
    return True, None


def _check_exchange(system: ExplicitSystem):
    members = sorted(system.members, key=lambda s: (len(s), sorted(s)))
    member_set = system.member_set()
    maximal = [m for m in members if not any(m < other for other in members)]
    for small in members:
        if small in maximal:
            continue
        for big in maximal:
            if not any(small | {x} in member_set for x in sorted(big - small)):
                return False, (small, big)
    return True, None


def check_axioms(system: ExplicitSystem) -> AxiomReport:
    """Evaluate (I1)-(I3) literally over the power set."""
    if system.ground.size > AXIOM_CHECK_BOUND:
        raise CapacityError(
            f"exhaustive axiom check requires |E| <= {AXIOM_CHECK_BOUND}, "
            f"got {system.ground.size}"
        )
    members = system.member_set()

    i1_ok = frozenset() in members
    i1_witness = None if i1_ok else frozenset()

    i2_ok, i2_witness = check_downward_closure(system)
    i3_ok, i3_witness = _check_exchange(system)

    return AxiomReport(
        i1_ok=i1_ok,
        i2_ok=i2_ok,
        i3_ok=i3_ok,
        i1_witness=i1_witness,
        i2_witness=i2_witness,
        i3_witness=i3_witness,
    )


def materialize(matroid: Matroid) -> ExplicitSystem:
    """List every independent set of a small matroid as an explicit system."""
    if matroid.ground.size > AXIOM_CHECK_BOUND:
        raise CapacityError(
            f"materialization requires |E| <= {AXIOM_CHECK_BOUND}, got {matroid.ground.size}"
        )
    members = tuple(
        s for s in subsets_by_size(matroid.elements()) if matroid.is_independent(s)
    )
    return ExplicitSystem(matroid.ground, members)

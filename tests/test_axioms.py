"""Axiom checker: good systems, the documented broken ones, and replays."""

import pytest

from matroidkit import (
    CapacityError,
    Dual,
    ExplicitSystem,
    Graphic,
    GroundSet,
    InputError,
    Minor,
    Uniform,
    build,
    check_axioms,
    materialize,
)
from matroidkit.core import subsets_by_size

from conftest import triangle_graph

fs = frozenset


def system(labels, members):
    ground = GroundSet(tuple(labels))
    return ExplicitSystem(ground, tuple(ground.subset_from_labels(m) for m in members))


def test_uniform_explicit_system_passes_everything():
    ground = GroundSet(("a", "b", "c", "d"))
    members = tuple(s for s in subsets_by_size(range(4)) if len(s) <= 2)
    report = check_axioms(ExplicitSystem(ground, members))
    assert (report.i1_ok, report.i2_ok, report.i3_ok) == (True,) * 3
    assert report.ok


def test_missing_empty_set_fails_i1():
    report = check_axioms(system("abc", [["a"], ["b"]]))
    assert not report.i1_ok
    assert report.i1_witness == fs()


def test_missing_subset_fails_i2_with_documented_witness():
    report = check_axioms(
        system("abc", [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]])
    )
    assert not report.i2_ok
    member, missing = report.i2_witness
    assert member == fs({0, 1, 2}) and missing == fs({0, 2})
    # replay: the member is listed, its subset is not
    assert missing < member


def test_exchange_failure_fails_i3_with_replayable_witness():
    bad = system("abc", [[], ["a"], ["b"], ["c"], ["b", "c"]])
    report = check_axioms(bad)
    assert not report.i3_ok
    small, big = report.i3_witness
    # frozen from the exhaustive search: I={b} is not maximal, I'={a} is,
    # and no element of I' \ I extends I inside the system
    assert (small, big) == (fs({1}), fs({0}))
    members = bad.member_set()
    assert small in members and big in members
    assert any(other > big for other in members) is False
    assert any(other > small for other in members)
    assert not any(small | {x} in members for x in big - small)


def test_ok_is_the_verdict_on_i1_to_i3():
    # (IM) holds on every finite system, so the report has no field for it.
    report = check_axioms(system("ab", [[], ["a"], ["b"], ["a", "b"]]))
    assert report.ok and not hasattr(report, "im_ok")
    report = check_axioms(system("ab", [[], ["a", "b"]]))
    assert (report.i1_ok, report.i2_ok, report.i3_ok, report.ok) == (True, False, False, False)


def test_capacity_error_above_bound():
    ground = GroundSet(tuple(f"e{i}" for i in range(11)))
    with pytest.raises(CapacityError):
        check_axioms(ExplicitSystem(ground, (fs(),)))


def test_duplicate_members_rejected():
    ground = GroundSet(("a",))
    with pytest.raises(InputError):
        ExplicitSystem(ground, (fs(), fs()))


def test_materialize_round_trips_through_checker():
    for spec in (
        Uniform(4, 2),
        Graphic(triangle_graph()),
        Dual(of=Uniform(4, 2)),
        Minor(of=Graphic(triangle_graph()), contract=("e1",), delete=()),
    ):
        matroid = build(spec)
        report = check_axioms(materialize(matroid))
        assert report.ok, spec


def test_materialize_capacity():
    with pytest.raises(CapacityError):
        materialize(build(Uniform(11, 2)))

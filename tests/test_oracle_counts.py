"""Deterministic oracle-work pins: a count regression fails without timing noise.

The grid counts are evaluations of the graphic family's native oracles during
``solve`` on plain w x w grids from the left column to the right column,
where exactly w disjoint paths exist.  The first count adds rank
evaluations, anchor builds and calls of the exact circuit and 'add' tests
(``is_circuit=`` and ``extends=``), the work of the family itself below
every wrapper (a handle keeps no cache besides r(E), so every evaluation a
wrapper asks for reaches it).  The graphic handle's ``dual=`` hook passes
through uncounted: the cographic handle it builds with ``core.dual_matroid``
asks the graphic handle for every rank, so that work is counted there,
and its own two tests are counted as they are handed to ``dual_matroid``.
The second counts the queries answered by the graphic anchors
(``extends`` and ``circuit``), so no work can hide inside a session.  The
third counts the updates (``grow`` and ``exchange``) that carry an anchor
from one set to the next instead of building it again.  The cographic
anchor, also handed to ``dual_matroid``, is counted apart under the same
three headings: its builds (``cobuilds``), queries (``coqueries``) and
updates (``coupdates``).  On the seeded random graph the graphic
evaluations and the cographic test calls are pinned apart, beside the
incidence entries those two tests read, which is where their cost lies.

The swapped-part counts show that applying a found chain evaluates nothing
after its re-check: every part a link ran through is proved independent by
the triangular exchange lemma (``union._triangular``) and keeps its anchor.

The partition counts are the evaluations of the partition family (rank,
and the exact circuit and 'add' tests) during ``certify`` on the seeded
pair of 400 elements of the scale tier, and the summed size of the sets
those evaluations are handed: the candidate of a circuit test, and
``part + x`` of an 'add' test.  The dual of a partition matroid is a
partition handle of its own, so both sides count.

Each bound is the count the current code makes; lower it when a change
saves work, and never raise it.
"""

from functools import partial

import pytest

from matroidkit import MengerInstance, Partition, build, certify, solve, union, zoo
from matroidkit.core import Matroid, dual_matroid

from conftest import grid_instance, random_menger_instance, random_partition_pair


class CountedAnchor:
    """Passes every query through to an anchor, counting it under the key
    ``queries`` names and each update under ``updates``."""

    def __init__(self, inner, counts, queries="queries", updates="updates"):
        self._inner = inner
        self._counts = counts
        self._keys = queries, updates

    @property
    def base(self):
        return self._inner.base

    def extends(self, x):
        self._counts[self._keys[0]] += 1
        return self._inner.extends(x)

    def circuit(self, x):
        self._counts[self._keys[0]] += 1
        return self._inner.circuit(x)

    def grow(self, x):
        self._counts[self._keys[1]] += 1
        return CountedAnchor(self._inner.grow(x), self._counts, *self._keys)

    def exchange(self, y, z):
        self._counts[self._keys[1]] += 1
        return CountedAnchor(self._inner.exchange(y, z), self._counts, *self._keys)


def counted(oracle, counts, size=None, key="evaluations"):
    """``oracle``, counting each call as one under ``key`` and, when ``size``
    is given, adding ``size(*args)`` to the elements read."""

    def counting(*args):
        counts[key] += 1
        if size is not None:
            counts["elements"] += size(*args)
        return oracle(*args)

    return counting


class CountedIncidence:
    """One vertex's incidence list, counting each entry a search reads."""

    def __init__(self, entries, counts):
        self._entries = entries
        self._counts = counts

    def __iter__(self):
        for entry in self._entries:
            self._counts["incidence"] += 1
            yield entry


def graphic_oracle_evaluations(monkeypatch, inst: MengerInstance):
    """Solve ``inst`` while counting the native oracle work of every graphic
    handle (``evaluations``), the calls of the two tests of every
    cographic one (``tests``), the incidence entries those tests read
    (``incidence``), through the ``incident`` lists bound into them, and
    the builds, queries and updates of every cographic anchor
    (``cobuilds``, ``coqueries`` and ``coupdates``)."""
    counts = dict.fromkeys(
        ("evaluations", "tests", "incidence", "queries", "updates", "cobuilds", "coqueries",
         "coupdates"),
        0,
    )

    def counted_anchor(anchor, build="evaluations", queries="queries", updates="updates"):
        def oracle(xs):
            counts[build] += 1
            return CountedAnchor(anchor(xs), counts, queries, updates)

        return oracle

    def counting_matroid(ground, provenance="oracle", **oracles):
        if provenance.startswith("graphic("):
            assert set(oracles) == {"rank", "anchor", "dual", "is_circuit"}
            oracles = {
                "rank": counted(oracles["rank"], counts),
                "anchor": counted_anchor(oracles["anchor"]),
                "dual": oracles["dual"],
                "is_circuit": counted(oracles["is_circuit"], counts),
            }
        return Matroid(ground, provenance, **oracles)

    def counting_dual(primal, **hooks):
        assert primal.provenance.startswith("graphic(")
        assert set(hooks) == {"anchor", "is_circuit", "extends"}
        endpoints, incident = hooks["extends"].args
        assert hooks["is_circuit"].args == (endpoints, incident)
        read = tuple(CountedIncidence(entries, counts) for entries in incident)
        for name in ("is_circuit", "extends"):
            test = partial(hooks[name].func, endpoints, read)
            hooks[name] = counted(test, counts, key="tests")
        hooks["anchor"] = counted_anchor(hooks["anchor"], "cobuilds", "coqueries", "coupdates")
        duals.append(primal)
        return dual_matroid(primal, **hooks)

    monkeypatch.setattr(zoo, "Matroid", counting_matroid)
    monkeypatch.setattr(zoo, "dual_matroid", counting_dual)
    duals = []
    cert = solve(inst)
    assert duals, "no cographic handle was built through the counting shim"
    return cert, counts


@pytest.mark.parametrize(
    "w,oracle_bound,query_bound,update_bound,cographic_bounds",
    [(5, 54, 136, 32, (1, 80, 12)), (6, 80, 220, 50, (1, 150, 20))],
)
def test_grid_solve_graphic_oracle_evaluations(
    monkeypatch, w, oracle_bound, query_bound, update_bound, cographic_bounds
):
    cert, counts = graphic_oracle_evaluations(monkeypatch, grid_instance(w))
    assert cert.count == w
    assert counts["evaluations"] + counts["tests"] <= oracle_bound
    assert counts["queries"] <= query_bound
    assert counts["updates"] <= update_bound
    cobuilds, coqueries, coupdates = cographic_bounds
    assert counts["cobuilds"] <= cobuilds
    assert counts["coqueries"] <= coqueries
    assert counts["coupdates"] <= coupdates


def test_random_graph_solve_graphic_oracle_work(monkeypatch):
    """The seeded sparse multigraph on 200 vertices, with the graphic
    evaluations, the cographic test calls and the incidence entries those
    tests read pinned apart."""
    cert, counts = graphic_oracle_evaluations(monkeypatch, random_menger_instance(200))
    assert cert.count == 10
    assert counts["evaluations"] <= 612
    assert counts["tests"] <= 413
    assert counts["incidence"] <= 23_054
    assert counts["queries"] <= 4_342
    assert counts["updates"] <= 602
    assert counts["cobuilds"] <= 1
    assert counts["coqueries"] <= 1_084
    assert counts["coupdates"] <= 413


EVALUATION_BOUND = 514
ELEMENT_BOUND = 37_864


def test_partition_pair_certify_rank_evaluations(monkeypatch):
    counts = {"evaluations": 0, "elements": 0}

    def counting_matroid(ground, provenance="oracle", **oracles):
        if provenance.startswith(("partition(", "dual(partition(")):
            assert set(oracles) == {"rank", "anchor", "dual", "is_circuit", "extends"}
            oracles["rank"] = counted(oracles["rank"], counts, len)
            oracles["is_circuit"] = counted(oracles["is_circuit"], counts, lambda c, known: len(c))
            oracles["extends"] = counted(oracles["extends"], counts, lambda part, x: len(part) + 1)
        return Matroid(ground, provenance, **oracles)

    monkeypatch.setattr(zoo, "Matroid", counting_matroid)
    (blocks1, caps1), (blocks2, caps2) = random_partition_pair(400)
    m1, m2 = build(Partition(blocks1, caps1)), build(Partition(blocks2, caps2))
    cert = certify(m1, m2)
    assert len(cert.i) == 107  # the max-flow b-matching of tests/test_scale.py
    assert counts["evaluations"] <= EVALUATION_BOUND
    assert counts["elements"] <= ELEMENT_BOUND


def _partition_pair_certify():
    (blocks1, caps1), (blocks2, caps2) = random_partition_pair(400)
    return certify(build(Partition(blocks1, caps1)), build(Partition(blocks2, caps2)))


@pytest.mark.parametrize(
    "run,multi",
    [
        (lambda: solve(grid_instance(6)), False),
        (lambda: solve(random_menger_instance(200)), True),
        (_partition_pair_certify, True),
    ],
    ids=["grid-6", "random-graph-200", "partition-400"],
)
def test_found_chains_evaluate_no_swapped_part(monkeypatch, run, multi):
    """Every rank evaluation made inside ``union._new_part`` is counted, and
    every part a link ran through: none may cost an evaluation or have its
    anchor dropped for a rebuild.  The seeded random graph and the partition
    pair also swap two or more elements in one part, where the anchor takes
    several exchanges in a row."""
    counts = {"swapped": 0, "multi": 0, "evaluations": 0, "rebuilt": 0}
    inside = []
    evaluate, new_part = Matroid._independent, union._new_part

    def counted_evaluate(self, s):
        counts["evaluations"] += bool(inside)
        return evaluate(self, s)

    def counted_new_part(matroid, start, els, links, circuits, which):
        inside.append(links)
        try:
            new, followed = new_part(matroid, start, els, links, circuits, which)
        finally:
            inside.pop()
        if links:
            counts["swapped"] += 1
            counts["multi"] += len(links) > 1
            counts["rebuilt"] += followed is None
        return new, followed

    monkeypatch.setattr(Matroid, "_independent", counted_evaluate)
    monkeypatch.setattr(union, "_new_part", counted_new_part)
    run()
    assert counts["swapped"] > 0 and (counts["multi"] > 0) == multi
    assert counts["evaluations"] == 0 and counts["rebuilt"] == 0

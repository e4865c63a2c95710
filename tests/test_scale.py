"""Scale tier: instances past the brute-force range, with answers known
from closed form or from an independent algorithm written here.

- The plain w x w grid from its left column to its right column has
  exactly w disjoint paths, and ``verify`` re-checks the certificate from
  scratch.
- Two partition matroids on one ground set have, as their largest common
  independent set, a maximum b-matching between the two block systems,
  which a max flow finds.
- Two partition matroids whose blocks are the edges at each left vertex
  and at each right vertex of a bipartite graph, every capacity 1, have a
  maximum matching as their largest common independent set, which an
  augmenting-path search finds.
- U(n, k) against itself, for k <= n, has largest common independent sets
  of size k: any k elements are independent in both, and no k + 1 are.
  Its chain re-check must make one circuit test per link, not k + 1.
- A seeded sparse random graph has as many disjoint paths as the
  vertex-split max flow of ``oracles.brute_max_disjoint_paths`` finds, and
  a grid of w long rows, from its left column to its right, has w, and
  k disjoint w x w grids, each from its left column to its right, have k w.
- For a plane graph G, the cographic matroid M*(G) is the graphic matroid
  of the planar dual G* (Whitney), so on the grid the cographic handle and
  the graphic handle of G* must give the same ranks, the same runs and the
  same certificates.

The peak of memory that tracemalloc sees while each instance runs is
pinned: it is the peak the current code reaches plus a small margin, so
lower it when a change saves memory, and never raise it.  Each measured
call follows one tiny call of the same kind, so the peak leaves out the
one-off allocations of the first call of a kind in the process.
"""

import gc
import random
import tracemalloc
from collections import deque

import pytest

from matroidkit import (
    Dual,
    Graphic,
    MengerInstance,
    Multigraph,
    Partition,
    Uniform,
    build,
    certify,
    maximize_union,
    solve,
    union,
    verify_certificate,
    zoo,
)
from matroidkit.core import Matroid
from matroidkit.menger import verify
from matroidkit.oracles import OracleBudget, brute_max_disjoint_paths

from conftest import (
    augmenting,
    grid_dual_graph,
    grid_instance,
    random_menger_instance,
    random_partition_pair,
)

# Each ceiling is the peak measured on the current code plus about 3%.
GRID_12_PEAK_BYTES = 358_000  # measured 0.348 MB (3.10), 0.345 MB (3.11)
GRID_16_PEAK_BYTES = 862_000  # measured 0.834 MB (3.10), 0.836 MB (3.11)
RANDOM_400_PEAK_BYTES = 2_823_000  # measured 2.719 MB (3.10), 2.740 MB (3.11)


def _peak_of(run, warm_up):
    """``run()`` and the tracemalloc peak, in bytes, reached while it ran.

    ``warm_up()`` runs first, untraced: a tiny instance of the same kind.
    The first call of a kind in a process pays one-off allocations (on
    Python 3.10 they raised the n = 200 partition peak by 28%), so without
    it the peak depended on which tests ran before.  A full collection
    follows.  It also empties the interpreter's free lists, so
    every allocation of ``run`` is traced; without it the peak moved by a
    few per cent with the tests that ran earlier."""
    warm_up()
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _solve_within(w: int, ceiling: int) -> None:
    inst = grid_instance(w)
    cert, peak = _peak_of(lambda: solve(inst), lambda: solve(grid_instance(3)))
    assert cert.count == w
    assert verify(inst, cert)
    assert peak <= ceiling


def test_grid_12_solve_finds_12_paths_within_its_memory_ceiling():
    _solve_within(12, GRID_12_PEAK_BYTES)


def test_grid_16_solve_finds_16_paths_within_its_memory_ceiling():
    _solve_within(16, GRID_16_PEAK_BYTES)


# -- partition pairs against a max-flow b-matching ----------------------------


def _max_b_matching(blocks1, caps1, blocks2, caps2):
    """Largest set of elements taking at most cap(B) from every block B of
    either side: a maximum flow from a source through the first blocks, one
    unit arc per element, and the second blocks to a sink.  Breadth-first
    augmenting paths (Edmonds-Karp) on a residual capacity dict."""
    first = {lbl: i for i, block in enumerate(blocks1) for lbl in block}
    second = {lbl: len(blocks1) + j for j, block in enumerate(blocks2) for lbl in block}
    source, sink = -1, -2
    residual = {}
    neighbours = {}

    def arc(u, v, cap):
        residual[u, v] = residual.get((u, v), 0) + cap
        residual.setdefault((v, u), 0)
        neighbours.setdefault(u, set()).add(v)
        neighbours.setdefault(v, set()).add(u)

    for i, cap in enumerate(caps1):
        arc(source, i, cap)
    for j, cap in enumerate(caps2):
        arc(len(blocks1) + j, sink, cap)
    for lbl in first:
        arc(first[lbl], second[lbl], 1)
    flow = 0
    while True:
        came_from = {source: None}
        queue = deque([source])
        while queue and sink not in came_from:
            u = queue.popleft()
            for v in neighbours[u]:
                if v not in came_from and residual[u, v] > 0:
                    came_from[v] = u
                    queue.append(v)
        if sink not in came_from:
            return flow
        path = []
        v = sink
        while came_from[v] is not None:
            path.append((came_from[v], v))
            v = came_from[v]
        pushed = min(residual[a] for a in path)
        for u, v in path:
            residual[u, v] -= pushed
            residual[v, u] += pushed
        flow += pushed


def _partition_pair(n):
    (blocks1, caps1), (blocks2, caps2) = random_partition_pair(n)
    return build(Partition(blocks1, caps1)), build(Partition(blocks2, caps2))


def _certify_within(m1, m2, expected, ceiling, warm_up=lambda: certify(*_partition_pair(8))):
    cert, peak = _peak_of(lambda: certify(m1, m2), warm_up)
    assert len(cert.i) == expected
    assert verify_certificate(m1, m2, cert)
    assert peak <= ceiling
    return cert


# Measured at 0.106 and 0.217 MB, and on Python 3.10 at up to 0.111 and
# 0.221 MB, depending on which tests ran before in the process.
@pytest.mark.parametrize("n,ceiling", [(200, 114_000), (400, 227_000)])
def test_partition_pair_reaches_the_max_flow_b_matching_within_its_memory_ceiling(n, ceiling):
    (blocks1, caps1), (blocks2, caps2) = random_partition_pair(n)
    expected = _max_b_matching(blocks1, caps1, blocks2, caps2)
    assert expected > n // 4  # the instance is not trivially small
    m1, m2 = _partition_pair(n)
    _certify_within(m1, m2, expected, ceiling)


# -- bipartite matching as the intersection of two partition matroids ---------


def _max_matching(left_count, edges):
    """Size of a maximum matching of a bipartite graph given as (left,
    right) pairs: one augmenting-path search from each left vertex (Kuhn)."""
    adjacent = [[] for _ in range(left_count)]
    for u, v in edges:
        adjacent[u].append(v)
    partner = {}

    def augment(u, seen):
        for v in adjacent[u]:
            if v not in seen:
                seen.add(v)
                if v not in partner or augment(partner[v], seen):
                    partner[v] = u
                    return True
        return False

    return sum(augment(u, set()) for u in range(left_count))


def _blocks_by(labels, key):
    groups = {}
    for lbl in labels:
        groups.setdefault(key(lbl), []).append(lbl)
    return tuple(tuple(groups[k]) for k in sorted(groups))


BIPARTITE_PEAK_BYTES = 123_000  # measured 0.119 MB


def test_bipartite_matching_is_the_intersection_of_two_unit_partition_matroids():
    rng = random.Random(7)
    side = 60
    edges = sorted({(rng.randrange(side), rng.randrange(side)) for _ in range(200)})
    labels = [f"x{u}y{v}" for u, v in edges]
    ends = dict(zip(labels, edges))
    by_left = _blocks_by(labels, lambda lbl: ends[lbl][0])
    by_right = _blocks_by(labels, lambda lbl: ends[lbl][1])
    m1 = build(Partition(by_left, (1,) * len(by_left)))
    m2 = build(Partition(by_right, (1,) * len(by_right)))
    expected = _max_matching(side, edges)
    assert expected > side // 2  # the instance is not trivially small
    cert = _certify_within(m1, m2, expected, BIPARTITE_PEAK_BYTES)
    chosen = [ends[m1.ground.label(e)] for e in cert.i]
    assert len({u for u, _ in chosen}) == len({v for _, v in chosen}) == len(chosen)


# -- a uniform matroid against itself ------------------------------------------

UNIFORM_PEAK_BYTES = 1_168_000  # measured 1.134 MB


def test_uniform_pair_reaches_its_rank_within_its_memory_ceiling():
    m = build(Uniform(400, 200))
    tiny = build(Uniform(8, 4))
    _certify_within(m, m, 200, UNIFORM_PEAK_BYTES, lambda: certify(tiny, tiny))


def test_uniform_pair_circuit_checks_grow_with_the_links(monkeypatch):
    """A guard that timing noise cannot pass: every oracle call made inside
    a circuit check of the chain re-check is counted, rank evaluations and
    the exact circuit test alike.  The rank definition spends |C| = k + 1
    evaluations on each link's circuit; the count must grow with the links
    alone."""
    counts = {"links": 0, "evaluations": 0}
    inside = []
    evaluate, test, is_circuit = Matroid._independent, zoo._is_block_circuit, union._is_circuit

    def counted_evaluate(self, s):
        if inside:
            counts["evaluations"] += 1
        return evaluate(self, s)

    def counted_test(*args):
        if inside:
            counts["evaluations"] += 1
        return test(*args)

    def counted_is_circuit(matroid, candidate, known):
        counts["links"] += 1
        inside.append(candidate)
        try:
            return is_circuit(matroid, candidate, known)
        finally:
            inside.pop()

    monkeypatch.setattr(Matroid, "_independent", counted_evaluate)
    monkeypatch.setattr(zoo, "_is_block_circuit", counted_test)
    monkeypatch.setattr(union, "_is_circuit", counted_is_circuit)
    m = build(Uniform(400, 200))  # built after the patch, so its tests are counted
    assert len(certify(m, m).i) == 200
    assert counts["links"] >= 200
    assert counts["evaluations"] == counts["links"]


# -- Menger beyond the square grid ---------------------------------------------


def test_random_sparse_graph_has_as_many_paths_as_the_max_flow():
    inst = random_menger_instance(400)
    cert, peak = _peak_of(lambda: solve(inst), lambda: solve(random_menger_instance(40)))
    budget = OracleBudget(max_vertices=10**6, time_cap=600)
    assert cert.count == 20
    assert cert.count == brute_max_disjoint_paths(inst.graph, inst.s, inst.t, budget)
    assert verify(inst, cert)
    assert peak <= RANDOM_400_PEAK_BYTES


@pytest.mark.parametrize("length", [60, 250])
def test_long_grid_has_one_path_per_row(length):
    # A finite piece of a graph with finitely many disjoint rays: its w rows.
    inst = grid_instance(4, length=length)
    cert = solve(inst)
    assert cert.count == 4
    assert verify(inst, cert)


def test_many_disjoint_grids_have_one_path_per_row():
    """300 disjoint 3 x 3 grids, from their left columns to their right
    columns: every grid is a component of its own with 3 paths."""
    copies, w = 300, 3

    def v(i, r, c):
        return f"g{i}r{r}c{c}"

    vertices = [v(i, r, c) for i in range(copies) for r in range(w) for c in range(w)]
    edges = []
    for i in range(copies):
        for r in range(w):
            for c in range(w):
                if c + 1 < w:
                    edges.append((f"g{i}h{r}.{c}", v(i, r, c), v(i, r, c + 1)))
                if r + 1 < w:
                    edges.append((f"g{i}v{r}.{c}", v(i, r, c), v(i, r + 1, c)))
    inst = MengerInstance.from_labels(
        Multigraph.from_labels(vertices, edges),
        [v(i, r, 0) for i in range(copies) for r in range(w)],
        [v(i, r, w - 1) for i in range(copies) for r in range(w)],
    )
    cert = solve(inst)
    assert cert.count == copies * w
    assert verify(inst, cert)


# -- planar duality: M*(G) is the graphic matroid of the planar dual G* -------


def _grid_and_its_dual(w):
    g = grid_instance(w).graph
    return build(Graphic(g)), build(Dual(Graphic(g))), build(Graphic(grid_dual_graph(w)))


def test_the_cographic_grid_runs_as_the_graphic_planar_dual():
    m, cographic, dual_graphic = _grid_and_its_dual(16)
    assert cographic.ground == dual_graphic.ground
    rng = random.Random(16)
    for _ in range(200):
        xs = rng.sample(range(m.size), rng.randint(0, m.size))
        assert cographic.rank(xs) == dual_graphic.rank(xs)
    assert maximize_union(cographic, m) == maximize_union(dual_graphic, m)
    assert certify(m, cographic) == certify(m, dual_graphic)


COGRAPHIC_16_PEAK_BYTES = 722_000  # measured 0.690 MB (3.11), 0.701 MB (3.10)


def test_the_cographic_grid_union_stays_within_its_memory_ceiling():
    """M*(G) v M(G) on the 16 x 16 grid covers E, and the cographic anchor's
    standard form, one bitmask over E for each edge, stays in its ceiling."""

    def union_of(w):
        g = grid_instance(w).graph
        return maximize_union(build(Dual(Graphic(g))), build(Graphic(g)))

    state, peak = _peak_of(lambda: union_of(16), lambda: union_of(3))
    assert len(state.union) == 480
    assert peak <= COGRAPHIC_16_PEAK_BYTES


def test_cographic_anchors_answer_as_the_forest_anchors_of_the_planar_dual(monkeypatch):
    # On an independent set every anchor answer is determined, so the anchor
    # the run carries for the cographic part, through every grow, exchange
    # and rebasing, must answer as a fresh forest anchor of G* on that part.
    m, cographic, dual_graphic = _grid_and_its_dual(8)
    apply_chain = union.apply_chain
    checked = []

    def checking_apply_chain(m1, m2, before, chain, session):
        carried, forest = session.first(), dual_graphic._anchor(before.i1)
        for x in cographic.elements():
            if x not in before.i1:
                assert carried.extends(x) == forest.extends(x)
                if not forest.extends(x):
                    assert carried.circuit(x) == forest.circuit(x)
        checked.append(before)
        return apply_chain(m1, m2, before, chain, session)

    monkeypatch.setattr(union, "apply_chain", checking_apply_chain)
    state, steps = augmenting(cographic, m)
    assert len(checked) == len(steps) > 100
    assert state == maximize_union(dual_graphic, m)

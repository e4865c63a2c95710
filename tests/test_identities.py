"""Closed-form identities of graphic matroids, past the brute-force range.

Each holds for every finite graph G with cycle matroid M = M(G) on the
edge set E:

- r(M v M*) = |E|, since a base and its complement are a base pair, so
  ``maximize_union(M, M.dual())`` covers E;
- the complete graph K_n has floor(n/2) edge-disjoint spanning trees
  (Nash-Williams, and Tutte, J. London Math. Soc. 1961), so for n >= 4
  ``maximize_union(M(K_n), M(K_n))`` has 2(n - 1) elements;
- ``certify(M, M)`` finds a common independent set of size r(M).

The parts of a union are checked independent through the public rank
oracle, and every intersection certificate passes ``verify_certificate``.
"""

import pytest

from matroidkit import Graphic, Multigraph, build, certify, maximize_union, verify_certificate

from conftest import grid_instance, random_menger_instance


def complete_graph(n: int) -> Multigraph:
    vertices = [f"v{i}" for i in range(n)]
    edges = [
        (f"e{i}.{j}", vertices[i], vertices[j]) for i in range(n) for j in range(i + 1, n)
    ]
    return Multigraph.from_labels(vertices, edges)


GRAPHS = {
    "grid-16": lambda: grid_instance(16).graph,
    "strip-4x60": lambda: grid_instance(4, length=60).graph,
    "random-400": lambda: random_menger_instance(400).graph,
}


def _assert_parts_independent(m1, m2, state):
    assert m1.is_independent(state.i1)
    assert m2.is_independent(state.i2)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_a_graphic_matroid_and_its_dual_cover_the_edges(name):
    m = build(Graphic(GRAPHS[name]()))
    d = m.dual()
    state = maximize_union(m, d)
    assert state.union == m.ground.full()
    _assert_parts_independent(m, d, state)


@pytest.mark.parametrize("n", [8, 20])
def test_the_complete_graph_holds_two_disjoint_spanning_trees(n):
    m = build(Graphic(complete_graph(n)))
    state = maximize_union(m, m)
    assert len(state.union) == 2 * (n - 1)
    assert len(state.i1) == len(state.i2) == n - 1
    _assert_parts_independent(m, m, state)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_a_graphic_matroid_meets_itself_in_a_base(name):
    m = build(Graphic(GRAPHS[name]()))
    cert = certify(m, m)
    assert len(cert.i) == m.rank()
    assert verify_certificate(m, m, cert)

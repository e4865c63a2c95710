import random
from pathlib import Path
from unittest.mock import patch

import pytest

from matroidkit import Graphic, MengerInstance, Multigraph, Partition, Uniform, build, union

FIXTURES = Path(__file__).parent / "fixtures"


def triangle_graph() -> Multigraph:
    return Multigraph.from_labels(
        ["u", "v", "w"], [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u")]
    )


def path3_graph() -> Multigraph:
    return Multigraph.from_labels(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c")])


def k22_graph() -> Multigraph:
    return Multigraph.from_labels(
        ["u1", "u2", "w1", "w2"],
        [("e0", "u1", "w1"), ("e1", "u1", "w2"), ("e2", "u2", "w1"), ("e3", "u2", "w2")],
    )


def grid_instance(w: int, length: int | None = None) -> MengerInstance:
    """The plain grid of w rows and ``length`` columns (default w) from its
    left column to its right column: exactly w disjoint paths, w straight
    rows."""
    length = w if length is None else length

    def v(r, c):
        return f"r{r}c{c}"

    vertices = [v(r, c) for r in range(w) for c in range(length)]
    edges = []
    for r in range(w):
        for c in range(length):
            if c + 1 < length:
                edges.append((f"h{r}.{c}", v(r, c), v(r, c + 1)))
            if r + 1 < w:
                edges.append((f"v{r}.{c}", v(r, c), v(r + 1, c)))
    graph = Multigraph.from_labels(vertices, edges)
    return MengerInstance.from_labels(
        graph, [v(r, 0) for r in range(w)], [v(r, length - 1) for r in range(w)]
    )


def random_menger_instance(vertices: int) -> MengerInstance:
    """A seeded sparse multigraph: 3V edges, each ``rng.sample`` of two
    vertices with ``random.Random(V)``, so parallel edges occur; S is the
    first V/20 vertices and T the last V/20."""
    rng = random.Random(vertices)
    labels = [f"v{i}" for i in range(vertices)]
    edges = [(f"e{j}", *rng.sample(labels, 2)) for j in range(3 * vertices)]
    graph = Multigraph.from_labels(labels, edges)
    side = vertices // 20
    return MengerInstance.from_labels(graph, labels[:side], labels[-side:])


def grid_dual_graph(w: int) -> Multigraph:
    """The planar dual G* of the w x w grid of ``grid_instance``: one vertex
    per inner square, named by its top-left corner, plus the outer face.
    Edge h{r}.{c} joins the squares above and below it, and v{r}.{c} the
    squares left and right of it; a side off the grid is the outer face.
    Edge labels and edge order are those of the grid."""

    def face(r, c):
        return f"f{r}.{c}" if 0 <= r < w - 1 and 0 <= c < w - 1 else "out"

    vertices = [face(r, c) for r in range(w - 1) for c in range(w - 1)] + ["out"]
    edges = []
    for r in range(w):
        for c in range(w):
            if c + 1 < w:
                edges.append((f"h{r}.{c}", face(r - 1, c), face(r, c)))
            if r + 1 < w:
                edges.append((f"v{r}.{c}", face(r, c - 1), face(r, c)))
    return Multigraph.from_labels(vertices, edges)


def random_partition_pair(n: int):
    """Two seeded block systems over the labels e0..e{n-1}, each as
    ``(blocks, caps)``: the labels shuffled into blocks of 1-4 elements with
    capacities 0-2, twice from ``random.Random(n)``."""
    rng = random.Random(n)
    labels = [f"e{i}" for i in range(n)]
    pair = []
    for _ in range(2):
        pool = list(labels)
        rng.shuffle(pool)
        blocks, caps = [], []
        while pool:
            take = rng.randint(1, 4)
            blocks.append(tuple(sorted(pool[:take])))
            del pool[:take]
            caps.append(rng.randint(0, 2))
        pair.append((tuple(blocks), tuple(caps)))
    return pair


def k4_graph() -> Multigraph:
    pairs = [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")]
    return Multigraph.from_labels(
        ["1", "2", "3", "4"], [(f"e{i}", a, b) for i, (a, b) in enumerate(pairs)]
    )


def crossing_pair():
    """Two partition matroids whose blocks cross; max common independent = 2."""
    m1 = build(Partition((("a", "b"), ("c", "d")), (1, 1)))
    m2 = build(Partition((("a", "c"), ("b", "d")), (1, 1)))
    return m1, m2


def escaping_elements(m1, m2, st):
    """The elements of the split ``st`` outside the closures that a maximal
    base pair puts them in: X inside cl_2(I), Y inside cl_1(I), Z inside
    their union.  Computed from scratch through the public closure."""
    cl1, cl2 = m1.closure(st.i), m2.closure(st.i)
    return (st.x - cl2) | (st.y - cl1) | (st.z - cl1 - cl2)


def augmenting(m1, m2):
    """Return ``maximize_union(m1, m2)`` and the ``(before, chain, after)`` of
    each chain it applied, in order, recorded by a spy on ``union.apply_chain``.

    The spy is patched for this call only, so it also works under ``@given``,
    whose examples share one function-scoped ``monkeypatch``.
    """
    steps = []
    original = union.apply_chain

    def recording_apply_chain(a, b, before, chain, *session):
        after = original(a, b, before, chain, *session)
        steps.append((before, chain, after))
        return after

    with patch.object(union, "apply_chain", recording_apply_chain):
        state = union.maximize_union(m1, m2)
    return state, steps


@pytest.fixture
def triangle():
    return triangle_graph()


@pytest.fixture
def path3():
    return path3_graph()


@pytest.fixture
def k22():
    return k22_graph()


@pytest.fixture
def u24():
    return build(Uniform(4, 2, labels=("a", "b", "c", "d")))


@pytest.fixture
def graphic_triangle(triangle):
    return build(Graphic(triangle))


@pytest.fixture
def crossing():
    return crossing_pair()

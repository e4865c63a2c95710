"""The breadth-first helper every chain, digraph and forest search runs
on, the incidence lists every graph walk reads, and the forest search
both graphic anchors are built by."""

from matroidkit.graphs import breadth_first, incidence, path_to, rooted_forest

# 5 -> 3 and 4 -> 3 race for 3; 5 -> 2 comes before 5 -> 0 on purpose.
ARCS = {5: [2, 0, 3], 4: [3, 1], 3: [6], 2: [6], 0: [7], 1: [], 6: [], 7: []}


def test_layers_come_out_sorted():
    layers = list(breadth_first([5, 4], ARCS.__getitem__, {}))
    assert layers == [[4, 5], [0, 1, 2, 3], [6, 7]]


def test_parents_are_first_discoverers_in_layer_then_successor_order():
    parents: dict[int, int] = {}
    list(breadth_first([5, 4], ARCS.__getitem__, parents))
    # 4 is expanded before 5, so it claims 3; 2 is expanded before 3, so it
    # claims 6.  Within 5, the successor order puts 2 before 0; in the next
    # layer 0 is expanded before 2, so 7 is recorded before 6.
    assert parents == {3: 4, 1: 4, 2: 5, 0: 5, 6: 2, 7: 0}
    assert list(parents) == [3, 1, 2, 0, 7, 6]


def test_starts_never_appear_in_parents():
    parents: dict[int, int] = {}
    cyclic = {0: [1], 1: [2], 2: [0, 1]}
    assert list(breadth_first([2, 0, 2], cyclic.__getitem__, parents)) == [[0, 2], [1]]
    assert parents == {1: 0}


def test_a_layer_is_expanded_only_when_the_next_is_requested():
    calls: list[int] = []

    def successors(node):
        calls.append(node)
        return ARCS[node]

    layers = breadth_first([5], successors, {})
    assert next(layers) == [5]
    assert calls == []
    assert next(layers) == [0, 2, 3]
    assert calls == [5]
    assert next(layers) == [6, 7]
    assert calls == [5, 0, 2, 3]


def test_path_to_walks_back_to_a_start():
    parents: dict[int, int] = {}
    list(breadth_first([5, 4], ARCS.__getitem__, parents))
    assert path_to(parents, 6) == [5, 2, 6]
    assert path_to(parents, 3) == [4, 3]
    assert path_to(parents, 5) == [5]
    assert path_to({}, 9) == [9]


# Vertex 4 is isolated, e2 is a loop at 2, and e1, e3 are parallel.
ENDPOINTS = ((0, 1), (1, 2), (2, 2), (1, 2), (3, 0))


def test_incidence_lists_edges_in_the_order_given_and_a_loop_once():
    assert incidence(ENDPOINTS, 5, [3, 2, 0, 4, 1]) == [
        [(0, 1), (4, 3)],
        [(3, 2), (0, 0), (1, 2)],
        [(3, 1), (2, 2), (1, 1)],
        [(4, 0)],
        [],
    ]
    assert incidence(ENDPOINTS, 5, [2]) == [[], [], [(2, 2)], [], []]
    assert incidence(ENDPOINTS, 5, []) == [[], [], [], [], []]


def test_rooted_forest_roots_in_id_order_and_lists_parents_first():
    incident = incidence(ENDPOINTS, 5, [3, 2, 0, 4, 1])
    # All kept: one breadth-first search from 0 reaches 1 and 3 before 2,
    # takes e3 before its parallel e1 because it is listed first, and never
    # takes the loop e2; the isolated vertex 4 is a root of its own.
    order, parent, up = rooted_forest(incident, [1] * 5)
    assert order == [0, 1, 3, 2, 4]
    assert parent == [-1, 0, 1, 0, -1]
    assert up == [-1, 0, 3, 4, -1]
    # Dropping e0 splits {0, 3} from {1, 2}: the roots come as 0, 1, 4, and
    # each tree follows its root.
    order, parent, up = rooted_forest(incident, [0, 1, 1, 1, 1])
    assert order == [0, 3, 1, 2, 4]
    assert parent == [-1, -1, 1, 0, -1]
    assert up == [-1, -1, 3, 4, -1]
    for v in order:
        if parent[v] >= 0:
            assert order.index(parent[v]) < order.index(v)

import faulthandler

import pytest

from matroidkit import (
    Binary,
    Explicit,
    Graphic,
    InputError,
    InternalInvariantError,
    Multigraph,
    Partition,
    Sum,
    Uniform,
    build,
    check_axioms,
    graphic_components,
    identify_vertices,
    materialize,
)
from matroidkit.core import subsets_by_size
from matroidkit.zoo import explicit_system

from conftest import k4_graph, path3_graph, triangle_graph


def gf2_rank(matrix, columns):
    """Test-local Gaussian elimination over GF(2), independent of the zoo."""
    rows = [list(r) for r in matrix]
    cols = sorted(columns)
    vectors = [[rows[r][c] for r in range(len(rows))] for c in cols]
    rank = 0
    width = len(rows)
    pivot_rows = []
    for vec in vectors:
        vec = vec[:]
        for pr, pv in pivot_rows:
            if vec[pr]:
                vec = [(a + b) % 2 for a, b in zip(vec, pv)]
        lead = next((i for i in range(width) if vec[i]), None)
        if lead is not None:
            pivot_rows.append((lead, vec))
            rank += 1
    return rank


class TestBuild:
    def test_uniform(self):
        m = build(Uniform(4, 2))
        assert m.is_independent({0, 1})
        assert m.rank() == 2

    def test_graphic_triangle_circuits(self):
        m = build(Graphic(triangle_graph()))
        assert m.circuits() == [frozenset({0, 1, 2})]

    def test_single_loop_is_dependent(self):
        g = Multigraph.from_labels(["v"], [("e", "v", "v")])
        m = build(Graphic(g))
        assert not m.is_independent({0})

    def test_parallel_edges_dependent_together(self):
        g = Multigraph.from_labels(["u", "v"], [("e1", "u", "v"), ("e2", "u", "v")])
        m = build(Graphic(g))
        assert m.is_independent({0}) and m.is_independent({1})
        assert not m.is_independent({0, 1})

    def test_partition_zero_capacity_makes_loops(self):
        m = build(Partition((("a", "b"),), (0,)))
        assert not m.is_independent({0})
        assert m.rank() == 0

    def test_partition_ground_is_label_sorted(self):
        m = build(Partition((("d", "b"), ("a", "c")), (1, 1)))
        assert m.ground.labels == ("a", "b", "c", "d")

    def test_partition_overlapping_blocks_rejected(self):
        with pytest.raises(InputError):
            build(Partition((("a", "b"), ("b",)), (1, 1)))

    def test_binary_duplicate_columns_dependent(self):
        m = build(Binary(((1, 1),)))
        assert not m.is_independent({0, 1})

    def test_binary_zero_column_is_loop(self):
        m = build(Binary(((1, 0), (0, 0))))
        assert not m.is_independent({1})

    def test_binary_rank_matches_independent_elimination(self):
        matrices = [
            ((1, 0, 1), (0, 1, 1)),
            ((1, 1, 1, 0), (0, 1, 0, 1), (1, 0, 1, 1)),
            ((0, 0), (0, 0)),
        ]
        for matrix in matrices:
            m = build(Binary(matrix))
            for xs in subsets_by_size(m.elements()):
                assert m.rank(xs) == gf2_rank(matrix, xs)

    def test_sum_is_blockwise(self):
        m = build(Sum((Uniform(2, 1, labels=("a", "b")), Uniform(2, 2, labels=("c", "d")))))
        assert m.ground.labels == ("a", "b", "c", "d")
        assert m.is_independent({0, 2, 3})
        assert not m.is_independent({0, 1})
        for xs in subsets_by_size(range(4)):
            left = frozenset(e for e in xs if e < 2)
            right = frozenset(e - 2 for e in xs if e >= 2)
            expected = min(len(left), 1) + len(right)
            assert m.rank(xs) == expected

    def test_sum_label_clash_rejected(self):
        with pytest.raises(InputError):
            build(Sum((Uniform(1, 1, labels=("a",)), Uniform(1, 1, labels=("a",)))))

    def test_explicit_membership(self):
        m = build(Explicit(ground=("a", "b"), independent=((), ("a",))))
        assert m.is_independent(frozenset())
        assert m.is_independent({0})
        assert not m.is_independent({1})

    def test_explicit_builds_exactly_the_systems_closed_under_subsets(self):
        # Every system of subsets of a three-element ground set.  The build
        # accepts exactly those that pass i1 and i2, then answers membership;
        # otherwise its one-line reason names the i1 or the i2 witness.
        ground = ("a", "b", "c")
        pool = list(subsets_by_size(range(3)))
        for mask in range(1 << len(pool)):
            members = [s for i, s in enumerate(pool) if mask >> i & 1]
            spec = Explicit(ground, tuple(tuple(ground[e] for e in sorted(s)) for s in members))
            report = check_axioms(explicit_system(spec))
            if report.i1_ok and report.i2_ok:
                m = build(spec)
                assert [m.is_independent(s) for s in pool] == [s in members for s in pool]
                continue
            with pytest.raises(InputError) as info:
                build(spec)
            if not report.i1_ok:
                assert str(info.value) == "explicit system does not list the empty set"
            else:
                member, missing = (sorted(ground[e] for e in s) for s in report.i2_witness)
                assert str(info.value) == (
                    f"explicit system lists {member} but not its subset {missing}"
                )

    def test_dangling_edge_endpoint_rejected(self):
        with pytest.raises(InputError):
            Multigraph.from_labels(["a"], [("e", "a", "zz")])

    def test_every_family_passes_axioms_when_materialized(self):
        specs = [
            Uniform(4, 2),
            Partition((("a", "b"), ("c",)), (1, 1)),
            Graphic(triangle_graph()),
            Binary(((1, 0, 1), (0, 1, 1))),
            Explicit(ground=("a", "b"), independent=((), ("a",), ("b",))),
            Sum((Uniform(2, 1, labels=("a", "b")), Uniform(2, 1, labels=("c", "d")))),
        ]
        for spec in specs:
            assert check_axioms(materialize(build(spec))).ok, spec


class TestGraphicRankFormula:
    def test_rank_is_vertices_minus_components(self):
        graphs = [
            triangle_graph(),
            path3_graph(),
            Multigraph.from_labels(
                ["u", "v"], [("loop", "u", "u"), ("e1", "u", "v"), ("e2", "u", "v")]
            ),
        ]
        for g in graphs:
            m = build(Graphic(g))
            for xs in subsets_by_size(g.edges()):
                comps = graphic_components(g, xs)
                touched = set().union(*(c.vertices for c in comps)) if comps else set()
                assert m.rank(xs) == len(touched) - len(comps)


class TestGraphicComponents:
    def test_two_edges_of_triangle(self):
        comps = graphic_components(triangle_graph(), {0, 1})
        assert len(comps) == 1
        assert comps[0].vertices == frozenset({0, 1, 2})
        assert comps[0].is_tree

    def test_empty_edge_set(self):
        assert graphic_components(triangle_graph(), frozenset()) == []

    def test_two_disjoint_edges(self):
        g = Multigraph.from_labels(
            ["a", "b", "c", "d"], [("e0", "a", "b"), ("e1", "c", "d")]
        )
        comps = graphic_components(g, {0, 1})
        assert len(comps) == 2

    def test_loop_component_is_not_a_tree(self):
        g = Multigraph.from_labels(["v"], [("loop", "v", "v")])
        (comp,) = graphic_components(g, {0})
        assert not comp.is_tree

    @pytest.mark.parametrize(
        "g",
        [
            Multigraph.from_labels(
                ["a", "b", "c", "z", "d", "e", "f"],
                [
                    ("loop", "a", "a"), ("ab1", "a", "b"), ("ab2", "b", "a"), ("bc", "b", "c"),
                    ("de", "d", "e"), ("ef", "e", "f"), ("fd", "f", "d"), ("ff", "f", "f"),
                ],
            ),
            Multigraph.from_labels(
                ["d", "c", "b", "a"],
                [("ca", "c", "a"), ("db", "d", "b"), ("ba", "b", "a"), ("dc1", "d", "c"),
                 ("dc2", "c", "d")],
            ),
            k4_graph(),
        ],
        ids=["loop-parallel-isolated-two-parts", "ids-against-order", "k4"],
    )
    def test_every_edge_subset_matches_a_flood_fill(self, g):
        for xs in subsets_by_size(g.edges()):
            got = [(c.vertices, c.edges, c.is_tree) for c in graphic_components(g, xs)]
            assert got == _flood_fill_components(g, xs), sorted(xs)


def _flood_fill_components(g, xs):
    """Reference: every vertex on a chosen edge starts with its own id as its
    mark, and each chosen edge lowers both ends' marks to the lesser one
    until no mark moves; a component is the vertices and chosen edges of one
    mark, listed by mark, which is its least vertex."""
    mark = {v: v for e in xs for v in g.endpoints[e]}
    moved = True
    while moved:
        moved = False
        for e in xs:
            u, v = g.endpoints[e]
            if mark[u] != mark[v]:
                mark[u] = mark[v] = min(mark[u], mark[v])
                moved = True
    out = []
    for m in sorted(set(mark.values())):
        vertices = frozenset(v for v in mark if mark[v] == m)
        edges = frozenset(e for e in xs if mark[g.endpoints[e][0]] == m)
        out.append((vertices, edges, len(edges) == len(vertices) - 1))
    return out


class TestIdentifyVertices:
    def test_path_endpoints_merge_into_parallel_pair(self):
        merged, vmap = identify_vertices(path3_graph(), {0, 2})
        assert merged.vertex_count == 2
        # the merged vertex sits at the place of the least merged id, with its label
        assert vmap == {0: 0, 1: 1, 2: 0}
        assert merged.vertex_labels == ("a", "b")
        ends = {frozenset(e) for e in merged.endpoints}
        assert ends == {frozenset({vmap[0], vmap[1]})}
        assert merged.edge_labels == ("e0", "e1")

    def test_singleton_merge_is_isomorphic(self):
        merged, vmap = identify_vertices(triangle_graph(), {1})
        assert merged.vertex_count == 3
        assert sorted(vmap.values()) == [0, 1, 2]

    def test_triangle_merge_makes_loop_and_parallels(self):
        merged, vmap = identify_vertices(triangle_graph(), {0, 1})
        loops = [e for e, (u, v) in enumerate(merged.endpoints) if u == v]
        assert loops == [0]  # the edge between the merged pair
        others = [frozenset(merged.endpoints[e]) for e in merged.edges() if e not in loops]
        assert others[0] == others[1]  # parallel pair to the outside vertex

    def test_empty_merge_rejected(self):
        with pytest.raises(InputError):
            identify_vertices(triangle_graph(), frozenset())


class TestForestAnchorContract:
    """An update outside the anchor contract closes a cycle in the forest,
    which ``_hang`` reports instead of walking round it for ever; the
    ``faulthandler`` timeout turns a hang into a failure."""

    @pytest.fixture(autouse=True)
    def _timeout(self):
        faulthandler.dump_traceback_later(10, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    def test_exchange_off_the_circuit_fails(self):
        g = build(Graphic(k4_graph()))
        anchor = g._anchor(g.ground.subset_from_labels(["e0", "e4", "e5"]))
        e0, e3 = g.ground.index("e0"), g.ground.index("e3")
        assert e0 not in anchor.circuit(e3)
        with pytest.raises(InternalInvariantError, match="closed a cycle"):
            anchor.exchange(e3, e0)

    def test_grow_inside_one_tree_fails(self):
        g = build(Graphic(k4_graph()))
        anchor = g._anchor(g.ground.subset_from_labels(["e0", "e4"]))
        e2 = g.ground.index("e2")  # joins 1 and 4, both on the tree 1-2-4
        assert not anchor.extends(e2)
        with pytest.raises(InternalInvariantError, match="closed a cycle"):
            anchor.grow(e2)

    def test_grow_by_a_loop_fails_before_touching_the_forest(self):
        edges = [("ab", "a", "b"), ("cc", "c", "c")]
        g = build(Graphic(Multigraph.from_labels(["a", "b", "c"], edges)))
        anchor = g._anchor(g.ground.subset_from_labels(["ab"]))
        loop = g.ground.index("cc")
        assert not anchor.extends(loop)
        forest, base = self._forest(anchor), anchor.base
        with pytest.raises(InternalInvariantError, match="closed a cycle"):
            anchor.grow(loop)
        assert self._forest(anchor) == forest and anchor.base == base

    @staticmethod
    def _forest(anchor):
        lists = (anchor._root, anchor._depth, anchor._size, anchor._parent, anchor._up)
        return tuple(map(list, lists)), bytes(anchor._on)

    def test_a_path_grown_from_one_end_keeps_its_root(self):
        """Each grow joins the tree of vertex 0 to a lone vertex, so union
        by size hangs the lone vertex and the tree keeps its root; hanging
        the larger tree instead would move the root to the far end."""
        n = 8
        edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)]
        g = build(Graphic(Multigraph.from_labels([f"v{i}" for i in range(n)], edges)))
        anchor = g._anchor(frozenset())
        for i in range(n - 1):
            assert anchor.extends(i)
            anchor = anchor.grow(i)
            assert anchor._root[: i + 2] == [0] * (i + 2)
        assert anchor.base == frozenset(range(n - 1))


class TestCotreeAnchorContract:
    """An update outside the anchor contract of the cographic anchor raises
    InternalInvariantError with a one-line message, before it changes the
    standard form, the forest or the anchored set.  On K4, E - {e0, e1}
    reaches vertex 1 only through e2, and at the cographic base
    {e0, e1, e3} the circuit of e2 is {e0, e1, e2}."""

    @staticmethod
    def _anchor(labels):
        d = build(Graphic(k4_graph())).dual()
        anchor = d._anchor(d.ground.subset_from_labels(labels))
        assert type(anchor).__name__ == "CotreeAnchor"
        return d, anchor

    @staticmethod
    def _state(anchor):
        return list(anchor._fund), bytes(anchor._tree), anchor._b, anchor.base

    def _assert_refused(self, update, anchor, message):
        before = self._state(anchor)
        with pytest.raises(InternalInvariantError, match=message) as caught:
            update()
        assert "\n" not in str(caught.value)
        assert self._state(anchor) == before

    def test_grow_by_a_bridge_of_the_complement_fails(self):
        d, anchor = self._anchor(["e0", "e1"])
        e2 = d.ground.index("e2")
        assert not anchor.extends(e2)
        self._assert_refused(lambda: anchor.grow(e2), anchor, "bridge of E - b")
        assert anchor.circuit(e2) == d.ground.subset_from_labels(["e0", "e1", "e2"])

    def test_exchange_off_the_cocircuit_fails(self):
        d, anchor = self._anchor(["e0", "e1", "e3"])
        e2, e3 = d.ground.index("e2"), d.ground.index("e3")
        assert not anchor.extends(e2) and e3 not in anchor.circuit(e2)
        self._assert_refused(lambda: anchor.exchange(e2, e3), anchor, "off the cocircuit")
        # an exchange inside the contract still goes through afterwards
        e0 = d.ground.index("e0")
        assert anchor.exchange(e2, e0).base == d.ground.subset_from_labels(["e1", "e2", "e3"])

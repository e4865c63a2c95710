import re

import pytest

from matroidkit import (
    Binary,
    CapacityError,
    Explicit,
    Graphic,
    GroundSet,
    InputError,
    Matroid,
    Multigraph,
    NoFundamentalCircuit,
    Partition,
    Sum,
    Uniform,
    build,
    check_orthogonality,
    materialize,
    min_rank_value,
)
from matroidkit.axioms import AXIOM_CHECK_BOUND
from matroidkit.core import ENUMERATION_BOUND, subsets_by_size
from matroidkit.zoo import BlockAnchor, CotreeAnchor

from conftest import triangle_graph


def small_handles():
    """A spread of families on at most six elements for exhaustive sweeps."""
    loop_pair = Multigraph.from_labels(["u", "v"], [("e1", "u", "v"), ("e2", "v", "u")])
    return [
        build(Uniform(4, 2, labels=("a", "b", "c", "d"))),
        build(Uniform(3, 0)),
        build(Graphic(triangle_graph())),
        build(Graphic(loop_pair)),
        build(Partition((("a", "b"), ("c",)), (1, 0))),
        build(Binary(((1, 0, 1), (0, 1, 1)))),
        build(Explicit(ground=("a", "b", "c"), independent=((), ("a",), ("b",), ("c",)))),
    ]


class TestGroundSet:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(InputError):
            GroundSet(("a", "a"))

    def test_subset_rejects_out_of_range(self):
        g = GroundSet(("a", "b"))
        with pytest.raises(InputError):
            g.subset({0, 5})

    def test_label_round_trip(self):
        g = GroundSet(("x", "y", "z"))
        assert g.subset_from_labels(["z", "x"]) == frozenset({0, 2})
        assert g.labels_of({2, 0}) == ["x", "z"]

    def test_label_lookups_take_a_bounded_number_of_comparisons_each(self):
        """A scan per lookup would compare about n^2 / 2 = 180,000 label pairs here."""
        n = 600
        comparisons = [0]

        class Label(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                comparisons[0] += 1
                return str.__eq__(self, other)

        labels = [Label(f"p{i:04d}") for i in range(n)]
        copies = [Label(lbl) for lbl in labels]  # equal, but never identical
        blocks = tuple(tuple(labels[i : i + 3]) for i in range(0, n, 3))
        m = build(Partition(blocks, (1,) * len(blocks)))
        path = [(f"e{i}", labels[i], labels[i + 1]) for i in range(n - 1)]
        graph = Multigraph.from_labels(labels, path)
        comparisons[0] = 0
        assert m.ground.subset_from_labels(copies) == m.ground.full()
        assert [graph.vertex_index(lbl) for lbl in copies] == list(range(n))
        with pytest.raises(InputError):
            m.ground.index(Label("missing"))
        with pytest.raises(InputError):
            graph.vertex_index(Label("missing"))
        assert comparisons[0] <= 4 * n


class TestIndependence:
    def test_uniform_pairs(self, u24):
        assert u24.is_independent({0, 1})
        assert not u24.is_independent({0, 1, 2})

    def test_triangle_edges_dependent(self, graphic_triangle):
        assert not graphic_triangle.is_independent({0, 1, 2})

    def test_out_of_range_is_input_error(self, u24):
        with pytest.raises(InputError):
            u24.is_independent({9})

    @pytest.mark.parametrize("family", range(4), ids=["graphic", "dual", "partition", "binary"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda m: m.rank({0, 9}),
            lambda m: m.rank({-1}),
            lambda m: m.closure({9}),
            lambda m: m.fundamental_circuit({9}, 0),
            lambda m: m.fundamental_circuit({0}, 9),
            lambda m: m.fundamental_circuit({0}, -1),
            lambda m: m.maximal_extension({9}),
            lambda m: m.maximal_extension(set(), {0, 9}),
            lambda m: m.minor(contract={9}),
            lambda m: m.is_independent({"a"}),
        ],
        ids=[
            "rank", "rank-negative", "closure", "circuit-base", "circuit-x",
            "circuit-x-negative", "extension-inside", "extension-within", "minor",
            "independent-label",
        ],
    )
    def test_out_of_range_ids_are_input_errors_everywhere(self, family, call):
        graph = Multigraph.from_labels(
            ["u", "v", "w"], [("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u")]
        )
        handles = [
            build(Graphic(graph)),
            build(Graphic(graph)).dual(),
            build(Partition((("a", "b"), ("c",)), (1, 0))),
            build(Binary(((1, 0, 1), (0, 1, 1)))),
        ]
        with pytest.raises(InputError):
            call(handles[family])

    def test_every_query_reaches_the_oracle_except_the_rank_of_e(self):
        """A handle caches r(E) and nothing else."""
        asked = []

        def rank(xs):
            asked.append(xs)
            return min(len(xs), 2)

        m = Matroid(GroundSet(("a", "b", "c")), provenance="counted", rank=rank)
        assert m.is_independent({0, 1}) is m.is_independent({0, 1}) is True
        assert m.rank() == m.rank() == 2
        assert asked == [frozenset({0, 1})] * 2 + [frozenset({0, 1, 2})]


class TestRank:
    def test_triangle_full_rank(self, graphic_triangle):
        assert graphic_triangle.rank() == 2

    def test_uniform_singleton(self, u24):
        assert u24.rank({0}) == 1

    def test_empty_set(self, u24, graphic_triangle):
        assert u24.rank(frozenset()) == 0
        assert graphic_triangle.rank(frozenset()) == 0


class TestClosure:
    def test_triangle_two_edges_span_third(self, graphic_triangle):
        assert graphic_triangle.closure({0, 1}) == frozenset({0, 1, 2})

    def test_uniform_no_two_circuits(self, u24):
        assert u24.closure({0}) == frozenset({0})

    def test_idempotent(self, graphic_triangle, u24):
        for m in (graphic_triangle, u24):
            for xs in subsets_by_size(m.elements()):
                once = m.closure(xs)
                assert m.closure(once) == once

    def test_closure_of_empty_is_loop_set(self):
        g = Multigraph.from_labels(["u", "v"], [("loop", "u", "u"), ("e", "u", "v")])
        m = build(Graphic(g))
        assert m.closure(frozenset()) == frozenset({0})


class TestFundamentalCircuit:
    def test_triangle(self, graphic_triangle):
        assert graphic_triangle.fundamental_circuit({0, 1}, 2) == frozenset({0, 1, 2})

    def test_uniform_whole_set(self):
        m = build(Uniform(3, 2, labels=("a", "b", "c")))
        assert m.fundamental_circuit({0, 1}, 2) == frozenset({0, 1, 2})

    def test_partition_block_pair(self):
        m = build(Partition((("a", "b"),), (1,)))
        assert m.fundamental_circuit({0}, 1) == frozenset({0, 1})

    def test_independent_extension_raises(self, u24):
        with pytest.raises(NoFundamentalCircuit):
            u24.fundamental_circuit({0}, 1)

    def test_dependent_base_is_input_error(self, graphic_triangle):
        with pytest.raises(InputError):
            graphic_triangle.fundamental_circuit({0, 1, 2}, 0)

    def test_member_element_is_input_error(self, u24):
        with pytest.raises(InputError):
            u24.fundamental_circuit({0, 1}, 0)

    def test_circuit_minimality(self):
        for m in small_handles():
            for base in subsets_by_size(m.elements()):
                if not m.is_independent(base):
                    continue
                for x in m.elements():
                    if x in base or m.is_independent(base | {x}):
                        continue
                    circuit = m.fundamental_circuit(base, x)
                    assert not m.is_independent(circuit)
                    for e in circuit:
                        assert m.is_independent(circuit - {e})


class TestDual:
    def test_uniform_duality(self):
        d = build(Uniform(3, 1)).dual()
        u23 = build(Uniform(3, 2))
        for xs in subsets_by_size(range(3)):
            assert d.is_independent(xs) == u23.is_independent(xs)

    def test_involution_exhaustive(self):
        """The dual of a wrapper dual, or of a cographic handle, is the very
        handle it was built from; partition and uniform duals are native,
        and their duals equal handles."""
        extra = [
            build(Sum((Uniform(2, 1, labels=("s0", "s1")), Graphic(triangle_graph())))),
            build(Binary(((1, 0, 1), (0, 1, 1)))).minor(contract={0}),
        ]
        for m in small_handles() + extra:
            dd = m.dual().dual()
            if m.provenance.startswith(("uniform(", "partition(")):
                assert repr(dd) == repr(m)
            else:
                assert dd is m, m.provenance
            for xs in subsets_by_size(m.elements()):
                assert dd.is_independent(xs) == m.is_independent(xs)

    def test_free_matroid_dual_is_rank_zero(self):
        d = build(Uniform(3, 3)).dual()
        assert d.rank() == 0
        assert d.is_independent(frozenset())
        assert not d.is_independent({0})

    def test_rank_sum_equals_ground_size(self):
        for m in small_handles():
            assert m.rank() + m.dual().rank() == m.ground.size

    def test_partition_and_uniform_duals_are_native_and_keep_their_provenance(self):
        partition = build(Partition((("a", "b"), ("c",)), (1, 1)))
        uniform = build(Uniform(3, 1))
        for m, anchor in ((partition, BlockAnchor), (uniform, BlockAnchor)):
            d = m.dual()
            assert d.provenance == f"dual({m.provenance})"
            assert repr(d.dual()) == repr(m)
            assert type(d._anchor(frozenset())) is anchor
        graphic = build(Graphic(triangle_graph()))
        cographic = graphic.dual()
        assert cographic.provenance == f"dual({graphic.provenance})"
        assert type(cographic._anchor(frozenset())) is CotreeAnchor
        assert cographic.dual() is graphic


class TestMinor:
    def test_uniform_contract_behaves_as_smaller_uniform(self):
        m = build(Uniform(4, 2, labels=("a", "b", "c", "d"))).minor(contract={0})
        u13 = build(Uniform(3, 1))
        assert m.ground.labels == ("b", "c", "d")
        for xs in subsets_by_size(range(3)):
            assert m.is_independent(xs) == u13.is_independent(xs)

    def test_trivial_minor_is_identity(self, graphic_triangle):
        m = graphic_triangle.minor()
        for xs in subsets_by_size(range(3)):
            assert m.is_independent(xs) == graphic_triangle.is_independent(xs)

    def test_path_deletion_leaves_free_matroid(self, path3):
        m = build(Graphic(path3)).minor(delete={1})
        assert m.ground.labels == ("e0",)
        assert m.is_independent({0})

    def test_overlapping_sets_rejected(self, u24):
        with pytest.raises(InputError):
            u24.minor(contract={0}, delete={0})

    def test_rank_identity_exhaustive(self):
        for m in small_handles():
            elements = list(m.elements())
            for contract in subsets_by_size(elements):
                delete = frozenset(elements) - contract
                delete = frozenset(sorted(delete)[:1])
                if contract & delete:
                    continue
                minor = m.minor(contract, delete)
                kept = [e for e in elements if e not in contract and e not in delete]
                for xs in subsets_by_size(range(len(kept))):
                    mapped = frozenset(kept[i] for i in xs)
                    assert minor.rank(xs) == m.rank(mapped | contract) - m.rank(contract)


class TestMaximalExtension:
    def test_triangle_canonical_tree(self, graphic_triangle):
        assert graphic_triangle.maximal_extension(frozenset()) == frozenset({0, 1})

    def test_already_maximal_returned_unchanged(self, graphic_triangle):
        assert graphic_triangle.maximal_extension({0, 2}) == frozenset({0, 2})

    def test_uniform_canonical_order(self):
        m = build(Uniform(3, 1))
        assert m.maximal_extension(frozenset()) == frozenset({0})

    def test_dependent_start_is_input_error(self, graphic_triangle):
        with pytest.raises(InputError):
            graphic_triangle.maximal_extension({0, 1, 2})

    def test_start_outside_superset_is_input_error(self, u24):
        with pytest.raises(InputError):
            u24.maximal_extension({0}, within={1, 2})


class TestCircuits:
    def test_triangle(self, graphic_triangle):
        assert graphic_triangle.circuits() == [frozenset({0, 1, 2})]

    def test_parallel_pair(self):
        g = Multigraph.from_labels(["u", "v"], [("e1", "u", "v"), ("e2", "u", "v")])
        assert build(Graphic(g)).circuits() == [frozenset({0, 1})]

    def test_free_matroid_has_none(self):
        assert build(Uniform(3, 3)).circuits() == []

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            build(Uniform(13, 2)).circuits()


class TestOrthogonality:
    def test_uniform_one_of_three(self):
        assert check_orthogonality(build(Uniform(3, 1)))

    def test_triangle(self, graphic_triangle):
        assert check_orthogonality(graphic_triangle)

    def test_free_matroid_vacuous(self):
        assert check_orthogonality(build(Uniform(2, 2)))

    def test_all_small_handles(self):
        for m in small_handles():
            assert check_orthogonality(m)


@pytest.mark.parametrize(
    "run, cap, what",
    [
        (lambda m: m.circuits(), ENUMERATION_BOUND, "circuit enumeration"),
        (check_orthogonality, ENUMERATION_BOUND, "circuit enumeration"),
        (lambda m: min_rank_value(m, m), ENUMERATION_BOUND, "min-rank sweep"),
        (materialize, AXIOM_CHECK_BOUND, "materialization"),
    ],
    ids=["circuits", "orthogonality", "min-rank", "materialize"],
)
def test_each_exhaustive_helper_runs_at_its_cap_and_refuses_one_more(run, cap, what):
    run(build(Uniform(cap, 1)))
    message = f"{what} requires |E| <= {cap}, got {cap + 1}"
    with pytest.raises(CapacityError, match=re.escape(message)):
        run(build(Uniform(cap + 1, 1)))


class TestConcurrentReads:
    def test_shared_handle_answers_consistently_across_threads(self):
        import threading

        m = build(Graphic(triangle_graph())).dual()
        subsets = list(subsets_by_size(m.elements()))
        expected = [m.is_independent(xs) for xs in subsets]
        results = {}

        def worker(tag):
            results[tag] = [m.is_independent(xs) for xs in subsets]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results[i] == expected for i in range(4))


class TestRankAxioms:
    def test_bounded_monotone_submodular(self):
        for m in small_handles():
            subsets = list(subsets_by_size(m.elements()))
            ranks = {xs: m.rank(xs) for xs in subsets}
            for xs in subsets:
                assert ranks[xs] <= len(xs)
                for e in m.elements():
                    assert ranks[xs] <= ranks[xs | {e}]
            for xs in subsets:
                for ys in subsets:
                    assert ranks[xs | ys] + ranks[xs & ys] <= ranks[xs] + ranks[ys]

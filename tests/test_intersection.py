import random

import pytest

from matroidkit import intersection

from matroidkit import (
    Binary,
    CapacityError,
    Explicit,
    Graphic,
    InputError,
    InternalInvariantError,
    IntersectionCertificate,
    PairState,
    Partition,
    Uniform,
    apply_chain,
    build,
    certify,
    min_rank_value,
    verify_certificate,
    violation_chain,
)
from matroidkit.intersection import (
    ExchangeDigraph,
    build_digraph,
    build_state,
    divisive_coloring,
    state_from_bases,
)
from matroidkit.generate import random_matroid_pairs
from matroidkit.oracles import brute_max_common_independent
from matroidkit.union import COMMON, EVEN

from conftest import crossing_pair, escaping_elements, triangle_graph

fs = frozenset


def random_base(m, rng):
    """A base of ``m`` grown greedily in a shuffled element order."""
    order = list(m.elements())
    rng.shuffle(order)
    base = fs()
    for e in order:
        if m.is_independent(base | {e}):
            base |= {e}
    return base


def reach_by_arcs(arcs, starts, forward=True):
    """The nodes a plain search along (or against) the listed arcs reaches."""
    step = {}
    for tail, head, _ in arcs:
        a, b = (tail, head) if forward else (head, tail)
        step.setdefault(a, set()).add(b)
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        frontier = [v for u in frontier for v in step.get(u, ()) if v not in seen]
        seen.update(frontier)
    return seen


def assert_digraph_matches_definition(m1, m2, st, dg):
    """Check ``dg`` against the pairwise arc, circuit, spanning and upstream
    definitions; count arcs."""
    nodes = sorted(m1.ground.full() - st.i)
    c1 = {v: m1.fundamental_circuit(st.b1, v) & st.i for v in nodes if v not in st.b1}
    c2 = {v: m2.fundamental_circuit(st.b2, v) & st.i for v in nodes if v not in st.b2}
    assert dg.first == {v: tuple(sorted(c)) for v, c in c1.items() if c}
    assert dg.second == {v: tuple(sorted(c)) for v, c in c2.items() if c}
    expected = []
    for tail in c1:
        for head in (v for v in c2 if v != tail):
            shared = c1[tail] & c2[head]
            if shared:
                expected.append((tail, head, min(shared)))
    assert dg.arcs == tuple(expected)
    first = fs(v for v in nodes if not m1.is_independent(st.i | {v}))
    second = fs(v for v in nodes if not m2.is_independent(st.i | {v}))
    assert (dg.spanned_first, dg.spanned_second) == (first, second)
    assert dg.pre_colors == (first - second, second - first)
    for heads in [first - second, second - first, *({v} for v in nodes)]:
        assert dg.upstream(heads) == reach_by_arcs(expected, heads, forward=False)
    return len(expected)


def check_coloring_against_two_searches(dg):
    """Blue spreads forward along the arcs from the pre-blue nodes and red
    backward from the pre-red ones; the two must not meet, and the nodes
    neither reaches are blue.  ``divisive_coloring``'s one search against
    the arcs must decide the same, or fail on a path from pre-blue to
    pre-red.  Returns whether the searches met."""
    pre_blue = dg.spanned_first - dg.spanned_second
    pre_red = dg.spanned_second - dg.spanned_first
    forward = reach_by_arcs(dg.arcs, pre_blue)
    backward = reach_by_arcs(dg.arcs, pre_red, forward=False)
    if not forward & backward:
        coloring = divisive_coloring(dg)
        assert coloring.red == backward
        assert coloring.blue == forward | (dg.nodes - backward)
        return False
    with pytest.raises(InternalInvariantError, match="blue node reaches a red node") as info:
        divisive_coloring(dg)
    path = info.value.payload
    assert path[0] in pre_blue and path[-1] in pre_red
    assert set(zip(path, path[1:])) <= {(tail, head) for tail, head, _ in dg.arcs}
    return True


def seeded_states():
    """The 40 seeded pairs, each with its maximal split and one split of a
    random base pair, which need not be maximal."""
    rng = random.Random(11)
    for spec1, spec2 in random_matroid_pairs(3, 40, max_elements=10):
        m1, m2 = build(spec1), build(spec2)
        states = [
            build_state(m1, m2),
            state_from_bases(m1, m2, random_base(m1, rng), random_base(m2.dual(), rng)),
        ]
        yield m1, m2, states


def rank1_triple():
    """One block of capacity one on {i, x, y}: every pair is dependent."""
    m = build(Partition((("i", "x", "y"),), (1,)))
    return m, build(Partition((("i", "x", "y"),), (1,)))


class TestBuildState:
    def test_rank_one_pair_splits_as_expected(self):
        # All three elements are interchangeable, so the exhaustively
        # confirmed shape is: bases coincide on a singleton I, X and Y are
        # empty, and the other two elements land in Z.
        m1, m2 = rank1_triple()
        st = build_state(m1, m2)
        assert st.b1 == st.b2 == st.i
        assert len(st.i) == 1
        assert st.x == fs() and st.y == fs()
        assert st.z == m1.ground.full() - st.i
        assert build_state(m1, m2) == st  # schedule is deterministic

    def test_free_second_matroid_forces_y(self):
        m1 = build(Uniform(3, 1))
        m2 = build(Uniform(3, 3))
        st = build_state(m1, m2)
        assert st.b2star == fs()
        assert st.i == st.b1
        assert st.y == m1.ground.full() - st.b1
        assert st.x == fs() and st.z == fs()

    def test_free_against_rank_zero_puts_everything_in_x(self):
        m1 = build(Uniform(2, 2))
        m2 = build(Uniform(2, 0))
        st = build_state(m1, m2)
        assert st.i == fs()
        assert st.x == m1.ground.full()

    def test_partition_of_ground_set(self):
        m1, m2 = crossing_pair()
        st = build_state(m1, m2)
        pieces = [st.i, st.x, st.y, st.z]
        assert fs().union(*pieces) == m1.ground.full()
        assert sum(len(p) for p in pieces) == m1.ground.size

    def test_span_containments_hold(self):
        for m1, m2 in [crossing_pair(), rank1_triple()]:
            assert not escaping_elements(m1, m2, build_state(m1, m2))

    def test_ground_mismatch(self):
        with pytest.raises(InputError):
            build_state(build(Uniform(2, 1)), build(Uniform(3, 1)))


class TestDigraph:
    def test_rank_one_two_cycle_with_witness(self):
        # The two Z-elements form a two-cycle, each arc witnessed by the
        # single element of I.
        m1, m2 = rank1_triple()
        st = build_state(m1, m2)
        dg = build_digraph(m1, m2, st)
        (common,) = st.i
        za, zb = sorted(st.z)
        assert set(dg.arcs) == {(za, zb, common), (zb, za, common)}

    def test_empty_common_set_means_no_arcs(self):
        m1 = build(Uniform(2, 2))
        m2 = build(Uniform(2, 0))
        dg = build_digraph(m1, m2, build_state(m1, m2))
        assert dg.arcs == ()

    def test_free_second_matroid_all_sources(self):
        m1 = build(Uniform(3, 1))
        m2 = build(Uniform(3, 3))
        st = build_state(m1, m2)
        dg = build_digraph(m1, m2, st)
        assert dg.nodes == st.y
        assert dg.arcs == ()

    def test_x_nodes_are_sinks_and_y_nodes_are_sources(self):
        for m1, m2 in [crossing_pair(), rank1_triple()]:
            st = build_state(m1, m2)
            dg = build_digraph(m1, m2, st)
            tails = {t for t, _, _ in dg.arcs}
            heads = {h for _, h, _ in dg.arcs}
            assert not (st.x & tails)
            assert not (st.y & heads)

    def test_indexed_arcs_match_the_pairwise_definition(self):
        # Every (tail, head) pair whose circuits into B1 and B2 share an
        # element of I, in id order, witnessed by the least shared element;
        # spanned nodes are those I + v makes dependent.  The spanned sets
        # are read off the base circuits, so the same must hold for base
        # pairs that are not maximal, and there the coloring must reject
        # exactly the elements that escape the closures of I.
        arcs = [0, 0]
        escapes = 0
        for m1, m2, states in seeded_states():
            for k, st in enumerate(states):
                dg = build_digraph(m1, m2, st)
                arcs[k] += assert_digraph_matches_definition(m1, m2, st, dg)
                escaping = escaping_elements(m1, m2, st)
                if escaping:
                    escapes += 1
                    with pytest.raises(InternalInvariantError, match="neither") as info:
                        divisive_coloring(dg)
                    assert info.value.payload == sorted(escaping)
                else:
                    try:
                        divisive_coloring(dg)
                    except InternalInvariantError as exc:
                        assert "neither" not in str(exc)
            assert not escaping_elements(m1, m2, states[0])
        assert arcs[0] > 50 and arcs[1] > 5
        assert escapes > 5

    def test_arcs_and_upstream_run_through_the_shared_elements_of_i(self):
        # Nodes 0-3 and I = {5, 7}: no self-arc at 0, the least shared
        # element witnesses (0, 1), and 3 shares nothing with anyone.
        dg = ExchangeDigraph(
            nodes=fs({0, 1, 2, 3}),
            first={0: (5, 7), 2: (5,)},
            second={0: (7,), 1: (5, 7)},
            spanned_first=fs(),
            spanned_second=fs(),
        )
        assert dg.arcs == ((0, 1, 5), (2, 1, 5))
        assert dg.upstream({1}) == {0, 1, 2}
        assert dg.upstream({0}) == {0}
        assert dg.upstream({2}) == {2}
        assert dg.upstream({3}) == {3}

    def test_a_successful_pipeline_builds_no_arc_tuple(self):
        for spec1, spec2 in random_matroid_pairs(5, 20, max_elements=10):
            m1, m2 = build(spec1), build(spec2)
            dg = intersection.pipeline(m1, m2)[1]
            assert "arcs" not in vars(dg)


class TestColoring:
    def test_one_upstream_search_matches_the_two_search_definition(self):
        checked = 0
        for m1, m2, states in seeded_states():
            for st in states:
                dg = build_digraph(m1, m2, st)
                if not dg.nodes - dg.spanned_first - dg.spanned_second:
                    check_coloring_against_two_searches(dg)
                    checked += 1
        assert checked > 60

    def test_uncolored_nodes_default_to_blue(self):
        m1, m2 = rank1_triple()
        st = build_state(m1, m2)
        dg = build_digraph(m1, m2, st)
        coloring = divisive_coloring(dg)
        assert coloring.blue == st.z
        assert coloring.red == fs()

    def test_all_sources_all_blue(self):
        m1 = build(Uniform(3, 1))
        m2 = build(Uniform(3, 3))
        st = build_state(m1, m2)
        coloring = divisive_coloring(build_digraph(m1, m2, st))
        assert coloring.blue == st.y

    def test_empty_digraph_empty_coloring(self):
        m1 = build(Uniform(2, 2))
        m2 = build(Uniform(2, 2))
        st = build_state(m1, m2)
        coloring = divisive_coloring(build_digraph(m1, m2, st))
        assert coloring.blue == fs() and coloring.red == fs()

    def test_divisive_conditions_hold(self):
        for m1, m2 in [crossing_pair(), rank1_triple()]:
            st = build_state(m1, m2)
            dg = build_digraph(m1, m2, st)
            coloring = divisive_coloring(dg)
            for v in coloring.blue:
                assert m1.fundamental_circuit(st.b1, v) - {v} <= st.i
            for v in coloring.red:
                assert m2.fundamental_circuit(st.b2, v) - {v} <= st.i

    def test_source_spanned_only_in_second_matroid_goes_red(self):
        # A maximal base pair where a digraph source with an outgoing arc is
        # spanned by I only in the second matroid: coloring by source-hood
        # would break; coloring by closure keeps the certificate valid.
        m1 = build(Uniform(3, 2, labels=("x", "i", "z")))
        m2 = build(Explicit(ground=("x", "i", "z"), independent=((), ("x",), ("i",))))
        st = state_from_bases(
            m1, m2, m1.ground.subset_from_labels("xi"), m1.ground.subset_from_labels("xz")
        )
        assert not escaping_elements(m1, m2, st)
        dg = build_digraph(m1, m2, st)
        z = m1.ground.index("z")
        assert z not in {h for _, h, _ in dg.arcs}  # z is a source
        assert any(t == z for t, _, _ in dg.arcs)  # with an outgoing arc
        coloring = divisive_coloring(dg)
        assert z in coloring.red
        assert violation_chain(m1, m2, st) is None


class TestCertify:
    def test_crossing_partitions(self):
        m1, m2 = crossing_pair()
        cert = certify(m1, m2)
        assert len(cert.i) == 2
        assert verify_certificate(m1, m2, cert)

    def test_identical_matroids_yield_a_common_base(self):
        m = build(Graphic(triangle_graph()))
        cert = certify(m, m)
        assert len(cert.i) == m.rank()
        assert verify_certificate(m, m, cert)

    def test_triangle_against_uniform(self):
        m1 = build(Graphic(triangle_graph()))
        m2 = build(Uniform(3, 2, labels=("e1", "e2", "e3")))
        cert = certify(m1, m2)
        assert len(cert.i) == 2
        assert len(cert.i) == brute_max_common_independent(m1, m2)[0]

    def test_certificates_are_deterministic(self):
        m1, m2 = crossing_pair()
        assert certify(m1, m2) == certify(m1, m2)


class TestVerifyCertificate:
    def test_fresh_certificates_verify(self):
        m1, m2 = rank1_triple()
        assert verify_certificate(m1, m2, certify(m1, m2))

    def test_overlapping_parts_rejected(self):
        m1, m2 = crossing_pair()
        cert = certify(m1, m2)
        e = min(cert.j1 | cert.j2)
        tampered = IntersectionCertificate(cert.i, cert.j1 | {e}, cert.j2 | {e})
        verdict = verify_certificate(m1, m2, tampered)
        assert not verdict and verdict.reason == "parts overlap"

    def test_dropping_an_element_breaks_the_cover(self):
        m1, m2 = crossing_pair()
        cert = certify(m1, m2)
        e = min(cert.i)
        tampered = IntersectionCertificate(cert.i - {e}, cert.j1 - {e}, cert.j2 - {e})
        verdict = verify_certificate(m1, m2, tampered)
        assert not verdict and verdict.reason == "closure cover misses elements"

    def test_non_partition_rejected(self):
        m1, m2 = crossing_pair()
        cert = certify(m1, m2)
        e = min(cert.i)
        tampered = IntersectionCertificate(cert.i, cert.j1 - {e}, cert.j2 - {e})
        verdict = verify_certificate(m1, m2, tampered)
        assert not verdict and verdict.reason == "parts do not partition I"

    def test_dependent_common_set_rejected(self):
        m1, m2 = crossing_pair()
        bad = m1.ground.subset_from_labels("ab")  # one block of the first matroid
        verdict = verify_certificate(m1, m2, IntersectionCertificate(bad, bad, fs()))
        assert not verdict and "dependent" in verdict.reason

    def test_unknown_elements_rejected(self):
        m1, m2 = crossing_pair()
        verdict = verify_certificate(
            m1, m2, IntersectionCertificate(fs({99}), fs({99}), fs())
        )
        assert not verdict and verdict.reason == "certificate references unknown elements"

    def test_ground_mismatch_rejected(self):
        m1, m2 = build(Uniform(2, 1)), build(Uniform(3, 1))
        verdict = verify_certificate(m1, m2, IntersectionCertificate(fs({0}), fs({0}), fs()))
        assert not verdict and verdict.reason == "matroids disagree on the ground set"


class TestMinRank:
    def test_crossing_partitions(self):
        m1, m2 = crossing_pair()
        assert min_rank_value(m1, m2) == 2

    def test_identical_matroids(self):
        m = build(Graphic(triangle_graph()))
        assert min_rank_value(m, m) == m.rank()

    def test_rank_zero_partner(self):
        assert min_rank_value(build(Uniform(2, 2)), build(Uniform(2, 0))) == 0

    def test_capacity(self):
        with pytest.raises(CapacityError):
            min_rank_value(build(Uniform(13, 2)), build(Uniform(13, 2)))


class TestViolationChain:
    def test_corrupted_base_pair_yields_an_augmenting_chain(self):
        m1, m2 = crossing_pair()
        idx = m1.ground.subset_from_labels
        st = state_from_bases(m1, m2, idx("ac"), idx("ab"))
        chain = violation_chain(m1, m2, st)
        lab = m1.ground.labels_of
        assert [lab({e})[0] for e in chain.elements] == ["d", "c", "a"]
        assert chain.parity == EVEN and chain.terminal == COMMON
        before = PairState(st.b1, st.b2star)
        after = apply_chain(m1, m2.dual(), before, chain)
        assert len(after.union) == len(before.union) + 1

    def test_corrupted_pair_fails_the_coloring_stage(self):
        m1, m2 = crossing_pair()
        idx = m1.ground.subset_from_labels
        st = state_from_bases(m1, m2, idx("ac"), idx("ab"))
        with pytest.raises(InternalInvariantError):
            divisive_coloring(build_digraph(m1, m2, st))

    def test_pipeline_rejects_a_non_maximal_base_pair_naming_the_unspanned(
        self, monkeypatch
    ):
        # With the union search forced to stop at (ac, ab), b is spanned by
        # I = {c} in neither matroid; the pipeline fails on it, not later.
        m1, m2 = crossing_pair()
        idx = m1.ground.subset_from_labels
        monkeypatch.setattr(
            intersection, "maximize_union", lambda *a, **k: PairState(idx("ac"), idx("ab"))
        )
        with pytest.raises(InternalInvariantError, match="neither") as info:
            intersection.pipeline(m1, m2)
        assert info.value.payload == sorted(idx("b"))

    # Binary pairs with a base pair (B1, B2*) whose coloring finds a blue
    # node reaching a red one, one for each way the path can sit: its start
    # in Y or in Z, its end in X or in Z.  The off-Y start and the off-X end
    # are the ones violation_chain enters and leaves through an extra link.
    @pytest.mark.parametrize(
        "matrix1,matrix2,b1,b2star,starts_in_y,ends_in_x",
        [
            (((1, 1, 1), (0, 1, 0)), ((1, 1, 1), (0, 1, 1)), {1, 2}, {1}, True, True),
            (((1, 0, 1, 1), (1, 1, 0, 0)), ((0, 1, 1, 1), (0, 1, 1, 0)), {0, 2}, {0, 1}, True, False),
            (((0, 1, 1, 1), (0, 0, 0, 1)), ((0, 1, 0, 1), (1, 1, 1, 1)), {1, 3}, {2, 3}, False, True),
            (
                ((0, 1, 0, 1, 1), (1, 0, 0, 1, 1)),
                ((0, 0, 1, 1, 0), (1, 0, 0, 0, 1)),
                {1, 4},
                {0, 1, 3},
                False,
                False,
            ),
        ],
        ids=["y-to-x", "y-to-z", "z-to-x", "z-to-z"],
    )
    def test_a_blue_to_red_path_rewinds_into_a_growing_chain(
        self, matrix1, matrix2, b1, b2star, starts_in_y, ends_in_x
    ):
        m1, m2 = build(Binary(matrix1)), build(Binary(matrix2))
        st = state_from_bases(m1, m2, fs(b1), fs(b2star))
        dg = build_digraph(m1, m2, st)
        assert check_coloring_against_two_searches(dg)
        with pytest.raises(InternalInvariantError, match="blue node reaches a red node") as info:
            divisive_coloring(dg)
        path = info.value.payload
        assert path[0] in dg.spanned_first - dg.spanned_second
        assert path[-1] in dg.spanned_second - dg.spanned_first
        assert (path[0] in st.y, path[-1] in st.x) == (starts_in_y, ends_in_x)
        chain = violation_chain(m1, m2, st)
        before = PairState(st.b1, st.b2star)
        after = apply_chain(m1, m2.dual(), before, chain)
        assert len(after.union) == len(before.union) + 1

    def test_maximal_states_have_no_violation(self):
        for m1, m2 in [crossing_pair(), rank1_triple()]:
            assert violation_chain(m1, m2, build_state(m1, m2)) is None

    def test_non_base_inputs_rejected(self):
        m1, m2 = crossing_pair()
        with pytest.raises(InputError):
            state_from_bases(m1, m2, fs(), fs())

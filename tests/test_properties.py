"""Property-based checks over randomly composed families."""

import pytest
from hypothesis import given, settings, strategies as st

from matroidkit import (
    Binary,
    ConsistencyError,
    Dual,
    Explicit,
    Graphic,
    InternalInvariantError,
    Minor,
    Multigraph,
    NoFundamentalCircuit,
    Partition,
    Sum,
    Uniform,
    build,
)
from matroidkit.core import Matroid, RankAnchor
from matroidkit.generate import random_family, random_matroid_pairs
from matroidkit.oracles import brute_union_max
from matroidkit.union import maximize_union
from matroidkit.zoo import CotreeAnchor

from conftest import augmenting

import random

# A fixed pool of handles keeps example generation cheap and reproducible.
_POOL = [
    build(random_family(random.Random(seed), size))
    for seed, size in [(1, 3), (2, 4), (3, 5), (4, 6), (5, 4), (6, 5), (7, 6), (8, 3)]
]

handles = st.sampled_from(_POOL)
masks = st.integers(min_value=0, max_value=(1 << 6) - 1)


def _subset(matroid, mask):
    return frozenset(e for e in matroid.elements() if mask >> e & 1)


@given(handles, masks, masks)
@settings(max_examples=150, deadline=None)
def test_rank_is_bounded_monotone_and_submodular(m, mask_a, mask_b):
    xs, ys = _subset(m, mask_a), _subset(m, mask_b)
    assert m.rank(xs) <= len(xs)
    assert m.rank(xs & ys) <= m.rank(xs) <= m.rank(xs | ys)
    assert m.rank(xs | ys) + m.rank(xs & ys) <= m.rank(xs) + m.rank(ys)


@given(handles, masks)
@settings(max_examples=100, deadline=None)
def test_closure_is_extensive_monotone_and_idempotent(m, mask):
    xs = _subset(m, mask)
    closed = m.closure(xs)
    assert xs <= closed
    assert m.closure(closed) == closed
    assert m.rank(closed) == m.rank(xs)


@given(handles, masks)
@settings(max_examples=100, deadline=None)
def test_dual_is_an_involution_and_ranks_are_complementary(m, mask):
    xs = _subset(m, mask)
    assert m.dual().dual().is_independent(xs) == m.is_independent(xs)
    assert m.rank() + m.dual().rank() == m.ground.size


@given(handles, masks, st.integers(min_value=0, max_value=5))
@settings(max_examples=150, deadline=None)
def test_fundamental_circuits_are_circuits(m, mask, x):
    if x >= m.ground.size:
        return
    base = m.maximal_extension(frozenset(), _subset(m, mask))
    if x in base:
        return
    try:
        circuit = m.fundamental_circuit(base, x)
    except NoFundamentalCircuit:
        assert m.is_independent(base | {x})
        return
    assert x in circuit
    assert not m.is_independent(circuit)
    for e in circuit:
        assert m.is_independent(circuit - {e})


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_union_reaches_the_exhaustive_maximum(seed):
    ((spec1, spec2),) = random_matroid_pairs(seed, 1, max_elements=6)
    m1, m2 = build(spec1), build(spec2)
    state, steps = augmenting(m1, m2)
    for before, _, after in steps:
        assert len(after.union) == len(before.union) + 1
        assert m1.is_independent(after.i1) and m2.is_independent(after.i2)
    assert len(state.union) == brute_union_max(m1, m2)


# -- native rank against independence predicates written here ----------------
#
# Each case pairs a handle with a reference predicate on its element ids that
# never consults a matroidkit rank.  The reference rank of X is the size of a
# largest subset of X the predicate accepts, found by trying every subset.


def _all_subsets(xs):
    pool = sorted(xs)
    return [frozenset(e for i, e in enumerate(pool) if mask >> i & 1) for mask in range(1 << len(pool))]


def _reference_rank(indep, xs):
    return max(len(s) for s in _all_subsets(xs) if indep(s))


def _cached(indep):
    memo = {}

    def cached(xs):
        if xs not in memo:
            memo[xs] = indep(xs)
        return memo[xs]

    return cached


def _ref_uniform(k):
    return lambda xs: len(xs) <= k


def _ref_partition(block_of, caps):
    def indep(xs):
        counts = [0] * len(caps)
        for e in xs:
            counts[block_of[e]] += 1
        return all(c <= cap for c, cap in zip(counts, caps))

    return indep


def _ref_forest(endpoints):
    """Acyclic edge sets: no edge joins two vertices already connected (loops included)."""

    def indep(xs):
        parent = {}

        def root(v):
            while parent.get(v, v) != v:
                v = parent[v]
            return v

        for e in xs:
            a, b = root(endpoints[e][0]), root(endpoints[e][1])
            if a == b:
                return False
            parent[a] = b
        return True

    return indep


def _ref_gf2(columns):
    """No nonempty subset of the columns sums to zero over GF(2)."""

    def indep(xs):
        for sub in _all_subsets(xs):
            total = 0
            for e in sub:
                total ^= columns[e]
            if sub and total == 0:
                return False
        return True

    return indep


def _ref_dual(indep, n):
    full = frozenset(range(n))
    full_rank = _reference_rank(indep, full)
    return lambda xs: _reference_rank(indep, full - xs) == full_rank


def _ref_minor(indep, n, contract, delete):
    kept = [e for e in range(n) if e not in contract and e not in delete]
    contracted = _reference_rank(indep, contract)
    return lambda xs: (
        _reference_rank(indep, frozenset(kept[e] for e in xs) | contract) - contracted == len(xs)
    )


def _rank_cases():
    # u-v twice (parallel), v-w, a loop at w, w-u.
    graph = Multigraph.from_labels(
        ["u", "v", "w"],
        [("g0", "u", "v"), ("g1", "u", "v"), ("g2", "v", "w"), ("g3", "w", "w"), ("g4", "w", "u")],
    )
    graph_ref = _cached(_ref_forest(((0, 1), (0, 1), (1, 2), (2, 2), (2, 0))))
    # Columns (1,0), zero, (1,1), (1,0) again, (0,1).
    matrix = ((1, 0, 1, 1, 0), (0, 0, 1, 0, 1))
    binary_ref = _cached(_ref_gf2((0b01, 0b00, 0b11, 0b01, 0b10)))
    partition = Partition((("p0", "p1"), ("p2",), ("p3", "p4")), (1, 0, 2))
    partition_ref = _cached(_ref_partition((0, 0, 1, 2, 2), (1, 0, 2)))
    explicit_members = tuple(
        tuple(f"x{e}" for e in sorted(s))
        for s in _all_subsets(range(4))
        if len(s) <= 2 and s != frozenset({0, 1})
    )
    explicit_ref = _cached(lambda xs: len(xs) <= 2 and xs != frozenset({0, 1}))
    sum_spec = Sum((Uniform(2, 1, labels=("s0", "s1")), Partition((("s2", "s3"), ("s4",)), (1, 0))))
    sum_ref = _cached(lambda xs: len(xs & {0, 1}) <= 1 and len(xs & {2, 3}) <= 1 and 4 not in xs)
    # Seven vertices: v0 isolated, a triangle on v4-v5-v6 with v5-v6 doubled,
    # and a path v1-v2-v3 with a loop at v3; the edges reach up to vertex id 6.
    forest_ends = ((5, 6), (5, 6), (6, 4), (4, 5), (3, 3), (2, 3), (1, 2))
    forest = Multigraph(
        tuple(f"v{i}" for i in range(7)), forest_ends, tuple(f"f{i}" for i in range(7))
    )
    # Blocks interleaved by id: {0, 3, 5} cap 1 and {2, 6, 7} cap 2 overfill,
    # {1, 4} has cap 0.
    blocks = Partition((("q0", "q3", "q5"), ("q1", "q4"), ("q2", "q6", "q7")), (1, 0, 2))
    # Caps 3 above a block of two, 0 on a block of one, and 2 inside a block
    # of three: the co-caps are 0, 1 and 1.
    capped = Partition((("r0", "r3"), ("r1",), ("r2", "r4", "r5")), (3, 0, 2))
    capped_ref = _cached(_ref_partition((0, 1, 2, 0, 2, 2), (3, 0, 2)))
    contract, delete = frozenset({0}), frozenset({3})
    return [
        ("uniform", Uniform(5, 2), _cached(_ref_uniform(2))),
        ("dual-uniform", Dual(Uniform(5, 2)), _cached(_ref_dual(_ref_uniform(2), 5))),
        ("uniform-k-above-n", Uniform(4, 6), _cached(_ref_uniform(6))),
        ("dual-uniform-k-above-n", Dual(Uniform(4, 6)), _cached(_ref_dual(_ref_uniform(6), 4))),
        ("partition-cap-0", partition, partition_ref),
        (
            "partition-overfilled",
            blocks,
            _cached(_ref_partition((0, 1, 2, 0, 1, 0, 2, 2), (1, 0, 2))),
        ),
        ("graphic-loop-parallel", Graphic(graph), graph_ref),
        ("graphic-two-components-isolated", Graphic(forest), _cached(_ref_forest(forest_ends))),
        ("binary-zero-repeated", Binary(matrix), binary_ref),
        ("sum", sum_spec, sum_ref),
        (
            "explicit",
            Explicit(ground=("x0", "x1", "x2", "x3"), independent=explicit_members),
            explicit_ref,
        ),
        ("dual", Dual(Graphic(graph)), _cached(_ref_dual(graph_ref, 5))),
        (
            "minor",
            Minor(Binary(matrix), contract=("e0",), delete=("e3",)),
            _cached(_ref_minor(binary_ref, 5, contract, delete)),
        ),
        ("dual-dual", Dual(Dual(partition)), partition_ref),
        ("dual-partition-cap-above-block", Dual(capped), _cached(_ref_dual(capped_ref, 6))),
        (
            "minor-dual",
            Minor(Dual(Graphic(graph)), contract=("g0",), delete=("g3",)),
            _cached(_ref_minor(_cached(_ref_dual(graph_ref, 5)), 5, contract, delete)),
        ),
    ]


_RANK_CASES = _rank_cases()


@pytest.mark.parametrize(
    "spec,reference", [case[1:] for case in _RANK_CASES], ids=[case[0] for case in _RANK_CASES]
)
def test_native_rank_matches_a_largest_independent_subset(spec, reference):
    m = build(spec)
    for xs in _all_subsets(m.elements()):
        rank = m.rank(xs)
        assert rank == _reference_rank(reference, xs), sorted(xs)
        assert m.is_independent(xs) == reference(xs) == (rank == len(xs)), sorted(xs)
    assert m.rank() == _reference_rank(reference, frozenset(m.elements()))


@pytest.mark.parametrize(
    "spec", [case[1] for case in _RANK_CASES], ids=[case[0] for case in _RANK_CASES]
)
def test_the_dual_of_the_dual_has_the_rank_of_the_handle(spec):
    """Partition and uniform handles build their duals natively, and so does
    each such dual; every other dual is the rank-identity wrapper."""
    m = build(spec)
    dd = m.dual().dual()
    for xs in _all_subsets(m.elements()):
        assert dd.rank(xs) == m.rank(xs), sorted(xs)


# -- native closure and circuits against their rank-derived definitions -------


def _rank_closure(m, a):
    r = m.rank(a)
    return a | frozenset(e for e in m.elements() if e not in a and m.rank(a | {e}) == r)


def _rank_circuit(m, b, x):
    return frozenset({x} | {e for e in b if m.rank((b | {x}) - {e}) == len(b)})


def _oracle_cases():
    # u-v twice (parallel), v-w, a loop at w, w-u, and a separate edge z-y.
    graph = Multigraph.from_labels(
        ["u", "v", "w", "y", "z"],
        [
            ("g0", "u", "v"),
            ("g1", "u", "v"),
            ("g2", "v", "w"),
            ("g3", "w", "w"),
            ("g4", "w", "u"),
            ("g5", "z", "y"),
        ],
    )
    partition = Partition((("p0", "p3"), ("p1",), ("p2", "p4", "p5", "p6")), (1, 0, 2))
    cases = []
    for name, base in (("graphic", Graphic(graph)), ("partition", partition)):
        first = build(base).ground.labels[0]
        cases += [
            (name, base),
            (f"dual-{name}", Dual(base)),
            (f"dual-dual-{name}", Dual(Dual(base))),
            (f"minor-dual-{name}", Minor(Dual(base), contract=(first,))),
        ]
    return cases + [("dual-uniform", Dual(Uniform(6, 2)))]


_ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize(
    "spec", [case[1] for case in _ORACLE_CASES], ids=[case[0] for case in _ORACLE_CASES]
)
def test_closure_and_circuits_match_their_rank_definitions(spec):
    m = build(spec)
    subsets = _all_subsets(m.elements())
    for a in subsets:
        assert m.closure(a) == _rank_closure(m, a), sorted(a)
    for b in subsets:
        if not m.is_independent(b):
            continue
        for x in m.elements():
            if x in b or m.is_independent(b | {x}):
                continue
            assert m.fundamental_circuit(b, x) == _rank_circuit(m, b, x), (sorted(b), x)


@pytest.mark.parametrize(
    "spec", [case[1] for case in _ORACLE_CASES], ids=[case[0] for case in _ORACLE_CASES]
)
def test_anchors_match_their_rank_definitions(spec):
    """Every anchored answer, against every independent set, equals its rank definition."""
    m = build(spec)
    for b in _all_subsets(m.elements()):
        if not m.is_independent(b):
            continue
        anchor = m._anchor(b)
        assert anchor.base == b
        for x in m.elements():
            if x in b:
                continue
            extends = m.rank(b | {x}) == len(b) + 1
            assert anchor.extends(x) == extends, (sorted(b), x)
            if not extends:
                assert anchor.circuit(x) == _rank_circuit(m, b, x), (sorted(b), x)


@pytest.mark.parametrize(
    "spec", [case[1] for case in _ORACLE_CASES], ids=[case[0] for case in _ORACLE_CASES]
)
def test_anchors_on_dependent_sets_answer_through_a_maximal_independent_base(spec):
    """A dual anchors its primal on E - b, which is usually dependent."""
    m = build(spec)
    for a in _all_subsets(m.elements()):
        _assert_anchor_matches_rank(m, a, m._anchor(a))


def _assert_anchor_matches_rank(m, a, anchor):
    """The anchor of ``a``, independent or not, answers as rank says."""
    base = anchor.base
    assert base <= a and m.is_independent(base) and m.rank(a) == len(base), sorted(a)
    for x in m.elements():
        if x in base:
            continue
        raises = m.rank(a | {x}) > m.rank(a)
        if x not in a:
            assert anchor.extends(x) == raises, (sorted(a), x)
        if not raises:
            assert anchor.circuit(x) == _rank_circuit(m, base, x), (sorted(a), x)


_BINARY = Binary(((1, 0, 1, 1, 0, 1, 0), (0, 1, 1, 0, 1, 1, 0), (0, 0, 0, 1, 1, 1, 1)))

_ISOLATED = next(case[1] for case in _RANK_CASES if case[0] == "graphic-two-components-isolated")

# Every handle whose anchors answer ``cocircuit``: only the graphic forest
# does, and the dual of a graphic dual is the graphic handle itself.
_COCIRCUIT_CASES = [
    (name, spec)
    for name, spec in _ORACLE_CASES + [("graphic-two-components-isolated", _ISOLATED)]
    if hasattr(build(spec)._anchor(frozenset()), "cocircuit")
]


def test_only_the_forest_answers_cocircuits():
    """The filter above keeps exactly the graphic handles, so a case that
    drops out of the cocircuit test does not go unnoticed."""
    assert [name for name, _ in _COCIRCUIT_CASES] == [
        "graphic",
        "dual-dual-graphic",
        "graphic-two-components-isolated",
    ]


@pytest.mark.parametrize(
    "spec", [case[1] for case in _COCIRCUIT_CASES], ids=[case[0] for case in _COCIRCUIT_CASES]
)
def test_cocircuits_match_their_rank_definition(spec):
    """At every base B, the cocircuit of each y on B is y and every g off B
    for which B - y + g is independent."""
    m = build(spec)
    for b in _all_subsets(m.elements()):
        if len(b) != m.rank() or not m.is_independent(b):
            continue
        anchor = m._anchor(b)
        for y in b:
            rest = b - {y}
            expected = {y} | {g for g in m.elements() if g not in b and m.is_independent(rest | {g})}
            assert anchor.cocircuit(y) == expected, (sorted(b), y)


def test_cographic_handles_anchor_through_cocircuits_exactly_at_co_independent_sets():
    """A cographic handle's own hook anchors ``b`` with ``CotreeAnchor`` exactly
    when E - b spans the graphic matroid, and with ``RankAnchor`` otherwise;
    every answer equals its rank definition on both branches."""
    for spec in (_ORACLE_CASES[0][1], _ISOLATED):
        d = build(spec).dual()
        kinds = set()
        for b in _all_subsets(d.elements()):
            anchor = d._anchor_fn(b)
            native = d.is_independent(b)
            assert type(anchor) is (CotreeAnchor if native else RankAnchor), sorted(b)
            kinds.add(native)
            _assert_anchor_matches_rank(d, b, anchor)
        assert kinds == {True, False}


def test_the_dual_of_a_hooked_handle_anchors_through_rank():
    """The core's dual wrapper is rank-only, whatever anchor hook the handle
    it wraps was given."""
    g = build(_ORACLE_CASES[0][1])
    hooked = Matroid(g.ground, provenance="hooked", rank=g._rank, anchor=g._anchor)
    d = hooked.dual()
    assert d.dual() is hooked
    for b in _all_subsets(d.elements()):
        anchor = d._anchor(b)
        assert type(anchor) is RankAnchor, sorted(b)
        _assert_anchor_matches_rank(d, b, anchor)


# -- the exact circuit and 'add' tests against their rank definitions ---------

# Two vertex-disjoint triangles: every vertex of the pair has degree 2, but
# the pair is no circuit.
_TWO_TRIANGLES = Graphic(
    Multigraph.from_labels(
        ["a", "b", "c", "d", "e", "f"],
        [("t0", "a", "b"), ("t1", "b", "c"), ("t2", "c", "a")]
        + [("t3", "d", "e"), ("t4", "e", "f"), ("t5", "f", "d")],
    )
)


def _exact_test_cases():
    """Every ``_rank_cases`` and ``_ORACLE_CASES`` handle with a hook, plus
    the two triangles and the cographic handles of both two-component graphs."""
    named = dict(
        [(name, spec) for name, spec, _ in _RANK_CASES]
        + _ORACLE_CASES
        + [
            ("graphic-two-triangles", _TWO_TRIANGLES),
            ("dual-graphic-two-triangles", Dual(_TWO_TRIANGLES)),
            ("dual-graphic-two-components-isolated", Dual(_ISOLATED)),
        ]
    )
    return [
        (name, spec)
        for name, spec in named.items()
        if build(spec)._circuit_fn is not None or build(spec)._extends_fn is not None
    ]


_EXACT_TEST_CASES = _exact_test_cases()


def _cographic(m):
    return m.provenance.startswith("dual(graphic(")


def test_the_exact_tests_serve_the_partition_graphic_and_cographic_handles():
    """Partition and uniform handles, natively built duals included, have
    both tests, graphic handles the circuit test, and cographic handles both;
    the filter above drops no such case unnoticed, and every wrapper
    answers through rank.  The cographic rows, whose circuit test is checked
    under its precondition alone, are the four duals of graphs."""
    both, circuit_only, cographic = [], [], []
    for name, spec in _EXACT_TEST_CASES:
        m = build(spec)
        assert m._circuit_fn is not None, name
        (both if m._extends_fn is not None else circuit_only).append(name)
        if _cographic(m):
            cographic.append(name)
    assert sorted(circuit_only) == [
        "dual-dual-graphic",
        "graphic",
        "graphic-loop-parallel",
        "graphic-two-components-isolated",
        "graphic-two-triangles",
    ]
    assert sorted(both) == [
        "dual",
        "dual-dual",
        "dual-dual-partition",
        "dual-graphic",
        "dual-graphic-two-components-isolated",
        "dual-graphic-two-triangles",
        "dual-partition",
        "dual-partition-cap-above-block",
        "dual-uniform",
        "dual-uniform-k-above-n",
        "partition",
        "partition-cap-0",
        "partition-overfilled",
        "uniform",
        "uniform-k-above-n",
    ]
    assert sorted(cographic) == [
        "dual",
        "dual-graphic",
        "dual-graphic-two-components-isolated",
        "dual-graphic-two-triangles",
    ]


@pytest.mark.parametrize(
    "spec", [case[1] for case in _EXACT_TEST_CASES], ids=[case[0] for case in _EXACT_TEST_CASES]
)
def test_exact_tests_match_their_rank_definitions(spec):
    """The circuit test says dependent with every one-smaller subset
    independent.  A partition or graphic test is asked of every non-empty
    subset, with each of its elements as ``known``.  The cographic bond
    test is defined only where ``c - known`` is co-independent, the only
    case the chain re-check asks, so it is asked of every C with
    known in C inside part + known, for every co-independent part and
    every known outside it.  On every independent part, the 'add' test of
    each x outside it says whether part + x is independent."""
    m = build(spec)
    subsets = _all_subsets(m.elements())
    independent = [part for part in subsets if m.is_independent(part)]
    if _cographic(m):
        cases = {
            (c | {known}, known)
            for part in independent
            for known in m.elements()
            if known not in part
            for c in _all_subsets(part)
        }
    else:
        cases = [(c, known) for c in subsets for known in c]
    for c, known in cases:
        circuit = not m.is_independent(c) and all(m.is_independent(c - {e}) for e in c)
        assert m._circuit_fn(c, known) == circuit, (sorted(c), known)
    if m._extends_fn is None:
        return
    for part in independent:
        for x in m.elements():
            if x not in part:
                assert m._extends_fn(part, x) == m.is_independent(part | {x}), (sorted(part), x)


# -- anchors carried through grow and exchange ---------------------------------


def _carried_graph(rng):
    """Two components with a loop and a parallel pair, plus an isolated vertex."""
    sides = (range(0, 4), range(4, 7))
    edges = [("g0", "v0", "v0"), ("g1", "v1", "v2"), ("g2", "v2", "v1")]
    for i in range(3, 13):
        side = rng.choice(sides)
        edges.append((f"g{i}", f"v{rng.choice(side)}", f"v{rng.choice(side)}"))
    return Multigraph.from_labels([f"v{i}" for i in range(8)], edges)


def _carried_partition(rng):
    """Random blocks over ten labels, after a block of two with capacity 0
    and one of three with capacity 1."""
    pool = [f"p{i}" for i in range(10)]
    rng.shuffle(pool)
    blocks, caps = [tuple(pool[:2]), tuple(pool[2:5])], [0, 1]
    pool = pool[5:]
    while pool:
        size = rng.randint(1, 4)
        blocks.append(tuple(pool[:size]))
        caps.append(rng.randint(0, size))
        pool = pool[size:]
    return Partition(tuple(blocks), tuple(caps))


def _carried_cases():
    cases = []
    for seed in range(4):
        graphic = Graphic(_carried_graph(random.Random(seed)))
        partition = _carried_partition(random.Random(seed))
        cases += [
            (f"graphic-{seed}", graphic),
            (f"partition-{seed}", partition),
            (f"dual-graphic-{seed}", Dual(graphic)),
            (f"dual-partition-{seed}", Dual(partition)),
        ]
    return cases + [
        ("rank-binary", _BINARY),
        ("rank-dual-binary", Dual(_BINARY)),
        ("rank-dual-uniform", Dual(Uniform(9, 3))),
    ]


_CARRIED_CASES = _carried_cases()


def _assert_same_answers(m, carried, a):
    fresh = m._anchor(a)
    assert carried.base == fresh.base == a
    for x in m.elements():
        if x in a:
            continue
        assert carried.extends(x) == fresh.extends(x), (sorted(a), x)
        if not fresh.extends(x):
            assert carried.circuit(x) == fresh.circuit(x), (sorted(a), x)


@pytest.mark.parametrize(
    "spec", [case[1] for case in _CARRIED_CASES], ids=[case[0] for case in _CARRIED_CASES]
)
def test_carried_anchors_answer_as_anchors_built_afresh(spec):
    """Seeded walks of grow and exchange updates from the empty set.  Moves
    are chosen from a fresh anchor's answers; the carried anchor is compared
    with it after most steps, and some updates meet it before it has been
    asked anything."""
    m = build(spec)
    rng = random.Random(7)
    counts = {"grow": 0, "exchange": 0, "base": 0}
    for _ in range(3):
        a = frozenset()
        carried = m._anchor(a)
        for _ in range(25):
            fresh = m._anchor(a)
            outside = [x for x in m.elements() if x not in a]
            grows = [x for x in outside if fresh.extends(x)]
            swaps = [
                (y, z)
                for y in outside
                if not fresh.extends(y)
                for z in sorted(fresh.circuit(y) - {y})
            ]
            if grows and (not swaps or rng.random() < 0.5):
                x = rng.choice(grows)
                if isinstance(carried, CotreeAnchor) and carried._tree[x]:
                    counts["base"] += 1  # x leaves B0, which a pivot must trade
                carried, a = carried.grow(x), a | {x}
                counts["grow"] += 1
            elif swaps:
                y, z = rng.choice(swaps)
                carried, a = carried.exchange(y, z), a - {z} | {y}
                counts["exchange"] += 1
            else:
                break
            assert carried is not None
            if rng.random() < 0.7:
                _assert_same_answers(m, carried, a)
        _assert_same_answers(m, carried, a)
    assert counts["grow"] and counts["exchange"]
    if isinstance(m._anchor(frozenset()), CotreeAnchor):
        assert counts["base"]


class _FaultyAnchor:
    """Circuits answer ``b + x`` itself, which is no circuit once ``b`` holds
    the other block too; independence answers stay honest."""

    def __init__(self, matroid, b):
        self.base = b
        self._matroid = matroid

    def extends(self, x):
        return self._matroid._independent(self.base | {x})

    def circuit(self, x):
        return self.base | {x}

    def grow(self, x):
        return _FaultyAnchor(self._matroid, self.base | {x})

    def exchange(self, y, z):
        return _FaultyAnchor(self._matroid, self.base - {z} | {y})


def _with_anchor(honest, anchor, recheck):
    """``honest`` anchored by ``anchor``, its chains re-checked through rank,
    or through the honest handle's exact circuit and 'add' tests."""
    tests = {}
    if recheck == "exact":
        tests = {"is_circuit": honest._circuit_fn, "extends": honest._extends_fn}
    return Matroid(honest.ground, provenance="faulty", rank=honest._rank, anchor=anchor, **tests)


@pytest.mark.parametrize("recheck", ["rank", "exact"])
def test_a_wrong_native_anchor_never_reaches_a_union(recheck):
    honest = build(Partition((("a", "c"), ("b",)), (1, 1)))
    faulty = _with_anchor(honest, lambda b: _FaultyAnchor(honest, b), recheck)
    partner = build(Uniform(3, 1, labels=("a", "b", "c")))
    with pytest.raises(ConsistencyError):
        maximize_union(faulty, partner)


class _StaleAnchor:
    """Honest answers for its own set, but the update named ``stale`` hands
    back the anchor unchanged, so it goes on answering for the old set."""

    def __init__(self, matroid, b, stale):
        self.base = b
        self._matroid = matroid
        self._stale = stale

    def extends(self, x):
        return self._matroid._independent(self.base | {x})

    def circuit(self, x):
        extended = self.base | {x}
        independent = self._matroid._independent
        return frozenset({x} | {e for e in self.base if independent(extended - {e})})

    def grow(self, x):
        if self._stale == "grow":
            return self
        return _StaleAnchor(self._matroid, self.base | {x}, self._stale)

    def exchange(self, y, z):
        if self._stale == "exchange":
            return self
        return _StaleAnchor(self._matroid, self.base - {z} | {y}, self._stale)


@pytest.mark.parametrize("recheck", ["rank", "exact"])
@pytest.mark.parametrize("stale", ["grow", "exchange"])
def test_a_wrong_anchor_update_never_reaches_a_union(stale, recheck):
    """Both parts take one of a and b.  A stale grow lets b into the first
    part next to a; a stale exchange, after b has swapped a out of the first
    part, lets a back in while the part is extended to a base."""
    honest = build(Uniform(2, 1, labels=("a", "b")))
    faulty = _with_anchor(honest, lambda b: _StaleAnchor(honest, b, stale), recheck)
    partner = build(Uniform(2, 1, labels=("a", "b")))
    with pytest.raises((ConsistencyError, InternalInvariantError)):
        maximize_union(faulty, partner)


class _OverEagerAnchor:
    """Honest, except that ``b`` (id 1) always extends its set."""

    def __init__(self, matroid, b):
        self.base = b
        self._matroid = matroid

    def extends(self, x):
        return x == 1 or self._matroid._independent(self.base | {x})

    def circuit(self, x):
        extended = self.base | {x}
        independent = self._matroid._independent
        return frozenset({x} | {e for e in self.base if independent(extended - {e})})

    def grow(self, x):
        return _OverEagerAnchor(self._matroid, self.base | {x})

    def exchange(self, y, z):
        return _OverEagerAnchor(self._matroid, self.base - {z} | {y})


def test_a_dependent_base_extension_never_leaves_the_union():
    """The loop ends with the second part {a}, which the anchor extends to
    {a, b}: the size of a base, but dependent, as a and b share a block of
    capacity 1.  Only the base's own rank evaluation can see that."""
    honest = build(Partition((("a", "b"), ("c",)), (1, 1)))
    faulty = Matroid(
        honest.ground,
        provenance="faulty",
        rank=honest._rank,
        anchor=lambda b: _OverEagerAnchor(honest, b),
    )
    partner = build(Uniform(3, 2, labels=("a", "b", "c")))
    with pytest.raises(ConsistencyError, match="not a base"):
        maximize_union(partner, faulty)

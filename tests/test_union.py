import random
from itertools import permutations

import pytest

from matroidkit import (
    Binary,
    ConsistencyError,
    Dual,
    Graphic,
    InputError,
    InternalInvariantError,
    Multigraph,
    PairState,
    Partition,
    Uniform,
    apply_chain,
    build,
    find_chain,
    maximize_union,
)
from matroidkit import union
from matroidkit.core import Matroid, subsets_by_size
from matroidkit.oracles import brute_union_max
from matroidkit.union import ADD, COMMON, EVEN, ODD, ExchangeChain, validate_chain

from conftest import augmenting, k4_graph
from test_oracle_counts import counted

fs = frozenset


def test_pair_states_compare_hash_and_print_by_their_three_sets():
    state = PairState(fs({1}), fs({0, 2}))
    assert repr(state) == (
        "PairState(i1=frozenset({1}), i2=frozenset({0, 2}), union=frozenset({0, 1, 2}))"
    )
    assert state == PairState(fs({1}), fs({0, 2}))
    assert hash(state) == hash((fs({1}), fs({0, 2}), fs({0, 1, 2})))
    assert state != PairState(fs({0, 2}), fs({1})) and state != (state.i1, state.i2, state.union)


def test_exchange_chains_compare_hash_and_print_by_their_four_fields():
    chain = ExchangeChain((1, 0), EVEN, (fs({0, 1}),), ADD)
    assert repr(chain) == (
        "ExchangeChain(elements=(1, 0), parity='even', "
        "circuits=(frozenset({0, 1}),), terminal='add')"
    )
    same = ExchangeChain(elements=(1, 0), parity=EVEN, circuits=(fs({0, 1}),), terminal=ADD)
    assert chain == same and hash(chain) == hash(same)
    assert (same.elements, same.parity, same.circuits, same.terminal) == (
        (1, 0), EVEN, (fs({0, 1}),), ADD
    )
    assert chain != ExchangeChain((1, 0), ODD, (fs({0, 1}),), ADD)
    assert chain != ((1, 0), EVEN, (fs({0, 1}),), ADD)


def u12_pair():
    m = build(Uniform(2, 1, labels=("a", "b")))
    return m, build(Uniform(2, 1, labels=("a", "b")))


class TestFindChain:
    def test_documented_one_link_chain(self):
        m1, m2 = u12_pair()
        state = PairState(fs({0}), fs())
        chain = find_chain(m1, m2, state, 1)
        assert chain.elements == (1, 0)
        assert chain.parity == EVEN
        assert chain.circuits == (fs({0, 1}),)
        assert chain.terminal == ADD and not chain.receiver_is_first()

    def test_direct_addition_is_a_length_zero_chain(self):
        m1, m2 = u12_pair()
        chain = find_chain(m1, m2, PairState(fs(), fs()), 0)
        assert chain.elements == (0,)
        assert chain.parity == EVEN and chain.terminal == ADD
        assert chain.receiver_is_first()

    def test_loop_in_both_matroids_has_no_chain(self):
        m1 = build(Uniform(1, 0, labels=("a",)))
        m2 = build(Uniform(1, 0, labels=("a",)))
        assert find_chain(m1, m2, PairState(fs(), fs()), 0) is None

    def test_start_inside_union_is_input_error(self):
        m1, m2 = u12_pair()
        with pytest.raises(InputError):
            find_chain(m1, m2, PairState(fs({0}), fs()), 0)

    def test_odd_parity_used_when_first_matroid_is_blocked(self):
        m1 = build(Uniform(1, 0, labels=("a",)))
        m2 = build(Uniform(1, 1, labels=("a",)))
        chain = find_chain(m1, m2, PairState(fs(), fs()), 0)
        assert chain.parity == ODD and chain.terminal == ADD
        assert not chain.receiver_is_first()

    def test_common_terminal(self):
        # element b sits in both parts; chain from a swaps through it
        m1 = build(Uniform(2, 1, labels=("a", "b")))
        m2 = build(Uniform(2, 2, labels=("a", "b")))
        state = PairState(fs({1}), fs({1}))
        chain = find_chain(m1, m2, state, 0)
        assert chain.elements == (0, 1)
        assert chain.terminal == COMMON

    def test_the_search_returns_at_the_least_terminal_of_a_layer(self):
        # y = 2 closes the circuit {0, 1, 2} in the first part, so the
        # second layer is [0, 1], and both would extend the empty second
        # part.  The search asks about 0 only, and returns there.
        m1, m2 = build(Uniform(4, 2)), build(Uniform(4, 2))
        state = PairState(fs({0, 1}), fs())
        session = union.Session(m1, m2, state)
        inner = m2._anchor(state.i2)
        asked = []

        class SpyAnchor:
            def extends(self, x):
                asked.append(x)
                return inner.extends(x)

        session._second = SpyAnchor()
        chain = find_chain(m1, m2, state, 2, session)
        assert asked == [0]
        assert chain.elements == (2, 0)
        assert chain.terminal == ADD and not chain.receiver_is_first()


class TestApplyChain:
    def test_documented_swap_result(self):
        m1, m2 = u12_pair()
        state = PairState(fs({0}), fs())
        chain = find_chain(m1, m2, state, 1)
        after = apply_chain(m1, m2, state, chain)
        assert after.i1 == fs({1}) and after.i2 == fs({0})
        assert after.union == fs({0, 1})

    def test_length_zero_addition(self):
        m1, m2 = u12_pair()
        state = PairState(fs(), fs())
        chain = find_chain(m1, m2, state, 0)
        after = apply_chain(m1, m2, state, chain)
        assert after.i1 == fs({0}) and after.i2 == fs()

    def test_replaying_a_chain_is_a_consistency_error(self):
        m1, m2 = u12_pair()
        state = PairState(fs({0}), fs())
        chain = find_chain(m1, m2, state, 1)
        after = apply_chain(m1, m2, state, chain)
        with pytest.raises(ConsistencyError):
            apply_chain(m1, m2, after, chain)

    def test_forged_circuit_is_a_consistency_error(self):
        m1, m2 = u12_pair()
        state = PairState(fs({0}), fs())
        forged = ExchangeChain((1, 0), EVEN, (fs({1}),), ADD)
        with pytest.raises(ConsistencyError):
            apply_chain(m1, m2, state, forged)

    @pytest.mark.parametrize(
        "forged",
        [
            ExchangeChain((9,), EVEN, (), ADD),
            ExchangeChain((1, 9), EVEN, (fs({1, 9}),), COMMON),
            ExchangeChain((1, 0), EVEN, (fs({0, 1, 9}),), COMMON),
        ],
        ids=["start", "terminal", "circuit"],
    )
    def test_forged_element_outside_ground_is_rejected(self, forged):
        m1, m2 = u12_pair()
        state = PairState(fs({0}), fs())
        with pytest.raises((InputError, ConsistencyError)):
            validate_chain(m1, m2, state, forged)
        with pytest.raises((InputError, ConsistencyError)):
            apply_chain(m1, m2, state, forged)

    def test_state_outside_ground_is_rejected(self):
        m1, m2 = u12_pair()
        with pytest.raises(InputError):
            find_chain(m1, m2, PairState(fs({9}), fs()), 1)
        with pytest.raises(InputError):
            validate_chain(m1, m2, PairState(fs(), fs({9})), ExchangeChain((1,), EVEN, (), ADD))

    @pytest.mark.parametrize(
        "state,chain",
        [
            (
                PairState(fs({0}), fs({0, 2})),
                ExchangeChain((1, 0, 2), EVEN, (fs({0, 1}), fs({0, 2})), COMMON),
            ),
            (
                PairState(fs({0, 2}), fs({0})),
                ExchangeChain((1, 0, 2), ODD, (fs({0, 1}), fs({0, 2})), COMMON),
            ),
        ],
        ids=["first", "second"],
    )
    def test_dependent_part_is_rejected_at_every_entry(self, state, chain):
        m1, m2 = _uniform(3, 1), _uniform(3, 1)
        message = "each part of the pair state must be independent"
        with pytest.raises(InputError, match=message):
            find_chain(m1, m2, state, 1)
        with pytest.raises(InputError, match=message):
            validate_chain(m1, m2, state, chain)
        with pytest.raises(InputError, match=message):
            apply_chain(m1, m2, state, chain)

    def test_empty_chain_is_rejected_by_the_constructor(self):
        with pytest.raises(InputError):
            ExchangeChain((), EVEN, (), ADD)

    def test_unknown_terminal_is_rejected_by_the_constructor(self):
        with pytest.raises(InputError, match="unknown chain terminal kind"):
            ExchangeChain((1, 0), EVEN, (fs({0, 1}),), "swap")


def _uniform(n, k):
    return build(Uniform(n, k))


def _k4_and_pendant():
    """K4 with one more edge, e6, hanging a fifth vertex off vertex 4, so
    e6 extends every forest."""
    pairs = [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4"), ("4", "5")]
    return Multigraph.from_labels(
        ["1", "2", "3", "4", "5"], [(f"e{i}", a, b) for i, (a, b) in enumerate(pairs)]
    )


# Forged chains, each rejected by exactly one check: (m1, m2, state, chain,
# message).  On U(3, 1) every pair is a circuit; on U(3, 2) no pair is one.
# The "lost independence" chains pass every link check and are not
# shortest, so they fail the triangular test and meet rank.  The first two
# close the triangle {e0, e2, e4} of K4 in the part the K4 links run
# through.  In "non-adjacent-links" three K4 links run through the first
# part, and only links 0 and 4 break the test (link 0's circuit holds e1,
# which link 4 takes out); the swaps close the triangle {e3, e4, e5}.  In
# "add-receiver-dependent" the first part receives the pendant e6 and two
# links run through it; part + e6 is independent, and the swaps close the
# triangle {e0, e2, e4}.  Their second parts are partition matroids whose
# blocks of two make each second-part link a two-element circuit.
_REJECTED = {
    "start-in-part": (
        _uniform(3, 1), _uniform(3, 1), PairState(fs({0}), fs()),
        ExchangeChain((0,), EVEN, (), ADD), "chain start already belongs",
    ),
    "start-in-other-part": (
        _uniform(2, 1), _uniform(2, 1), PairState(fs(), fs({0})),
        ExchangeChain((0,), EVEN, (), ADD), "chain start already lies in the other part",
    ),
    "misses-endpoints": (
        _uniform(3, 1), _uniform(3, 1), PairState(fs({0}), fs()),
        ExchangeChain((1, 0), EVEN, (fs({1, 2}),), COMMON),
        "link 0 circuit misses its endpoints",
    ),
    "leaks": (
        _uniform(3, 1), _uniform(3, 1), PairState(fs({0}), fs()),
        ExchangeChain((1, 0), EVEN, (fs({0, 1, 2}),), COMMON),
        "link 0 circuit leaks outside part",
    ),
    "independent-witness": (
        _uniform(3, 2), _uniform(3, 2), PairState(fs({0}), fs()),
        ExchangeChain((1, 0), EVEN, (fs({0, 1}),), COMMON), "link 0 witness is not a circuit",
    ),
    "interior-first": (
        _uniform(3, 1), _uniform(3, 1), PairState(fs({0}), fs({2})),
        ExchangeChain((1, 1, 2), EVEN, (fs({0, 1}), fs({1, 2})), COMMON),
        "interior element y_1 must lie in the first part only",
    ),
    "interior-second": (
        _uniform(3, 1), _uniform(3, 1), PairState(fs({2}), fs({0})),
        ExchangeChain((1, 1, 2), ODD, (fs({0, 1}), fs({1, 2})), COMMON),
        "interior element y_1 must lie in the second part only",
    ),
    "repeated-element": (
        _uniform(5, 2), _uniform(5, 2), PairState(fs({1, 4}), fs({2, 4})),
        ExchangeChain(
            (0, 1, 2, 1, 4), EVEN, (fs({0, 1, 4}), fs({1, 2, 4}), fs({1, 2, 4}), fs({1, 2, 4})),
            COMMON,
        ),
        "chain elements are not pairwise distinct",
    ),
    "common-not-in-both": (
        _uniform(3, 1), _uniform(3, 1), PairState(fs({0}), fs()),
        ExchangeChain((1, 0), EVEN, (fs({0, 1}),), COMMON), "'common' is not in both parts",
    ),
    "add-already-received": (
        _uniform(3, 1), _uniform(3, 1), PairState(fs({0}), fs({0})),
        ExchangeChain((1, 0), EVEN, (fs({0, 1}),), ADD), "'add' already sits in the receiving part",
    ),
    "add-dependent": (
        _uniform(3, 1), _uniform(3, 1), PairState(fs({0}), fs({2})),
        ExchangeChain((1, 0), EVEN, (fs({0, 1}),), ADD),
        "'add' does not extend the receiver independently",
    ),
    "add-link-free-dependent": (
        _uniform(3, 1), _uniform(3, 1), PairState(fs({0}), fs()),
        ExchangeChain((1,), EVEN, (), ADD), "'add' does not extend the receiver independently",
    ),
    "first-lost-independence": (
        build(Graphic(k4_graph())), _uniform(6, 2), PairState(fs({1, 3, 4}), fs({2, 4})),
        ExchangeChain(
            (0, 1, 2, 3, 4), EVEN, (fs({0, 1, 3}), fs({1, 2, 4}), fs({1, 2, 3, 4}), fs({2, 3, 4})),
            COMMON,
        ),
        "first part lost independence after the swaps",
    ),
    "second-lost-independence": (
        _uniform(6, 2), build(Graphic(k4_graph())), PairState(fs({2, 4}), fs({1, 3, 4})),
        ExchangeChain(
            (0, 1, 2, 3, 4), ODD, (fs({0, 1, 3}), fs({1, 2, 4}), fs({1, 2, 3, 4}), fs({2, 3, 4})),
            COMMON,
        ),
        "second part lost independence after the swaps",
    ),
    "non-adjacent-links": (
        build(Graphic(k4_graph())),
        build(Partition((("e0", "e4"), ("e1",), ("e2", "e5"), ("e3",)), (1, 1, 1, 0))),
        PairState(fs({0, 1, 2}), fs({1, 4, 5})),
        ExchangeChain(
            (3, 0, 4, 2, 5, 1), EVEN,
            (fs({0, 1, 3}), fs({0, 4}), fs({0, 2, 4}), fs({2, 5}), fs({1, 2, 5})), COMMON,
        ),
        "first part lost independence after the swaps",
    ),
    "add-receiver-dependent": (
        build(Graphic(_k4_and_pendant())),
        build(Partition((("e0", "e4", "e5"), ("e1", "e2"), ("e3", "e6")), (0, 1, 1))),
        PairState(fs({1, 3, 4}), fs({2, 6})),
        ExchangeChain(
            (0, 1, 2, 3, 6), EVEN, (fs({0, 1, 3}), fs({1, 2}), fs({1, 2, 3, 4}), fs({3, 6})), ADD
        ),
        "first part lost independence after the swaps",
    ),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_each_forged_chain_is_rejected_by_its_own_check(case):
    m1, m2, state, chain, message = _REJECTED[case]
    if "lost independence" in message:
        validate_chain(m1, m2, state, chain)  # every link and the terminal check out
    else:
        with pytest.raises(ConsistencyError, match=message):
            validate_chain(m1, m2, state, chain)
    with pytest.raises(ConsistencyError, match=message):
        apply_chain(m1, m2, state, chain)


def _without_tests(m):
    """``m`` with its exact circuit and 'add' tests taken off, so the chain
    re-check falls back to rank."""
    return Matroid(m.ground, m.provenance, rank=m._rank, anchor=m._anchor_fn, dual=m._dual_fn)


@pytest.mark.parametrize(
    "case",
    sorted(c for c, row in _REJECTED.items() if row[0]._circuit_fn or row[1]._circuit_fn),
)
def test_each_forged_chain_meets_its_own_check_through_rank(case):
    """The same rows re-checked through rank, so each check keeps a
    message-pinned row on the rank path as well as on the exact tests."""
    m1, m2, state, chain, message = _REJECTED[case]
    m1, m2 = _without_tests(m1), _without_tests(m2)
    if "lost independence" not in message:
        with pytest.raises(ConsistencyError, match=message):
            validate_chain(m1, m2, state, chain)
    with pytest.raises(ConsistencyError, match=message):
        apply_chain(m1, m2, state, chain)


@pytest.mark.parametrize("case", ["start-in-part", "start-in-other-part", "add-link-free-dependent"])
def test_a_serving_session_rejects_a_forged_link_free_chain_before_moving(case):
    """Through a serving session a link-free chain meets the same checks and
    messages as without one, and the session stays where it was when one
    fails."""
    m1, m2, state, chain, message = _REJECTED[case]
    session = union.Session(m1, m2, state)
    anchor = session.first()
    with pytest.raises(ConsistencyError, match=message):
        apply_chain(m1, m2, state, chain, session)
    assert session.serves(m1, m2, state) and session.first() is anchor


def test_the_triangular_test_reads_the_circuits_the_recheck_validated():
    """Without a session, a chain's circuits are read once, into the sets the
    re-check validates, and the triangular test must read those.  Here
    they are one-shot iterators, which the entry check uses up: a test that
    read ``chain.circuits`` would find no element on any circuit and pass
    the dependent first part."""
    m1, m2, state, chain, message = _REJECTED["first-lost-independence"]
    once = tuple(iter(sorted(c)) for c in chain.circuits)
    forged = ExchangeChain(chain.elements, chain.parity, once, chain.terminal)
    with pytest.raises(ConsistencyError, match=message):
        apply_chain(m1, m2, state, forged)


def _recorded_evaluations(monkeypatch, handles):
    """Record every evaluation of the named handles as (name, kind, sorted
    ids): each independence evaluation through rank, each circuit test of
    its candidate, and each 'add' test of ``part + x``."""
    seen = []
    names = {id(m): name for name, m in handles.items()}
    evaluate = Matroid._independent

    def recording(self, s):
        seen.append((names[id(self)], "rank", tuple(sorted(s))))
        return evaluate(self, s)

    def recorded_circuit(name, test):
        def recorded(c, known):
            seen.append((name, "is_circuit", tuple(sorted(c))))
            return test(c, known)

        return recorded

    def recorded_extends(name, test):
        def recorded(part, x):
            seen.append((name, "extends", tuple(sorted(part | {x}))))
            return test(part, x)

        return recorded

    monkeypatch.setattr(Matroid, "_independent", recording)
    for name, m in handles.items():
        monkeypatch.setattr(m, "_circuit_fn", recorded_circuit(name, m._circuit_fn))
        monkeypatch.setattr(m, "_extends_fn", recorded_extends(name, m._extends_fn))
    return seen


class TestSessionEvaluations:
    """A session skips exactly the entry checks: without one, ``apply_chain``
    evaluates what it evaluates with one, plus each part of the state."""

    @pytest.mark.parametrize(
        "terminal,state,chain",
        [
            (ADD, (fs({0}), fs()), (1, 0)),
            (COMMON, (fs({1}), fs({1})), (0, 1)),
            (ADD, (fs(), fs({0})), (1,)),
        ],
        ids=["add", "common", "link-free"],
    )
    def test_the_entry_adds_one_evaluation_per_part(self, monkeypatch, terminal, state, chain):
        m1 = build(Uniform(2, 1, labels=("a", "b")))
        m2 = build(Uniform(2, 1 if terminal == ADD else 2, labels=("a", "b")))
        state = PairState(*state)
        circuits = (fs(chain),) if len(chain) > 1 else ()
        chain = ExchangeChain(chain, EVEN, circuits, terminal)
        seen = _recorded_evaluations(monkeypatch, {"m1": m1, "m2": m2})
        without = apply_chain(m1, m2, state, chain)
        entry_and_recheck = sorted(seen)
        seen.clear()
        with_session = apply_chain(m1, m2, state, chain, union.Session(m1, m2, state))
        assert with_session == without
        parts = [("m1", "rank", tuple(sorted(state.i1))), ("m2", "rank", tuple(sorted(state.i2)))]
        assert entry_and_recheck == sorted(seen + parts)
        if chain.length == 0:  # the session applies it with one 'add' test of part + y
            assert seen == [("m1", "extends", (1,))]


class TestMaximizeUnion:
    def test_two_rank_one_matroids_cover_the_pair(self):
        m1, m2 = u12_pair()
        state = maximize_union(m1, m2)
        assert state.union == fs({0, 1})
        assert len(state.i1) == 1 and len(state.i2) == 1

    def test_k4_packs_two_spanning_trees(self):
        g = build(Graphic(k4_graph()))
        state = maximize_union(g, g)
        assert len(state.union) == 6
        assert brute_union_max(g, g) == 6

    def test_rank_zero_partner_leaves_a_base(self):
        m1 = build(Uniform(3, 2))
        m2 = build(Uniform(3, 0))
        state = maximize_union(m1, m2)
        assert state.i2 == fs()
        assert state.i1 == m1.maximal_extension(fs())
        assert len(state.union) == m1.rank()

    def test_ground_mismatch_is_input_error(self):
        with pytest.raises(InputError):
            maximize_union(build(Uniform(2, 1)), build(Uniform(3, 1)))

    def test_parts_are_bases(self):
        m1, m2 = u12_pair()
        state = maximize_union(m1, m2)
        assert m1.maximal_extension(state.i1) == state.i1
        assert m2.maximal_extension(state.i2) == state.i2

    def test_augmentations_grow_by_one_and_stay_independent(self):
        g = build(Graphic(k4_graph()))
        u = build(Uniform(6, 3))
        state, steps = augmenting(g, u)
        for before, _, after in steps:
            assert len(after.union) == len(before.union) + 1
            assert g.is_independent(after.i1)
            assert u.is_independent(after.i2)
        assert len(state.union) == brute_union_max(g, u)

    def test_deterministic(self):
        g = build(Graphic(k4_graph()))
        assert maximize_union(g, g) == maximize_union(g, g)


def _seeded_partition(rng, labels):
    """Random blocks over ``labels`` with caps of at most half a block."""
    pool = list(labels)
    rng.shuffle(pool)
    blocks, caps = [], []
    while pool:
        size = rng.randint(1, 4)
        block, pool = tuple(pool[:size]), pool[size:]
        blocks.append(block)
        caps.append(rng.randint(0, len(block) // 2))
    return build(Partition(tuple(blocks), tuple(caps)))


def _restart_loop_union(m1, m2):
    """Reference scan: after every augmentation, rescan from the smallest id.

    Returns the parts extended to bases, the applied chains in order and the
    number of chain searches made.
    """
    state = PairState(fs(), fs())
    chains = []
    searches = 0
    progress = True
    while progress:
        progress = False
        for y in m1.elements():
            if y in state.union:
                continue
            searches += 1
            chain = find_chain(m1, m2, state, y)
            if chain is not None:
                state = apply_chain(m1, m2, state, chain)
                chains.append(chain)
                progress = True
                break
    bases = PairState(m1.maximal_extension(state.i1), m2.maximal_extension(state.i2))
    return bases, chains, searches


class TestSinglePass:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_each_element_is_searched_exactly_once(self, monkeypatch, seed):
        rng = random.Random(seed)
        labels = tuple(f"p{i:02d}" for i in range(18))
        m1, m2 = _seeded_partition(rng, labels), _seeded_partition(rng, labels)
        reference, reference_chains, reference_searches = _restart_loop_union(m1, m2)
        # The instance must leave elements out and retry them in the reference.
        assert len(reference.union) < m1.size < reference_searches

        searched = []
        original = union.find_chain

        def counting_find_chain(a, b, state, y, *session):
            searched.append(y)
            return original(a, b, state, y, *session)

        monkeypatch.setattr(union, "find_chain", counting_find_chain)
        state, steps = augmenting(m1, m2)
        assert searched == list(m1.elements())
        assert [chain for _, chain, _ in steps] == reference_chains
        assert (state.i1, state.i2) == (reference.i1, reference.i2)


def _fresh_session_union(m1, m2):
    """The one-pass union with a fresh session for every search, so no anchor
    is carried; returns the parts extended to bases and the applied chains."""
    state = PairState(fs(), fs())
    chains = []
    for y in m1.elements():
        chain = find_chain(m1, m2, state, y)
        if chain is not None:
            state = apply_chain(m1, m2, state, chain)
            chains.append(chain)
    bases = PairState(m1.maximal_extension(state.i1), m2.maximal_extension(state.i2))
    return bases, chains


def _seeded_graph(rng, vertices=7, edges=14):
    names = [f"v{i}" for i in range(vertices)]
    return Multigraph.from_labels(
        names, [(f"g{i}", rng.choice(names), rng.choice(names)) for i in range(edges)]
    )


class _RecordingAnchor:
    """Forwards to an anchor and records the grows and exchanges made on it."""

    def __init__(self, anchor):
        self.anchor, self.moves = anchor, []

    def grow(self, x):
        self.moves.append(("grow", x))
        return self.anchor.grow(x)

    def exchange(self, y, z):
        self.moves.append(("exchange", y, z))
        return self.anchor.exchange(y, z)

    def __getattr__(self, name):
        return getattr(self.anchor, name)


def _assert_answers_as_fresh(m, carried, a):
    fresh = m._anchor(a)
    assert carried.base == fresh.base == a
    for x in m.elements():
        if x not in a:
            assert carried.extends(x) == fresh.extends(x), (sorted(a), x)
            if not fresh.extends(x):
                assert carried.circuit(x) == fresh.circuit(x), (sorted(a), x)


class _CheckedAnchor:
    """Passes every query on to ``inner``, the anchor of ``a``, and checks
    each update's contract by rank first: ``grow(x)`` needs ``a + x``
    independent, and ``exchange(y, z)`` needs ``a + y`` dependent and
    ``a - z + y`` independent.  A broken contract fails as an assertion
    before it reaches a native anchor, whose forest could loop on it."""

    def __init__(self, m, a, inner):
        self._m, self._a, self._inner = m, a, inner

    @property
    def base(self):
        return self._inner.base

    def extends(self, x):
        return self._inner.extends(x)

    def circuit(self, x):
        return self._inner.circuit(x)

    def grow(self, x):
        assert self._m.is_independent(self._a | {x}), ("grow", sorted(self._a), x)
        return _CheckedAnchor(self._m, self._a | {x}, self._inner.grow(x))

    def exchange(self, y, z):
        a, swapped = self._a, self._a - {z} | {y}
        assert not self._m.is_independent(a | {y}), ("exchange", sorted(a), y, z)
        assert self._m.is_independent(swapped), ("exchange", sorted(a), y, z)
        return _CheckedAnchor(self._m, swapped, self._inner.exchange(y, z))


def _exchange_sequences(m, a):
    """Every sequence of two or three exchange pairs at the independent set
    ``a``, each pair a y outside ``a`` and an x on C(a, y), no y or x used
    twice.  Each is laid out as a chain's links through one part: elements
    (y_0, x_0, y_1, x_1, ...), the links at the even places, and each
    circuit C(a, y_j) at its link's place."""
    anchor = m._anchor(a)
    pairs = [
        (y, x, anchor.circuit(y))
        for y in m.elements()
        if y not in a and not anchor.extends(y)
        for x in sorted(anchor.circuit(y) - {y})
    ]
    for k in (2, 3):
        for seq in permutations(pairs, k):
            if len({y for y, _, _ in seq}) == k and len({x for _, x, _ in seq}) == k:
                els = tuple(e for y, x, _ in seq for e in (y, x))
                circuits = tuple(seq[i // 2][2] if i % 2 == 0 else None for i in range(2 * k - 1))
                yield els, circuits, range(0, 2 * k - 1, 2)


@pytest.mark.parametrize(
    "spec",
    [Uniform(5, 2), Uniform(6, 3), Graphic(k4_graph())]
    + [Graphic(_seeded_graph(random.Random(seed), vertices=5, edges=8)) for seed in (0, 2, 5, 10)],
    ids=["U(5,2)", "U(6,3)", "K4", "graphic-0", "graphic-2", "graphic-5", "graphic-10"],
)
def test_the_triangular_lemma_holds_on_every_small_sequence(spec):
    """At every independent set, every sequence of two or three exchange
    pairs that passes ``union._triangular`` swaps into an independent set by
    rank, and ``union._carried`` exchanges the native anchor there, in
    descending link order, with every update inside its contract, into an
    anchor that answers as a fresh one.  On a uniform matroid no sequence
    passes: a basis's circuits each hold the whole basis."""
    m = build(spec)
    passed = failed = 0
    for a in subsets_by_size(m.elements()):
        if not m.is_independent(a):
            continue
        for els, circuits, links in _exchange_sequences(m, a):
            if not union._triangular(els, circuits, links):
                failed += 1
                continue
            passed += 1
            swapped = a - set(els[1::2]) | set(els[::2])
            assert m.is_independent(swapped), (sorted(a), els)
            carried = union._carried(_CheckedAnchor(m, a, m._anchor(a)), els, None, links)
            _assert_answers_as_fresh(m, carried, swapped)
    assert failed and (passed == 0) == isinstance(spec, Uniform)


class TestSession:
    def test_a_moved_session_serves_the_new_state_only(self, monkeypatch):
        g = build(Graphic(k4_graph()))
        state = PairState(fs(), fs())
        session = union.Session(g, g, state)
        chain = find_chain(g, g, state, 0, session)
        after = apply_chain(g, g, state, chain, session)
        assert session.serves(g, g, after) and not session.serves(g, g, state)
        assert session.first().base == after.i1 and session.first().extends(1)
        # Handed the old state, find_chain falls back to its entry checks
        # and a fresh session, and leaves this one where it is.
        entries = []
        check_entry = union._check_entry
        monkeypatch.setattr(
            union, "_check_entry", lambda *args: entries.append(args[2]) or check_entry(*args)
        )
        assert find_chain(g, g, state, 0, session) == chain
        assert entries == [state] and session.serves(g, g, after)

    @pytest.mark.parametrize(
        "m1,m2",
        [
            (Partition((("e0",), ("e1", "e2", "e3"), ("e4", "e5")), (0, 2, 1)), Graphic(k4_graph())),
            (
                Binary(((0, 1, 0, 1, 1, 0), (0, 0, 1, 1, 0, 1), (0, 1, 1, 0, 1, 1))),
                Dual(Graphic(k4_graph())),
            ),
        ],
        ids=["block-forest", "rank-cographic"],
    )
    def test_a_link_free_chain_grows_the_receiving_anchor(self, monkeypatch, m1, m2):
        """Each link-free chain of a run, applied through its session with
        both anchors built: the session serves the new state, builds no
        anchor, keeps the other part and its anchor as the same objects,
        grows the receiving anchor by the chain's element and moves the
        other anchor not at all, and both anchors answer as fresh anchors of
        the new parts.  The moves are recorded, since an anchor that updates
        in place stays the same object when wrongly grown.  The
        chain costs one check of the receiving part: one ``extends=`` call
        and no rank evaluation where that handle has the hook, else one rank
        evaluation.  The first matroid's loop e0 makes an odd link-free
        chain, so the four anchor kinds each grow, and in each pair one
        receiver has the hook and the other has not."""
        m1, m2 = build(m1), build(m2)
        counts = {"evaluations": 0, "extends": 0}
        for m in (m1, m2):
            monkeypatch.setattr(m, "_rank", counted(m._rank, counts))
            if m._extends_fn is not None:
                monkeypatch.setattr(m, "_extends_fn", counted(m._extends_fn, counts, key="extends"))
        state = PairState(fs(), fs())
        session = union.Session(m1, m2, state)
        built = []
        build_anchor = Matroid._anchor
        monkeypatch.setattr(
            Matroid, "_anchor", lambda self, a: built.append(a) or build_anchor(self, a)
        )
        parities, receivers = set(), set()
        for y in m1.elements():
            chain = find_chain(m1, m2, state, y, session)
            if chain is None:
                continue
            anchors = _RecordingAnchor(session.first()), _RecordingAnchor(session.second())
            session._first, session._second = anchors
            built.clear()
            counts.update(evaluations=0, extends=0)
            before, state = state, apply_chain(m1, m2, state, chain, session)
            if chain.length:
                continue
            parities.add(chain.parity)
            assert session.serves(m1, m2, state) and built == []
            if chain.parity == EVEN:
                assert state.i2 is before.i2 and session.second() is anchors[1]
                receiving, untouched = anchors
            else:
                assert state.i1 is before.i1 and session.first() is anchors[0]
                untouched, receiving = anchors
            assert receiving.moves == [("grow", chain.elements[-1])] and untouched.moves == []
            hooked = (m1 if chain.parity == EVEN else m2)._extends_fn is not None
            assert counts == {"evaluations": 0 if hooked else 1, "extends": 1 if hooked else 0}
            receivers.add(hooked)
            _assert_answers_as_fresh(m1, session.first(), state.i1)
            _assert_answers_as_fresh(m2, session.second(), state.i2)
        assert parities == {EVEN, ODD} and receivers == {True, False}

    @pytest.mark.parametrize("seed", range(6))
    def test_carried_anchors_apply_the_chains_of_fresh_ones(self, seed):
        """Graphic against the dual of graphic, the Menger reduction's pair."""
        rng = random.Random(seed)
        m1 = build(Graphic(_seeded_graph(rng)))
        m2 = build(Dual(Graphic(_seeded_graph(rng))))
        state, steps = augmenting(m1, m2)
        reference, reference_chains = _fresh_session_union(m1, m2)
        assert [chain for _, chain, _ in steps] == reference_chains
        assert state == reference

    def test_a_chain_that_fails_the_triangular_test_rebuilds_its_anchor(self):
        """A valid chain that is not shortest: link 0's circuit holds e0,
        which link 2 takes out, so the first part fails the triangular
        test, yet its swaps leave the path {e2, e3, e5}, which rank
        accepts.  Exchanging its anchor in descending link order would break
        the contract at link 2, where e0 is off the circuit of e3, so the
        session rebuilds that anchor, and both anchors it leaves answer as
        fresh ones.  The first anchor checks each update it is handed."""
        m1 = build(Graphic(k4_graph()))
        m2 = build(Partition((("e0", "e5"), ("e1",), ("e2",), ("e3", "e4")), (1, 1, 0, 1)))
        state = PairState(fs({0, 1, 4}), fs({1, 3, 5}))
        chain = ExchangeChain(
            (2, 4, 3, 0, 5, 1), EVEN,
            (fs({0, 2, 4}), fs({3, 4}), fs({0, 1, 3}), fs({0, 5}), fs({0, 1, 4, 5})), COMMON,
        )
        validate_chain(m1, m2, state, chain)
        assert not union._triangular(chain.elements, chain.circuits, range(0, 5, 2))
        session = union.Session(m1, m2, state)
        session._first = _CheckedAnchor(m1, state.i1, session.first())
        session.second()
        after = apply_chain(m1, m2, state, chain, session)
        assert after == PairState(fs({2, 3, 5}), fs({0, 1, 4}))
        assert session.serves(m1, m2, after)
        _assert_answers_as_fresh(m1, session.first(), after.i1)
        _assert_answers_as_fresh(m2, session.second(), after.i2)

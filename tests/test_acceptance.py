"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The generated corpora are seeded, so every run checks identical instances.
"""

import subprocess
import sys
import time

import pytest

from matroidkit import (
    Binary,
    Dual,
    Explicit,
    ExplicitSystem,
    Graphic,
    GroundSet,
    IntersectionCertificate,
    Minor,
    Multigraph,
    Partition,
    Sum,
    Uniform,
    build,
    certify,
    check_axioms,
    check_orthogonality,
    graphic_components,
    materialize,
    min_rank_value,
    solve,
    verify_certificate,
    violation_chain,
)
from matroidkit.generate import random_matroid_pairs, random_menger_instances
from matroidkit.intersection import (
    build_digraph,
    build_state,
    divisive_coloring,
    state_from_bases,
)
from matroidkit.menger import reduce as reduce_instance, verify as verify_menger
from matroidkit.oracles import (
    brute_max_common_independent,
    brute_max_disjoint_paths,
    brute_union_max,
)
from matroidkit.union import COMMON, PairState, apply_chain

from conftest import (
    FIXTURES,
    augmenting,
    crossing_pair,
    escaping_elements,
    k4_graph,
    path3_graph,
    triangle_graph,
)

fs = frozenset

PAIR_SEED = 20260809
MENGER_SEED = 424242
PAIR_COUNT = 200
MENGER_COUNT = 100


def report(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def pair_corpus():
    pairs = random_matroid_pairs(PAIR_SEED, PAIR_COUNT, max_elements=8)
    return [(build(a), build(b)) for a, b in pairs]


@pytest.fixture(scope="module")
def certificates(pair_corpus):
    return [certify(m1, m2) for m1, m2 in pair_corpus]


@pytest.fixture(scope="module")
def menger_corpus():
    return random_menger_instances(MENGER_SEED, MENGER_COUNT)


def test_criterion_1_three_way_agreement(pair_corpus, certificates):
    started = time.monotonic()
    for (m1, m2), cert in zip(pair_corpus, certificates):
        algorithmic = len(cert.i)
        formula = min_rank_value(m1, m2)
        exhaustive, _ = brute_max_common_independent(m1, m2)
        assert algorithmic == formula == exhaustive
    elapsed = time.monotonic() - started
    assert len(pair_corpus) >= 200
    assert elapsed < 120
    report(1, f"{len(pair_corpus)} pairs agree on all three values in {elapsed:.1f}s")


def test_criterion_2_certificate_validity_and_mutations(pair_corpus, certificates):
    mutations = {"overlap": 0, "drop": 0, "swap": 0}
    for (m1, m2), cert in zip(pair_corpus, certificates):
        assert verify_certificate(m1, m2, cert)
        if cert.i:
            donor = cert.j1 if cert.j1 else cert.j2
            e = min(donor)
            overlapping = IntersectionCertificate(
                cert.i,
                cert.j1 | {e},
                cert.j2 | {e},
            )
            assert not verify_certificate(m1, m2, overlapping)
            mutations["overlap"] += 1

            e = min(cert.i)
            dropped = IntersectionCertificate(cert.i - {e}, cert.j1 - {e}, cert.j2 - {e})
            assert not verify_certificate(m1, m2, dropped)
            mutations["drop"] += 1

        outside = m1.ground.full() - cert.i
        swaps = [
            (a, b)
            for a in sorted(cert.i)
            for b in sorted(outside)
            if not (m1.is_independent(cert.i - {a} | {b})
                    and m2.is_independent(cert.i - {a} | {b}))
        ]
        if swaps:
            a, b = swaps[0]
            swapped = IntersectionCertificate(
                cert.i - {a} | {b},
                (cert.j1 - {a} | {b}) if a in cert.j1 else cert.j1,
                (cert.j2 - {a} | {b}) if a in cert.j2 else cert.j2,
            )
            assert not verify_certificate(m1, m2, swapped)
            mutations["swap"] += 1
    assert all(count > 0 for count in mutations.values())
    report(2, f"all certificates verify; mutation flips: {mutations}")


def test_criterion_3_menger_agreement(menger_corpus):
    started = time.monotonic()
    shapes = {"disjoint": 0, "overlap": 0, "equal": 0}
    for inst in menger_corpus:
        cert = solve(inst)
        assert cert.count == brute_max_disjoint_paths(inst.graph, inst.s, inst.t)
        assert verify_menger(inst, cert)
        assert len(cert.separator) == cert.count
        if inst.s == inst.t:
            shapes["equal"] += 1
        elif inst.s & inst.t:
            shapes["overlap"] += 1
        else:
            shapes["disjoint"] += 1
    elapsed = time.monotonic() - started
    assert len(menger_corpus) >= 100
    assert shapes["equal"] > 0 and shapes["overlap"] > 0 and shapes["disjoint"] > 0
    assert elapsed < 120
    report(3, f"{len(menger_corpus)} instances match the flow oracle in {elapsed:.1f}s "
              f"({shapes})")


def _axiom_base_specs():
    loop_parallel = Multigraph.from_labels(
        ["u", "v"], [("loop", "u", "u"), ("e1", "u", "v"), ("e2", "u", "v")]
    )
    return [
        Uniform(4, 2),
        Uniform(3, 0),
        Uniform(1, 1),
        Partition((("a", "b"), ("c", "d")), (1, 1)),
        Partition((("a", "b"),), (0,)),
        Graphic(triangle_graph()),
        Graphic(path3_graph()),
        Graphic(loop_parallel),
        Binary(((1, 0, 1), (0, 1, 1))),
        Explicit(ground=("a", "b", "c"), independent=((), ("a",), ("b",), ("c",))),
        Sum((Uniform(2, 1, labels=("a", "b")), Uniform(2, 1, labels=("c", "d")))),
    ]


def _minor_args(matroid):
    n = matroid.ground.size
    contract = fs({0}) if n >= 1 else fs()
    delete = fs({n - 1}) if n >= 2 else fs()
    return contract, delete


def _depth_two_compositions(matroid):
    yield matroid
    first = [matroid.dual(), matroid.minor(*_minor_args(matroid))]
    yield from first
    for wrapped in first:
        yield wrapped.dual()
        yield wrapped.minor(*_minor_args(wrapped))


def test_criterion_4_axiom_suite():
    checked = 0
    for spec in _axiom_base_specs():
        for handle in _depth_two_compositions(build(spec)):
            assert check_axioms(materialize(handle)).ok, handle.provenance
            checked += 1

    ground = GroundSet(("a", "b", "c"))

    def system(members):
        return ExplicitSystem(ground, tuple(ground.subset_from_labels(m) for m in members))

    no_empty = check_axioms(system([["a"], ["b"]]))
    assert not no_empty.i1_ok and no_empty.i1_witness == fs()

    missing_subset = check_axioms(
        system([[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]])
    )
    assert not missing_subset.i2_ok
    assert missing_subset.i2_witness == (fs({0, 1, 2}), fs({0, 2}))

    exchange = system([[], ["a"], ["b"], ["c"], ["b", "c"]])
    failure = check_axioms(exchange)
    assert not failure.i3_ok
    small, big = failure.i3_witness
    assert (small, big) == (fs({1}), fs({0}))
    members = exchange.member_set()
    assert not any(small | {x} in members for x in big - small)

    report(4, f"{checked} zoo handles pass all axioms; the three broken systems "
              "fail with their documented witnesses")


def test_criterion_5_orthogonality():
    specs = [
        Uniform(7, 3),
        Uniform(5, 0),
        Partition((("a", "b"), ("c", "d"), ("e", "f", "g")), (1, 1, 2)),
        Graphic(triangle_graph()),
        Graphic(k4_graph()),
        Binary(((1, 0, 1, 1, 0), (0, 1, 1, 0, 1), (1, 1, 0, 0, 0))),
        Explicit(ground=("a", "b", "c"), independent=((), ("a",), ("b",), ("c",))),
        Sum((Uniform(3, 1, labels=("a", "b", "c")), Uniform(4, 2, labels=("d", "e", "f", "g")))),
        Dual(of=Graphic(k4_graph())),
        Minor(of=Uniform(7, 3), contract=("e0",), delete=("e6",)),
    ]
    for spec in specs:
        matroid = build(spec)
        assert matroid.ground.size <= 7
        assert check_orthogonality(matroid), matroid.provenance
    report(5, f"{len(specs)} families meet every cocircuit in != 1 elements")


def test_criterion_6_exchange_chain_soundness(pair_corpus, menger_corpus):
    augmentations = 0

    def checked_run(m1, m2):
        nonlocal augmentations
        state, steps = augmenting(m1, m2)
        for before, _, after in steps:
            assert len(after.union) == len(before.union) + 1
            assert m1.is_independent(after.i1)
            assert m2.is_independent(after.i2)
        augmentations += len(steps)
        return state

    for m1, m2 in pair_corpus:
        state = checked_run(m1, m2)
        assert len(state.union) == brute_union_max(m1, m2)
        checked_run(m1, m2.dual())  # the run certify performs internally

    reduced = 0
    for inst in menger_corpus:
        if inst.s & inst.t or not (inst.s and inst.t):
            continue
        (comp,) = graphic_components(inst.graph, inst.graph.edges())  # the graph is connected
        m_s, m_t, _ = reduce_instance(inst, comp)
        checked_run(m_s, m_t.dual())
        if m_s.ground.size <= 8:
            state = checked_run(m_s, m_t)
            assert len(state.union) == brute_union_max(m_s, m_t)
        reduced += 1
        if reduced >= 40:
            break
    report(6, f"{augmentations} augmentations each grew the union by one and "
              "kept both parts independent")


def test_criterion_7_structural_assertions(pair_corpus):
    for m1, m2 in pair_corpus[:80]:
        st = build_state(m1, m2)
        assert not escaping_elements(m1, m2, st)
        dg = build_digraph(m1, m2, st)
        tails = {t for t, _, _ in dg.arcs}
        heads = {h for _, h, _ in dg.arcs}
        assert not (st.x & tails), "an X node has positive out-degree"
        assert not (st.y & heads), "a Y node has positive in-degree"
        coloring = divisive_coloring(dg)  # raises if blue reaches red
        for tail, head, _ in dg.arcs:
            assert not (tail in coloring.blue and head in coloring.red)

    # A deliberately non-maximal base pair must yield a chain whose
    # application grows the union, ending in an element of both bases.
    m1, m2 = crossing_pair()
    idx = m1.ground.subset_from_labels
    corrupted = state_from_bases(m1, m2, idx("ac"), idx("ab"))
    chain = violation_chain(m1, m2, corrupted)
    assert chain is not None and chain.terminal == COMMON
    before = PairState(corrupted.b1, corrupted.b2star)
    after = apply_chain(m1, m2.dual(), before, chain)
    assert len(after.union) == len(before.union) + 1
    report(7, "span containments, sink/source facts and coloring hold; the "
              "chain reconstructor exposes a corrupted base pair")


CLI_COMMANDS = [
    ["intersect", "--m1", str(FIXTURES / "crossing_m1.json"),
     "--m2", str(FIXTURES / "crossing_m2.json"), "--min-rank"],
    ["union", "--m1", str(FIXTURES / "crossing_m1.json"),
     "--m2", str(FIXTURES / "crossing_m2.json")],
    ["menger", "--graph", str(FIXTURES / "k22_graph.json"),
     "--s", "u1,u2", "--t", "w1,w2"],
    ["rank", "--matroid", str(FIXTURES / "triangle_graphic.json")],
    ["orthogonality", "--matroid", str(FIXTURES / "uniform24.json")],
    ["check-axioms", "--system", str(FIXTURES / "system_missing_subset.json")],
    ["gen", "--kind", "pairs", "--count", "5", "--seed", "3"],
    ["gen", "--kind", "menger", "--count", "5", "--seed", "3"],
]


def test_criterion_8_cli_determinism():
    for argv in CLI_COMMANDS:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "matroidkit", *argv],
                capture_output=True,
                check=False,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].returncode == runs[1].returncode, argv
    report(8, f"{len(CLI_COMMANDS)} commands emit byte-identical output across runs")

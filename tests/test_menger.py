import dataclasses
import random
import sys
from collections import Counter

import pytest

from matroidkit import (
    ConsistencyError,
    GroundSet,
    InputError,
    MengerCertificate,
    MengerInstance,
    Multigraph,
    graphic_components,
    graphs,
    identify_vertices,
    menger,
    solve,
)
from matroidkit.generate import random_menger_instances
from matroidkit.menger import (
    forest_structure,
    reduce as reduce_instance,
    separator_from_partition,
    verify,
)
from matroidkit.oracles import brute_max_disjoint_paths

from conftest import path3_graph, random_menger_instance

fs = frozenset


def whole(inst):
    """The one component of a connected instance's graph."""
    (comp,) = graphic_components(inst.graph, inst.graph.edges())
    return comp


def reference_contractions(inst, comp):
    """The reference route for one component: a graph of its kept edges on
    its vertices in ascending id order, with ``identify_vertices`` merging
    the component's S, and then its T, in it."""
    g = inst.graph
    order = sorted(comp.vertices)
    pos = {v: i for i, v in enumerate(order)}
    keep = tuple(
        e for e in sorted(comp.edges)
        if not any(set(g.endpoints[e]) <= side for side in (inst.s, inst.t))
    )
    kept = Multigraph(
        tuple(g.vertex_labels[v] for v in order),
        tuple((pos[u], pos[v]) for u, v in (g.endpoints[e] for e in keep)),
        tuple(g.edge_labels[e] for e in keep),
    )
    merged = [
        identify_vertices(kept, {pos[v] for v in comp.vertices & side})[0]
        for side in (inst.s, inst.t)
    ]
    return keep, merged


def two_paths_apart():
    """Two components: a 4-cycle with both chords and a loop, and the path
    p - q - r on edges 3 and 8, whose frozenset iterates 8 before 3."""
    return MengerInstance.from_labels(
        Multigraph.from_labels(
            ["a", "b", "c", "d", "p", "q", "r"],
            [
                ("ab", "a", "b"), ("bc", "b", "c"), ("cd", "c", "d"), ("pq", "p", "q"),
                ("da", "d", "a"), ("ac", "a", "c"), ("aa", "a", "a"), ("bd", "b", "d"),
                ("qr", "q", "r"),
            ],
        ),
        ["a", "p"],
        ["c", "r"],
    )


class TestReduce:
    def test_path_reduces_to_free_matroids(self, path3):
        inst = MengerInstance.from_labels(path3, ["a"], ["c"])
        m_s, m_t, ground = reduce_instance(inst, whole(inst))
        assert ground == (0, 1)
        assert m_s.ground.labels == ("e0", "e1") == m_t.ground.labels
        assert m_s.circuits() == [] and m_t.circuits() == []

    def test_k22_side_contraction_creates_parallel_pairs(self, k22):
        inst = MengerInstance.from_labels(k22, ["u1", "u2"], ["w1", "w2"])
        m_s, m_t, ground = reduce_instance(inst, whole(inst))
        assert ground == (0, 1, 2, 3)
        assert m_s.circuits() == [fs({0, 2}), fs({1, 3})]
        assert m_t.circuits() == [fs({0, 1}), fs({2, 3})]

    def test_identical_singleton_terminals_keep_the_graph(self, triangle):
        inst = MengerInstance.from_labels(triangle, ["v"], ["v"])
        m_s, m_t, ground = reduce_instance(inst, whole(inst))
        assert ground == (0, 1, 2)
        assert m_s.circuits() == [fs({0, 1, 2})] == m_t.circuits()

    def test_internal_edges_leave_the_ground_set(self):
        g = Multigraph.from_labels(
            ["a", "b", "c"], [("s_edge", "a", "b"), ("mid", "b", "c")]
        )
        inst = MengerInstance.from_labels(g, ["a", "b"], ["c"])
        _, _, ground = reduce_instance(inst, whole(inst))
        assert ground == (1,)  # the intra-S edge is gone

    @pytest.mark.parametrize(
        "seed", [*range(6), None, "apart"], ids=[*map(str, range(6)), "random-200", "apart"]
    )
    def test_contracted_graphs_are_the_kept_graph_with_a_side_identified(
        self, seed, monkeypatch
    ):
        """The two handles ``reduce`` builds share one ground set and carry
        the graphs of the reference route: its edge labels, its endpoints
        and its vertex count.  On the path of ``two_paths_apart`` the ground
        comes out ascending though the component's edges do not iterate so."""
        if seed is None:
            instances = [random_menger_instance(200)]
        elif seed == "apart":
            instances = [two_paths_apart()]
            path = graphic_components(instances[0].graph, instances[0].graph.edges())[1]
            assert list(path.edges) == [8, 3]  # so ``reduce`` must sort them
        else:
            instances = [i for i in random_menger_instances(seed, 30, 14) if not i.s & i.t]
        calls = []
        real = menger.graphic_matroid
        monkeypatch.setattr(
            menger,
            "graphic_matroid",
            lambda ground, ends, n: calls.append((ground, ends, n)) or real(ground, ends, n),
        )
        checked = 0
        for inst in instances:
            for comp in graphic_components(inst.graph, inst.graph.edges()):
                if comp.vertices.isdisjoint(inst.s) or comp.vertices.isdisjoint(inst.t):
                    continue
                calls.clear()
                _, _, ground = reduce_instance(inst, comp)
                keep, merged = reference_contractions(inst, comp)
                assert ground == keep
                assert len(calls) == 2 and calls[0][0] is calls[1][0]
                for (ground_set, ends, n), expected in zip(calls, merged):
                    assert (ground_set.labels, ends, n) == (
                        expected.edge_labels, expected.endpoints, expected.vertex_count
                    )
                checked += 1
        assert checked

    def test_empty_terminals_rejected(self, path3):
        with pytest.raises(InputError):
            MengerInstance(path3, fs(), fs({0}))


class TestMengerInstance:
    """The instance keeps the frozensets its check returns, not the
    caller's objects."""

    def test_listed_terminals_solve(self, path3):
        inst = MengerInstance(path3, [0], [2])
        assert (inst.s, inst.t) == (fs({0}), fs({2}))
        assert solve(inst).paths == ((0, 1, 2),)

    def test_a_terminal_set_mutated_after_construction_is_not_seen(self, path3):
        s = {0}
        inst = MengerInstance(path3, s, {2})
        s.add(7)
        assert inst.s == fs({0})
        assert solve(inst).paths == ((0, 1, 2),)

    def test_an_instance_built_from_sets_hashes(self, path3):
        inst = MengerInstance(path3, {0}, {2})
        assert hash(inst) == hash(MengerInstance(path3, fs({0}), fs({2})))


class TestForestStructure:
    def test_path_component_carries_the_path(self, path3):
        inst = MengerInstance.from_labels(path3, ["a"], ["c"])
        (mc,) = forest_structure(inst, {0, 1}, {0, 1}, fs())
        assert mc.path == (0, 1, 2)
        assert mc.pivot == 2  # no T-part edge stops the initial segment

    def test_pivot_stops_before_the_first_t_part_edge(self, path3):
        inst = MengerInstance.from_labels(path3, ["a"], ["c"])
        (mc,) = forest_structure(inst, {0, 1}, {0}, {1})
        assert mc.pivot == 1

    def test_one_sided_components_carry_no_pivot(self):
        g = Multigraph.from_labels(
            ["a", "b", "c", "d"], [("e0", "a", "b"), ("e1", "c", "d")]
        )
        inst = MengerInstance.from_labels(g, ["a"], ["d"])
        components = forest_structure(inst, {0, 1}, {0}, {1})
        # one component meets only S, the other only T
        assert [(mc.path, mc.pivot) for mc in components] == [(None, None)] * 2
        assert separator_from_partition(components).separator == fs()

    def test_cycle_in_certificate_edges_is_inconsistent(self, triangle):
        inst = MengerInstance.from_labels(triangle, ["u"], ["w"])
        with pytest.raises(ConsistencyError):
            forest_structure(inst, {0, 1, 2}, {0, 1, 2}, fs())

    def test_two_terminal_vertices_in_one_component_is_inconsistent(self, path3):
        inst = MengerInstance.from_labels(path3, ["a", "c"], ["b"])
        with pytest.raises(ConsistencyError):
            forest_structure(inst, {0, 1}, {0, 1}, fs())

    def test_component_avoiding_terminals_is_inconsistent(self):
        g = Multigraph.from_labels(
            ["a", "b", "c", "d"], [("e0", "a", "b"), ("e1", "c", "d")]
        )
        inst = MengerInstance.from_labels(g, ["a"], ["b"])
        with pytest.raises(ConsistencyError):
            forest_structure(inst, {0, 1}, {0, 1}, fs())

    def test_overlapping_terminals_rejected_here(self, triangle):
        inst = MengerInstance.from_labels(triangle, ["u"], ["u", "w"])
        with pytest.raises(InputError):
            forest_structure(inst, fs(), fs(), fs())


def reference_parts(g, edges, pivot, j_s):
    """Delete the pivot; each remaining piece, with its attaching edge, joins
    the part of that edge."""
    k_s, k_t = set(), set()
    away = [e for e in edges if pivot not in g.endpoints[e]]
    for attach in (e for e in edges if pivot in g.endpoints[e]):
        piece, grew = set(g.endpoints[attach]) - {pivot}, True
        members = {attach}
        while grew:
            grew = False
            for e in away:
                if e not in members and piece & set(g.endpoints[e]):
                    members.add(e)
                    piece.update(g.endpoints[e])
                    grew = True
        (k_s if attach in j_s else k_t).update(members)
    return fs(k_s), fs(k_t)


def reference_sides(inst, components, j_s):
    """V_S and V_T of the reference repartition: S plus the ends of the K_S
    edges, and T plus the ends of the K_T edges.  Each path and pivot is
    checked on the way."""
    g = inst.graph
    k_s, k_t = set(), set()
    for mc in components:
        edges = sorted(mc.component.edges)
        if mc.path is None:
            (k_s if mc.component.vertices & inst.s else k_t).update(edges)
            continue
        path = mc.path
        assert path[0] in inst.s and path[-1] in inst.t and len(set(path)) == len(path)
        links = [next(e for e in edges if set(g.endpoints[e]) == {u, v})
                 for u, v in zip(path, path[1:])]
        first_t = next((i for i, e in enumerate(links) if e not in j_s), len(links))
        assert mc.pivot == path[first_t]
        ref_s, ref_t = reference_parts(g, edges, mc.pivot, j_s)
        k_s |= ref_s
        k_t |= ref_t
    v_s = set(inst.s).union(*(g.endpoints[e] for e in k_s))
    v_t = set(inst.t).union(*(g.endpoints[e] for e in k_t))
    return v_s, v_t


def check_against_reference(inst, j_s, j_t):
    """The separator read off the pivots is the reference V_S ∩ V_T."""
    components = forest_structure(inst, j_s | j_t, j_s, j_t)
    v_s, v_t = reference_sides(inst, components, j_s)
    cert = separator_from_partition(components)
    assert cert.separator == fs(v_s & v_t)
    return components, cert


class TestForestRepartition:
    """Trees whose pivot is interior, with branches off the S side, the pivot
    and the T side, including branches leaving the path at non-pivot vertices."""

    # path s - a - p - b - t with branches off s, a, p (twice), b and t; the
    # vertices are listed out of path order so ids do not follow the tree.
    EDGES = [
        ("sa", "s", "a"), ("ap", "a", "p"), ("pb", "p", "b"), ("bt", "b", "t"),
        ("s1", "s", "s1"), ("a1", "a", "a1"), ("a2", "a1", "a2"), ("p1", "p", "p1"),
        ("p2", "p", "p2"), ("p3", "p2", "p3"), ("b1", "b", "b1"), ("t1", "t", "t1"),
        ("p4", "p1", "p4"),
    ]
    VERTICES = ["p3", "t", "b1", "a", "p", "s1", "t1", "a2", "s", "p2", "b", "a1", "p1", "p4"]

    def instance(self):
        g = Multigraph.from_labels(self.VERTICES, self.EDGES)
        return MengerInstance.from_labels(g, ["s"], ["t"])

    def split(self, t_part):
        names = [name for name, _, _ in self.EDGES]
        j_t = fs(names.index(name) for name in t_part)
        return fs(range(len(names))) - j_t, j_t

    def test_interior_pivot_with_branches_on_both_sides(self):
        inst = self.instance()
        # pb is the first T-part edge of the path, so p is the pivot; s1 and
        # a2 sit in the T part but hang off the S side, bt and b1 sit in the
        # S part but hang off the T side.
        j_s, j_t = self.split(["pb", "s1", "a2", "p2", "p4"])
        (mc,), cert = check_against_reference(inst, j_s, j_t)
        label = inst.graph.vertex_labels
        assert [label[v] for v in mc.path] == ["s", "a", "p", "b", "t"]
        assert label[mc.pivot] == "p"
        assert cert.paths == (mc.path,) and cert.separator == fs({mc.pivot})
        v_s, v_t = reference_sides(inst, (mc,), j_s)
        assert sorted(label[v] for v in v_s) == ["a", "a1", "a2", "p", "p1", "p4", "s", "s1"]
        assert sorted(label[v] for v in v_t) == ["b", "b1", "p", "p2", "p3", "t", "t1"]

    @pytest.mark.parametrize(
        "t_part",
        [[], ["sa"], ["ap", "p1"], ["bt", "s1", "a1"], ["pb", "bt", "b1", "t1", "p3"]],
        ids=["pivot-t", "pivot-s", "pivot-a", "pivot-b", "pivot-p-t-side-whole"],
    )
    def test_every_pivot_position_matches_the_reference(self, t_part):
        check_against_reference(self.instance(), *self.split(t_part))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_forests_match_the_reference(self, seed):
        rng = random.Random(seed)
        order = rng.sample(range(16), 16)
        edges, s, t, roles = [], [], [], "st"
        while len(order) >= 2:
            size = min(rng.randint(2, 6), len(order))
            tree, order = order[:size], order[size:]
            for i in range(1, size):
                edges.append((f"e{len(edges)}", str(tree[i]), str(tree[rng.randrange(i)])))
            a, b = rng.sample(tree, 2)
            if "s" in roles:
                s.append(str(a))
            if "t" in roles:
                t.append(str(b))
            roles = rng.choice(["st", "s", "t"])
        g = Multigraph.from_labels([str(v) for v in range(16)], edges)
        inst = MengerInstance.from_labels(g, s, t)
        j_t = fs(e for e in range(len(edges)) if rng.random() < 0.4)
        check_against_reference(inst, fs(range(len(edges))) - j_t, j_t)


class TestSeparatorFromPartition:
    def test_path_instance(self, path3):
        inst = MengerInstance.from_labels(path3, ["a"], ["c"])
        cert = separator_from_partition(forest_structure(inst, {0, 1}, {0, 1}, fs()))
        assert cert.paths == ((0, 1, 2),)
        assert cert.separator == fs({2})
        assert verify(inst, cert)

    @pytest.mark.parametrize("seed", range(10))
    def test_solve_separator_is_the_reference_intersection(self, seed, monkeypatch):
        """With S and T disjoint, ``solve`` reads its forest on the instance
        as it stands, so that forest can be replayed through
        the reference repartition: its sides cover V, no edge crosses them,
        and they meet in exactly the separator."""
        forests = []

        def recording(inst, i_edges, j_s, j_t):
            components = forest_structure(inst, i_edges, j_s, j_t)
            forests.append((inst, fs(j_s), components))
            return components

        monkeypatch.setattr(menger, "forest_structure", recording)
        checked = 0
        for inst in random_menger_instances(seed, 30):
            if inst.s & inst.t:
                continue
            forests.clear()
            cert = solve(inst)
            ((local, j_s, components),) = forests
            assert (local.graph, local.s, local.t) == (inst.graph, inst.s, inst.t)
            v_s, v_t = reference_sides(inst, components, j_s)
            assert cert.separator == fs(v_s & v_t)
            assert v_s | v_t == set(inst.graph.vertices())
            for ends in inst.graph.endpoints:
                assert set(ends) <= v_s or set(ends) <= v_t
            checked += 1
        assert checked

    def test_k22_instance_has_two_paths(self, k22):
        inst = MengerInstance.from_labels(k22, ["u1", "u2"], ["w1", "w2"])
        cert = solve(inst)
        assert cert.count == 2
        assert len(cert.separator) == 2
        assert all(len(cert.separator & fs(p)) == 1 for p in cert.paths)


class TestSolve:
    def test_path_graph(self, path3):
        inst = MengerInstance.from_labels(path3, ["a"], ["c"])
        cert = solve(inst)
        assert cert.count == 1 and len(cert.separator) == 1
        assert verify(inst, cert)

    def test_single_shared_terminal(self, triangle):
        inst = MengerInstance.from_labels(triangle, ["v"], ["v"])
        cert = solve(inst)
        assert cert.paths == ((1,),)
        assert cert.separator == fs({1})

    def test_shared_vertex_cuts_everything(self):
        # b separates a from c, and b belongs to both terminal sets
        g = path3_graph()
        inst = MengerInstance.from_labels(g, ["a", "b"], ["b", "c"])
        cert = solve(inst)
        assert brute_max_disjoint_paths(g, inst.s, inst.t) == cert.count
        assert verify(inst, cert)

    def test_disconnected_graph_solved_per_component(self):
        g = Multigraph.from_labels(
            ["a", "b", "c", "d"], [("e0", "a", "b"), ("e1", "c", "d")]
        )
        inst = MengerInstance.from_labels(g, ["a", "c"], ["b", "d"])
        cert = solve(inst)
        assert cert.count == 2 == brute_max_disjoint_paths(g, inst.s, inst.t)
        assert verify(inst, cert)

    @staticmethod
    def _hub_grids(k, w):
        """k w x w grids from left to right column, plus a hub in S and T
        joined to each grid's centre."""

        def v(i, r, c):
            return f"g{i}r{r}c{c}"

        vertices = ["h"] + [v(i, r, c) for i in range(k) for r in range(w) for c in range(w)]
        edges = []
        for i in range(k):
            edges.append((f"hub{i}", "h", v(i, w // 2, w // 2)))
            for r in range(w):
                for c in range(w):
                    if c + 1 < w:
                        edges.append((f"g{i}h{r}.{c}", v(i, r, c), v(i, r, c + 1)))
                    if r + 1 < w:
                        edges.append((f"g{i}v{r}.{c}", v(i, r, c), v(i, r + 1, c)))
        g = Multigraph.from_labels(vertices, edges)
        return MengerInstance.from_labels(
            g,
            ["h"] + [v(i, r, 0) for i in range(k) for r in range(w)],
            ["h"] + [v(i, r, w - 1) for i in range(k) for r in range(w)],
        )

    @pytest.mark.parametrize("k,w", [(3, 3), (4, 5)])
    def test_hub_peeling_leaves_one_component_per_grid(self, k, w):
        """Once the hub is peeled, every grid is a component of its own
        carrying w paths, so k * w + 1 in all."""
        inst = self._hub_grids(k, w)
        g = inst.graph
        cert = solve(inst)
        assert cert.count == k * w + 1
        assert verify(inst, cert)
        hub = g.vertex_index("h")
        for p in cert.paths:
            grids = {g.vertex_labels[u].split("r")[0] for u in p}
            assert p == (hub,) or (hub not in p and len(grids) == 1)

    def test_components_are_certified_without_graph_or_ground_set_copies(self, monkeypatch):
        """A shared terminal h joins three components once it is peeled:
        a - b and x - y - z meet S and T, and c - d meets only S.  ``solve``
        builds no ``Multigraph`` and one ``GroundSet`` per certified
        component."""
        g = Multigraph.from_labels(
            ["h", "a", "b", "c", "d", "x", "y", "z"],
            [
                ("ha", "h", "a"), ("ab", "a", "b"), ("hc", "h", "c"), ("cd", "c", "d"),
                ("hy", "h", "y"), ("xy", "x", "y"), ("yz", "y", "z"),
            ],
        )
        inst = MengerInstance.from_labels(g, ["h", "a", "c", "x"], ["h", "b", "z"])
        built = Counter()
        for cls in (Multigraph, GroundSet):
            counted = cls.__post_init__

            def counting(self, counted=counted, name=cls.__name__):
                built[name] += 1
                counted(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        cert = solve(inst)
        assert cert.count == 3
        assert built == {"GroundSet": 2}

    def test_incidence_lists_are_built_per_handle_not_per_anchor(self, monkeypatch):
        """``graphs.incidence`` runs three times per solve, for the components
        of the graph and of the certificate forest and for the forest's
        paths, and twice per certified component, once for each of its two
        graphic handles; no anchor build or update runs it."""
        calls = []
        incidence = graphs.incidence

        def counting(*args):
            calls.append(args)
            return incidence(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("matroidkit") and getattr(module, "incidence", None) is incidence:
                monkeypatch.setattr(module, "incidence", counting)
        k = 3
        cert = solve(self._hub_grids(k, 3))
        assert cert.count == k * 3 + 1
        assert len(calls) == 3 + 2 * k

    def test_unreachable_terminals_give_empty_certificate(self):
        g = Multigraph.from_labels(["a", "b", "c"], [("e0", "a", "b")])
        inst = MengerInstance.from_labels(g, ["a"], ["c"])
        cert = solve(inst)
        assert cert.count == 0 and cert.separator == fs()
        assert verify(inst, cert)

    def test_loops_and_parallels_are_harmless(self):
        g = Multigraph.from_labels(
            ["a", "b"],
            [("l", "a", "a"), ("e1", "a", "b"), ("e2", "a", "b")],
        )
        inst = MengerInstance.from_labels(g, ["a"], ["b"])
        cert = solve(inst)
        assert cert.count == 1 == brute_max_disjoint_paths(g, inst.s, inst.t)

    def test_deterministic(self, k22):
        inst = MengerInstance.from_labels(k22, ["u1", "u2"], ["w1", "w2"])
        assert solve(inst) == solve(inst)

    def test_a_moved_pivot_is_caught_by_the_final_verify(self, monkeypatch):
        """``verify`` is the only check on the separator read off the pivots:
        moving one pivot a step along its path must make ``solve`` fail."""
        inst = random_menger_instances(4, 30, max_vertices=10)[29]
        honest = solve(inst)
        moves = []

        def moving(*args):
            *rest, last = forest_structure(*args)
            i = last.path.index(last.pivot)
            step = last.path[i - 1] if i else last.path[1]
            moves.append((last.pivot, step))
            return (*rest, dataclasses.replace(last, pivot=step))

        monkeypatch.setattr(menger, "forest_structure", moving)
        with pytest.raises(ConsistencyError, match="not separating"):
            solve(inst)
        ((pivot, step),) = moves
        moved = MengerCertificate(honest.paths, honest.separator - {pivot} | {step})
        verdict = verify(inst, moved)
        assert not verdict and verdict.reason == "not separating"


class TestVerify:
    def test_dropping_a_separator_vertex_fails(self, k22):
        inst = MengerInstance.from_labels(k22, ["u1", "u2"], ["w1", "w2"])
        cert = solve(inst)
        smaller = MengerCertificate(cert.paths, cert.separator - {min(cert.separator)})
        verdict = verify(inst, smaller)
        assert not verdict

    def test_duplicated_path_fails(self, path3):
        inst = MengerInstance.from_labels(path3, ["a"], ["c"])
        cert = solve(inst)
        doubled = MengerCertificate(cert.paths + cert.paths, cert.separator)
        verdict = verify(inst, doubled)
        assert not verdict and verdict.reason == "paths are not vertex-disjoint"

    def test_wrong_endpoints_fail(self, path3):
        inst = MengerInstance.from_labels(path3, ["a"], ["c"])
        bad = MengerCertificate(((1, 2),), fs({2}))
        verdict = verify(inst, bad)
        assert not verdict and verdict.reason == "path endpoints are not an S-T pair"

    def test_non_separating_set_fails(self, k22):
        inst = MengerInstance.from_labels(k22, ["u1", "u2"], ["w1", "w2"])
        bad = MengerCertificate(((0, 2),), fs({2}))
        verdict = verify(inst, bad)
        assert not verdict and verdict.reason == "not separating"

    def test_broken_adjacency_fails(self, k22):
        inst = MengerInstance.from_labels(k22, ["u1", "u2"], ["w1", "w2"])
        bad = MengerCertificate(((0, 1, 2),), fs({2}))  # u1-u2 is not an edge
        verdict = verify(inst, bad)
        assert not verdict and verdict.reason == "path uses a missing edge"

    @pytest.mark.parametrize(
        "paths,separator,reason",
        [
            (((),), fs(), "empty path"),
            (((0, 9, 2),), fs({1}), "path references unknown vertices"),
            (((0, 1, 0, 1, 2),), fs({1}), "path revisits a vertex"),
            (((0, 1, 2),), fs({9}), "separator references unknown vertices"),
        ],
        ids=["empty", "unknown-path-vertex", "revisit", "unknown-separator-vertex"],
    )
    def test_malformed_certificates_fail_with_their_reason(self, path3, paths, separator, reason):
        inst = MengerInstance.from_labels(path3, ["a"], ["c"])
        verdict = verify(inst, MengerCertificate(paths, separator))
        assert not verdict and verdict.reason == reason

    def test_separator_vertex_off_every_path_fails(self, k22):
        inst = MengerInstance.from_labels(k22, ["u1", "u2"], ["w1", "w2"])
        verdict = verify(inst, MengerCertificate(((0, 2),), fs({1})))  # u2 is on no path
        assert not verdict and verdict.reason == "separator vertex off every path"

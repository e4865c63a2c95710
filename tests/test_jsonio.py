import pytest

from matroidkit import (
    Binary,
    Dual,
    Explicit,
    Graphic,
    InputError,
    MengerInstance,
    Minor,
    Partition,
    Sum,
    Uniform,
    build,
    certify,
    solve,
)
from matroidkit.jsonio import (
    MAX_GROUND_SIZE,
    MAX_SPEC_DEPTH,
    canonical_dumps,
    graph_from_obj,
    graph_to_obj,
    intersection_cert_from_obj,
    intersection_cert_to_obj,
    loads,
    menger_cert_from_obj,
    menger_cert_to_obj,
    menger_instance_from_obj,
    menger_instance_to_obj,
    spec_from_obj,
    spec_to_obj,
)

from conftest import crossing_pair, k22_graph, triangle_graph

ALL_SPECS = [
    Uniform(4, 2),
    Uniform(3, 1, labels=("a", "b", "c")),
    Partition((("a", "b"), ("c",)), (1, 0)),
    Graphic(triangle_graph()),
    Binary(((1, 0), (0, 1))),
    Explicit(ground=("a", "b"), independent=((), ("a",))),
    Sum((Uniform(2, 1, labels=("a", "b")), Uniform(1, 1, labels=("c",)))),
    Dual(of=Uniform(4, 2)),
    Minor(of=Graphic(triangle_graph()), contract=("e1",), delete=("e2",)),
]


def test_spec_round_trips():
    for spec in ALL_SPECS:
        obj = spec_to_obj(spec)
        again = spec_from_obj(obj)
        assert spec_to_obj(again) == obj
        # and the rebuilt matroid answers identically
        m1, m2 = build(spec), build(again)
        assert m1.ground == m2.ground
        full = m1.ground.full()
        assert m1.is_independent(full) == m2.is_independent(full)


def test_default_labels_are_omitted():
    assert "labels" not in spec_to_obj(Uniform(4, 2))
    assert "labels" in spec_to_obj(Uniform(2, 1, labels=("p", "q")))


def test_graph_round_trip():
    g = k22_graph()
    assert graph_from_obj(graph_to_obj(g)) == g


def test_intersection_certificate_round_trip():
    m1, m2 = crossing_pair()
    cert = certify(m1, m2)
    obj = intersection_cert_to_obj(cert, m1.ground)
    assert obj["size"] == len(cert.i)
    assert intersection_cert_from_obj(obj, m1.ground) == cert


def test_menger_round_trips():
    g = k22_graph()
    inst = MengerInstance.from_labels(g, ["u1", "u2"], ["w1", "w2"])
    assert menger_instance_from_obj(menger_instance_to_obj(inst)) == inst
    cert = solve(inst)
    obj = menger_cert_to_obj(cert, g)
    assert obj["count"] == cert.count
    assert menger_cert_from_obj(obj, g) == cert


def test_canonical_dumps_sorts_keys_and_ends_with_newline():
    text = canonical_dumps({"b": 1, "a": [2, 1]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_malformed_json_reports_position():
    with pytest.raises(InputError, match=r"line 2 column"):
        loads('{\n  "broken": ')


def test_unknown_family_type_rejected():
    with pytest.raises(InputError, match="unknown family type"):
        spec_from_obj({"type": "mystery"})


def test_missing_fields_rejected():
    with pytest.raises(InputError, match="missing field"):
        spec_from_obj({"type": "uniform", "n": 3})


def test_spec_nesting_is_capped_at_max_depth():
    spec = {"type": "uniform", "n": 3, "k": 1}
    for level in range(MAX_SPEC_DEPTH - 1):
        spec = {"type": "sum", "parts": [spec]} if level % 3 == 0 else {"type": "dual", "of": spec}
    deepest = build(spec_from_obj(spec))
    assert deepest.rank() == 1  # 42 duals cancel out
    for wrapper in ({"type": "dual", "of": spec}, {"type": "sum", "parts": [spec]}):
        with pytest.raises(InputError, match="nested deeper"):
            spec_from_obj(wrapper)


def test_json_nested_past_the_parser_is_input_error():
    """100,000 levels pass the nesting every supported parser takes; 3.13's
    takes 3,000."""
    with pytest.raises(InputError, match="nested too deeply"):
        loads("[" * 100_000 + "]" * 100_000)


def test_json_nested_within_a_newer_parser_is_still_input_error():
    """3,000 levels pass the parser of 3.10-3.12 but not that of 3.13, whose
    nested lists the spec reader rejects instead."""
    with pytest.raises(InputError):
        spec_from_obj(loads("[" * 3000 + "]" * 3000))


def _labels(n, prefix="e"):
    return [f"{prefix}{i}" for i in range(n)]


def _graph(vertices, edges):
    loops = [[f"g{i}", "v0", "v0"] for i in range(edges)]
    return {"vertices": _labels(vertices, "v"), "edges": loops}


@pytest.mark.parametrize(
    "make",
    [
        lambda n: {"type": "uniform", "n": n, "k": 1},
        lambda n: {"type": "partition", "blocks": [_labels(n)], "caps": [1]},
        lambda n: {"type": "binary", "matrix": [[1] * n]},
        lambda n: {"type": "explicit", "ground": _labels(n), "independent": [[]]},
        lambda n: {"type": "graphic", "graph": _graph(1, n)},
        lambda n: {"type": "graphic", "graph": _graph(n, 1)},
        lambda n: {
            "type": "sum",
            "parts": [
                {"type": "uniform", "n": n // 2, "k": 1, "labels": _labels(n // 2, "a")},
                {"type": "uniform", "n": n - n // 2, "k": 1, "labels": _labels(n - n // 2, "b")},
            ],
        },
        lambda n: {"type": "dual", "of": {"type": "uniform", "n": n, "k": 1}},
        lambda n: {"type": "minor", "of": {"type": "uniform", "n": n, "k": 1}, "delete": ["e0"]},
    ],
    ids=[
        "uniform", "partition", "binary", "explicit", "graph-edges", "graph-vertices",
        "sum", "dual", "minor",
    ],
)
def test_ground_sets_are_capped_at_max_ground_size(make):
    spec_from_obj(make(MAX_GROUND_SIZE))
    with pytest.raises(InputError, match=f"more than the cap of {MAX_GROUND_SIZE}"):
        spec_from_obj(make(MAX_GROUND_SIZE + 1))


def test_graphs_in_menger_instances_are_capped():
    obj = {"graph": _graph(MAX_GROUND_SIZE + 1, 0), "s": ["v0"], "t": ["v1"]}
    with pytest.raises(InputError, match="graph vertex list"):
        menger_instance_from_obj(obj)

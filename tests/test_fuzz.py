"""Hostile-input corpus: seeded mutations of the ``gen`` corpus.

Each case takes one instance of the seed-7 ``gen`` corpus (a matroid pair
for ``intersect``, or a graph for ``menger``), breaks its JSON in one way
and hands it to the command that reads it.  The mutations are truncation,
a value of the wrong JSON type, a duplicated label, a ground set past
``MAX_GROUND_SIZE``, an edge endpoint naming no vertex, and nesting past
``MAX_SPEC_DEPTH`` or past what the JSON parser can follow.  Each is built
to be invalid whatever it lands on.  Whatever the mutation, the command
must exit 2 with nothing on stdout and exactly one line on stderr; an
exception escaping ``run`` would be a traceback, and fails the case.
"""

import contextlib
import io
import json
import random

import pytest

from matroidkit.cli import run
from matroidkit.jsonio import MAX_GROUND_SIZE, MAX_SPEC_DEPTH

SEEDS = range(8)


def _gen(kind: str, count: int) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["gen", "--kind", kind, "--seed", "7", "--count", str(count)]) == 0
    return json.loads(out.getvalue())["instances"]


PAIRS = _gen("pairs", 40)
GRAPHS = _gen("menger", 20)


# -- where a mutation can land ------------------------------------------------

HOLE = "\0hole"


def _specs(spec):
    """Every family spec inside ``spec``, ``spec`` included."""
    found = [spec]
    if "of" in spec:
        found += _specs(spec["of"])
    for part in spec.get("parts", ()):
        found += _specs(part)
    return found


def _graphs(doc):
    """The graph a Menger document is, or the graphs of a spec's graphic parts."""
    if "vertices" in doc:
        return [doc]
    return [spec["graph"] for spec in _specs(doc) if spec["type"] == "graphic"]


def _slots(node):
    """(container, key, value) for every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    found = []
    for key, value in items:
        found.append((node, key, value))
        if isinstance(value, (dict, list)):
            found += _slots(value)
    return found


def _wrong_type(value, rng):
    """A JSON value whose type differs from that of ``value``; never null,
    which an optional field reads as absent."""
    if isinstance(value, int):
        choices = ["7", 1.5, True, [1], {}]
    elif isinstance(value, str):
        choices = [1.5, True, [value], {}]
    elif isinstance(value, list):
        choices = ["x", 3, {}]
    else:
        choices = ["x", 3, [value]]
    return rng.choice(choices)


def _label_groups(doc):
    """Groups of (container, key) slots whose labels must be pairwise
    distinct: the vertices and the edge names of each graph, and the ground
    labels of each spec.  A uniform or binary spec without labels is given
    its default ones, which name the same elements."""
    groups = []
    for graph in _graphs(doc):
        groups.append([(graph["vertices"], i) for i in range(len(graph["vertices"]))])
        groups.append([(edge, 0) for edge in graph["edges"]])
    for spec in [] if "vertices" in doc else _specs(doc):
        if spec["type"] == "partition":
            groups.append([(block, i) for block in spec["blocks"] for i in range(len(block))])
        elif spec["type"] == "explicit":
            groups.append([(spec["ground"], i) for i in range(len(spec["ground"]))])
        elif spec["type"] in ("uniform", "binary"):
            matrix = spec.get("matrix")
            width = spec["n"] if matrix is None else len(matrix[0]) if matrix else 0
            labels = spec.setdefault("labels", [f"e{i}" for i in range(width)])
            groups.append([(labels, i) for i in range(width)])
    return [group for group in groups if len(group) >= 2]


# -- the mutations: each changes the documents of one instance in place, and
# returns the text of any document that is no longer a JSON object ----------


def _truncate(docs, rng):
    """Cut one document's text short; a strict prefix of an object is never JSON."""
    key = rng.choice(sorted(docs))
    text = json.dumps(docs[key])
    return {key: text[: rng.randrange(1, len(text))]}


def _retype(docs, rng):
    container, slot, value = rng.choice(_slots(docs[rng.choice(sorted(docs))]))
    container[slot] = _wrong_type(value, rng)
    return {}


def _duplicate_label(docs, rng):
    """Give one element or vertex the label of another."""
    group = rng.choice([g for key in sorted(docs) for g in _label_groups(docs[key])])
    (into, i), (source, j) = rng.sample(group, 2)
    into[i] = source[j]
    return {}


def _oversize(docs, rng):
    """Put a ground set past the cap somewhere: a huge uniform spec in place
    of any spec, or a graph with one vertex too many."""
    doc = docs[rng.choice(sorted(docs))]
    if "vertices" in doc:
        doc["vertices"] += [f"w{i}" for i in range(MAX_GROUND_SIZE + 1 - len(doc["vertices"]))]
        return {}
    spec = rng.choice(_specs(doc))
    spec.clear()
    spec.update({"type": "uniform", "n": MAX_GROUND_SIZE + rng.randrange(1, 10**12), "k": 1})
    return {}


def _dangle(docs, rng):
    """Point one edge end at a vertex label the graph does not have."""
    graph = rng.choice([g for key in sorted(docs) for g in _graphs(docs[key]) if g["edges"]])
    rng.choice(graph["edges"])[rng.choice((1, 2))] = "nowhere"
    return {}


def _nest(docs, rng):
    """Bury a spec under more duals than MAX_SPEC_DEPTH allows, or any value
    under more list levels than the JSON parser follows."""
    key = rng.choice(sorted(docs))
    if "vertices" not in docs[key] and rng.random() < 0.5:
        for _ in range(MAX_SPEC_DEPTH + rng.randrange(1, 200)):
            docs[key] = {"type": "dual", "of": docs[key]}
        return {}
    container, slot, _ = rng.choice(_slots(docs[key]))
    container[slot] = HOLE
    depth = rng.randrange(3000, 6000)
    return {key: json.dumps(docs[key]).replace(json.dumps(HOLE), "[" * depth + "]" * depth)}


MUTATIONS = {
    "truncation": _truncate,
    "wrong-type": _retype,
    "duplicate-label": _duplicate_label,
    "past-ground-cap": _oversize,
    "dangling-endpoint": _dangle,
    "deep-nesting": _nest,
}


def _instance(kind, rng):
    """A copy of one corpus instance: its documents by file name, and the
    Menger terminals when it is a graph.  A dangling endpoint needs a graph,
    so that mutation draws only pairs with a graphic part, or graphs."""
    pairs = PAIRS
    if kind == "dangling-endpoint":
        pairs = [p for p in PAIRS if _graphs(p["m1"]) + _graphs(p["m2"])]
    if rng.random() < 0.3:
        inst = json.loads(json.dumps(rng.choice(GRAPHS)))
        return {"graph": inst["graph"]}, inst
    pair = json.loads(json.dumps(rng.choice(pairs)))
    return {"m1": pair["m1"], "m2": pair["m2"]}, None


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", sorted(MUTATIONS))
def test_a_mutated_gen_instance_exits_two_with_one_line(tmp_path, capsys, kind, seed):
    rng = random.Random(f"{kind}/{seed}")
    docs, menger = _instance(kind, rng)
    texts = MUTATIONS[kind](docs, rng)
    paths = {}
    for key, doc in docs.items():
        path = tmp_path / f"{key}.json"
        path.write_text(texts.get(key, json.dumps(doc)))
        paths[key] = str(path)
    if menger is not None:
        argv = ["menger", "--graph", paths["graph"], "--s", ",".join(menger["s"])]
        argv += ["--t", ",".join(menger["t"])]
    else:
        argv = ["intersect", "--m1", paths["m1"], "--m2", paths["m2"]]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2, (argv, captured)
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err

"""The exact text of each input error the library raises below the CLI.

One row per message: the call that raises it and the full message, which
must match from its first character to its last.  The CLI prints such a
message after ``error: ``, so it is part of the CLI's output.
"""

import re

import pytest

from matroidkit import (
    GroundSet,
    InputError,
    MengerInstance,
    Multigraph,
    PairState,
    Uniform,
    build,
    find_chain,
    min_rank_value,
)
from matroidkit.intersection import state_from_bases
from matroidkit.menger import forest_structure
from matroidkit.union import COMMON, ExchangeChain

from conftest import path3_graph


def path3_instance():
    return MengerInstance(path3_graph(), frozenset({0}), frozenset({2}))


def u(n, k):
    return build(Uniform(n, k))


ROWS = [
    # The id check behind GroundSet.subset, Multigraph.vertex_subset and
    # Multigraph.edge_subset.
    (lambda: GroundSet(("a", "b")).subset([0, 2]), "element 2 outside ground set of size 2"),
    (lambda: GroundSet(("a", "b")).subset([-1]), "element -1 outside ground set of size 2"),
    (lambda: GroundSet(("a", "b")).subset(["a"]), "element 'a' outside ground set of size 2"),
    (lambda: path3_graph().vertex_subset([3]), "vertex 3 outside graph"),
    (lambda: path3_graph().vertex_subset([None]), "vertex None outside graph"),
    (lambda: path3_graph().edge_subset([2]), "edge 2 outside graph"),
    (lambda: path3_graph().edge_subset(["e0"]), "edge 'e0' outside graph"),
    # Multigraph construction.
    (
        lambda: Multigraph(("a", "b"), ((0, 1),), ("e0", "e1")),
        "edge labels and endpoints disagree in length",
    ),
    (
        lambda: Multigraph(("a", "b"), ((0, 2),), ("e0",)),
        "edge endpoint (0, 2) references a missing vertex",
    ),
    (lambda: Multigraph(("a", "a"), (), ()), "vertex labels are not pairwise distinct"),
    (
        lambda: Multigraph.from_labels(["a", "a"], [("e0", "a", "a")]),
        "vertex labels are not pairwise distinct",
    ),
    (
        lambda: Multigraph.from_labels(["a", "b"], [("e0", "a", "z")]),
        "edge 'e0' references missing vertex 'a' or 'z'",
    ),
    # Core services.
    (
        lambda: u(3, 1).fundamental_circuit({0, 1}, 2),
        "fundamental circuits are defined against independent sets only",
    ),
    # Union.
    (
        lambda: ExchangeChain((0,), "sideways", (), COMMON),
        "chain parity must be 'even' or 'odd', got 'sideways'",
    ),
    (
        lambda: find_chain(u(2, 1), u(3, 1), PairState(frozenset(), frozenset()), 0),
        "matroid union needs a common ground set",
    ),
    (
        lambda: find_chain(u(3, 1), u(3, 1), PairState(frozenset(), frozenset()), 3),
        "element 3 outside ground set",
    ),
    # Intersection.
    (
        lambda: state_from_bases(u(2, 1), u(3, 1), frozenset(), frozenset()),
        "intersection needs a common ground set",
    ),
    (
        lambda: state_from_bases(u(3, 1), u(3, 1), frozenset({0}), frozenset({0})),
        "second set is not a base of the dual of the second matroid",
    ),
    (lambda: min_rank_value(u(2, 1), u(3, 1)), "intersection needs a common ground set"),
    # Menger.
    (
        lambda: forest_structure(path3_instance(), {0, 1}, {0}, set()),
        "the two parts must partition the certificate edges",
    ),
]


@pytest.mark.parametrize("call,message", ROWS, ids=[message for _, message in ROWS])
def test_input_error_message(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()

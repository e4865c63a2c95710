"""Deterministic oracle-work pins: a count regression fails without timing noise.

The counts are evaluations of the graphic family's native oracles (rank,
closure and fundamental circuit together), the work below every memo and
wrapper, during ``solve`` on plain w x w grids from the left column to the
right column, where exactly w disjoint paths exist.  Counting every native
oracle keeps a change from hiding work by moving it from one oracle into
another.  Each bound is the count the current code makes; lower it when a
change saves work.
"""

import pytest

from matroidkit import MengerInstance, Multigraph, solve, zoo
from matroidkit.core import Matroid


def grid_instance(w: int) -> MengerInstance:
    def v(r, c):
        return f"r{r}c{c}"

    vertices = [v(r, c) for r in range(w) for c in range(w)]
    edges = []
    for r in range(w):
        for c in range(w):
            if c + 1 < w:
                edges.append((f"h{r}.{c}", v(r, c), v(r, c + 1)))
            if r + 1 < w:
                edges.append((f"v{r}.{c}", v(r, c), v(r + 1, c)))
    graph = Multigraph.from_labels(vertices, edges)
    return MengerInstance.from_labels(
        graph, [v(r, 0) for r in range(w)], [v(r, w - 1) for r in range(w)]
    )


def graphic_oracle_evaluations(monkeypatch, inst: MengerInstance):
    """Solve ``inst`` while counting calls of every graphic handle's native oracles."""
    calls = 0

    def counted(native):
        def oracle(*args):
            nonlocal calls
            calls += 1
            return native(*args)

        return oracle

    def counting_matroid(ground, predicate=None, provenance="oracle", **oracles):
        if provenance.startswith("graphic("):
            oracles = {name: counted(fn) for name, fn in oracles.items() if fn is not None}
        return Matroid(ground, predicate, provenance, **oracles)

    monkeypatch.setattr(zoo, "Matroid", counting_matroid)
    cert = solve(inst)
    return cert, calls


@pytest.mark.parametrize("w,bound", [(5, 294), (6, 533)])
def test_grid_solve_graphic_oracle_evaluations(monkeypatch, w, bound):
    cert, calls = graphic_oracle_evaluations(monkeypatch, grid_instance(w))
    assert cert.count == w
    assert calls <= bound

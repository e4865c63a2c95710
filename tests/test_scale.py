"""Scale tier: instances past the brute-force range, with closed-form answers.

The plain w x w grid from its left column to its right column has exactly
w disjoint paths, and ``verify`` re-checks the certificate from scratch.
The peak of memory that tracemalloc sees while ``solve`` runs is pinned:
it is the peak the current code reaches, so lower it when a change saves
memory, and never raise it.
"""

import tracemalloc

from matroidkit import solve
from matroidkit.menger import verify

from conftest import grid_instance

# Measured at 4.15 MB (6.25 MB before the union carried its anchors from
# state to state, 19.0 MB before the anchored sessions went in).
GRID_12_PEAK_BYTES = 4_300_000
# Measured at 12.6 MB (16.7 MB before the union carried its anchors).
GRID_16_PEAK_BYTES = 13_000_000


def _solve_within(w: int, ceiling: int) -> None:
    inst = grid_instance(w)
    tracemalloc.start()
    try:
        cert = solve(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.count == w
    assert verify(inst, cert)
    assert peak <= ceiling


def test_grid_12_solve_finds_12_paths_within_its_memory_ceiling():
    _solve_within(12, GRID_12_PEAK_BYTES)


def test_grid_16_solve_finds_16_paths_within_its_memory_ceiling():
    _solve_within(16, GRID_16_PEAK_BYTES)

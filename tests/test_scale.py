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

# Measured at 6.25 MB (and 19.0 MB before the anchored sessions went in).
GRID_12_PEAK_BYTES = 6_500_000


def test_grid_12_solve_finds_12_paths_within_its_memory_ceiling():
    inst = grid_instance(12)
    tracemalloc.start()
    try:
        cert = solve(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.count == 12
    assert verify(inst, cert)
    assert peak <= GRID_12_PEAK_BYTES

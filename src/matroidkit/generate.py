"""Seeded random instances for the test corpus and the gen subcommand.

Matroid pairs always share the canonical ground labels e0..e{n-1}; minors
are arranged to contract or delete only auxiliary elements so a wrapped
family still lands on that ground set.  All randomness flows through one
random.Random, so a seed pins every instance byte for byte.
"""

from __future__ import annotations

import random

from .core import default_labels
from .errors import InputError
from .graphs import Multigraph
from .jsonio import MAX_GROUND_SIZE
from .menger import MengerInstance
from .zoo import Binary, Dual, FamilySpec, Graphic, Minor, Partition, Sum, Uniform


def _random_uniform(rng: random.Random, labels: tuple[str, ...]) -> FamilySpec:
    return Uniform(n=len(labels), k=rng.randint(0, len(labels)), labels=labels)


def _random_partition(rng: random.Random, labels: tuple[str, ...]) -> FamilySpec:
    pool = list(labels)
    rng.shuffle(pool)
    blocks: list[list[str]] = []
    while pool:
        take = min(len(pool), rng.randint(1, 3))
        blocks.append(sorted(pool[:take]))
        pool = pool[take:]
    caps = tuple(rng.randint(0, 2) for _ in blocks)
    return Partition(blocks=tuple(tuple(b) for b in blocks), caps=caps)


def _random_graphic(rng: random.Random, labels: tuple[str, ...]) -> FamilySpec:
    n_edges = len(labels)
    n_vertices = max(2, rng.randint(2, max(2, n_edges)))
    vertices = tuple(f"v{i}" for i in range(n_vertices))
    edges = []
    for name in labels:
        u = rng.randrange(n_vertices)
        if rng.random() < 0.1:
            v = u  # occasional loop
        else:
            v = rng.randrange(n_vertices)
        edges.append((name, vertices[u], vertices[v]))
    return Graphic(Multigraph.from_labels(vertices, edges))


def _random_binary(rng: random.Random, labels: tuple[str, ...]) -> FamilySpec:
    rows = rng.randint(1, max(1, len(labels)))
    matrix = tuple(
        tuple(rng.randint(0, 1) for _ in labels) for _ in range(rows)
    )
    return Binary(matrix=matrix, labels=labels)


_BASE_MAKERS = (_random_uniform, _random_partition, _random_graphic, _random_binary)


def _random_base(rng: random.Random, labels: tuple[str, ...]) -> FamilySpec:
    if len(labels) >= 2 and rng.random() < 0.15:
        cut = rng.randint(1, len(labels) - 1)
        left = rng.choice(_BASE_MAKERS)(rng, labels[:cut])
        right = rng.choice(_BASE_MAKERS)(rng, labels[cut:])
        return Sum(parts=(left, right))
    return rng.choice(_BASE_MAKERS)(rng, labels)


# A wrapped minor builds on up to this many elements beyond its own.
MINOR_EXTRAS = 2

# A Menger graph gets extra edges until it has up to this many.
MAX_EDGES = 20


def random_family(rng: random.Random, n: int) -> FamilySpec:
    """A family whose built ground set is exactly e0..e{n-1}."""
    labels = default_labels(n)
    roll = rng.random()
    if roll < 0.25 and n >= 1:
        # Wrap a minor: build on extra elements, then remove exactly those.
        extras = tuple(f"x{i}" for i in range(rng.randint(1, MINOR_EXTRAS)))
        base = _random_base(rng, labels + extras)
        contract = tuple(x for x in extras if rng.random() < 0.5)
        delete = tuple(x for x in extras if x not in contract)
        spec: FamilySpec = Minor(of=base, contract=contract, delete=delete)
    else:
        spec = _random_base(rng, labels)
    if rng.random() < 0.35:
        spec = Dual(of=spec)
    return spec


def _check_count(count: int) -> None:
    if count < 0:
        raise InputError(f"count must be at least 0, got {count}")


def _check_bound(value: int, low: int, high: int, what: str) -> None:
    """Keep every generated instance inside jsonio's ground-set cap, so it parses back."""
    if not low <= value <= high:
        raise InputError(f"{what} must be between {low} and {high}, got {value}")


def random_matroid_pairs(
    seed: int, count: int, max_elements: int = 8
) -> list[tuple[FamilySpec, FamilySpec]]:
    _check_count(count)
    _check_bound(max_elements, 1, MAX_GROUND_SIZE - MINOR_EXTRAS, "max_elements")
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        n = rng.randint(1, max_elements)
        pairs.append((random_family(rng, n), random_family(rng, n)))
    return pairs


def random_menger_instances(
    seed: int, count: int, max_vertices: int = 10
) -> list[MengerInstance]:
    """Connected multigraphs with random terminal sets.

    The mix deliberately includes overlapping terminal sets and identical
    ones; graphs get a spanning-tree backbone plus random extra edges,
    occasionally parallel or looping.
    """
    _check_count(count)
    _check_bound(max_vertices, 2, MAX_GROUND_SIZE, "max_vertices")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_vertices)
        vertices = tuple(f"v{i}" for i in range(n))
        edges: list[tuple[str, str, str]] = []
        for v in range(1, n):
            u = rng.randrange(v)
            edges.append((f"e{len(edges)}", vertices[u], vertices[v]))
        extra = rng.randint(0, max(0, MAX_EDGES - len(edges)))
        for _ in range(extra):
            u = rng.randrange(n)
            v = u if rng.random() < 0.08 else rng.randrange(n)
            edges.append((f"e{len(edges)}", vertices[u], vertices[v]))
        g = Multigraph.from_labels(vertices, edges)
        s = frozenset(rng.sample(range(n), rng.randint(1, max(1, n // 2))))
        rest = [v for v in range(n) if v not in s]
        style = rng.random()
        if style < 0.12 or not rest:
            t = s  # identical terminal sets
        elif style < 0.32:
            overlap = rng.sample(sorted(s), rng.randint(1, len(s)))
            extra = rng.sample(rest, rng.randint(0, min(len(rest), max(1, n // 2))))
            t = frozenset(overlap) | frozenset(extra)
        else:
            t = frozenset(rng.sample(rest, rng.randint(1, min(len(rest), max(1, n // 2)))))
        out.append(MengerInstance(g, s, t))
    return out

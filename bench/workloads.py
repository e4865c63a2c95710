"""The three seeded workloads: inputs, the timed call, and the correctness gate.

Every workload makes plain data from its seed, turns it into library
inputs during set-up, and then hands the library one instance at a time.
``run`` is the timed call.  ``result`` turns what it returned into
something the gate can check later (for the CLI, the bytes of the output
files, read before the next command overwrites them).  ``gate`` returns
None or the reason an output is wrong, and ``corrupt`` damages a correct
result (or returns None when it cannot) so the benchmark can prove, on
every run, that its gate notices.

Library functions are always looked up through the module at call time
(``mk.menger.solve``), never bound at import, so the traced run sees every
call the workload makes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from flow import max_common_partition_set


@dataclass(frozen=True)
class GridInstance:
    w: int
    chords: int
    inst: object  # matroidkit.MengerInstance


class MengerGrid:
    """``solve`` on w x w grids from the left column to the right column.

    Each grid also gets 0..w diagonal chords.  Any S-T path set is at most
    |S| = w, and the w rows are disjoint paths, so the answer is exactly w
    whatever the chords.  COPIES[w][c] is the number of w x w grids with c
    chords, so the mix of sizes is the same for every seed; the seed picks
    chord placement and order.  A grid's cost grows steeply with w and
    with the chords, and one chord's placement alone moves a 5x5 grid's
    cost by up to a factor of two (about 20 ms at w=4, 50-250 ms at w=5,
    0.4-1.5 s at w=6 on a 2-core Xeon).  So the mix puts each percentile
    in the middle of a band of many grids of one kind, where placement
    moves it least: the median among the 200 grids with w=4, the 90th
    percentile among the 32 grids with w=5 and one chord.  The five w=6
    grids, two of them with six chords, take over a third of the time and
    set the peak memory.  One pass takes about 15 s.
    """

    name = "menger_grid"
    COPIES = {
        4: (40, 40, 40, 40, 40),
        5: (2, 32, 2, 1, 1, 1),
        6: (1, 0, 1, 0, 1, 0, 2),
    }

    def generate(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        mix = [
            (w, chords)
            for w, copies in self.COPIES.items()
            for chords, count in enumerate(copies)
            for _ in range(count)
        ]
        rng.shuffle(mix)
        return [_grid(w, chords, rng) for w, chords in mix]

    def setup(self, mk, seed: int, workdir: Path) -> list[GridInstance]:
        pool = []
        for data in self.generate(seed):
            g = mk.Multigraph.from_labels(data["vertices"], data["edges"])
            inst = mk.MengerInstance.from_labels(g, data["s"], data["t"])
            pool.append(GridInstance(data["w"], data["chords"], inst))
        smallest = min(pool, key=lambda x: (x.w, x.chords))
        self.run(mk, smallest)
        return pool

    def trace_set(self, pool: list[GridInstance]) -> list[GridInstance]:
        """The first grid of each width, so every width is traced."""
        firsts = {}
        for item in pool:
            firsts.setdefault(item.w, item)
        return [firsts[w] for w in sorted(firsts)]

    def prepare_gates(self, mk, pool) -> None:
        pass

    def run(self, mk, item: GridInstance):
        return mk.menger.solve(item.inst)

    def result(self, item: GridInstance, raw):
        return raw

    def gate(self, mk, item: GridInstance, cert) -> str | None:
        if cert.count != item.w:
            return f"{cert.count} paths on a {item.w}x{item.w} grid, expected {item.w}"
        verdict = mk.menger.verify(item.inst, cert)
        if not verdict:
            return f"menger.verify rejected the certificate: {verdict.reason}"
        return None

    def corrupt(self, mk, item: GridInstance, cert):
        """Drop the last path."""
        return replace(cert, paths=cert.paths[:-1])


def _grid(w: int, chords: int, rng: random.Random) -> dict:
    def v(r: int, c: int) -> str:
        return f"r{r}c{c}"

    pairs = []
    for r in range(w):
        for c in range(w):
            if c + 1 < w:
                pairs.append((v(r, c), v(r, c + 1)))
            if r + 1 < w:
                pairs.append((v(r, c), v(r + 1, c)))
    diagonals = [(v(r, c), v(r + 1, c + 1)) for r in range(w - 1) for c in range(w - 1)]
    diagonals += [(v(r, c + 1), v(r + 1, c)) for r in range(w - 1) for c in range(w - 1)]
    pairs += rng.sample(diagonals, chords)
    return {
        "w": w,
        "chords": chords,
        "vertices": [v(r, c) for r in range(w) for c in range(w)],
        "edges": [(f"e{i}", a, b) for i, (a, b) in enumerate(pairs)],
        "s": [v(r, 0) for r in range(w)],
        "t": [v(r, w - 1) for r in range(w)],
    }


@dataclass(frozen=True)
class PartitionPair:
    data: dict  # plain blocks and caps, read by the max-flow reference
    m1: object  # matroidkit.Partition spec
    m2: object


@dataclass(frozen=True)
class PartitionOutput:
    m1: object
    m2: object
    cert: object
    verdict: object


class PartitionCertify:
    """``build`` + ``certify`` + ``verify_certificate`` on partition pairs.

    Both matroids partition the labels e0..e{n-1} into blocks of 1-4
    elements with capacities 0-2.  Every n in 24..48 appears once per deck
    and decks are shuffled, so the size mix is fixed and the seed picks the
    blocks, the capacities and the order.  Six decks make a pool of 150.
    """

    name = "partition_certify"
    SIZES = range(24, 49)
    TRACED_SIZES = (24, 30, 36, 42, 48)
    DECKS = 6

    def generate(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        out = []
        for _ in range(self.DECKS):
            sizes = list(self.SIZES)
            rng.shuffle(sizes)
            for n in sizes:
                labels = [f"e{i}" for i in range(n)]
                blocks1, caps1 = _blocks(labels, rng)
                blocks2, caps2 = _blocks(labels, rng)
                out.append(
                    {"n": n, "blocks1": blocks1, "caps1": caps1, "blocks2": blocks2, "caps2": caps2}
                )
        return out

    def setup(self, mk, seed: int, workdir: Path) -> list[PartitionPair]:
        pool = []
        for data in self.generate(seed):
            m1 = mk.Partition(tuple(map(tuple, data["blocks1"])), tuple(data["caps1"]))
            m2 = mk.Partition(tuple(map(tuple, data["blocks2"])), tuple(data["caps2"]))
            pool.append(PartitionPair(data, m1, m2))
        self.run(mk, min(pool, key=lambda x: x.data["n"]))
        return pool

    def trace_set(self, pool: list[PartitionPair]) -> list[PartitionPair]:
        """The first pair of each of five sizes across the range."""
        firsts = {}
        for item in pool:
            firsts.setdefault(item.data["n"], item)
        return [firsts[n] for n in self.TRACED_SIZES]

    def prepare_gates(self, mk, pool) -> None:
        pass

    def run(self, mk, item: PartitionPair) -> PartitionOutput:
        m1 = mk.build(item.m1)
        m2 = mk.build(item.m2)
        cert = mk.certify(m1, m2)
        return PartitionOutput(m1, m2, cert, mk.verify_certificate(m1, m2, cert))

    def result(self, item: PartitionPair, raw: PartitionOutput) -> PartitionOutput:
        return raw

    def gate(self, mk, item: PartitionPair, out: PartitionOutput) -> str | None:
        if not out.verdict:
            return f"the timed verify_certificate said no: {out.verdict.reason}"
        verdict = mk.intersection.verify_certificate(out.m1, out.m2, out.cert)
        if not verdict:
            return f"verify_certificate rejected the certificate: {verdict.reason}"
        d = item.data
        best = max_common_partition_set(d["blocks1"], d["caps1"], d["blocks2"], d["caps2"])
        if len(out.cert.i) != best:
            return f"|I| = {len(out.cert.i)} but the b-matching optimum is {best}"
        return None

    def corrupt(self, mk, item: PartitionPair, out: PartitionOutput) -> PartitionOutput:
        """Move one element of J1 (or J2) out of I altogether."""
        cert = out.cert
        if not cert.i:
            return None
        part = "j1" if cert.j1 else "j2"
        moved = min(getattr(cert, part))
        bad = replace(cert, i=cert.i - {moved}, **{part: getattr(cert, part) - {moved}})
        return replace(out, cert=bad)


def _blocks(labels: list[str], rng: random.Random) -> tuple[list[list[str]], list[int]]:
    """Shuffle the labels into blocks of 1-4 elements with capacities 0-2.

    Block sizes and capacities are dealt from shuffled rounds that hold
    every value once, not drawn independently, so all pairs of one n have
    nearly the same blocks and capacities and their cost varies less
    from seed to seed.
    """
    pool = list(labels)
    rng.shuffle(pool)
    sizes = _dealt((1, 2, 3, 4), rng)
    caps = _dealt((0, 1, 2), rng)
    blocks = []
    while pool:
        take = next(sizes)
        blocks.append(sorted(pool[:take]))
        pool = pool[take:]
    return blocks, [next(caps) for _ in blocks]


def _dealt(values: tuple[int, ...], rng: random.Random):
    """Endless stream of rounds, each a fresh shuffle of all the values."""
    while True:
        round_ = list(values)
        rng.shuffle(round_)
        yield from round_


@dataclass(frozen=True)
class CliInput:
    index: int
    kind: str  # "pair" or "graph"
    commands: tuple[tuple[str, ...], ...]
    outputs: tuple[Path, ...]
    obj: dict  # the generated instance, for the brute-force reference


@dataclass(frozen=True)
class CliOutput:
    codes: tuple[int, ...]
    files: tuple[bytes, ...]


VERIFIED = b'{\n  "ok": true\n}\n'


class CliCorpus:
    """In-process ``matroidkit.cli.run`` over the seeded ``gen`` corpus.

    Pairs (n <= 10, wrapper families included) run intersect, verify and
    union; Menger graphs (<= 12 vertices) run menger and verify.  The corpus
    is written during set-up and cycled by the timed loop, two pairs to one
    graph, so every input repeats and its output bytes can be compared
    across repetitions.
    """

    name = "cli_corpus"
    PAIRS = 200
    GRAPHS = 100

    def setup(self, mk, seed: int, workdir: Path) -> list[CliInput]:
        inputs = workdir / "in"
        outputs = workdir / "out"
        inputs.mkdir(parents=True, exist_ok=True)
        outputs.mkdir(parents=True, exist_ok=True)
        run = mk.cli.run
        pairs_file, graphs_file = inputs / "pairs.json", inputs / "graphs.json"
        codes = (
            run(["gen", "--kind", "pairs", "--seed", str(seed), "--count", str(self.PAIRS),
                 "--max-elements", "10", "--output", str(pairs_file)]),
            run(["gen", "--kind", "menger", "--seed", str(seed), "--count", str(self.GRAPHS),
                 "--max-vertices", "12", "--output", str(graphs_file)]),
        )
        if codes != (0, 0):
            raise RuntimeError(f"corpus generation exited with {codes}")
        pairs = json.loads(pairs_file.read_text())["instances"]
        graphs = json.loads(graphs_file.read_text())["instances"]

        pair_inputs = []
        for i, pair in enumerate(pairs):
            m1, m2 = inputs / f"p{i}.m1.json", inputs / f"p{i}.m2.json"
            m1.write_text(json.dumps(pair["m1"], sort_keys=True))
            m2.write_text(json.dumps(pair["m2"], sort_keys=True))
            cert, ver, uni = (outputs / f"p{i}.{x}.json" for x in ("cert", "verify", "union"))
            ms = ("--m1", str(m1), "--m2", str(m2))
            commands = (
                ("intersect", *ms, "--output", str(cert)),
                ("verify", "--kind", "intersection", "--certificate", str(cert), *ms,
                 "--output", str(ver)),
                ("union", *ms, "--output", str(uni)),
            )
            pair_inputs.append(("pair", commands, (cert, ver, uni), pair))
        graph_inputs = []
        for i, inst in enumerate(graphs):
            graph = inputs / f"g{i}.json"
            graph.write_text(json.dumps(inst["graph"], sort_keys=True))
            cert, ver = outputs / f"g{i}.cert.json", outputs / f"g{i}.verify.json"
            st = ("--graph", str(graph), "--s", ",".join(inst["s"]), "--t", ",".join(inst["t"]))
            commands = (
                ("menger", *st, "--output", str(cert)),
                ("verify", "--kind", "menger", "--certificate", str(cert), *st,
                 "--output", str(ver)),
            )
            graph_inputs.append(("graph", commands, (cert, ver), inst))
        mixed = []
        for k, graph_input in enumerate(graph_inputs):
            mixed += pair_inputs[2 * k : 2 * k + 2] + [graph_input]
        mixed += pair_inputs[2 * len(graph_inputs) :]
        pool = [CliInput(i, *fields) for i, fields in enumerate(mixed)]
        for item in (next(x for x in pool if x.kind == k) for k in ("pair", "graph")):
            self.run(mk, item)
        self.expected: dict[int, tuple[int, ...]] = {}
        self.reference: dict[int, tuple[bytes, ...]] = {}
        self.scratch = workdir / "selftest.cert.json"
        return pool

    def trace_set(self, pool: list[CliInput]) -> list[CliInput]:
        """The whole corpus once."""
        return pool

    def prepare_gates(self, mk, pool: list[CliInput]) -> None:
        """Brute-force sizes for every input, from ``matroidkit.oracles``."""
        oracles = mk.oracles
        budget = oracles.OracleBudget(max_ground=10, max_vertices=12)
        for item in pool:
            if item.kind == "pair":
                m1 = mk.build(mk.jsonio.spec_from_obj(item.obj["m1"]))
                m2 = mk.build(mk.jsonio.spec_from_obj(item.obj["m2"]))
                self.expected[item.index] = (
                    oracles.brute_max_common_independent(m1, m2, budget)[0],
                    oracles.brute_union_max(m1, m2, budget),
                )
            else:
                inst = mk.jsonio.menger_instance_from_obj(item.obj)
                self.expected[item.index] = (
                    oracles.brute_max_disjoint_paths(inst.graph, inst.s, inst.t, budget),
                )

    def run(self, mk, item: CliInput) -> tuple[int, ...]:
        return tuple(mk.cli.run(list(command)) for command in item.commands)

    def result(self, item: CliInput, codes: tuple[int, ...]) -> CliOutput:
        return CliOutput(codes, tuple(path.read_bytes() for path in item.outputs))

    def gate(self, mk, item: CliInput, out: CliOutput) -> str | None:
        if any(out.codes):
            return f"exit codes {out.codes}"
        reference = self.reference.setdefault(item.index, out.files)
        if out.files != reference:
            return "output bytes differ from an earlier repetition of the same input"
        if out.files[1] != VERIFIED:
            return f"verify reported {out.files[1]!r}"
        expected = self.expected[item.index]
        if item.kind == "pair":
            sizes = (json.loads(out.files[0])["size"], json.loads(out.files[2])["size"])
            what = "intersection and union sizes"
        else:
            sizes = (json.loads(out.files[0])["count"],)
            what = "path count"
        if sizes != expected:
            return f"{what} {sizes} differ from the brute-force values {expected}"
        return None

    def corrupt(self, mk, item: CliInput, out: CliOutput) -> CliOutput | None:
        """Re-verify a certificate with one element moved out of I."""
        cert = json.loads(out.files[0])
        if item.kind != "pair" or not cert["I"]:
            return None
        part = "J1" if cert["J1"] else "J2"
        moved = cert[part].pop()
        cert["I"].remove(moved)
        cert["size"] -= 1
        self.scratch.write_text(json.dumps(cert))
        verify = list(item.commands[1])
        verify[verify.index("--certificate") + 1] = str(self.scratch)
        verify[verify.index("--output") + 1] = str(self.scratch.with_suffix(".out"))
        code = mk.cli.run(verify)
        files = (
            self.scratch.read_bytes(),
            self.scratch.with_suffix(".out").read_bytes(),
            out.files[2],
        )
        return CliOutput((out.codes[0], code, out.codes[2]), files)


WORKLOADS = {w.name: w for w in (MengerGrid, PartitionCertify, CliCorpus)}

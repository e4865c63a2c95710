"""matroidkit benchmark: one seeded workload per run, closed loop, one process.

    python3 bench/run.py --workload menger_grid --seed 1 --seconds 36 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory, and the command fails (exit 2, no result line) when it is not
there.  One caller hands the library one instance at a time and waits for
it; nothing runs in threads or subprocesses.

``--trace 0`` measures the end-to-end metrics.  Set-up (fresh import,
seeded generation, input files, warm-up) is repeated and its median is
``setup_s``.  The timed loop then passes over the workload's pool of at
least MIN_INSTANCES instances again and again until ``--seconds`` have
passed and the first pass is complete.  Each run of an instance is timed
alone; its correctness gate runs right after, outside the timing.

Every time is scaled to a fixed machine speed.  The shared machine runs
the same code up to twice as slow for minutes at a time while other
tenants are busy, and that moves all pure-Python code alike: the ratio of
an instance's time to that of a fixed reference loop held within a few
per cent while the raw times moved by half.  So a reference loop of the
library's kind of work (small frozensets, dict updates, sorting) is timed
right after every run of an instance and before every set-up, and each
time is multiplied by REFERENCE_S / (the median of the reference times
around it).  A figure is then the time the code would take on a machine
where the reference loop takes REFERENCE_S; the raw, unscaled figures and
the machine speed are printed beside them.

An instance's latency is the median of its scaled runs.  The latency
percentiles and the throughput (instances per second at those latencies)
are taken over the pool.  ``peak_rss_mb`` is the high-water mark of the
whole process.

``--trace 1`` runs a fixed, seed-determined set of instances four times:
untraced, traced twice (the call counts of both passes must agree) and
under tracemalloc.  ``--seconds`` does not apply, so the counts repeat
exactly.  It reports the per-layer metrics and writes every span of the
traced passes to ``bench/.work/spans-<workload>.bin``.

Both modes check on every run that each workload's gate rejects one
deliberately corrupted certificate.  Human-readable lines come first; the
last line of stdout is the JSON result.  The exit code is 0 only when every
instance passed its gate and every self-check held.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / ".work"
SETUP_REPEATS = 7
MIN_INSTANCES = 100  # so that at least ten samples lie beyond the 90th percentile
HARD_CAP_S = 120.0  # stop the loop here even before the first pass is complete
REFERENCE_ROUNDS = 2000
REFERENCE_S = 0.0025  # the reference loop's time at the speed every time is scaled to
SPEED_WINDOW = 3  # a run's speed is the median of the reference times this many runs around it


def fresh_import():
    """Import matroidkit from this checkout's src/, dropping any earlier copy."""
    for key in [k for k in sys.modules if k == "matroidkit" or k.startswith("matroidkit.")]:
        del sys.modules[key]
    mk = importlib.import_module("matroidkit")
    importlib.import_module("matroidkit.cli")
    return mk


def reference_loop() -> int:
    """Fixed pure-Python work of the library's kind, to measure machine speed."""
    seen: dict[frozenset[int], int] = {}
    total = 0
    for i in range(REFERENCE_ROUNDS):
        key = frozenset((i % 31, i % 17, i % 7, i % 3))
        seen[key] = seen.get(key, 0) + 1
        total += len(sorted(key | {i % 13}))
    return total + len(seen)


def reference_time(repeats: int = 1) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: list[float], refs: list[float]) -> list[float]:
    """Each time at REFERENCE_S speed, by the reference times around it."""
    return [
        t * REFERENCE_S / statistics.median(refs[max(0, i - SPEED_WINDOW) : i + SPEED_WINDOW + 1])
        for i, t in enumerate(seconds)
    ]


def timed_call(wl, mk, item):
    """Run one instance; returns (seconds, checkable result, error or None).

    Only ``wl.run`` is timed; collecting the result for the gate is not.
    """
    start = perf_counter()
    try:
        raw = wl.run(mk, item)
    except Exception as exc:  # counted as a failed instance, never re-raised
        return perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    try:
        return elapsed, wl.result(item, raw), None
    except Exception as exc:  # e.g. an output file the command did not write
        return elapsed, None, f"collecting the output raised {type(exc).__name__}: {exc}"


def check_instance(wl, mk, item, out, error):
    """Gate one finished instance; returns None or the failure reason."""
    if error is not None:
        return error
    try:
        return wl.gate(mk, item, out)
    except Exception as exc:  # a gate that crashes has found a bad output
        return f"gate raised {type(exc).__name__}: {exc}"


def gate_self_test(wl, mk, item, out) -> str | None:
    """Corrupt one correct output and require the gate to reject it.

    Returns the gate's reason, or None when this output cannot be corrupted.
    """
    bad = wl.corrupt(mk, item, out)
    if bad is None:
        return None
    return wl.gate(mk, item, bad) or ACCEPTED


ACCEPTED = "ACCEPTED: the gate passed a corrupted certificate"


def percentile(sorted_values: list[float], q: float) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]


def measure(wl, seed: int, seconds: float, workdir: Path) -> dict:
    setups, setup_refs = [], []
    for _ in range(SETUP_REPEATS):
        setup_refs.append(reference_time(5))
        start = perf_counter()
        mk = fresh_import()
        pool = wl.setup(mk, seed, workdir)
        setups.append(perf_counter() - start)
    if len(pool) < MIN_INSTANCES:
        raise ValueError(f"the pool holds {len(pool)} instances, fewer than {MIN_INSTANCES}")
    importlib.import_module("matroidkit.oracles")
    wl.prepare_gates(mk, pool)

    elapsed_s: list[float] = []
    refs: list[float] = []
    failed: set[int] = set()
    failures: list[str] = []
    caught = None
    start = perf_counter()
    while True:
        index = len(elapsed_s) % len(pool)
        item = pool[index]
        elapsed, out, error = timed_call(wl, mk, item)
        elapsed_s.append(elapsed)
        reason = check_instance(wl, mk, item, out, error)
        if reason is not None:
            failed.add(index)
            failures.append(reason)
        elif caught is None:
            caught = gate_self_test(wl, mk, item, out)
        refs.append(reference_time())
        wall = perf_counter() - start
        runs = len(elapsed_s)
        if (wall >= seconds and runs >= len(pool)) or wall >= HARD_CAP_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def per_instance(seconds: list[float]) -> list[float]:
        return sorted(statistics.median(seconds[i :: len(pool)]) for i in range(len(pool)))

    timed = per_instance(scaled(elapsed_s, refs))
    raw = per_instance(elapsed_s)
    p90 = percentile(timed, 0.90)
    setup_s = statistics.median(scaled(setups, setup_refs))
    return {
        "caught": caught,
        "problems": [],
        "attempted": runs,
        "failures": failures,
        "metrics": {
            "throughput_ips": ((len(timed) - len(failed)) / sum(timed), "1/s"),
            "latency_p50_ms": (statistics.median(timed) * 1000, "ms"),
            "latency_p90_ms": (p90 * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        },
        "notes": {
            "throughput_ips": f"raw {len(raw) / sum(raw):.4g}",
            "latency_p50_ms": f"raw {statistics.median(raw) * 1000:.4g}",
            "latency_p90_ms": f"raw {percentile(raw, 0.90) * 1000:.4g}; "
            f"{sum(1 for x in timed if x > p90)} of {len(timed)} instances above",
            "setup_s": f"raw {statistics.median(setups):.4g}; median of {SETUP_REPEATS} scaled set-ups",
            "loop": f"{runs} runs of {len(pool)} instances ({runs / len(pool):.2f} passes) "
            f"in {wall:.2f} s",
            "speed": f"reference loop took {statistics.median(refs) * 1000:.4g} ms "
            f"(median; {min(refs) * 1000:.4g}-{max(refs) * 1000:.4g}), "
            f"times scaled to {REFERENCE_S * 1000:g} ms",
        },
    }


def run_pass(wl, mk, items, tracer=None, memory=False):
    """One pass over a fixed instance list; gates run after, untraced."""
    total = 0.0
    peak = 0
    done = []
    for item in items:
        if tracer is not None:
            tracer.instance += 1
        if memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        elapsed, out, error = timed_call(wl, mk, item)
        if memory:
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
        total += elapsed
        done.append((item, out, error))
    return total, peak, done


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, in the order BENCHMARK.json lists them."""
    calls, self_s = tracer.count, tracer.self_time
    finds, found = calls("union.find_chain"), tracer.chains_found
    return {
        "core.subset.calls": calls("core.subset"),
        "core.subset.self_s": self_s("core.subset"),
        "core.is_independent.calls.family": calls("core.is_independent.family"),
        "core.is_independent.calls.dual": calls("core.is_independent.dual"),
        "core.is_independent.calls.minor": calls("core.is_independent.minor"),
        "core.is_independent.self_s.family": self_s("core.is_independent.family"),
        "core.rank.calls": calls("core.rank"),
        "core.rank.self_s": self_s("core.rank"),
        "core.closure.calls": calls("core.closure"),
        "core.closure.self_s": self_s("core.closure"),
        "core.fundamental_circuit.calls": calls("core.fundamental_circuit"),
        "core.fundamental_circuit.self_s": self_s("core.fundamental_circuit"),
        "core.maximal_extension.calls": calls("core.maximal_extension"),
        "zoo.build.calls": calls("zoo.build"),
        "zoo.build.self_s": self_s("zoo.build"),
        "union.maximize_union.self_s": self_s("union.maximize_union"),
        "union.find_chain.calls": finds,
        "union.find_chain.self_s": self_s("union.find_chain"),
        "union.apply_chain.calls": calls("union.apply_chain"),
        "union.apply_chain.self_s": self_s("union.apply_chain"),
        "union.chain_yield": calls("union.apply_chain") / finds if finds else 0.0,
        "union.chain_len_mean": tracer.chain_links / found if found else 0.0,
        "intersection.build_state.self_s": self_s("intersection.build_state"),
        "intersection.build_digraph.self_s": self_s("intersection.build_digraph"),
        "intersection.digraph_arcs": tracer.digraph_arcs,
        "intersection.divisive_coloring.self_s": self_s("intersection.divisive_coloring"),
        "intersection.assembly.self_s": self_s("intersection.assembly"),
        "intersection.verify_certificate.calls": calls("intersection.verify_certificate"),
        "intersection.verify_certificate.self_s": self_s("intersection.verify_certificate"),
        "menger.peel.self_s": self_s("menger.peel"),
        "menger.reduce.self_s": self_s("menger.reduce"),
        "menger.forest_structure.self_s": self_s("menger.forest_structure"),
        "menger.separator_from_partition.self_s": self_s("menger.separator_from_partition"),
        "menger.verify.self_s": self_s("menger.verify"),
        "jsonio.loads.self_s": self_s("jsonio.loads"),
        "jsonio.spec_from_obj.self_s": self_s("jsonio.spec_from_obj"),
        "jsonio.canonical_dumps.self_s": self_s("jsonio.canonical_dumps"),
        "cli.build_parser.self_s": self_s("cli.build_parser"),
        "cli.run.self_s": self_s("cli.run"),
    }


# Besides every '.calls' count, these traced figures must repeat exactly;
# the times are averaged over the two traced passes.
EXACT = ("intersection.digraph_arcs", "union.chain_yield", "union.chain_len_mean")
UNITS = {
    "union.chain_yield": "ratio",
    "union.chain_len_mean": "links",
    "intersection.digraph_arcs": "count",
}


def layer_unit(name: str) -> str:
    if ".self_s" in name:
        return "s"
    if ".calls" in name:
        return "count"
    return UNITS[name]


def trace(wl, seed: int, workdir: Path) -> dict:
    mk = fresh_import()
    pool = wl.setup(mk, seed, workdir)
    importlib.import_module("matroidkit.oracles")
    wl.prepare_gates(mk, pool)
    items = wl.trace_set(pool)

    plain_s, _, done = run_pass(wl, mk, items)
    passes = [done]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for _ in range(2):
            tracer.reset_counters()
            elapsed, _, done = run_pass(wl, mk, items, tracer=tracer)
            traced.append((elapsed, layer_metrics(tracer)))
            passes.append(done)
    finally:
        leftovers = tracer.restore()
    tracemalloc.start()
    try:
        _, peak, done = run_pass(wl, mk, items, memory=True)
    finally:
        tracemalloc.stop()
    passes.append(done)

    failures = []
    caught = None
    for done in passes:
        for item, out, error in done:
            reason = check_instance(wl, mk, item, out, error)
            if reason is not None:
                failures.append(reason)
            elif caught is None:
                caught = gate_self_test(wl, mk, item, out)
    (first_s, first), (second_s, second) = traced
    exact = [k for k in first if ".calls" in k or k in EXACT]
    problems = []
    drift = [k for k in exact if first[k] != second[k]]
    if drift:
        problems.append(f"exact counts differ between the two traced passes: {drift}")
    if leftovers:
        problems.append(f"functions still wrapped after the traced run: {leftovers}")
    metrics = {
        k: (first[k] if k in exact else (first[k] + second[k]) / 2, layer_unit(k))
        for k in first
    }
    metrics["mem.traced_peak_mb"] = (peak / 2**20, "MB")
    metrics["trace.overhead_ratio"] = ((first_s + second_s) / 2 / plain_s, "ratio")
    WORK.mkdir(parents=True, exist_ok=True)
    spans_file = WORK / f"spans-{wl.name}.bin"
    tracer.write(spans_file)
    return {
        "caught": caught,
        "problems": problems,
        "attempted": sum(len(done) for done in passes),
        "failures": failures,
        "metrics": metrics,
        "notes": {
            "instances": f"{len(items)} per pass, 4 passes",
            "spans": f"{len(tracer.span_name)} written to {spans_file.relative_to(ROOT)}",
            "determinism": f"{len(exact) - len(drift)} of {len(exact)} exact counts equal "
            "across two traced passes",
            "restore": f"{len(leftovers)} functions left wrapped",
        },
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "matroidkit" / "__init__.py").is_file():
        print(f"error: no matroidkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    mk = fresh_import()
    if Path(mk.__file__).resolve().parent != (src / "matroidkit").resolve():
        print(f"error: matroidkit imported from {mk.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]()
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        if args.trace:
            report = trace(wl, args.seed, workdir)
        else:
            report = measure(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures, problems = report["attempted"], report["failures"], report["problems"]
    caught = report["caught"]
    if caught is None:
        problems.append("gate self-test: no output could be corrupted")
    elif caught == ACCEPTED:
        problems.append("gate self-test: " + ACCEPTED)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in report["metrics"].items():
        note = report["notes"].get(name)
        print(f"  {name:40s} {value:14.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  {'fail_ratio':40s} {len(failures) / attempted:14.6g} ratio  "
          f"({len(failures)} of {attempted} runs failed)")
    for key in ("loop", "speed", "instances", "spans", "determinism", "restore"):
        if key in report["notes"]:
            print(f"  {key}: {report['notes'][key]}")
    print(f"  gate self-test: corrupted certificate -> {caught}")
    for reason in failures[:10] + problems:
        print(f"  FAILED: {reason}")
        print(f"error: {reason}", file=sys.stderr)
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line front end.

Exit codes: 0 success, 1 verification failure (with the reason in the JSON
output) or a failed internal invariant, 2 malformed input.  Output bytes
are deterministic for fixed inputs: canonical JSON on stdout or into
--output, DOT drawings into the path given by --dot.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from pathlib import Path

from . import dot, generate, jsonio
from .axioms import check_axioms, materialize
from .core import check_orthogonality
from .errors import CapacityError, ConsistencyError, InputError, InternalInvariantError
from .intersection import min_rank_value, pipeline, verify_certificate
from .menger import MengerInstance, solve, verify as verify_menger
from .union import maximize_union
from .zoo import Explicit, build, explicit_system


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, or of stdin for ``-``, decoded strictly.

    Stdin is decoded from its byte stream, so undecodable input fails as it
    does in a file.  A text stream without one, put in place of stdin by a
    caller, is read as it is.
    """
    try:
        if path != "-":
            return Path(path).read_text(encoding="utf-8")
        raw = getattr(sys.stdin, "buffer", None)
        if raw is None:
            return sys.stdin.read()
        return raw.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_json(path: str):
    return jsonio.loads(_read_text(path))


def _load_matroid(path: str):
    return build(jsonio.spec_from_obj(_load_json(path)))


def _write(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout for no path or ``-``.

    The file is written in place and then cut to the new length, never
    opened with ``O_TRUNC``.  On ext4, truncating a file that holds data and
    writing it again starts writeback at close (the ``auto_da_alloc``
    heuristic).  On a 2-vCPU Xeon with an ext4 root, rewriting 1-2 KB that
    way took 150-450 us against 5-10 us in place, and a temp file renamed
    over the path took 290-620 us, as the rename triggers the same
    heuristic.  Only a regular file is cut: ``ftruncate`` fails on
    ``/dev/null``, and FIFOs and ttys cannot be cut.  A failed write leaves
    a torn file, as a truncating one does.
    """
    if not path or path == "-":
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _emit(args, payload: dict) -> None:
    _write(args.output, jsonio.canonical_dumps(payload))


def _labels_arg(raw: str) -> list[str]:
    items = [part for part in raw.split(",") if part]
    if not items:
        raise InputError(f"expected a comma-separated label list, got {raw!r}")
    return items


def _witness_obj(ground, witness):
    if witness is None:
        return None
    if isinstance(witness, frozenset):
        return ground.labels_of(witness)
    return [ground.labels_of(part) for part in witness]


def _cmd_check_axioms(args) -> int:
    spec = jsonio.spec_from_obj(_load_json(args.system))
    if isinstance(spec, Explicit):
        system = explicit_system(spec)
    else:
        system = materialize(build(spec))
    report = check_axioms(system)
    ground = system.ground
    payload = {
        "i1": {"ok": report.i1_ok, "witness": _witness_obj(ground, report.i1_witness)},
        "i2": {"ok": report.i2_ok, "witness": _witness_obj(ground, report.i2_witness)},
        "i3": {"ok": report.i3_ok, "witness": _witness_obj(ground, report.i3_witness)},
        "im": {"ok": report.im_ok, "witness": _witness_obj(ground, report.im_witness)},
        "ok": report.ok,
    }
    _emit(args, payload)
    return 0 if report.ok else 1


def _cmd_rank(args) -> int:
    matroid = _load_matroid(args.matroid)
    if args.set is None:
        subset = matroid.ground.full()
    else:
        subset = matroid.ground.subset_from_labels(_labels_arg(args.set))
    _emit(
        args,
        {"rank": matroid.rank(subset), "set": matroid.ground.labels_of(subset)},
    )
    return 0


def _cmd_orthogonality(args) -> int:
    matroid = _load_matroid(args.matroid)
    result = check_orthogonality(matroid)
    payload = {"ok": result.ok}
    if not result.ok:
        circuit, cocircuit = result.witness
        payload["circuit"] = matroid.ground.labels_of(circuit)
        payload["cocircuit"] = matroid.ground.labels_of(cocircuit)
    _emit(args, payload)
    return 0 if result.ok else 1


def _cmd_union(args) -> int:
    m1 = _load_matroid(args.m1)
    m2 = _load_matroid(args.m2)
    state = maximize_union(m1, m2)
    _emit(args, jsonio.union_state_to_obj(state, m1.ground))
    return 0


def _cmd_intersect(args) -> int:
    m1 = _load_matroid(args.m1)
    m2 = _load_matroid(args.m2)
    st, dg, coloring, cert = pipeline(m1, m2)
    if args.dot:
        _write(args.dot, dot.digraph_dot(m1.ground, st, dg, coloring))
    payload = jsonio.intersection_cert_to_obj(cert, m1.ground)
    if args.min_rank:
        payload["min_rank"] = min_rank_value(m1, m2)
    _emit(args, payload)
    return 0


def _cmd_menger(args) -> int:
    g = jsonio.graph_from_obj(_load_json(args.graph))
    inst = MengerInstance.from_labels(g, _labels_arg(args.s), _labels_arg(args.t))
    cert = solve(inst)
    if args.dot:
        _write(args.dot, dot.menger_dot(inst, cert))
    _emit(args, jsonio.menger_cert_to_obj(cert, g))
    return 0


def _cmd_verify(args) -> int:
    if args.kind == "intersection":
        if not (args.m1 and args.m2):
            raise InputError("intersection verification needs --m1 and --m2")
        m1 = _load_matroid(args.m1)
        m2 = _load_matroid(args.m2)
        cert = jsonio.intersection_cert_from_obj(_load_json(args.certificate), m1.ground)
        result = verify_certificate(m1, m2, cert)
    else:
        if not (args.graph and args.s and args.t):
            raise InputError("menger verification needs --graph, --s and --t")
        g = jsonio.graph_from_obj(_load_json(args.graph))
        inst = MengerInstance.from_labels(g, _labels_arg(args.s), _labels_arg(args.t))
        cert = jsonio.menger_cert_from_obj(_load_json(args.certificate), g)
        result = verify_menger(inst, cert)
    payload: dict = {"ok": result.ok}
    if result.reason:
        payload["reason"] = result.reason
    _emit(args, payload)
    return 0 if result.ok else 1


def _cmd_gen(args) -> int:
    if args.kind == "pairs":
        pairs = generate.random_matroid_pairs(args.seed, args.count, args.max_elements)
        payload = {
            "kind": "pairs",
            "seed": args.seed,
            "instances": [
                {"m1": jsonio.spec_to_obj(a), "m2": jsonio.spec_to_obj(b)}
                for a, b in pairs
            ],
        }
    else:
        instances = generate.random_menger_instances(
            args.seed, args.count, max_vertices=args.max_vertices
        )
        payload = {
            "kind": "menger",
            "seed": args.seed,
            "instances": [jsonio.menger_instance_to_obj(inst) for inst in instances],
        }
    _emit(args, payload)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.

    Every caller gets the same object: parse with it, never change it.
    Help and usage text are formatted when printed, so they still follow
    the terminal width of the moment.
    """
    parser = argparse.ArgumentParser(
        prog="matroidkit",
        description="Certificate-producing matroid union, intersection and "
        "vertex-disjoint path algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-axioms", help="evaluate the independence axioms exhaustively")
    p.add_argument("--system", required=True, help="family spec JSON (explicit systems are checked as given)")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_check_axioms)

    p = sub.add_parser("rank", help="rank of a subset under a matroid spec")
    p.add_argument("--matroid", required=True)
    p.add_argument("--set", help="comma-separated element labels (default: whole ground set)")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("orthogonality", help="check all circuit/cocircuit meets")
    p.add_argument("--matroid", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_orthogonality)

    p = sub.add_parser("union", help="maximize the union of two matroids")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_union)

    p = sub.add_parser("intersect", help="covering-partition certificate for a pair")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--dot", help="write the colored exchange digraph here")
    p.add_argument("--min-rank", action="store_true", dest="min_rank",
                   help="also report the exhaustive min-rank value")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("menger", help="vertex-disjoint paths plus separator")
    p.add_argument("--graph", required=True)
    p.add_argument("--s", required=True, help="comma-separated vertex labels")
    p.add_argument("--t", required=True, help="comma-separated vertex labels")
    p.add_argument("--dot", help="write a path/separator drawing here")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_menger)

    p = sub.add_parser("verify", help="re-verify an emitted certificate")
    p.add_argument("--kind", choices=("intersection", "menger"), required=True)
    p.add_argument("--certificate", required=True)
    p.add_argument("--m1")
    p.add_argument("--m2")
    p.add_argument("--graph")
    p.add_argument("--s")
    p.add_argument("--t")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="seeded random instances for testing")
    p.add_argument("--kind", choices=("pairs", "menger"), default="pairs")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-elements", type=int, default=8, dest="max_elements")
    p.add_argument("--max-vertices", type=int, default=10, dest="max_vertices")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_gen)

    return parser


def run(argv: list[str]) -> int:
    """Run one command and return its exit code.

    May be called any number of times in one process: the parser is shared
    and only read, so no call sees another's arguments.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (InputError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Span tracing around matroidkit's public functions, patched from outside.

Nothing under ``src/`` is edited.  Each traced function is replaced by a
wrapper under every name a caller can look it up by: module globals
(``matroidkit.menger.certify``, ``matroidkit.cli.solve`` ...) and methods on
the ``Matroid`` and ``GroundSet`` classes.  A wrapper records one span
(name, start, end, parent span, instance id) and charges its duration to
the parent, so a layer's self time is its span time minus its child spans.
Spans are kept in flat arrays while the run lasts and written out at the
end; per-name call counts and self times are accumulated on the fly.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  The function object found there is
# patched under every matroidkit module attribute that refers to it.
FUNCTIONS = (
    ("matroidkit.zoo", "build", "zoo.build"),
    ("matroidkit.union", "maximize_union", "union.maximize_union"),
    ("matroidkit.union", "find_chain", "union.find_chain"),
    ("matroidkit.union", "apply_chain", "union.apply_chain"),
    ("matroidkit.intersection", "certify", "intersection.certify"),
    ("matroidkit.intersection", "pipeline", "intersection.assembly"),
    ("matroidkit.intersection", "build_state", "intersection.build_state"),
    ("matroidkit.intersection", "build_digraph", "intersection.build_digraph"),
    ("matroidkit.intersection", "divisive_coloring", "intersection.divisive_coloring"),
    ("matroidkit.intersection", "verify_certificate", "intersection.verify_certificate"),
    ("matroidkit.menger", "solve", "menger.peel"),
    ("matroidkit.menger", "reduce", "menger.reduce"),
    ("matroidkit.menger", "forest_structure", "menger.forest_structure"),
    ("matroidkit.menger", "separator_from_partition", "menger.separator_from_partition"),
    ("matroidkit.menger", "verify", "menger.verify"),
    ("matroidkit.jsonio", "loads", "jsonio.loads"),
    ("matroidkit.jsonio", "spec_from_obj", "jsonio.spec_from_obj"),
    ("matroidkit.jsonio", "canonical_dumps", "jsonio.canonical_dumps"),
    ("matroidkit.cli", "build_parser", "cli.build_parser"),
    ("matroidkit.cli", "run", "cli.run"),
)

# (module, class, method, span name); None marks is_independent, whose span
# name is chosen per call from the handle's provenance.
METHODS = (
    ("matroidkit.core", "GroundSet", "subset", "core.subset"),
    ("matroidkit.core", "Matroid", "is_independent", None),
    ("matroidkit.core", "Matroid", "rank", "core.rank"),
    ("matroidkit.core", "Matroid", "closure", "core.closure"),
    ("matroidkit.core", "Matroid", "fundamental_circuit", "core.fundamental_circuit"),
    ("matroidkit.core", "Matroid", "maximal_extension", "core.maximal_extension"),
)

INDEPENDENCE = {
    "dual(": "core.is_independent.dual",
    "minor(": "core.is_independent.minor",
}
FAMILY_INDEPENDENCE = "core.is_independent.family"

SPAN_NAMES = tuple(name for _, _, name in FUNCTIONS) + tuple(
    name for *_, name in METHODS if name is not None
) + (FAMILY_INDEPENDENCE,) + tuple(INDEPENDENCE.values())


class Tracer:
    """Holds the spans of one traced run and the patches that produce them."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.instance = -1
        self.digraph_arcs = 0
        self.chains_found = 0
        self.chain_links = 0
        self._stack: list[list] = []  # [span index, time charged by children]
        self._patches: list[tuple[object, str, object]] = []

    def reset_counters(self) -> None:
        """Start a fresh pass: counts, self times and layer tallies go to zero."""
        self.calls[:] = [0] * len(self.names)
        self.self_s[:] = [0.0] * len(self.names)
        self.digraph_arcs = 0
        self.chains_found = 0
        self.chain_links = 0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str | None, after=None):
        tracer = self
        fixed = None if name is None else self._ids[name]
        classes = {prefix: self._ids[n] for prefix, n in INDEPENDENCE.items()}
        family = self._ids[FAMILY_INDEPENDENCE]
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, instances = self.span_parent, self.span_instance
        calls, selfs = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fixed is None:
                provenance = args[0].provenance
                nid = family
                for prefix, cid in classes.items():
                    if provenance.startswith(prefix):
                        nid = cid
            else:
                nid = fixed
            index = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            instances.append(tracer.instance)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                ends[index] = end
                span = end - start
                if stack:
                    stack[-1][1] += span
                calls[nid] += 1
                selfs[nid] += span - frame[1]
            if after is not None:
                after(result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def _after_digraph(self, dg) -> None:
        self.digraph_arcs += len(dg.arcs)

    def _after_find_chain(self, chain) -> None:
        if chain is not None:
            self.chains_found += 1
            self.chain_links += chain.length

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Patch every traced function under every name that refers to it."""
        modules = _matroidkit_modules()
        after = {
            "intersection.build_digraph": self._after_digraph,
            "union.find_chain": self._after_find_chain,
        }
        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(original, name, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for module, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name))

    def restore(self) -> list[str]:
        """Undo every patch; returns every name where a wrapper is still found."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        leftovers = []
        for mod in _matroidkit_modules():
            for key, value in vars(mod).items():
                if hasattr(value, "__bench_original__"):
                    leftovers.append(f"{mod.__name__}.{key}")
                if isinstance(value, type):
                    leftovers += [
                        f"{mod.__name__}.{key}.{name}"
                        for name, member in vars(value).items()
                        if hasattr(member, "__bench_original__")
                    ]
        return sorted(set(leftovers))

    # -- results ------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self._ids[name]]

    def self_time(self, name: str) -> float:
        return self.self_s[self._ids[name]]

    def write(self, path: Path) -> None:
        """Dump every recorded span: a JSON header line, then the raw arrays."""
        header = {
            "byteorder": sys.byteorder,
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": [
                ["name", "i"],
                ["start", "d"],
                ["end", "d"],
                ["parent", "i"],
                ["instance", "i"],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (
                self.span_name,
                self.span_start,
                self.span_end,
                self.span_parent,
                self.span_instance,
            ):
                arr.tofile(fh)


def _matroidkit_modules():
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "matroidkit" or key.startswith("matroidkit."))
    ]

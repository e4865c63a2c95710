"""The package's import layering, read from each module's source with ``ast``.

``oracles`` is the independent check, so no other module may lean on it;
``errors`` sits at the bottom and ``core`` directly above it, so any
module may import a core helper without closing an import cycle.  Files,
streams, the process and its arguments are the CLI's business, so only
``cli`` imports the modules that reach them.  The exact cographic tests
of ``zoo`` are the chain re-check's check on the anchors, so the two
share no code.
"""

import ast
from pathlib import Path

import pytest

import matroidkit

PACKAGE = Path(matroidkit.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def imported_modules(source: str) -> set[str]:
    """Every module ``source`` imports, by its full name, with relative
    imports read against the package.  ``from P import x`` counts as an
    import of ``P`` and of ``P.x``, as ``x`` may be a module."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # relative to the package, which is flat
                base = ".".join(filter(None, ("matroidkit", node.module)))
            else:
                base = node.module or ""
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


def imports_of(source: str) -> set[str]:
    """The package modules ``source`` imports, by their short names."""
    return {
        name.split(".")[1] for name in imported_modules(source) if name.startswith("matroidkit.")
    }


def top_level_imports(source: str) -> set[str]:
    """The top-level modules ``source`` imports, such as ``os`` for ``os.path``."""
    return {name.split(".")[0] for name in imported_modules(source)}


def source_of(module: str) -> str:
    return (PACKAGE / f"{module}.py").read_text(encoding="utf-8")


def package_imports(module: str) -> set[str]:
    return imports_of(source_of(module))


@pytest.mark.parametrize(
    "source",
    [
        "from . import oracles",
        "from .oracles import brute_max_disjoint_paths",
        "import matroidkit.oracles",
        "from matroidkit import oracles",
        "from matroidkit.oracles import brute_max_disjoint_paths",
        "def f():\n    from .oracles import OracleBudget",
    ],
)
def test_every_form_of_import_is_read(source):
    assert imports_of(source) == {"oracles"}


@pytest.mark.parametrize("module", [m for m in MODULES if m != "oracles"])
def test_only_oracles_imports_oracles(module):
    assert "oracles" not in package_imports(module)


def test_errors_imports_no_package_module():
    assert package_imports("errors") == set()


def test_core_imports_only_errors():
    assert package_imports("core") <= {"errors"}


@pytest.mark.parametrize(
    "source,expected",
    [
        ("import os", {"os"}),
        ("import os.path", {"os"}),
        ("import sys as system", {"sys"}),
        ("import json, io", {"json", "io"}),
        ("from os import path", {"os"}),
        ("from os.path import join", {"os"}),
        ("def f():\n    from pathlib import Path", {"pathlib"}),
        ("from . import core", {"matroidkit"}),
    ],
)
def test_every_form_of_import_is_read_by_its_top_level_module(source, expected):
    assert top_level_imports(source) == expected


IO_MODULES = {"os", "sys", "stat", "io", "pathlib", "argparse"}


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli"])
def test_only_cli_imports_io_modules(module):
    assert not top_level_imports(source_of(module)) & IO_MODULES


COGRAPHIC_TESTS = {"_dry_side", "_is_bond", "_is_no_bridge"}
ANCHORS = {"ForestAnchor", "CotreeAnchor", "RankAnchor"}


def top_level_definitions(module: str) -> dict[str, ast.AST]:
    kinds = (ast.FunctionDef, ast.ClassDef)
    return {node.name: node for node in ast.parse(source_of(module)).body if isinstance(node, kinds)}


def names_in(node: ast.AST) -> set[str]:
    """Every bare name and attribute name used inside ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_the_cographic_tests_and_the_anchors_share_no_code():
    """No cographic test names an anchor class or ``graphs.rooted_forest``,
    the search both graphic anchors are built by, and no anchor class names
    a cographic test, so a faulty anchor still meets an independent check."""
    defined = {**top_level_definitions("core"), **top_level_definitions("zoo")}
    for name in COGRAPHIC_TESTS:
        assert not names_in(defined[name]) & (ANCHORS | {"rooted_forest"}), name
    for name in ANCHORS:
        assert not names_in(defined[name]) & COGRAPHIC_TESTS, name

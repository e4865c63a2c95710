"""The package's import layering, read from each module's source with ``ast``.

``oracles`` is the independent check, so no other module may lean on it;
``errors`` sits at the bottom and ``core`` directly above it, so any
module may import a core helper without closing an import cycle.
"""

import ast
from pathlib import Path

import pytest

import matroidkit

PACKAGE = Path(matroidkit.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def imports_of(source: str) -> set[str]:
    """The package modules ``source`` imports, by their short names."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # relative to the package, which is flat
                base = ".".join(filter(None, ("matroidkit", node.module)))
            else:
                base = node.module or ""
            if base == "matroidkit":
                names = [f"matroidkit.{alias.name}" for alias in node.names]
            else:
                names = [base]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            head, _, rest = name.partition(".")
            if head == "matroidkit" and rest:
                found.add(rest.split(".")[0])
    return found


def package_imports(module: str) -> set[str]:
    return imports_of((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


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

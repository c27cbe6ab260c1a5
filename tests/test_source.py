"""Source-level checks on the package."""

import ast
import inspect
from pathlib import Path

import pytest

import sympencil

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sympencil"


def test_no_assert_statements():
    """Invariants are checked with ``raise``; ``python -O`` strips asserts."""
    found = []
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_exports_resolve():
    """Every name in the lazy export table names a real object."""
    for name in sympencil.__all__:
        getattr(sympencil, name)
        assert name in dir(sympencil)
    with pytest.raises(AttributeError):
        sympencil.no_such_name


def test_no_dataclasses_import():
    """Records subclass ``sympencil.record.Record``; a dataclass would build
    its methods at import, in every CLI process."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_data_holds_only_the_schemas():
    """``catalog.STANDARD_BUILDERS`` is the only catalog; no second copy of
    it ships as package data."""
    names = sorted(path.name for path in (PACKAGE / "data").iterdir())
    assert names == ["manifold.schema.json", "report.schema.json"]


# Public functions kept as test oracles for the acceptance criteria: the
# integer-series binomial oracle (criterion 02) and the pencil ratio table
# (criterion 09).
_ORACLE_EXPORTS = {"series_geom_pow", "ratio_convergence"}


def test_every_exported_function_has_a_caller():
    """No public function that no command, report or benchmark uses: each
    exported function is referenced from the package or from ``bench/``
    by name, unless it is a named test oracle."""
    functions = {name for name in sympencil._EXPORTS
                 if inspect.isfunction(getattr(sympencil, name))}
    # A ``def`` is neither a Name nor an Attribute, so it never counts.
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for root in (PACKAGE, PACKAGE.parent.parent / "bench")
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert "rank_and_kernel" in referenced
    assert sorted(functions - _ORACLE_EXPORTS - referenced) == []

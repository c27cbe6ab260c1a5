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


# The two input rules of ``exact`` and the set behind the exact-``int``
# rule: the only code that may test a value's type against ``int`` or
# ``Fraction``.
_INPUT_RULES = {"_fraction", "_require_ints", "_INT"}


def _is_exact_type_test(node):
    """``type(...) is int`` or ``type(...) is not Fraction``, either way
    round, or any reference to ``_INT``."""
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        return (all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(isinstance(s, ast.Call) and isinstance(s.func, ast.Name)
                        and s.func.id == "type" for s in sides)
                and any(isinstance(s, ast.Name) and s.id in {"int", "Fraction"}
                        for s in sides))
    if isinstance(node, ast.alias):
        return "_INT" in {node.name, node.asname}
    return "_INT" in {getattr(node, "id", None), getattr(node, "attr", None)}


def _restated_input_rules(path):
    """``file:line`` of each exact-type test in path outside ``exact``'s
    input rules."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owned = set()
    if path.name == "exact.py":
        for node in tree.body:
            defined = {getattr(node, "name", None)} | {
                getattr(t, "id", None) for t in getattr(node, "targets", ())}
            if defined & _INPUT_RULES:
                owned.update(map(id, ast.walk(node)))
    lines = {node.lineno for node in ast.walk(tree)
             if _is_exact_type_test(node) and id(node) not in owned}
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_input_rules_are_stated_once():
    """Every module checks its inputs through ``exact._fraction`` (the entry
    rule) and ``exact._require_ints`` (the exact-``int`` rule) instead of
    restating them. The ``isinstance`` checks of file and CLI input, which
    raise ``ValueError`` or a usage error, are not these rules."""
    found = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in _restated_input_rules(path)]
    assert found == []


def test_cli_options_do_not_use_click_int():
    """Every integer option of the CLI parses through ``cli._parse_int``;
    click's ``type=int`` takes ``int()``'s wider grammar (``+2``, ``1_0``,
    non-ASCII digits)."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.keyword) and node.arg == "type"
             and isinstance(node.value, ast.Name) and node.value.id == "int"]
    assert found == []

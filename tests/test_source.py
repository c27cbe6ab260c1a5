"""Source-level checks on the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sympencil"
README = PACKAGE.parent.parent / "README.md"


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


def _uncalled_public_names(package, *callers):
    """``module:name`` of each public top-level ``def`` and ``class`` of the
    package's modules that no code of the package or of ``callers``
    references by name. A ``def`` or an import is neither a Name nor an
    Attribute, so neither counts as a reference."""
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for root in (package, *callers)
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return [
        f"{path.stem}:{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in referenced
    ]


def test_every_public_name_has_a_caller():
    """No public function or class that no command, report or benchmark
    uses: each is referenced from the package or from ``bench/`` by name.
    The modules are the API, and test oracles live in
    ``tests/conftest.py``."""
    assert _uncalled_public_names(PACKAGE, PACKAGE.parent.parent / "bench") == []


def test_caller_check_finds_an_orphan(tmp_path):
    """A command that the command table names, and a name called from
    another root, count as used; an import, a decorator that registers a
    function without naming it, or a name only a test would call, does
    not."""
    package, bench = tmp_path / "package", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text(
        "def run_cmd(): pass\n"
        "@main.command('stop')\n"
        "def stop_cmd(): pass\n"
        "def used(): pass\n"
        "def orphan(): pass\n"
        "class Orphan: pass\n"
        "def _private(): pass\n"
        "main = _Program('main', {'run': _Command(run_cmd, False, ())})\n")
    (bench / "caller.py").write_text("from mod import orphan, used\nused()\n")
    assert _uncalled_public_names(package, bench) == [
        "mod:stop_cmd", "mod:orphan", "mod:Orphan"]


# The two input rules of ``exact``, the set behind the exact-``int`` rule
# and the normal form ``_lowest`` that applies the entry rule: the only
# code that may test a value's type against ``int`` or ``Fraction``.
_INPUT_RULES = {"_fraction", "_require_ints", "_INT", "_lowest"}


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


def test_cli_integer_options_parse_through_parse_int():
    """Every integer option of the command table parses through
    ``cli._parse_int``; ``int`` would take ``int()``'s wider grammar
    (``+2``, ``1_0``, non-ASCII digits). The other kinds are text, an
    existing file, a choice of names, or none for a flag; no option of any
    command uses another."""
    from sympencil import cli

    kinds = {(name, option.flag): option.kind
             for name, command in cli.main.commands.items()
             for option in (*command.options, cli._FORMAT, cli._HELP)}
    integer = {key for key, kind in kinds.items() if kind is cli._parse_int}
    assert integer == {
        ("gromov", "--h0"), ("gromov", "--h2"), ("duality", "--h0"),
        ("duality", "--h2"), ("pencil", "--k"), ("bn", "--g"), ("bn", "--r"),
        ("bn", "--s"), ("aj-fibres", "--g"), ("aj-fibres", "--r"), ("hilb", "--r"),
        ("hilb", "--samples"), ("hilb", "--seed")}
    others = {key: kind for key, kind in kinds.items() if key not in integer}
    assert all(kind in (str, cli._existing_file, None) or isinstance(kind, cli._Choice)
               for kind in others.values()), others
    assert {key for key, kind in others.items() if kind is str} == {
        ("gromov", "--class"), ("duality", "--class"), ("pencil", "--class"),
        ("count", "--class")}


def test_readme_library_use_runs():
    """The README's "Library use" block runs as written, its asserts
    included, also under ``python -O``."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec", optimize=0), namespace)
    assert namespace["profile"].virtual_dim == 0

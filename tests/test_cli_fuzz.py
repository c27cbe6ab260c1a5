"""Fuzzing of the CLI contract and of the manifold file reader.

Every command, driven with generated manifold and classes documents and
arbitrary flag values in both formats, exits 0, 1 or 2 and never raises;
an exit-2 error prints nothing on stdout and one ``Error:`` line on
stderr; JSON output validates against ``report.schema.json``; and every
exit-0/1 report passes its command's check in ``report_oracle``, fed the
example's own input files. Input files are written inside each example,
not into a function-scoped ``tmp_path``, which hypothesis would share
between examples.
"""

import json
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from report_oracle import check_record
from sympencil.catalog import STANDARD_BUILDERS, lattice_to_dict, manifold_fields
from sympencil.cli import main
from sympencil.strata import STRATA

SCHEMA = json.loads(
    (resources.files("sympencil") / "data" / "report.schema.json").read_text()
)
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)

CATALOG = {name: lattice_to_dict(STANDARD_BUILDERS[name]())
           for name in ("cp2", "s2xs2", "e1", "k3")}
FIELDS = ("label", "b1", "Q", "K", "omega", "minimal")

scalars = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=6))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10,
)
small = st.integers(-3, 3)


@st.composite
def small_lattices(draw):
    """Random symmetric forms of rank 1 to 3; few of them are valid."""
    n = draw(st.integers(1, 3))
    form = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            form[i][j] = form[j][i] = draw(small)
    return {
        "label": draw(st.text(max_size=6)),
        "b1": draw(st.integers(0, 2)),
        "Q": form,
        "K": draw(st.lists(small, min_size=n, max_size=n)),
        "omega": draw(st.lists(small | st.sampled_from(["1/2", "-3/4", "1/0"]),
                               min_size=n, max_size=n)),
        "minimal": draw(st.booleans()),
    }


@st.composite
def manifold_docs(draw):
    """Half of the time a catalog manifold, else one with a field replaced
    or dropped, a random small lattice, or any JSON value."""
    doc = dict(CATALOG[draw(st.sampled_from(sorted(CATALOG)))])
    kind = draw(st.integers(0, 9))
    if kind == 5:
        doc[draw(st.sampled_from(FIELDS))] = draw(json_values)
    elif kind == 6:
        del doc[draw(st.sampled_from(FIELDS))]
    elif kind in (7, 8):
        return draw(small_lattices())
    elif kind == 9:
        return draw(json_values)
    return doc


def mostly(valid, other):
    """``valid`` three times in four, ``other`` otherwise. Hypothesis
    prefers a draw of 0, so 0 picks ``valid``."""
    return st.integers(0, 3).flatmap(lambda k: other if k == 3 else valid)


# Files the JSON reader itself rejects: nesting past the recursion limit,
# and integers past the interpreter's digit limit, in Q and in a list.
unreadable = st.sampled_from([
    b"[" * 100_000,
    b'{"label": "cp2", "Q": [[' + b"1" * 5000 + b"]]}",
    b"[[" + b"1" * 5000 + b"]]",
])
classes_docs = mostly(st.lists(st.lists(small, min_size=1, max_size=3), max_size=3),
                      json_values)
numbers = (st.integers(-1, 12) | st.integers(-10**12, 10**12)).map(str)
flags = mostly(numbers, st.text(max_size=6).filter(lambda t: t != "--help"))


def ints(low, high, other=flags):
    """An integer flag, mostly in [low, high], where a command gets past
    its own checks more often."""
    return mostly(st.integers(low, high).map(str), other)


def class_flags(doc):
    """Comma-separated classes of the document's rank when it has one: the
    zero class, K when it is a list of that width (both have chi = chi_h,
    so small section counts are often consistent) or any small class. A
    replaced K may be any JSON value, so it is offered only as such a
    list."""
    form = doc.get("Q") if isinstance(doc, dict) else None
    width = len(form) if isinstance(form, list) and 0 < len(form) <= 30 else None
    coords = st.lists(small, min_size=width or 1, max_size=width or 3)
    if width is not None:
        k = doc.get("K")
        fixed = [[0] * width] + ([k] if isinstance(k, list) and len(k) == width
                                 else [])
        coords = st.sampled_from(fixed) | coords
    return mostly(coords.map(lambda v: ",".join(map(str, v))),
                  st.text(max_size=8))


@st.composite
def invocations(draw):
    """(args, files, env, fmt): ``args`` name files by their keys in
    ``files``; a manifold file is JSON or, one time in ten, raw bytes, and a
    classes file is JSON or, one time in ten, a file the reader rejects."""
    command = draw(st.sampled_from(sorted(main.commands)))
    doc = draw(manifold_docs())
    raw = (draw(st.binary(max_size=20) | unreadable)
           if draw(st.integers(0, 9)) == 9 else None)
    files_ = {"@manifold": raw or json.dumps(doc).encode()}
    env = {"SYMPENCIL_WORKERS": draw(mostly(st.sampled_from([None, "1"]),
                                            st.sampled_from(["0", "x"])))}
    options = []
    if command in ("gromov", "duality", "count", "pencil"):
        options.append(["--class", draw(class_flags(doc))])
    if command in ("gromov", "duality"):
        options += [["--h0", draw(ints(0, 4))], ["--h2", draw(ints(0, 4))]]
    if command == "pencil":
        options.append(["--k", draw(ints(1, 4))])
    if command in ("bn", "aj-fibres"):
        options += [["--g", draw(ints(2, 8))], ["--r", draw(ints(0, 16))]]
    if command == "bn":
        options.append(["--s", draw(ints(0, 4))])
    if command == "hilb":
        # r <= 3 and at most 4 samples keep one example fast.
        junk = st.sampled_from(["", "x", "0", "-1", "1.5", "--seed"])
        options += [
            ["--r", draw(ints(1, 3, junk))],
            ["--samples", draw(ints(1, 4, junk))],
            ["--seed", draw(numbers)],
            ["--stratum", draw(mostly(st.sampled_from(STRATA), st.text(max_size=6)))],
        ]
    if command == "classify":
        files_["@classes"] = (draw(unreadable) if draw(st.integers(0, 9)) == 9
                              else json.dumps(draw(classes_docs)).encode())
        options.append(["--classes", "@classes"])
    if options and draw(st.integers(0, 9)) == 9:
        del options[draw(st.integers(0, len(options) - 1))]
    args = [command]
    if command not in ("bn", "aj-fibres", "hilb"):
        args.append("@manifold")
    for option in draw(st.permutations(options)):
        args += option
    fmt = draw(st.sampled_from([None, "json", "text"]))
    if fmt is not None:
        args += ["--format", fmt]
    return args, files_, env, fmt


@settings(max_examples=400, deadline=None)
@given(invocations())
def test_every_command_keeps_the_contract(invocation):
    args, files_, env, fmt = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for key, data in files_.items():
            (Path(tmp) / key).write_bytes(data)
        paths = [str(Path(tmp) / a) if a in files_ else a for a in args]
        result = CliRunner().invoke(main, paths, env=env)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, repr(result.exception))
    if result.exit_code == 2:
        assert result.stdout == "", args
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: "), result.stderr
    else:
        if fmt != "text":
            VALIDATOR.validate(json.loads(result.stdout))
        files = {key: data.decode("utf-8", "surrogateescape")
                 for key, data in files_.items()}
        record = {"args": args, "exit_code": result.exit_code,
                  "stdout": result.stdout}
        assert check_record(record, files) is None


@settings(max_examples=300, deadline=None)
@given(manifold_docs())
def test_manifold_fields_raises_only_value_error(doc):
    try:
        manifold_fields(doc)
    except ValueError:
        pass

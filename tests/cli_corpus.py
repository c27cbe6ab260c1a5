"""Write cli_corpus.json: the exit code, stdout and stderr of a fixed set of
CLI invocations, with the input files they read.

    PYTHONPATH=src python3 tests/cli_corpus.py

The corpus covers every command on every ``STANDARD_BUILDERS`` entry (as a
manifold file, in both output formats), the exit-1 cases, one exit-2 case
per error family and the group-level errors. ``test_cli_corpus.py``
replays it in process and compares every byte. The recorded bytes are the
output contract: rerunning this script overwrites them, so only do it when
the contract itself is meant to change, and say which bytes changed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

CORPUS = Path(__file__).resolve().parent / "cli_corpus.json"


def write_files(files: dict[str, str], workdir: Path) -> None:
    """Write the corpus input files into workdir. Contents are stored as
    text; ``surrogateescape`` carries the bytes of a file that is not UTF-8
    through that text unchanged."""
    for name, text in files.items():
        (workdir / name).write_bytes(text.encode("utf-8", "surrogateescape"))


def replay(invocation: dict, workdir: Path) -> dict:
    """Run one invocation with workdir as the current directory, and return
    its exit code and what it wrote to stdout and stderr."""
    from sympencil.cli import main

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        result = CliRunner().invoke(main, invocation["args"],
                                    env=invocation.get("env"))
    finally:
        os.chdir(cwd)
    return {"exit_code": result.exit_code, "stdout": result.stdout,
            "stderr": result.stderr}


def _profile_flags(x, coords) -> list[str]:
    """``--h0``/``--h2`` values consistent with Riemann-Roch for the class,
    with h1 = 0 where chi allows it."""
    from sympencil.gromov import riemann_roch_chi

    chi = riemann_roch_chi(x, coords)
    h0, h2 = (chi - 1, 1) if chi >= 1 else (0, 0)
    return ["--h0", str(h0), "--h2", str(h2)]


def corpus_inputs() -> tuple[dict[str, str], list[dict]]:
    """The input files, by name, and the invocations that read them."""
    from sympencil.catalog import STANDARD_BUILDERS, lattice_to_dict
    from sympencil.strata import MAX_R, MAX_SAMPLES, STRATA

    def manifold(data) -> str:
        return json.dumps(data, sort_keys=True)

    files: dict[str, str] = {}
    invocations: list[dict] = []

    def add(args, env=None, text=False):
        for extra in ([], ["--format", "text"]) if text else ([],):
            invocations.append({"args": args + extra, **({"env": env} if env else {})})

    for name, build in STANDARD_BUILDERS.items():
        x = build()
        path = f"{name}.json"
        files[path] = manifold(lattice_to_dict(x))
        canonical = ",".join(map(str, x.canonical))
        first = tuple([1] + [0] * (x.b2 - 1))
        first_arg = ",".join(map(str, first))
        add(["manifold-check", path], text=True)
        add(["gromov", path, "--class", canonical]
            + _profile_flags(x, x.canonical), text=True)
        add(["gromov", path, "--class", first_arg] + _profile_flags(x, first))
        add(["duality", path, "--class", canonical]
            + _profile_flags(x, x.canonical), text=True)
        add(["pencil", path, "--k", "1"])
        add(["pencil", path, "--k", "2", "--class", first_arg], text=True)
        add(["count", path, "--class", canonical], text=True)
        add(["count", path, "--class", first_arg])
        add(["classify", path], text=True)

    add(["bn", "--g", "5", "--r", "2", "--s", "1"], text=True)
    add(["bn", "--g", "4", "--r", "5", "--s", "1"])
    add(["aj-fibres", "--g", "4", "--r", "6"], text=True)
    add(["aj-fibres", "--g", "3", "--r", "7"])
    for stratum in STRATA:
        add(["hilb", "--r", "2", "--samples", "2", "--seed", "11",
             "--stratum", stratum], text=True)
    add(["hilb", "--r", "1", "--samples", "2"])
    add(["hilb", "--r", "2", "--samples", "3"], env={"SYMPENCIL_WORKERS": "1"})

    cp2 = lattice_to_dict(STANDARD_BUILDERS["cp2"]())
    s2xs2 = lattice_to_dict(STANDARD_BUILDERS["s2xs2"]())
    files.update({
        # A rational omega, so that a "p/q" value reaches the report.
        "rational_omega.json": manifold(dict(s2xs2, omega=["1/3", 1])),
        "invalid_lattice.json": manifold(dict(cp2, K=[5])),
        "classes.json": "[[1], [0]]",
        "classes_not_int.json": '[["h"]]',
        "classes_width.json": "[[1, 2, 3]]",
        "bad_json.json": '{"label": "cp2", "Q": [[1]',
        "not_utf8.json": b'\xff{"label": "cp2"}'.decode("utf-8", "surrogateescape"),
        "not_object.json": "[1, 2]",
        "missing_fields.json": '{"label": "x"}',
        "label_type.json": manifold(dict(cp2, label=3)),
        "minimal_type.json": manifold(dict(cp2, minimal=1)),
        "b1_type.json": manifold(dict(cp2, b1=True)),
        "form_shape.json": manifold(dict(cp2, Q=[1])),
        "canonical_shape.json": manifold(dict(cp2, K=3)),
        "zero_denominator.json": manifold(dict(cp2, omega=["1/0"])),
        "omega_pattern.json": manifold(dict(cp2, omega=["1/-2"])),
        "float_entry.json": manifold(dict(cp2, Q=[[1.0]])),
        "string_entry.json": manifold(dict(cp2, K=["-3"])),
        # Rejected by the JSON reader itself: nesting past the recursion
        # limit, and integers past sys.get_int_max_str_digits().
        "deep_nesting.json": "[" * 100_000,
        "long_integer.json": '{"label": "cp2", "Q": [[' + "1" * 5000 + "]]}",
        "classes_long_integer.json": "[[" + "1" * 5000 + "]]",
    })

    add(["manifold-check", "rational_omega.json"])
    add(["classify", "rational_omega.json"], text=True)

    # Exit 1: a computed check fails.
    add(["manifold-check", "invalid_lattice.json"], text=True)
    add(["classify", "cp2.json", "--classes", "classes.json"], text=True)

    # Exit 2, one case per error family.
    add(["manifold-check", "missing.json"])
    for name in ("bad_json", "not_utf8", "not_object", "missing_fields",
                 "label_type", "minimal_type", "b1_type", "form_shape",
                 "canonical_shape", "zero_denominator", "omega_pattern",
                 "float_entry"):
        add(["manifold-check", f"{name}.json"])
    add(["count", "string_entry.json", "--class", "1"])
    add(["count", "invalid_lattice.json", "--class", "1"])
    add(["count", "cp2.json", "--class", "1,2"])
    add(["count", "cp2.json", "--class", "+1"])
    add(["count", "cp2.json", "--class", "\u0661"])
    add(["count", "cp2.json"])
    add(["gromov", "cp2.json", "--class", "1", "--h0", "7", "--h2", "1"])
    add(["duality", "cp2.json", "--class", "-1", "--h0", "0", "--h2", "0"])
    add(["pencil", "cp2.json", "--k", "0"])
    add(["manifold-check", "cp2.json", "--format", "xml"])
    add(["bn", "--g", "five", "--r", "2", "--s", "1"])
    add(["bn", "--g", "1", "--r", "2", "--s", "1"])
    add(["aj-fibres", "--g", "4", "--r", "3"])
    add(["hilb", "--r", str(MAX_R + 1), "--samples", "2"])
    add(["hilb", "--r", "2", "--samples", str(MAX_SAMPLES + 1)])
    add(["hilb", "--r", "2", "--samples", "2", "--stratum", "mystery"])
    add(["hilb", "--r", "1", "--samples", "2"], env={"SYMPENCIL_WORKERS": "zero"})
    add(["classify", "cp2.json", "--classes", "classes_not_int.json"])
    add(["classify", "cp2.json", "--classes", "classes_width.json"])
    add(["manifold-check", "deep_nesting.json"])
    add(["manifold-check", "long_integer.json"])
    add(["classify", "cp2.json", "--classes", "deep_nesting.json"])
    add(["classify", "cp2.json", "--classes", "classes_long_integer.json"])

    # Group-level errors: no command, an unknown command, an unknown option;
    # then the version, which needs no installed package metadata.
    add([])
    add(["transmogrify"])
    add(["--bogus"])
    add(["--version"])

    # The count decision on a rational omega: its context, and classify's
    # surface_count numbers, carry a.omega and K.omega as str(Fraction)
    # strings ("1/3", "-8/3"). Recorded after the rest, so that adding them
    # left every earlier record in place.
    files["rational_classes.json"] = "[[0, 1], [-2, -2]]"
    add(["count", "rational_omega.json", "--class", "0,1"], text=True)
    add(["classify", "rational_omega.json", "--classes", "rational_classes.json"])
    return files, invocations


def main() -> None:
    files, invocations = corpus_inputs()
    with tempfile.TemporaryDirectory() as workdir:
        write_files(files, Path(workdir))
        recorded = [{**inv, **replay(inv, Path(workdir))} for inv in invocations]
    CORPUS.write_text(json.dumps({"files": files, "invocations": recorded},
                                 indent=1) + "\n", "utf-8")
    print(f"wrote {len(recorded)} invocations to {CORPUS.name}", file=sys.stderr)


if __name__ == "__main__":
    main()

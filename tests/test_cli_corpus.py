"""The CLI output contract: every recorded invocation of cli_corpus.json
gives the same exit code, stdout and stderr bytes. ``cli_corpus.py``
records the corpus and describes what it covers."""

import json

import pytest

from cli_corpus import CORPUS, corpus_inputs, replay, write_files
from report_oracle import check_corpus
from sympencil.catalog import STANDARD_BUILDERS
from sympencil.cli import main

RECORDED = json.loads(CORPUS.read_text("utf-8"))


def test_every_invocation_is_byte_identical(tmp_path):
    write_files(RECORDED["files"], tmp_path)
    differing = []
    for entry in RECORDED["invocations"]:
        expected = {k: entry[k] for k in ("exit_code", "stdout", "stderr")}
        got = replay(entry, tmp_path)
        if got != expected:
            differing.append((entry["args"], expected, got))
    assert not differing, (
        f"{len(differing)} invocations differ; first: {differing[0]}")


def test_corpus_covers_every_command_and_builder():
    invocations = RECORDED["invocations"]
    commands = {inv["args"][0] for inv in invocations
                if inv["args"] and inv["exit_code"] == 0}
    assert set(main.commands) <= commands
    read = {arg for inv in invocations if inv["exit_code"] != 2
            for arg in inv["args"]}
    assert {f"{name}.json" for name in STANDARD_BUILDERS} <= read
    assert {inv["exit_code"] for inv in invocations} == {0, 1, 2}


def test_generator_matches_the_recording():
    """The generator yields exactly the recorded files and invocations, so
    an edit to it without a re-recording fails here; nothing is run."""
    files, invocations = corpus_inputs()
    assert files == RECORDED["files"]
    assert invocations == [{k: v for k, v in entry.items() if k in ("args", "env")}
                           for entry in RECORDED["invocations"]]


def test_reports_rederive():
    """``report_oracle`` checks all 44 recorded pencil and count reports,
    all 36 manifold-check and classify reports that exit 0 or 1, the 21
    gromov and 14 duality reports that exit 0 or 1, and the 14 hilb, bn
    and aj-fibres reports that exit 0 against their input files and flags
    with the benchmark's oracles."""
    assert check_corpus(RECORDED) == (129, [])


@pytest.mark.parametrize("command, old, new", [
    ("pencil", '"genus":5', '"genus":6'),
    ("pencil", "base_points: 8", "base_points: 9"),
    ("count", '"a_sq":9', '"a_sq":8'),
    ("count", "kind: Unknown", "kind: Zero"),
    ("pencil", '"fibre_class":[2]', '"fibre_class":[3]'),
    ("count", "no decisive hypothesis", "b+ > 1 + b1 and a.a != K.a"),
    ("manifold-check", '"chi_h":3', '"chi_h":4'),
    ("manifold-check", "k_squared: 0", "k_squared: 1"),
    ("manifold-check", '"valid":false', '"valid":true'),
    ("classify", "numbers.k_omega: -3", "numbers.k_omega: -2"),
    ("classify", '"homeo_type":"cp2"', '"homeo_type":"s2xs2"'),
    ("classify", '"verdict":"fail"', '"verdict":"pass"'),
    ("gromov", '"invariant":-1', '"invariant":1'),
    ("duality", "magnitudes_equal: False", "magnitudes_equal: True"),
    ("hilb", '"seed":1729', '"seed":1730'),
    ("bn", "rho: -3", "rho: -2"),
    ("aj-fibres", '"descriptor":"empty"', '"descriptor":"point"'),
])
def test_report_oracle_refuses_a_changed_number(command, old, new):
    invocations = [
        dict(inv, stdout=inv["stdout"].replace(old, new))
        if inv["args"][:1] == [command] else inv
        for inv in RECORDED["invocations"]]
    changed = sum(inv["stdout"] != new_inv["stdout"]
                  for inv, new_inv in zip(RECORDED["invocations"], invocations))
    _, problems = check_corpus({"files": RECORDED["files"],
                                "invocations": invocations})
    assert changed and len(problems) >= changed

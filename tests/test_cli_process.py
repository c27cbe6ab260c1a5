"""The CLI as a fresh process: ``python -m sympencil.cli`` enters through
``cli.run``, which leaves through ``os._exit`` with ``main``'s exit code.

These tests start subprocesses only and use no ``CliRunner``, so they also
run where click is not installed. They replay part of ``cli_corpus.json``
byte for byte and check how a process ends when its streams are closed or
broken, when its report is larger than a pipe's buffer, and when an
``atexit`` hook is registered.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cli_corpus import CORPUS, write_files
from sympencil import __version__
from sympencil.catalog import elliptic_like, lattice_to_dict

SRC = Path(__file__).resolve().parent.parent / "src"
RECORDED = json.loads(CORPUS.read_text("utf-8"))
TIMEOUT_S = 120
BN = ["bn", "--g", "5", "--r", "2", "--s", "1"]


def _env(extra=None) -> dict:
    env = dict(os.environ, **(extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cli(args, cwd=None, env=None, **kwargs) -> subprocess.CompletedProcess:
    kwargs.setdefault("capture_output", True)
    return subprocess.run([sys.executable, "-m", "sympencil.cli", *args],
                          cwd=cwd, env=_env(env), timeout=TIMEOUT_S, **kwargs)


def _replayed() -> list[dict]:
    """The first recorded invocation of each (command, exit code, format),
    plus every group-level error and every invocation that sets
    SYMPENCIL_WORKERS."""
    from sympencil.cli import main

    seen, chosen = set(), []
    for entry in RECORDED["invocations"]:
        args = entry["args"]
        fmt = args[args.index("--format") + 1] if "--format" in args else "json"
        key = (args[0] if args else None, entry["exit_code"], fmt)
        group_level = not args or args[0] not in main.commands
        if group_level or "env" in entry or key not in seen:
            seen.add(key)
            chosen.append(entry)
    return chosen


def test_corpus_replays_in_fresh_processes(tmp_path):
    write_files(RECORDED["files"], tmp_path)
    replayed = _replayed()
    assert {e["exit_code"] for e in replayed} == {0, 1, 2}
    differing = []
    for entry in replayed:
        proc = _cli(entry["args"], cwd=tmp_path, env=entry.get("env"))
        got = (proc.returncode, proc.stdout, proc.stderr)
        expected = (entry["exit_code"], entry["stdout"].encode("utf-8"),
                    entry["stderr"].encode("utf-8"))
        if entry["args"] == ["--version"]:
            # The program name is the runner's, so only the suffix is fixed.
            suffix = f", version {__version__}\n".encode("utf-8")
            got = (proc.returncode, proc.stdout.endswith(suffix), proc.stderr)
            expected = (expected[0], True, expected[2])
        if got != expected:
            differing.append((entry["args"], expected, got))
    assert not differing, (
        f"{len(differing)} of {len(replayed)} differ; first: {differing[0]}")


def test_stdout_pipe_closed_by_the_reader():
    """The reader is gone before the report is written: exit 1, and
    nothing on stderr, as click's standalone mode reported a broken pipe."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli(BN, stdout=write_end, stderr=subprocess.PIPE,
                    capture_output=False)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_stdout_closed_at_start():
    """With descriptor 1 closed, ``sys.stdout`` is None: the report is
    dropped, and the process still exits 0 with nothing on stderr."""
    proc = _cli(BN, stdout=None, stderr=subprocess.PIPE, capture_output=False,
                preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_worker_pool_output_matches_one_worker():
    args = ["hilb", "--r", "2", "--samples", "4"]
    one = _cli(args, env={"SYMPENCIL_WORKERS": "1"})
    two = _cli(args, env={"SYMPENCIL_WORKERS": "2"})
    assert one.returncode == 0 and one.stderr == b""
    assert (two.returncode, two.stdout, two.stderr) == (
        one.returncode, one.stdout, one.stderr)


def test_report_larger_than_a_pipe_buffer_arrives_whole(tmp_path):
    from sympencil import applications, cli

    x = elliptic_like(17)  # b2 = 202
    classes = [tuple(int(i == j) for j in range(x.b2)) for i in range(200)]
    (tmp_path / "e17.json").write_text(json.dumps(lattice_to_dict(x)), "utf-8")
    (tmp_path / "classes.json").write_text(json.dumps(classes), "utf-8")
    proc = _cli(["classify", "e17.json", "--classes", "classes.json"], cwd=tmp_path)
    reports = applications.run_all(x, classes)
    expected = cli._render([cli._record_payload(r) for r in reports], "json") + "\n"
    assert len(proc.stdout) > 65536
    assert (proc.stdout, proc.stderr) == (expected.encode("utf-8"), b"")
    assert proc.returncode == int(any(r.verdict == "fail" for r in reports))


# Registers a hook that would write a file at interpreter exit, then runs
# the CLI: through cli.run with the arguments after the script, or, with
# the first argument "raise", "string" or "unflushed", through a main
# replaced by one that raises ZeroDivisionError, exits with a string code,
# or leaves a write in stdout's buffer and exits 0.
_HOOKED = """\
import atexit, pathlib, sys
atexit.register(pathlib.Path(sys.argv[1]).write_text, "fired")
from sympencil import cli
def unflushed():
    sys.stdout.write("report")
    sys.exit(0)
if sys.argv[2] == "raise":
    cli.main = lambda: 1 // 0
elif sys.argv[2] == "string":
    cli.main = lambda: sys.exit("stopped")
elif sys.argv[2] == "unflushed":
    cli.main = unflushed
sys.argv[1:] = sys.argv[3:]
cli.run()
"""


@pytest.mark.parametrize("args, code", [
    (BN, 0),
    (["bn", "--g", "five", "--r", "2", "--s", "1"], 2),
    (["hilb", "--r", "1", "--samples", "2"], 0),
])
def test_run_skips_atexit_and_keeps_the_exit_code(tmp_path, args, code):
    marker = tmp_path / "fired"
    proc = subprocess.run(
        [sys.executable, "-c", _HOOKED, str(marker), "run", *args],
        env=_env(), capture_output=True, timeout=TIMEOUT_S)
    assert proc.returncode == code
    if code == 0:
        assert proc.stdout.startswith(b"{") and proc.stderr == b""
    else:
        assert proc.stdout == b"" and proc.stderr.startswith(b"Error: ")
    assert not marker.exists()


@pytest.mark.parametrize("how, code, stderr", [
    ("raise", 1, b"ZeroDivisionError"),
    ("string", 1, b"stopped\n"),
])
def test_other_endings_keep_the_interpreter_exit(tmp_path, how, code, stderr):
    """An uncaught exception or a non-int exit code is not how ``main``
    ends, so the interpreter exits as usual and runs the hook."""
    marker = tmp_path / "fired"
    proc = subprocess.run(
        [sys.executable, "-c", _HOOKED, str(marker), how],
        env=_env(), capture_output=True, timeout=TIMEOUT_S)
    assert proc.returncode == code
    assert stderr in proc.stderr
    assert marker.read_text() == "fired"


def test_failed_flush_keeps_the_interpreter_exit(tmp_path):
    """A buffered write that cannot be flushed, because the reader is gone,
    is not dropped silently: the process ends as it does without cli.run,
    the interpreter reporting the failed flush and exiting 120."""
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)  # so that the write stays buffered
    endings = []
    for script in (_HOOKED, _HOOKED.replace("cli.run()", "cli.main()")):
        marker = tmp_path / f"fired{len(endings)}"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", script, str(marker), "unflushed"],
                env=env, stdout=write_end, stderr=subprocess.PIPE,
                timeout=TIMEOUT_S)
        finally:
            os.close(write_end)
        endings.append((proc.returncode, proc.stderr, marker.read_text()))
    assert endings[0] == endings[1]
    assert endings[0][0] == 120 and b"BrokenPipeError" in endings[0][1]

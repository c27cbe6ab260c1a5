"""Write golden/criterion12.json: the exit code and stdout bytes of the ten
acceptance-criterion-12 invocations, each run as a fresh process.

    python3 bench/capture_golden.py

The outputs are a fixed contract: same inputs, same bytes. The file was
captured once, from the commit that added the benchmark; cli-batch fails
any op whose bytes differ. Rerunning this script overwrites that record,
so only do it when the contract itself is meant to change.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import wl_cli  # noqa: E402


def main() -> None:
    workroot = BENCH_DIR.parent / ".bench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    try:
        state = wl_cli.State(workdir / "inputs")
        golden = []
        for args in wl_cli.CRITERION_12:
            code, stdout, _ = wl_cli.fresh([a.format(**state.fill) for a in args])
            golden.append({"args": args, "exit_code": code,
                           "stdout": stdout.decode("utf-8")})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl_cli.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", "utf-8")


if __name__ == "__main__":
    main()

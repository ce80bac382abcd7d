"""Digest of the CLI's output on every operation of the benchmark workloads.

    python3 tools/stdout_digest.py

Run from the root of a source checkout; the package is imported from
``src/``.  For each workload of ``perfbench/workloads.py`` and each seed in
``SEEDS``, the workload's inputs are written to a temporary directory and
every operation runs once through ``cuspzeta.cli.main`` in-process.  Its exit
code, stdout and stderr are hashed, with verify's wall-clock ``elapsed_s``
masked by ``perfbench/checks.py`` and the temporary directory's path
replaced by a fixed name.  One SHA-256 line per workload and seed, and one
over all of them, go to stdout as a Markdown list, so two trees whose lines
match print byte-identical output on all of these operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from cuspzeta.cli import main as cli_main  # noqa: E402

SEEDS = (3, 4)


def run(op: workloads.Op, workdir: str) -> bytes:
    """Exit code, stdout and stderr of one operation, with run-specific text masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(op.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    stdout = checks.comparable(op, out.getvalue()).replace(workdir, "<workdir>")
    stderr = err.getvalue().replace(workdir, "<workdir>")
    return repr((op.name, code, stdout, stderr)).encode()


def main() -> int:
    total = hashlib.sha256()
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            digest = hashlib.sha256()
            with tempfile.TemporaryDirectory() as workdir:
                ops = workloads.build(name, seed, Path(workdir))
                for op in ops:
                    digest.update(run(op, workdir))
            total.update(digest.digest())
            print(f"- `{name}` seed {seed}, {len(ops)} operations: `{digest.hexdigest()}`")
    print(f"- all: `{total.hexdigest()}`")
    return 0


if __name__ == "__main__":
    sys.exit(main())

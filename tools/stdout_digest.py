"""Digest of the CLI's output on every operation of the benchmark workloads.

    python3 tools/stdout_digest.py

Run from the root of a source checkout; the package is imported from
``src/``.  For each workload of ``perfbench/workloads.py`` and each seed in
``SEEDS``, the workload's inputs are written to a temporary directory and
every operation runs once through ``cuspzeta.cli.main`` in-process.  Its exit
code, stdout and stderr are hashed, with verify's wall-clock ``elapsed_s``
masked by ``perfbench/checks.py`` and the temporary directory's path
replaced by a fixed name.  The ``dense`` workload runs only ``zeta``, so
``poles`` on each of its graphs is hashed too: their denominators, of degree
54 and 62 with repeated (1 - u^2) factors, give Yun's split its largest
gcds.  Every workload graph has central order 1 and no operation expands
the Selberg power, so ``zeta --series 12 --expand-selberg``, ``count --m 12
--oracle``, ``poles`` and ``verify --max-m 8`` also run on five builtin
graphs: ``pgl2(3)`` (central order 2), ``chain(3, 4)`` with central order 3,
``star(3, (2, 2))``, ``loop_family(3, 2)`` and a theta graph.  No other graph
has a chain of degree-2 vertices between two different branch vertices, so
only the theta graph makes ``verify``'s vertex route divide its branch
determinant by chain continuants.  One SHA-256 line per workload
and seed, one per seed for the dense poles, one over all of these, and one for
the builtin graphs go to stdout as a Markdown list, so two trees whose lines
match print byte-identical output on all of these operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from cuspzeta.cli import main as cli_main  # noqa: E402
from cuspzeta.families import chain, loop_family, pgl2, star  # noqa: E402
from cuspzeta.graphs import Cusp, CuspidalGraph, EdgeIndexedGraph  # noqa: E402

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


def dense_poles(seed: int, workdir: Path) -> list[workloads.Op]:
    """``poles`` on each graph of the ``dense`` workload."""
    return [workloads.Op(op.name.replace("zeta", "poles", 1), ("poles", op.argv[1]), "poles")
            for op in workloads.build("dense", seed, workdir)]


def theta() -> CuspidalGraph:
    """Branch vertices a and b joined by a-x1-x2-b, a-y1-b and a-b, with one cusp at a."""
    pairs = [("a", "x1", 2, 1), ("x1", "x2", 1, 2), ("x2", "b", 2, 1),
             ("a", "y1", 1, 2), ("y1", "b", 2, 1), ("a", "b", 1, 1)]
    core = EdgeIndexedGraph(["a", "b", "x1", "x2", "y1"], pairs)
    return CuspidalGraph(core, (Cusp("a", 1, 3),), 3, central_order=1)


def family_ops(workdir: Path) -> list[workloads.Op]:
    """Four commands on each builtin graph, two of them with central order above 1."""
    graphs = {"pgl2(3)": pgl2(3), "chain(3,4) c=3": replace(chain(3, 4), central_order=3),
              "star(3,(2,2))": star(3, (2, 2)), "loops(3,2)": loop_family(3, 2),
              "theta": theta()}
    ops = []
    for i, (name, graph) in enumerate(graphs.items()):
        path = workdir / f"family{i}.json"
        path.write_text(json.dumps(graph.to_json()))
        for argv in (("zeta", str(path), "--series", "12", "--expand-selberg"),
                     ("count", str(path), "--m", "12", "--oracle"),
                     ("poles", str(path)),
                     ("verify", str(path), "--max-m", "8")):
            ops.append(workloads.Op(f"{argv[0]} {name}", argv, argv[0]))
    return ops


def main() -> int:
    total = hashlib.sha256()
    builders = [(f"`{name}`", partial(workloads.build, name)) for name in workloads.WORKLOADS]
    for label, build in builders + [("`dense` poles", dense_poles)]:
        for seed in SEEDS:
            digest = hashlib.sha256()
            with tempfile.TemporaryDirectory() as workdir:
                ops = build(seed, Path(workdir))
                for op in ops:
                    digest.update(run(op, workdir))
            total.update(digest.digest())
            print(f"- {label} seed {seed}, {len(ops)} operations: `{digest.hexdigest()}`")
    print(f"- all: `{total.hexdigest()}`")
    with tempfile.TemporaryDirectory() as workdir:
        ops = family_ops(Path(workdir))
        digest = hashlib.sha256(b"".join(run(op, workdir) for op in ops))
    print(f"- builtin families, {len(ops)} operations: `{digest.hexdigest()}`")
    return 0


if __name__ == "__main__":
    sys.exit(main())

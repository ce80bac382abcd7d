"""Seeded inputs and command lists for the three benchmark workloads.

``build(name, seed, workdir)`` writes the workload's graph JSON files into
``workdir`` and returns the operations of one pass.  Everything random is drawn
from the seed (and, for verify's chord sets, from fixed per-slot seeds), so one
seed always gives byte-identical files; the program under test sees nothing but
these files and the argv lists.

Shapes (vertex count, chord count, cusp count) are fixed per slot and the seed
draws everything else, so a pass costs about the same on every seed while the
graphs differ.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("dense", "loops", "verify")

# dense: (vertices, chords per vertex, cusps) per graph, so 1.5x as many chords
# as cycle edges.  Each slot keeps one chord set on every seed, because the
# chords set the determinant's fill-in and with it the cost of a pass (random
# chords moved it by 12 % between seeds); the seed draws weights and cusps.
# Only zeta runs here: poles on such graphs can raise RootFindingError (see
# test_dense_poles_on_seed_203 in test_perfbench.py).
DENSE_SLOTS = ((10, 3, 2), (12, 3, 1))
DENSE_SERIES = 100

# loops: the first N at which pole_report misses the exact pole 1/q at the seed
# commit (q = 5 raises RootFindingError there).  Every operation of a workload
# must pass, so sweeps run 1..EDGE-1 and the seed draws two poles per q from
# EDGE-3..EDGE-1 with a fixed sum, so a pass costs about the same on every seed.
# checks.py still requires R = 1/q; test_perfbench.py keeps the N past the edge.
LOOP_EDGE = {3: 13, 4: 11, 5: 9}

# verify: (vertices, chords per vertex, cusps) per small cubic graph, plus one loop
# graph.  Each slot keeps one chord set on every seed, and weights and alphas are
# 2..3: the number of cycle classes, which sets the oracle's time and the peak
# memory, then varies only with the cusp vertices (cubic 8-vertex shapes differ
# by up to a third in it).
VERIFY_SLOTS = ((6, 1, 2), (8, 1, 2), (8, 1, 2), (8, 1, 2))
VERIFY_LOW_WEIGHT = 2
VERIFY_LOOP_N = 12
VERIFY_MAX_M = 10
COUNT_M = 12


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must satisfy.

    ``kind`` selects the check in :mod:`checks`; ``expect`` carries the
    reference data the check needs (never computed by the program).
    """

    name: str
    argv: tuple[str, ...]
    kind: str
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def weight(self) -> int:
        """Checked operations this invocation stands for (sweep rows count singly)."""
        return len(self.expect["rows"]) if self.kind == "sweep" else 1


def _regular_chords(rng: random.Random, n: int, k: int, taken: set) -> list[tuple[int, int]]:
    """A random k-regular simple chord set avoiding ``taken``.

    Chords are added one at a time with probability proportional to the
    product of the endpoints' unused degrees (Steger and Wormald, 1999), which
    rarely gets stuck, so generation time hardly depends on the seed.
    """
    while True:
        free = [k] * n
        chords: set[tuple[int, int]] = set()
        for _ in range(n * k // 2):
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if free[a] and free[b] and (a, b) not in taken and (a, b) not in chords]
            if not pairs:
                break
            a, b = rng.choices(pairs, [free[a] * free[b] for a, b in pairs])[0]
            chords.add((a, b))
            free[a] -= 1
            free[b] -= 1
        else:
            return sorted(chords)


def random_graph(rng: random.Random, n: int, k: int, cusps: int, low: int = 1,
                 shape_rng: random.Random | None = None) -> dict:
    """Connected cuspidal graph: an n-cycle plus a random k-regular chord set.

    The chords are drawn from ``shape_rng`` (default ``rng``).  Oriented edge
    weights are a shuffled balanced multiset of low..3, and each cusp gets
    alpha in low..3 and ray_q in 2..5 on a distinct vertex.  A fixed degree
    sequence and weight mix keep the cost of one graph close to that of any
    other graph of the same shape.  With low = 2 no transition has weight zero
    (a backtrack onto a weight-1 edge does), so the set of cycles the oracle
    enumerates depends on the chords and cusp vertices alone.
    """
    names = [f"v{i:02d}" for i in range(n)]
    cycle = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    pairs = cycle + _regular_chords(shape_rng or rng, n, k, set(cycle))
    weights = [low + i % (4 - low) for i in range(2 * len(pairs))]
    rng.shuffle(weights)
    edges = [
        {"a": names[a], "b": names[b], "wa": weights[2 * i], "wb": weights[2 * i + 1]}
        for i, (a, b) in enumerate(pairs)
    ]
    cusp_list = [
        {"vertex": names[v], "alpha": rng.randint(low, 3), "ray_q": rng.randint(2, 5)}
        for v in sorted(rng.sample(range(n), cusps))
    ]
    return {"q": 3, "central_order": 1, "vertices": names, "edges": edges, "cusps": cusp_list}


def loop_graph(q: int, n: int) -> dict:
    """loop_family(q, N) as graph JSON, built from the package's family builder."""
    from cuspzeta.families import loop_family

    return loop_family(q, n).to_json()


def _write(workdir: Path, stem: str, graph: dict) -> str:
    path = workdir / f"{stem}.json"
    path.write_text(json.dumps(graph, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _sweep_op(q: int, hi: int) -> Op:
    rows = list(range(1, hi + 1))
    return Op(f"sweep:q{q}:1..{hi}", ("sweep", "loops", "--q", str(q), "--N", f"1..{hi}"),
              "sweep", {"q": q, "rows": rows})


def _loop_poles_op(workdir: Path, q: int, n: int, slot: int) -> Op:
    path = _write(workdir, f"loop-q{q}-{slot}", loop_graph(q, n))
    return Op(f"poles:loop(q={q},N={n})#{slot}", ("poles", path), "loop_poles", {"q": q})


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's inputs for ``seed`` and return one pass of operations."""
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    if name == "dense":
        for slot, shape in enumerate(DENSE_SLOTS):
            graph = random_graph(rng, *shape, shape_rng=random.Random(f"shape:dense:{slot}"))
            path = _write(workdir, f"dense-{slot}", graph)
            ops.append(Op(f"zeta:dense-{slot}", ("zeta", path, "--series", str(DENSE_SERIES)),
                          "zeta", {"graph": graph}))
    elif name == "loops":
        for q, edge in LOOP_EDGE.items():
            ops.append(_sweep_op(q, edge - 1))
        for q, edge in LOOP_EDGE.items():
            shift = rng.randint(0, 1)
            for i, n in enumerate((edge - 1 - shift, edge - 3 + shift)):
                ops.append(_loop_poles_op(workdir, q, n, i))
    elif name == "verify":
        graphs = [(f"small-{slot}", random_graph(rng, *shape, low=VERIFY_LOW_WEIGHT,
                                                 shape_rng=random.Random(f"shape:{slot}")))
                  for slot, shape in enumerate(VERIFY_SLOTS)]
        graphs.append(("loop-q3", loop_graph(3, VERIFY_LOOP_N)))
        for stem, graph in graphs:
            path = _write(workdir, stem, graph)
            ops.append(Op(f"verify:{stem}", ("verify", path, "--max-m", str(VERIFY_MAX_M),
                                             "--fixtures"), "verify", {}))
            ops.append(Op(f"count:{stem}", ("count", path, "--m", str(COUNT_M), "--oracle"),
                          "count", {"graph": graph}))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return ops

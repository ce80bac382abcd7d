"""Independent checks of every CLI output, run outside the timed region.

``check(op, code, stdout, refs)`` returns one failure reason per failed
operation unit (one per sweep row, otherwise at most one).  ``refs`` is a
per-run dict that caches reference data, such as trace powers of a graph
and the exact denominator of its zeta function for the poles check.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# pole_report on loop_family(3, N), N = 1..8: the frozen second pole moduli of
# acceptance criterion 8 (tests/test_acceptance.py), to 1e-9.
SECOND_MODULUS_FIXTURES = {
    1: 0.4023199380628143,
    2: 0.3490720984355004,
    3: 0.3378728159994185,
    4: 0.33476037356143173,
    5: 0.3337978000603025,
    6: 0.33348668081508426,
    7: 0.3333842570901845,
    8: 0.33335028328207206,
}
SECOND_MODULUS_TOL = 1e-9
# R = 1/q exactly for the loop family (den(1/q) == 0).  Near-double roots cost
# double precision up to ~1e-8 relative; the seed's misses are 5e-3 or more.
RADIUS_REL_TOL = 1e-6
UNIT_ROOT_TOL = 1e-6
TRACE_DEPTH = 5
TRACE_TERMS = 8
ELAPSED = re.compile(r'"elapsed_s": [-+.0-9eE]+')


def comparable(op, stdout: str) -> str:
    """stdout with its one wall-clock field masked (verify reports elapsed_s)."""
    return ELAPSED.sub('"elapsed_s": null', stdout) if op.kind == "verify" else stdout


def _trace_reference(graph: dict, refs: dict) -> list[Fraction]:
    key = ("traces", json.dumps(graph, sort_keys=True))
    if key not in refs:
        from cuspzeta.graphs import CuspidalGraph, truncate
        from cuspzeta.oracle import trace_powers

        c = CuspidalGraph.from_json(graph)
        finite = truncate(c, TRACE_DEPTH) if c.cusps else c.core
        refs[key] = trace_powers(finite, TRACE_TERMS)
    return refs[key]


def _counting_mismatch(n_values: list, graph: dict, refs: dict) -> str | None:
    got = [Fraction(str(x)) for x in n_values[:TRACE_TERMS]]
    want = _trace_reference(graph, refs)
    if got != want:
        m = next(i for i in range(TRACE_TERMS) if i >= len(got) or got[i] != want[i]) + 1
        return f"N_{m} differs from the trace of T^{m} on the depth-{TRACE_DEPTH} truncation"
    return None


def _root_multiplicity(den: list[Fraction], root: int) -> int:
    """Multiplicity of u = root in den by exact synthetic division."""
    coeffs, mult = list(den), 0
    while len(coeffs) > 1:
        quotient, acc = [], Fraction(0)
        for c in reversed(coeffs):
            acc = acc * root + c
            quotient.append(acc)
        if quotient.pop() != 0:
            break
        coeffs = list(reversed(quotient))
        mult += 1
    return mult


def _check_zeta(op, out: dict, refs: dict) -> str | None:
    den = [Fraction(str(c)) for c in out["bass_ihara"]["den"]]
    refs[("den", op.argv[1])] = den
    if den[0] != 1:
        return f"den(0) = {den[0]}, expected 1"
    return _counting_mismatch(out["series"]["N"], op.expect["graph"], refs)


def _check_dense_poles(op, out: dict, refs: dict) -> str | None:
    den = refs.get(("den", op.argv[1]))
    if den is None:
        return "no checked zeta denominator for this graph"
    poles = [(complex(*p["value"]), p["multiplicity"]) for p in out["poles"]]
    degree = len(den) - 1
    if sum(m for _, m in poles) != degree:
        return f"pole multiplicities sum to {sum(m for _, m in poles)}, deg den = {degree}"
    for root in (1, -1):
        want = _root_multiplicity(den, root)
        got = sum(m for z, m in poles if abs(z - root) <= UNIT_ROOT_TOL)
        if got != want:
            return f"pole at u = {root} reported with multiplicity {got}, exact {want}"
    return None


def _radius_miss(radius, q: int) -> str | None:
    if radius is None or abs(radius * q - 1) > RADIUS_REL_TOL:
        return f"R = {radius}, expected 1/{q}"
    return None


def _check_sweep(op, stdout: str) -> list[str]:
    q, rows = op.expect["q"], op.expect["rows"]
    lines = stdout.splitlines()
    if not lines or lines[0] != "N,R,second_modulus,ramanujan":
        return [f"N={n}: no CSV row" for n in rows]
    got = {}
    for line in lines[1:]:
        n, radius, second, _ = line.split(",")
        got[int(n)] = (float(radius), float(second) if second else None)
    failures = []
    for n in rows:
        if n not in got:
            failures.append(f"N={n}: no CSV row")
            continue
        radius, second = got[n]
        reason = _radius_miss(radius, q)
        if reason is None and q == 3 and n in SECOND_MODULUS_FIXTURES:
            want = SECOND_MODULUS_FIXTURES[n]
            if second is None or abs(second - want) > SECOND_MODULUS_TOL:
                reason = f"second modulus {second}, frozen {want}"
        if reason is not None:
            failures.append(f"N={n}: {reason}")
    return failures


def check(op, code: int | None, stdout: str, stderr: str, refs: dict) -> list[str]:
    """Failure reasons for one invocation; an empty list means every unit passed."""
    if code != 0:
        first = stderr.strip().splitlines()[-1:] or ["no message"]
        return [f"exit {code}: {first[0]}"] * op.weight
    try:
        if op.kind == "sweep":
            return _check_sweep(op, stdout)
        reason = _check_json(op, json.loads(stdout), refs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"] * op.weight
    return [] if reason is None else [reason]


def _check_json(op, out: dict, refs: dict) -> str | None:
    if op.kind == "zeta":
        return _check_zeta(op, out, refs)
    if op.kind == "dense_poles":
        return _check_dense_poles(op, out, refs)
    if op.kind == "loop_poles":
        return _radius_miss(out["R"], op.expect["q"])
    if op.kind == "verify":
        return None if out["ok"] is True else "verify reported ok = false"
    if op.kind == "count":
        if out["match"] is not True:
            return "oracle match is false"
        return _counting_mismatch(out["N"], op.expect["graph"], refs)
    raise LookupError(f"unknown check kind {op.kind!r}")

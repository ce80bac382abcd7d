"""Command-line interface: family builders, zeta reports, verification.

Commands
--------
family   emit a builtin family as graph JSON
zeta     zeta functions (and optional counting series) of a graph file
count    counting series, optionally cross-checked against the trace oracle
poles    pole report of the weighted-graph zeta function
sweep    CSV pole sweep of the loop family over a range of N
verify   engine-versus-oracle consistency checks with pass/fail lines

Graphs are passed as file paths or "-" for standard input.  Exit codes:
0 success, 1 verification or computation failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from cuspzeta.exact import Poly, RatFunc, ratfunc_reduce, series_expand
from cuspzeta.families import chain, loop_family, pgl2, star
from cuspzeta.graphs import (
    BudgetExceededError, CuspidalGraph, GraphFormatError, relabel, validate,
)
from cuspzeta.oracle import (
    MAX_CYCLE_LENGTH, enumerate_primitive_cycles, euler_product_series, trace_powers,
)
from cuspzeta.spectra import PoleReport, RootFindingError, pole_report, ramanujan_check
from cuspzeta.zeta import (
    MAX_SERIES_ORDER, CountingSeries, ZetaResult, bass_ihara_zeta, counting_series,
)

USAGE_ERROR = 2
FAILURE = 1
MAX_LOOP_N = 128  # largest N that `family loops` and `sweep` build; covers loop_family(3, 96)
MAX_SWEEP_N_SUM = 1176  # largest sum of N over a sweep's range, that of 1..48 (a few seconds)


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _load_graph(path: str) -> CuspidalGraph:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, int digit limit
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    graph = CuspidalGraph.from_json(data)
    validate(graph)
    return graph


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"parts must be comma-separated integers: {text!r}")
    return parts


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        return range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range: {text!r}")


def cmd_family(args: argparse.Namespace) -> int:
    try:
        if args.name == "pgl2":
            graph = pgl2(args.q)
        elif args.name == "chain":
            if args.k is None:
                return _fail_usage("family chain requires --k")
            graph = chain(args.q, args.k)
        elif args.name == "star":
            if args.parts is None:
                return _fail_usage("family star requires --parts")
            graph = star(args.q, args.parts)
        else:
            if args.n is None:
                return _fail_usage("family loops requires --N")
            if args.n > MAX_LOOP_N:
                raise BudgetExceededError(f"loop family N {args.n} exceeds the cap {MAX_LOOP_N}")
            graph = loop_family(args.q, args.n)
    except ValueError as exc:
        return _fail_usage(str(exc))
    print(json.dumps(graph.to_json(), indent=2))
    return 0


def cmd_zeta(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    if args.series is not None and args.series < 1:
        return _fail_usage("--series must be >= 1")
    if args.series is not None and args.series > MAX_SERIES_ORDER:
        raise BudgetExceededError(f"series order {args.series} exceeds the cap {MAX_SERIES_ORDER}")
    result = bass_ihara_zeta(graph)
    payload = result.to_json()
    if args.expand_selberg:
        payload["selberg"] = result.selberg_expanded().to_json()
    if args.series is not None:
        payload["series"] = counting_series(result, args.series).to_json()
    print(json.dumps(payload, indent=2))
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    if args.m < 1:
        return _fail_usage("--m must be >= 1")
    if args.m > MAX_SERIES_ORDER:
        raise BudgetExceededError(f"series order {args.m} exceeds the cap {MAX_SERIES_ORDER}")
    # The trace oracle runs before the determinant, so a cap below the series cap fails first.
    traces = trace_powers(graph, args.m) if args.oracle else None
    series = counting_series(bass_ihara_zeta(graph), args.m)
    payload = series.to_json()
    if traces is not None:
        payload["oracle_N"] = traces
        payload["match"] = list(series.n_values) == traces
    print(json.dumps(payload, indent=2))
    return 0 if payload.get("match", True) else FAILURE


def _pole_report(graph: CuspidalGraph, z: RatFunc) -> PoleReport:
    """pole_report of z, with the poles +-1/c at the graph's q and at every
    cusp's ray_q divided out exactly."""
    return pole_report(z, (graph.q, *(cusp.ray_q for cusp in graph.cusps)))


def cmd_poles(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    report = _pole_report(graph, bass_ihara_zeta(graph).bass_ihara)
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _sweep_row(q: int, n: int) -> str:
    """The CSV row of loop_family(q, n): N, the radius, the second pole modulus
    (empty if there is none) and the Ramanujan verdict.

    The radius stays pinned at 1/q while the second modulus decreases
    towards it as N grows, shrinking the pole-free annulus.
    """
    graph = loop_family(q, n)
    report = _pole_report(graph, bass_ihara_zeta(graph).bass_ihara)
    moduli = report.moduli_clusters
    second = f"{moduli[1]:.15g}" if len(moduli) > 1 else ""
    ramanujan = str(ramanujan_check(report, q).is_ramanujan).lower()
    return f"{n},{report.radius:.15g},{second},{ramanujan}"


def cmd_sweep(args: argparse.Namespace) -> int:
    ns = args.n_range
    if not ns:
        return _fail_usage("sweep needs a nonempty range of N values")
    if ns[-1] > MAX_LOOP_N:
        raise BudgetExceededError(f"loop family N {ns[-1]} exceeds the cap {MAX_LOOP_N}")
    total = len(ns) * (ns[0] + ns[-1]) // 2  # sum of the range in closed form
    if total > MAX_SWEEP_N_SUM:
        raise BudgetExceededError(f"loop family N sum {total} exceeds the cap {MAX_SWEEP_N_SUM}")
    try:
        rows = [_sweep_row(args.q, n) for n in ns]  # all rows first: an error prints no CSV
    except ValueError as exc:
        return _fail_usage(str(exc))
    print("N,R,second_modulus,ramanujan", *rows, sep="\n")
    return 0


def _check(name: str, ok: bool, lhs, rhs) -> dict:
    return {"name": name, "pass": bool(ok), "lhs": lhs, "rhs": rhs}


def _verify_checks(
    graph: CuspidalGraph, result: ZetaResult, series: CountingSeries, max_m: int
) -> list[dict]:
    checks = []
    traces = trace_powers(graph, max_m)
    engine = [str(x) for x in series.n_values]
    oracle = [str(t) for t in traces]
    mismatch = next((m for m in range(max_m) if series.n_values[m] != traces[m]), None)
    entry = _check("counting_vs_trace", mismatch is None, engine, oracle)
    if mismatch is not None:
        entry["first_failing_m"] = mismatch + 1
    checks.append(entry)

    euler_order = min(max_m, 10)
    z = result.bass_ihara
    classes = enumerate_primitive_cycles(graph, euler_order)
    product = euler_product_series(classes, euler_order)
    expansion = series_expand(z, euler_order)
    checks.append(
        _check(
            "euler_product_vs_series",
            product == expansion,
            [str(c) for c in product],
            [str(c) for c in expansion],
        )
    )

    rng = random.Random(20260808)
    base = result.bass_ihara
    ok = True
    for _ in range(5):
        names = list(graph.core.vertices)
        shuffled = names[:]
        rng.shuffle(shuffled)
        permuted = relabel(graph, dict(zip(names, shuffled)))
        if bass_ihara_zeta(permuted).bass_ihara != base:
            ok = False
            break
    checks.append(_check("relabeling_invariance", ok, str(base), "5 random relabelings"))
    return checks


def _fixture_checks() -> list[dict]:
    def rf(num, den):
        return ratfunc_reduce(Poly(num), Poly(den))

    golden = [
        ("pgl2(2)", pgl2(2), rf([1, 0, -2], [1, 0, -4])),
        ("chain(3,4)", chain(3, 4), rf([1, 0, -3], [1, 0, -9])),
        ("star(3,(2,2))", star(3, (2, 2)), rf([1, 0, -6, 0, 9], [1, 0, -10, 0, 9])),
        (
            "star(3,(1,1,1))",
            star(3, (1, 1, 1)),
            rf([1, 0, -9, 0, 27, 0, -27], [1, 0, -9, 0, 15, 0, -7]),
        ),
    ]
    checks = []
    for name, graph, expected in golden:
        got = bass_ihara_zeta(graph).bass_ihara
        checks.append(_check(f"fixture:{name}", got == expected, repr(got), repr(expected)))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    if not 1 <= args.max_m <= MAX_CYCLE_LENGTH:
        return _fail_usage(f"--max-m must be between 1 and {MAX_CYCLE_LENGTH}")
    started = time.monotonic()
    result = bass_ihara_zeta(graph)
    series = counting_series(result, args.max_m)
    checks = _verify_checks(graph, result, series, args.max_m)
    if args.fixtures:
        checks.extend(_fixture_checks())
    elapsed = time.monotonic() - started
    ok = all(c["pass"] for c in checks)
    report = {
        "input": {
            "vertices": len(graph.core.vertices),
            "cusps": len(graph.cusps),
            "q": graph.q,
            "central_order": graph.central_order,
        },
        "zeta": result.to_json(),
        "counting": series.to_json(),
        "poles": _pole_report(graph, result.bass_ihara).to_json(),
        "checks": checks,
        "elapsed_s": round(elapsed, 6),
        "ok": ok,
    }
    print(json.dumps(report, indent=2))
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{status} {c['name']}", file=sys.stderr)
    return 0 if ok else FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspzeta",
        description="Exact zeta functions of weighted and cuspidal graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", help="emit a builtin family as graph JSON")
    p_family.add_argument("name", choices=["pgl2", "chain", "star", "loops"])
    p_family.add_argument("--q", type=int, required=True)
    p_family.add_argument("--k", type=int, default=None)
    p_family.add_argument("--parts", type=_parse_parts, default=None)
    p_family.add_argument("--N", dest="n", type=int, default=None)
    p_family.set_defaults(func=cmd_family)

    p_zeta = sub.add_parser("zeta", help="zeta functions of a graph file")
    p_zeta.add_argument("graph")
    p_zeta.add_argument("--series", type=int, default=None, metavar="M")
    p_zeta.add_argument("--expand-selberg", action="store_true")
    p_zeta.set_defaults(func=cmd_zeta)

    p_count = sub.add_parser("count", help="counting series N_m and R_m")
    p_count.add_argument("graph")
    p_count.add_argument("--m", type=int, required=True)
    p_count.add_argument("--oracle", action="store_true")
    p_count.set_defaults(func=cmd_count)

    p_poles = sub.add_parser("poles", help="pole report of the zeta function")
    p_poles.add_argument("graph")
    p_poles.set_defaults(func=cmd_poles)

    p_sweep = sub.add_parser("sweep", help="CSV pole sweep over a family range")
    p_sweep.add_argument("family", choices=["loops"])
    p_sweep.add_argument("--q", type=int, required=True)
    p_sweep.add_argument("--N", dest="n_range", type=_parse_range, required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="engine-versus-oracle verification")
    p_verify.add_argument("graph")
    p_verify.add_argument("--max-m", type=int, default=10)
    p_verify.add_argument("--fixtures", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        return _fail_usage(str(exc))
    except BudgetExceededError as exc:
        print(f"FAIL budget: {exc}", file=sys.stderr)
        return FAILURE
    except (RootFindingError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())

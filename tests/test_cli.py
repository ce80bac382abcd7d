"""Tests for the command-line interface: formats, determinism, exit codes."""

import contextlib
import io
import json
import math
import re
import shlex
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspzeta import cli, exact, oracle, zeta
from cuspzeta.cli import MAX_SERIES_ORDER
from cuspzeta.exact import Poly, RatFunc
from cuspzeta.families import chain, loop_family, pgl2
from cuspzeta.graphs import CuspidalGraph, EdgeIndexedGraph
from cuspzeta.zeta import bass_ihara_zeta, selberg_zeta
from helpers import poly_divmod


def run_cli(capsys, *argv, expect=0):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == expect, (argv, code, captured.err)
    return captured


def write_graph(tmp_path, graph, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(graph.to_json()))
    return str(path)


# --- family ------------------------------------------------------------------


def test_family_chain_output(capsys):
    out = run_cli(capsys, "family", "chain", "--q", "3", "--k", "4").out
    data = json.loads(out)
    assert data["vertices"] == ["v0"]
    assert data["cusps"] == [{"vertex": "v0", "alpha": 4, "ray_q": 3}]
    assert data["central_order"] == 1


def test_family_star_output(capsys):
    out = run_cli(capsys, "family", "star", "--q", "3", "--parts", "2,2").out
    data = json.loads(out)
    assert len(data["cusps"]) == 2
    assert all(c["vertex"] == "v0" for c in data["cusps"])


def test_family_loops_output(capsys):
    out = run_cli(capsys, "family", "loops", "--q", "3", "--N", "2").out
    data = json.loads(out)
    assert len(data["vertices"]) == 5
    assert len(data["cusps"]) == 1


def no_graph(q, n):
    raise AssertionError("a loop graph was built before N was checked")


@pytest.mark.parametrize("n", [cli.MAX_LOOP_N + 1, 100_000_000])
def test_family_loops_past_the_budget_exits_1_before_the_graph(capsys, monkeypatch, n):
    monkeypatch.setattr(cli, "loop_family", no_graph)
    assert cli.main(["family", "loops", "--q", "3", "--N", str(n)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"FAIL budget: loop family N {n} exceeds the cap")


def test_family_loops_at_the_budget_builds_the_graph(capsys):
    assert cli.MAX_LOOP_N >= 96  # loop_family(3, 96) stays reachable
    out = run_cli(capsys, "family", "loops", "--q", "3", "--N", str(cli.MAX_LOOP_N)).out
    assert len(json.loads(out)["vertices"]) == 2 * cli.MAX_LOOP_N + 1


def test_family_invalid_parameters_exit_2(capsys):
    assert cli.main(["family", "chain", "--q", "1", "--k", "2"]) == 2
    capsys.readouterr()
    assert cli.main(["family", "chain", "--q", "3"]) == 2
    capsys.readouterr()


# argparse rejects a malformed --parts or --N itself: exit 2 with its usage line
@pytest.mark.parametrize("argv, message", [
    (["family", "star", "--q", "3", "--parts", "1,a"],
     "parts must be comma-separated integers: '1,a'"),
    (["sweep", "loops", "--q", "3", "--N", "3..x"], "bad range: '3..x'"),
    (["sweep", "loops", "--q", "3", "--N", "x"], "bad range: 'x'"),
])
def test_malformed_arguments_exit_2_through_argparse(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


# --- zeta --------------------------------------------------------------------


def test_zeta_round_trip_matches_library(capsys, tmp_path):
    graph = pgl2(2)
    path = write_graph(tmp_path, graph)
    out = run_cli(capsys, "zeta", path).out
    data = json.loads(out)
    assert data["bass_ihara"] == bass_ihara_zeta(graph).to_json()
    assert data["bass_ihara"] == {"num": [1, 0, -2], "den": [1, 0, -4]}
    assert data["c_gamma"] == 1
    assert data["cusps"] == 1


def test_zeta_series_and_selberg_flags(capsys, tmp_path):
    path = write_graph(tmp_path, pgl2(3))
    out = run_cli(capsys, "zeta", path, "--series", "4", "--expand-selberg").out
    data = json.loads(out)
    assert data["c_gamma"] == 2
    assert data["series"]["N"] == [0, 12, 0, 144]
    assert data["series"]["R"] == [0, 24, 0, 288]
    expected = selberg_zeta(bass_ihara_zeta(pgl2(3)), 2)
    assert data["selberg"] == expected.to_json()


def test_zeta_selberg_past_the_budget_exits_1_before_the_power(capsys, tmp_path):
    # bass_ihara of chain(3, 4) is (1 - 3u^2) / (1 - 9u^2), so degree 2 * 10^6
    path = write_graph(tmp_path, replace(chain(3, 4), central_order=10**6))
    captured = run_cli(capsys, "zeta", path, "--expand-selberg", expect=1)
    assert captured.out == ""
    assert captured.err.startswith("FAIL budget: Selberg degree 2000000 exceeds the cap 800")


def test_zeta_selberg_at_the_budget_expands_the_power(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(zeta, "MAX_SELBERG_DEGREE", 6)
    graph = replace(chain(3, 4), central_order=3)
    data = json.loads(run_cli(capsys, "zeta", write_graph(tmp_path, graph), "--expand-selberg").out)
    assert data["selberg"] == selberg_zeta(bass_ihara_zeta(graph), 3).to_json()
    assert len(data["selberg"]["den"]) == 7


def no_determinant(graph):
    raise AssertionError("the determinant ran before the order was checked")


def test_zeta_rejects_series_zero_before_the_determinant(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "bass_ihara_zeta", no_determinant)
    path = write_graph(tmp_path, pgl2(3))
    assert cli.main(["zeta", path, "--series", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_zeta_series_past_the_budget_exits_1_before_the_determinant(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.setattr(cli, "bass_ihara_zeta", no_determinant)
    path = write_graph(tmp_path, loop_family(3, 12))
    series = str(MAX_SERIES_ORDER + 1)
    assert cli.main(["zeta", path, "--series", series]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("FAIL budget")


def test_zeta_deterministic(capsys, tmp_path):
    path = write_graph(tmp_path, loop_family(3, 2))
    first = run_cli(capsys, "zeta", path).out
    second = run_cli(capsys, "zeta", path).out
    assert first == second


def test_zeta_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["zeta", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no partial output


def test_zeta_unknown_field_exit_2(capsys, tmp_path):
    data = pgl2(2).to_json()
    data["surprise"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["zeta", str(path)]) == 2
    capsys.readouterr()


def test_zeta_missing_file_exit_2(capsys):
    assert cli.main(["zeta", "/nonexistent/graph.json"]) == 2
    capsys.readouterr()


def _graph_with(**fields):
    data = {"q": 3, "vertices": ["a", "b"], "edges": [{"a": "a", "b": "b", "wa": 1, "wb": 1}]}
    data.update(fields)
    return json.dumps(data).encode()


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(_graph_with(edges=5), id="edges-int"),
        pytest.param(_graph_with(vertices=["a", 1]), id="vertex-int"),
        pytest.param(_graph_with(edges=[5]), id="edge-entry-int"),
        pytest.param(_graph_with(cusps=[5]), id="cusp-entry-int"),
        pytest.param(_graph_with(cusps=[{"vertex": 1, "alpha": 1}]), id="cusp-vertex-int"),
        pytest.param(_graph_with(cusps=None), id="cusps-null"),
        pytest.param(_graph_with(cusps=[{"vertex": "a", "alpha": 1, "ray_q": 1}]), id="ray-q-1"),
        pytest.param(_graph_with(vertices=["a", "b", "c"]), id="disconnected"),
        pytest.param(None, id="directory"),
        pytest.param(b'{"q": 3, "vertices": ["\xe9"]}', id="not-utf8"),
        # past the int-str digit limit where the interpreter has one, negative where not
        pytest.param(_graph_with().replace(b'"q": 3', b'"q": -1' + b"0" * 5000), id="q-5001-digits"),
    ],
)
def test_zeta_bad_input_exit_2(capsys, tmp_path, content):
    path = tmp_path / "graph.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert cli.main(["zeta", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10**6) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _graph_json(draw):
    """A valid small graph, then up to two fields replaced by random JSON or deleted."""
    names = st.sampled_from(["a", "b", "c"])
    weight = st.integers(1, 3)
    edges = [{"a": "a", "b": "b", "wa": draw(weight), "wb": draw(weight)},
             {"a": "b", "b": "c", "wa": draw(weight), "wb": draw(weight)}]
    for _ in range(draw(st.integers(0, 2))):
        edges.append({"a": draw(names), "b": draw(names), "wa": draw(weight), "wb": draw(weight)})
    cusps = []
    for _ in range(draw(st.integers(0, 2))):
        cusp = {"vertex": draw(names), "alpha": draw(weight)}
        if draw(st.booleans()):
            cusp["ray_q"] = draw(st.integers(2, 4))
        cusps.append(cusp)
    data = {"q": draw(st.integers(1, 4)), "central_order": draw(st.integers(1, 3)),
            "vertices": ["a", "b", "c"], "edges": edges, "cusps": cusps}
    for _ in range(draw(st.integers(0, 2))):
        obj = draw(st.sampled_from([data, data, *edges, *cusps]))
        key = draw(st.sampled_from(sorted(obj) + ["extra"]))
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(_json)
    return data


GRAPH_COMMANDS = [["zeta", "-", "--series", "4"], ["poles", "-"],
                  ["count", "-", "--m", "4", "--oracle"], ["verify", "-", "--max-m", "4"]]


@given(data=_graph_json() | _json, argv=st.sampled_from(GRAPH_COMMANDS))
@settings(max_examples=600, deadline=None)
def test_zeta_random_json_keeps_exit_code_contract(data, argv):
    # every command that reads a graph, not only zeta
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(data))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:")


def raises_boom(graph):
    raise ValueError("boom")


@pytest.mark.parametrize("command, options", [("zeta", ()), ("count", ("--m", "4")),
                                              ("poles", ()), ("verify", ())])
def test_value_error_inside_a_command_exits_2_without_a_traceback(
    capsys, tmp_path, monkeypatch, command, options
):
    monkeypatch.setattr(cli, "bass_ihara_zeta", raises_boom)
    path = write_graph(tmp_path, pgl2(2))
    assert cli.main([command, path, *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: boom\n"
    assert "Traceback" not in captured.err


def test_an_inexact_division_inside_the_engine_exits_1(capsys, tmp_path, monkeypatch):
    # a gcd that divides neither input makes ratfunc_reduce's exact division
    # fail: an internal failure, not bad input
    monkeypatch.setattr(exact, "_zgcd", lambda f, g: [5, 1])
    path = write_graph(tmp_path, loop_family(3, 2))
    assert cli.main(["poles", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: inexact polynomial division\n"


# --- count -------------------------------------------------------------------


def test_count_with_oracle(capsys, tmp_path):
    path = write_graph(tmp_path, pgl2(2))
    out = run_cli(capsys, "count", path, "--m", "6", "--oracle").out
    data = json.loads(out)
    assert data["N"] == [0, 4, 0, 24, 0, 112]
    assert data["oracle_N"] == data["N"]
    assert data["match"] is True


def test_count_rejects_m_zero_before_the_determinant(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "bass_ihara_zeta", no_determinant)
    path = write_graph(tmp_path, pgl2(2))
    assert cli.main(["count", path, "--m", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --m must be >= 1\n"


# --- poles -------------------------------------------------------------------


def test_poles_star_clusters(capsys, tmp_path):
    from cuspzeta.families import star

    path = write_graph(tmp_path, star(3, (2, 2)))
    out = run_cli(capsys, "poles", path).out
    data = json.loads(out)
    assert data["moduli"] == pytest.approx([1 / 3, 1.0], abs=1e-9)
    assert data["R"] == pytest.approx(1 / 3, abs=1e-9)
    assert all(len(p["value"]) == 2 for p in data["poles"])


def test_poles_where_horner_overflowed_print_strict_json(capsys, tmp_path):
    # loop_family(3, 65) once printed NaN poles, which strict JSON has no token for
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    graph = loop_family(3, 65)
    data = json.loads(run_cli(capsys, "poles", write_graph(tmp_path, graph)).out,
                      parse_constant=reject)
    assert data["R"] == 1 / 3
    assert sum(p["multiplicity"] for p in data["poles"]) == bass_ihara_zeta(graph).den.degree


@pytest.mark.parametrize(
    "constant, value, pattern",
    [
        ("MAX_ITERATIONS", 1, r"error: Aberth iteration did not converge within 1 steps"),
        ("RESIDUAL_BOUND", 0.0, r"error: root candidate \S+ failed the residual check"),
    ],
)
def test_poles_root_finding_failure_exit_1(capsys, tmp_path, monkeypatch, constant, value, pattern):
    from cuspzeta import spectra
    from cuspzeta.families import star

    monkeypatch.setattr(spectra, constant, value)
    path = write_graph(tmp_path, star(3, (1, 1, 1)))
    captured = run_cli(capsys, "poles", path, expect=1)
    assert captured.out == ""
    assert re.fullmatch(pattern, captured.err.strip())


def test_poles_underflowed_coefficient_exit_1(capsys, tmp_path):
    # den = 1 + c2 u^2 + c4 u^4 with |c2|, |c4| near 10^400: the monic part's
    # constant term is near 10^-400, below the double range
    graph = {
        "q": 3,
        "vertices": ["a", "b"],
        "edges": [{"a": "a", "b": "b", "wa": 2, "wb": 2}],
        "cusps": [{"vertex": "a", "alpha": 1, "ray_q": 10**400}],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    err = run_cli(capsys, "poles", str(path), expect=1).err
    assert err.startswith("error:")
    assert "Traceback" not in err


# A 12-vertex, 1-cusp graph of the `dense` benchmark shape (seed 203).  Aberth
# started on one circle at the Cauchy bound failed its residual check here.
DENSE_SEED_203 = {
    "q": 3,
    "central_order": 1,
    "vertices": [
        "v00", "v01", "v02", "v03", "v04", "v05",
        "v06", "v07", "v08", "v09", "v10", "v11",
    ],
    "edges": [
        {"a": "v00", "b": "v01", "wa": 1, "wb": 1},
        {"a": "v00", "b": "v11", "wa": 1, "wb": 3},
        {"a": "v01", "b": "v02", "wa": 2, "wb": 2},
        {"a": "v02", "b": "v03", "wa": 3, "wb": 1},
        {"a": "v03", "b": "v04", "wa": 2, "wb": 2},
        {"a": "v04", "b": "v05", "wa": 2, "wb": 2},
        {"a": "v05", "b": "v06", "wa": 3, "wb": 3},
        {"a": "v06", "b": "v07", "wa": 1, "wb": 3},
        {"a": "v07", "b": "v08", "wa": 3, "wb": 1},
        {"a": "v08", "b": "v09", "wa": 2, "wb": 3},
        {"a": "v09", "b": "v10", "wa": 3, "wb": 1},
        {"a": "v10", "b": "v11", "wa": 1, "wb": 3},
        {"a": "v00", "b": "v05", "wa": 2, "wb": 1},
        {"a": "v00", "b": "v06", "wa": 1, "wb": 2},
        {"a": "v00", "b": "v09", "wa": 3, "wb": 2},
        {"a": "v01", "b": "v05", "wa": 3, "wb": 1},
        {"a": "v01", "b": "v07", "wa": 2, "wb": 3},
        {"a": "v01", "b": "v09", "wa": 2, "wb": 2},
        {"a": "v02", "b": "v04", "wa": 3, "wb": 1},
        {"a": "v02", "b": "v06", "wa": 2, "wb": 3},
        {"a": "v02", "b": "v07", "wa": 1, "wb": 1},
        {"a": "v03", "b": "v08", "wa": 3, "wb": 2},
        {"a": "v03", "b": "v10", "wa": 3, "wb": 3},
        {"a": "v03", "b": "v11", "wa": 1, "wb": 2},
        {"a": "v04", "b": "v09", "wa": 2, "wb": 1},
        {"a": "v04", "b": "v10", "wa": 1, "wb": 1},
        {"a": "v05", "b": "v08", "wa": 3, "wb": 2},
        {"a": "v06", "b": "v10", "wa": 3, "wb": 3},
        {"a": "v07", "b": "v11", "wa": 2, "wb": 1},
        {"a": "v08", "b": "v11", "wa": 1, "wb": 2},
    ],
    "cusps": [{"vertex": "v05", "alpha": 1, "ray_q": 3}],
}


def test_poles_on_dense_seed_203_graph(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(DENSE_SEED_203))
    data = json.loads(run_cli(capsys, "poles", str(path)).out)
    den = bass_ihara_zeta(CuspidalGraph.from_json(DENSE_SEED_203)).den
    assert den.degree == 62
    assert sum(p["multiplicity"] for p in data["poles"]) == den.degree
    for root in (1, -1):
        exact_mult, rest = 0, den
        while True:
            quotient, rem = poly_divmod(rest, Poly([-root, 1]))
            if not rem.is_zero():
                break
            exact_mult, rest = exact_mult + 1, quotient
        found = [p["multiplicity"] for p in data["poles"]
                 if abs(complex(*p["value"]) - root) <= 1e-9]
        assert found == [exact_mult], root


# --- sweep -------------------------------------------------------------------


def test_sweep_csv_shape(capsys):
    out = run_cli(capsys, "sweep", "loops", "--q", "3", "--N", "1..4").out
    lines = out.strip().splitlines()
    assert lines[0] == "N,R,second_modulus,ramanujan"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == [1, 2, 3, 4]
    # the radius stays at 1/q while the second modulus falls towards it
    for row in rows:
        assert float(row[1]) == pytest.approx(1 / 3, abs=1e-9)
        assert 1 / 3 < float(row[2]) < 1 / 3**0.5
    seconds = [float(row[2]) for row in rows]
    assert all(a > b for a, b in zip(seconds, seconds[1:]))
    assert all(row[3] == "false" for row in rows)


@pytest.mark.parametrize("q, n_range, ns", [(3, "16..20", range(16, 21)),
                                            (7, "9..11", range(9, 12))])
def test_sweep_keeps_1_over_q_apart_from_its_neighbour(capsys, q, n_range, ns):
    # the second pole is at 1/q + delta, delta = 2(q-1)/((q+1) q^(N+2)) to
    # 1 + o(1) (loop_family's docstring); here delta < 1e-8/q, so a tolerance
    # would merge it with the exact pole 1/q
    out = run_cli(capsys, "sweep", "loops", "--q", str(q), "--N", n_range).out
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(ns)
    for n, radius, second, ramanujan in rows:
        delta = 2 * (q - 1) / ((q + 1) * q ** (int(n) + 2))
        assert radius == f"{1 / q:.15g}"
        assert (float(second) - 1 / q) / delta == pytest.approx(1, rel=1e-3)
        assert ramanujan == "false"


def test_sweep_requires_values(capsys, monkeypatch):
    monkeypatch.setattr(cli, "loop_family", no_graph)
    assert cli.main(["sweep", "loops", "--q", "3", "--N", "5..3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sweep needs a nonempty range of N values\n"


def test_sweep_error_at_a_later_n_prints_no_rows(capsys, monkeypatch):
    real = cli.loop_family

    def fails_at_3(q, n):
        if n == 3:
            raise ValueError("no loop graph at N = 3")
        return real(q, n)

    monkeypatch.setattr(cli, "loop_family", fails_at_3)
    assert cli.main(["sweep", "loops", "--q", "3", "--N", "1..4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no loop graph at N = 3\n"


# the last range has 10^12 values: it must be walked lazily, never made a list
@pytest.mark.parametrize("argv", [["--q", "1", "--N", "1..2"], ["--q", "3", "--N", "0..2"],
                                  ["--q", "3", "--N", "3..1"],
                                  ["--q", "3", "--N=-1000000000000..3"]])
def test_sweep_invalid_parameters_exit_2(capsys, argv):
    assert cli.main(["sweep", "loops", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


# the last two pass the check on the largest N but sum past cli.MAX_SWEEP_N_SUM
@pytest.mark.parametrize("n_range", [f"1..{cli.MAX_LOOP_N + 1}", "1..100000",
                                     str(cli.MAX_LOOP_N + 1), "1..49", "30..60"])
def test_sweep_past_the_budget_exits_1_before_any_graph(capsys, monkeypatch, n_range):
    monkeypatch.setattr(cli, "loop_family", no_graph)
    assert cli.main(["sweep", "loops", "--q", "3", "--N", n_range]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("FAIL budget: loop family N")


def test_sweep_at_the_budget_passes_the_check(capsys, monkeypatch):
    # each row is replaced by its N, so only the budget checks see N = MAX_LOOP_N
    # alone and 1..48, whose sum is MAX_SWEEP_N_SUM
    assert sum(range(1, 49)) == cli.MAX_SWEEP_N_SUM
    monkeypatch.setattr(cli, "_sweep_row", lambda q, n: str(n))
    for n_range, ns in ((str(cli.MAX_LOOP_N), [cli.MAX_LOOP_N]), ("1..48", range(1, 49))):
        out = run_cli(capsys, "sweep", "loops", "--q", "3", "--N", n_range).out
        assert out.splitlines() == ["N,R,second_modulus,ramanujan", *map(str, ns)]


def test_sweep_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "stars", "--q", "3", "--N", "1..2"])
    assert exc.value.code == 2
    capsys.readouterr()


# --- verify ------------------------------------------------------------------


def test_verify_passes_on_builtin_family(capsys, tmp_path):
    path = write_graph(tmp_path, loop_family(3, 1))
    captured = run_cli(capsys, "verify", path, "--max-m", "8", "--fixtures")
    report = json.loads(captured.out)
    assert report["ok"] is True
    assert all(check["pass"] for check in report["checks"])
    assert "counting" in report and "poles" in report
    names = {check["name"] for check in report["checks"]}
    assert "counting_vs_trace" in names
    assert "euler_product_vs_series" in names
    assert "vertex_side_vs_engine" in names
    assert "poles_account_for_den" in names
    assert "fixture:pgl2(2)" in names
    assert "PASS counting_vs_trace" in captured.err
    assert report["elapsed_s"] >= 0


def test_verify_reports_first_failing_m(capsys, tmp_path, monkeypatch):
    # negative control: corrupt one counting value and expect the mismatch
    # to be flagged with the first failing index
    real = cli.log_derivative_series

    def corrupted(z, order):
        values = list(real(z, order))
        values[2] += 1
        return tuple(values)

    monkeypatch.setattr(cli, "log_derivative_series", corrupted)
    path = write_graph(tmp_path, pgl2(2))
    assert cli.main(["verify", str(path), "--max-m", "6"]) == 1
    report = json.loads(capsys.readouterr().out)
    failing = next(c for c in report["checks"] if c["name"] == "counting_vs_trace")
    assert failing["pass"] is False
    assert failing["first_failing_m"] == 2
    assert report["ok"] is False


def test_verify_flags_a_vertex_side_that_disagrees_with_the_engine(capsys, tmp_path, monkeypatch):
    # negative control: the vertex side, run once on a relabelled copy, gets a
    # zeta with an extra pole at u = 1/2
    real = cli.vertex_side_zeta
    calls = []

    def off_by_a_pole(graph):
        calls.append(graph)
        z = real(graph)
        return RatFunc(z.num, z.den * Poly([1, -2]))

    monkeypatch.setattr(cli, "vertex_side_zeta", off_by_a_pole)
    path = write_graph(tmp_path, loop_family(3, 1))
    assert cli.main(["verify", path, "--max-m", "6"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["ok"] is False
    failing = next(c for c in report["checks"] if c["name"] == "vertex_side_vs_engine")
    assert failing["pass"] is False
    assert "FAIL vertex_side_vs_engine" in captured.err.splitlines()
    assert len(calls) == 1


def drop_one_pole(report):
    poles = report.exact + report.numeric
    return replace(report, exact=(), numeric=poles[1:])


def nan_pole(report):
    (_, m), *rest = report.exact + report.numeric
    return replace(report, exact=(), numeric=((complex(math.nan, 0), m), *rest))


@pytest.mark.parametrize("corrupt", [drop_one_pole, nan_pole])
def test_verify_flags_poles_that_do_not_account_for_den(capsys, tmp_path, monkeypatch, corrupt):
    # negative control: a pole report one pole short, or with a NaN pole whose
    # multiplicity keeps the sum at deg den, fails the check
    real = cli.pole_report
    monkeypatch.setattr(cli, "pole_report", lambda z, q_values: corrupt(real(z, q_values)))
    path = write_graph(tmp_path, loop_family(3, 1))
    assert cli.main(["verify", path, "--max-m", "6"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["ok"] is False
    failing = next(c for c in report["checks"] if c["name"] == "poles_account_for_den")
    den_degree = len(report["zeta"]["bass_ihara"]["den"]) - 1
    assert failing["pass"] is False and failing["rhs"] == str(den_degree)
    assert int(failing["lhs"]) < den_degree
    assert "FAIL poles_account_for_den" in captured.err.splitlines()
    assert "PASS vertex_side_vs_engine" in captured.err.splitlines()


def test_verify_max_m_bounds(capsys, tmp_path, monkeypatch):
    # --max-m follows the series rule of zeta --series and count --m, not the
    # cycle cap: the Euler check stops at order 10 whatever --max-m is
    path = write_graph(tmp_path, pgl2(2))
    assert cli.main(["verify", path, "--max-m", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-m must be >= 1\n"
    max_m = oracle.MAX_CYCLE_LENGTH + 1
    report = json.loads(run_cli(capsys, "verify", path, "--max-m", str(max_m)).out)
    assert report["ok"] is True and len(report["counting"]["N"]) == max_m
    monkeypatch.setattr(cli, "bass_ihara_zeta", no_determinant)
    over = MAX_SERIES_ORDER + 1
    assert cli.main(["verify", path, "--max-m", str(over)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"FAIL budget: series order {over} exceeds the cap {MAX_SERIES_ORDER}\n"


# --- the three views of one graph -------------------------------------------


@pytest.mark.parametrize("graph", [pgl2(3), replace(chain(3, 4), central_order=3)],
                         ids=["pgl2(3)", "chain(3,4)-c3"])
def test_zeta_count_and_verify_agree_when_c_gamma_is_not_1(capsys, tmp_path, graph):
    path = write_graph(tmp_path, graph)
    c = graph.central_order
    assert c > 1
    zeta_out = json.loads(run_cli(capsys, "zeta", path, "--series", "8").out)
    count = json.loads(run_cli(capsys, "count", path, "--m", "8", "--oracle").out)
    report = json.loads(run_cli(capsys, "verify", path, "--max-m", "8").out)
    assert zeta_out["c_gamma"] == c and zeta_out["cusps"] == len(graph.cusps)
    assert report["zeta"] == {k: zeta_out[k] for k in ("bass_ihara", "c_gamma", "cusps")}
    for counting in (zeta_out["series"], count, report["counting"]):
        assert counting["N"] == count["oracle_N"]
        assert counting["R"] == [c * n for n in counting["N"]]


# --- round trip through stdin ------------------------------------------------


def test_family_pipes_into_zeta(capsys, tmp_path, monkeypatch):
    out = run_cli(capsys, "family", "pgl2", "--q", "2").out
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    piped = run_cli(capsys, "zeta", "-").out
    path = write_graph(tmp_path, pgl2(2))
    direct = run_cli(capsys, "zeta", path).out
    assert piped == direct


# --- ray names and budgets ---------------------------------------------------


COLLIDING_RAY_NAME = {
    "q": 3,
    "vertices": ["v0", "v0.ray0.1"],
    "edges": [{"a": "v0", "b": "v0.ray0.1", "wa": 2, "wb": 2}],
    "cusps": [{"vertex": "v0", "alpha": 2}],
}


def test_core_vertex_named_like_a_ray_vertex(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(COLLIDING_RAY_NAME))
    data = json.loads(run_cli(capsys, "count", str(path), "--m", "8", "--oracle").out)
    assert data["match"] is True
    report = json.loads(run_cli(capsys, "verify", str(path)).out)
    assert report["ok"] is True


def test_count_oracle_past_the_trace_budget_exits_1(capsys, tmp_path, monkeypatch):
    # The series cap equals the trace cap, so lower the trace cap to reach it.
    monkeypatch.setattr(oracle, "MAX_TRACE_ORDER", 10)
    monkeypatch.setattr(cli, "bass_ihara_zeta", no_determinant)
    path = write_graph(tmp_path, loop_family(3, 12))
    err = run_cli(capsys, "count", path, "--m", "12", "--oracle", expect=1).err
    assert err.startswith("FAIL budget: trace order 12 exceeds the cap 10")


def test_count_past_the_series_budget_exits_1_before_the_determinant(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.setattr(cli, "bass_ihara_zeta", no_determinant)
    path = write_graph(tmp_path, loop_family(3, 12))
    assert cli.main(["count", path, "--m", str(MAX_SERIES_ORDER + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("FAIL budget")


def test_results_past_the_int_digit_limit_print(capsys, tmp_path):
    # N_50 of a loop weighted 10**100 has over 4,300 digits, past CPython's
    # default int-to-str limit; main lifts the limit only while a command runs
    loop = EdgeIndexedGraph(["a"], [("a", "a", 10**100, 10**100)])
    path = write_graph(tmp_path, CuspidalGraph(loop, (), 3))
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = digit_limit()
    for argv, line in [(("count", path, "--m", "50", "--oracle"), '  "match": true'),
                       (("zeta", path, "--series", "50"), '  "c_gamma": 1,'),
                       (("verify", path, "--max-m", "50"), '  "ok": true')]:
        out = run_cli(capsys, *argv).out
        assert line in out.splitlines(), argv
        assert re.search(r"\d{4301}", out), argv
        assert digit_limit() == before


# --- README ------------------------------------------------------------------


def readme_block(heading: str) -> str:
    """The first fenced block after ``heading`` in README.md, language tag included."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(heading, 1)[1].split("```", 2)[1]


def readme_command_lines() -> list[str]:
    """The command lines of README's "Command-line usage" block, comments cut."""
    block = readme_block("## Command-line usage")
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line for line in lines if line]


def test_readme_command_lines_exit_0(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    graph = run_cli(capsys, "family", "loops", "--q", "3", "--N", "2").out
    (tmp_path / "graph.json").write_text(graph)
    lines = readme_command_lines()
    assert len(lines) >= 8
    for line in lines:
        stdout = ""
        for stage in line.split("|"):
            program, *argv = shlex.split(stage)
            assert program == "cuspzeta", line
            monkeypatch.setattr("sys.stdin", io.StringIO(stdout))
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == 0, (line, captured.err)
            stdout = captured.out


def test_readme_library_usage_runs(capsys):
    # a name pruned from the package must not leave this block stale
    code = readme_block("## Library usage").removeprefix("python\n")
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4

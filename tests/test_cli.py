"""Tests for the command-line interface: formats, determinism, exit codes."""

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspzeta import cli, oracle, spectra
from cuspzeta.exact import Poly
from cuspzeta.families import loop_family, pgl2
from cuspzeta.graphs import CuspidalGraph
from cuspzeta.zeta import MAX_SERIES_ORDER, CountingSeries, bass_ihara_zeta


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


# --- zeta --------------------------------------------------------------------


def test_zeta_round_trip_matches_library(capsys, tmp_path):
    graph = pgl2(2)
    path = write_graph(tmp_path, graph)
    out = run_cli(capsys, "zeta", path).out
    data = json.loads(out)
    assert data == bass_ihara_zeta(graph).to_json()
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
    expected = bass_ihara_zeta(pgl2(3)).selberg_expanded()
    assert data["selberg"] == expected.to_json()


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
        pytest.param(_graph_with(cusps=None), id="cusps-null"),
        pytest.param(_graph_with(cusps=[{"vertex": "a", "alpha": 1, "ray_q": 1}]), id="ray-q-1"),
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


@given(data=_graph_json() | _json)
@settings(max_examples=150, deadline=None)
def test_zeta_random_json_keeps_exit_code_contract(data):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(data))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["zeta", "-", "--series", "4"])
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:")


# --- count -------------------------------------------------------------------


def test_count_with_oracle(capsys, tmp_path):
    path = write_graph(tmp_path, pgl2(2))
    out = run_cli(capsys, "count", path, "--m", "6", "--oracle").out
    data = json.loads(out)
    assert data["N"] == [0, 4, 0, 24, 0, 112]
    assert data["oracle_N"] == data["N"]
    assert data["match"] is True


# --- poles -------------------------------------------------------------------


def test_poles_star_clusters(capsys, tmp_path):
    from cuspzeta.families import star

    path = write_graph(tmp_path, star(3, (2, 2)))
    out = run_cli(capsys, "poles", path).out
    data = json.loads(out)
    assert data["moduli"] == pytest.approx([1 / 3, 1.0], abs=1e-9)
    assert data["R"] == pytest.approx(1 / 3, abs=1e-9)
    assert all(len(p["value"]) == 2 for p in data["poles"])


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
    den = bass_ihara_zeta(CuspidalGraph.from_json(DENSE_SEED_203)).bass_ihara.den
    assert den.degree == 62
    assert sum(p["multiplicity"] for p in data["poles"]) == den.degree
    for root in (1, -1):
        exact_mult, rest = 0, den
        while True:
            quotient, rem = divmod(rest, Poly([-root, 1]))
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
    assert len(lines) == 5
    seconds = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(a > b for a, b in zip(seconds, seconds[1:]))
    assert all(line.split(",")[3] == "false" for line in lines[1:])


@pytest.mark.parametrize("argv", [["--q", "1", "--N", "1..2"], ["--q", "3", "--N", "0..2"],
                                  ["--q", "3", "--N", "3..1"]])
def test_sweep_invalid_parameters_exit_2(capsys, argv):
    assert cli.main(["sweep", "loops", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("n_range", [f"1..{cli.MAX_LOOP_N + 1}", "1..100000",
                                     str(cli.MAX_LOOP_N + 1)])
def test_sweep_past_the_budget_exits_1_before_any_graph(capsys, monkeypatch, n_range):
    monkeypatch.setattr(spectra, "loop_family", no_graph)
    assert cli.main(["sweep", "loops", "--q", "3", "--N", n_range]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("FAIL budget: loop family N")


def test_sweep_at_the_budget_passes_the_check(capsys, monkeypatch):
    # pole_gap_sweep is replaced, so only the budget check sees N = MAX_LOOP_N
    monkeypatch.setattr(cli, "pole_gap_sweep", lambda q, ns: [])
    out = run_cli(capsys, "sweep", "loops", "--q", "3", "--N", f"1..{cli.MAX_LOOP_N}").out
    assert out == "N,R,second_modulus,ramanujan\n"


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
    assert "relabeling_invariance" in names
    assert "fixture:pgl2(2)" in names
    assert "PASS counting_vs_trace" in captured.err
    assert report["elapsed_s"] >= 0


def test_verify_reports_first_failing_m(capsys, tmp_path, monkeypatch):
    # negative control: corrupt one counting value and expect the mismatch
    # to be flagged with the first failing index
    real = cli.counting_series

    def corrupted(result, order):
        series = real(result, order)
        values = list(series.n_values)
        values[1] += 1
        return CountingSeries(tuple(values), series.r_values)

    monkeypatch.setattr(cli, "counting_series", corrupted)
    path = write_graph(tmp_path, pgl2(2))
    assert cli.main(["verify", str(path), "--max-m", "6"]) == 1
    report = json.loads(capsys.readouterr().out)
    failing = next(c for c in report["checks"] if c["name"] == "counting_vs_trace")
    assert failing["pass"] is False
    assert failing["first_failing_m"] == 2
    assert report["ok"] is False


def test_verify_max_m_bounds(capsys, tmp_path):
    path = write_graph(tmp_path, pgl2(2))
    assert cli.main(["verify", path, "--max-m", "15"]) == 2
    capsys.readouterr()


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


# --- README ------------------------------------------------------------------


def readme_command_lines() -> list[str]:
    """The command lines of README's "Command-line usage" block, comments cut."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line usage", 1)[1].split("```", 2)[1]
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

import csv
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetagraph
from zetagraph import blas, cli, cycles, fixtures, routes
from zetagraph.cli import main
from zetagraph.errors import RefusalError
from zetagraph.graph import graph_stats, make_graph, parse_graph, serialize_graph
from zetagraph.routes import RouteResult
from zetagraph.series import CONTRACT, Series, coeffs_agree
from zetagraph.twist import local_system_block, make_local_system, trivial_system


@pytest.fixture
def gfile(tmp_path):
    def write(name, text=None):
        path = tmp_path / f"{name}.json"
        if text is None:
            text = serialize_graph(fixtures.catalogue()[name]) + "\n"
        path.write_text(text)
        return str(path)

    return write


@pytest.fixture(autouse=True)
def blas_threads():
    """main sets the BLAS thread count of the process; every test here
    leaves it as it found it."""
    openblas = blas.threads()
    before = openblas and openblas[0]()
    yield openblas
    if openblas:
        openblas[1](before)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_coeffs_oracle_frozen(gfile, capsys):
    code, out, err = run(capsys, ["coeffs", gfile("wt3"), "--route", "oracle", "--order", "6"])
    assert code == 0 and err == ""
    assert out == [
        "n,re,im",
        "0,1.0,0.0",
        "1,0.0,0.0",
        "2,0.0,0.0",
        "3,-0.07050000000000001,0.0",
        "4,0.0,0.0",
        "5,0.0,0.0",
        "6,0.0005000000000000001,0.0",
    ]
    # negative zeros print as 0.0, in either part
    assert cli._series_lines(Series([1.0, complex(-0.0, -0.0), 0.25])) == [
        "n,re,im", "0,1.0,0.0", "1,0.0,0.0", "2,0.25,0.0"]


def test_coeffs_default_route_handles_flags(gfile, capsys):
    code, out, _ = run(capsys, ["coeffs", gfile("bt1"), "--order", "4"])
    assert code == 0
    assert out[1:] == ["0,1.0,0.0", "1,0.0,0.0", "2,-6.0,0.0", "3,0.0,0.0", "4,0.0,0.0"]


def test_coeffs_fredholm_on_one_vertex(gfile, capsys):
    """No edges: T has dimension 0 and the series is exactly 1."""
    text = serialize_graph(make_graph(["a"], [])) + "\n"
    code, out, err = run(capsys, ["coeffs", gfile("one", text), "--route", "fredholm",
                                  "--order", "12"])
    assert code == 0 and err == ""
    assert out == ["n,re,im", "0,1.0,0.0"] + [f"{n},0.0,0.0" for n in range(1, 13)]


def test_coeffs_variant_rules(gfile, capsys):
    path = gfile("edge")
    code, out, _ = run(capsys, ["coeffs", path, "--route", "bass",
                                "--variant", "as-printed", "--order", "6"])
    assert code == 0
    assert out[4] == "3,-12.0,0.0"
    assert out[7] == "6,-180.0,0.0"
    code, _, err = run(capsys, ["coeffs", path, "--route", "fredholm", "--variant", "corrected"])
    assert code == 1 and "takes no variant" in err
    code, _, err = run(capsys, ["coeffs", path, "--route", "oracle", "--variant", "W"])
    assert code == 1 and "takes no variant" in err


def test_check_agreement(gfile, capsys):
    code, out, err = run(capsys, ["check", gfile("k3")])
    assert code == 0 and err == ""
    assert out[0] == "routeA,routeB,max_dev,verdict"
    assert len(out) == 11  # oracle/fredholm/sunada/bass/classical pairwise
    assert all(line.endswith(",agree") for line in out[1:])


def test_check_one_sided_flag_modes(gfile, capsys):
    path = gfile("bt2")
    code, out, err = run(capsys, ["check", path, "--order", "6"])
    assert code == 0
    assert err == "note: asymmetric-backtrack-set\n"
    assert len(out) == 2 and out[1].startswith("fredholm,oracle,")
    code, out, err = run(capsys, ["check", path, "--order", "6", "--experimental"])
    assert code == 2
    assert "note: asymmetric-backtrack-set" in err
    assert "note: experimental:partial" in err
    assert "fredholm,partial,4.5,disagree" in out


def test_check_tolerance_defaults_to_the_coefficient_contract():
    """check --tol, cross_validate and coeffs_agree share one default, the
    contract that errors defines and the parser reads at load."""
    assert cli._build_parser().parse_args(["check", "g.json"]).tol == CONTRACT
    for fn in (coeffs_agree, routes.cross_validate):
        assert inspect.signature(fn).parameters["tol"].default is CONTRACT


def test_check_loose_tolerance_flips_verdict(gfile, capsys):
    code, out, _ = run(capsys, ["check", gfile("bt2"), "--order", "6",
                                "--experimental", "--tol", "10.0"])
    assert code == 0
    assert all(line.endswith(",agree") for line in out[1:])


def test_primes_frozen(gfile, capsys):
    code, out, _ = run(capsys, ["primes", gfile("bt1"), "--max-len", "4"])
    assert code == 0
    assert out == [
        "length,weight,primitive_length,is_prime,edge_sequence",
        "2,6.0,2,true,a>b|b>a",
        "4,36.0,2,false,a>b|b>a|a>b|b>a",
    ]


def test_poles_output(gfile, capsys):
    code, out, _ = run(capsys, ["poles", gfile("bt1")])
    assert code == 0
    assert out[0] == "re,im,multiplicity"
    values = sorted(float(line.split(",")[0]) for line in out[1:])
    assert values == pytest.approx([-0.4082482904638631, 0.4082482904638631])
    assert all(line.split(",")[1:] == ["0.0", "1"] for line in out[1:])
    code, out, _ = run(capsys, ["poles", gfile("edge")])
    assert out == ["re,im,multiplicity"]


def sign_system_file(tmp_path):
    g = fixtures.triangle()
    doc = json.loads(serialize_graph(g))
    system = make_local_system(g, 1, {("x", "y"): [[-1.0]]})
    doc["local_system"] = local_system_block(system, g)
    path = tmp_path / "k3sign.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_lfun_sign_twist(tmp_path, capsys, monkeypatch):
    path = sign_system_file(tmp_path)
    loads = []
    monkeypatch.setattr(json, "loads", lambda s, load=json.loads: loads.append(s) or load(s))
    for route in ("determinant", "oracle"):
        loads.clear()
        code, out, _ = run(capsys, ["lfun", path, "--order", "6", "--route", route])
        # the graph and its local system come from one json.loads of the file
        assert len(loads) <= 1
        assert code == 0
        assert out[4] == "3,2.0,0.0"
        assert out[7] == "6,1.0,0.0"


def test_lfun_requires_system_block(gfile, capsys):
    code, _, err = run(capsys, ["lfun", gfile("k3")])
    assert code == 1
    assert err == "error: graph file has no local_system block\n"


def test_family_materialize(tmp_path, capsys):
    out_path = tmp_path / "chain.json"
    code, _, err = run(capsys, ["family", "--name", "triangle-chain", "--r", "0.5",
                                "--epsilon", "1.0", "--out", str(out_path)])
    assert code == 0
    assert f"wrote {out_path}: 13 vertices, tail weight 1.0, blocks 0..3" in err
    g = parse_graph(out_path.read_text())
    assert len(g.vertices) == 13 and len(g.edges) == 16


def test_family_epsilon_reports_blocks_for_every_family(tmp_path, capsys):
    out_path = tmp_path / "ladder.json"
    code, _, err = run(capsys, ["family", "--name", "ladder", "--r", "0.5",
                                "--epsilon", "1.0", "--out", str(out_path)])
    assert code == 0
    assert err == f"wrote {out_path}: 10 vertices, tail weight 0.75, blocks 0..3\n"
    assert len(parse_graph(out_path.read_text()).vertices) == 10


def test_family_block_materialize(tmp_path, capsys):
    out_path = tmp_path / "ladder.json"
    code, _, err = run(capsys, ["family", "--name", "ladder", "--r", "0.5",
                                "--blocks", "2", "--out", str(out_path)])
    assert code == 0
    assert "tail weight 1.5" in err
    assert len(parse_graph(out_path.read_text()).vertices) == 8


def test_family_study_csv(capsys):
    code, out, _ = run(capsys, ["family", "--name", "triangle-chain", "--r", "0.5",
                                "--study", "1", "--order", "3"])
    assert code == 0
    assert out[0] == "k,n,delta"
    assert out[1] == "0,0,0.0"
    assert out[4] == "0,3,0.25"


def test_family_argument_errors(tmp_path, capsys):
    code, _, err = run(capsys, ["family", "--name", "triangle-chain", "--r", "0.5"])
    assert code == 1 and "needs --out FILE, --study KMAX" in err
    code, _, err = run(capsys, ["family", "--name", "triangle-chain", "--r", "1.5",
                                "--study", "1"])
    assert code == 1 and "decay parameter" in err
    code, _, err = run(capsys, ["family", "--name", "moebius", "--r", "0.5", "--study", "1"])
    assert code == 1 and "unknown family" in err
    code, _, err = run(capsys, ["family", "--name", "triangle-chain", "--r", "0.5",
                                "--epsilon", "1e-30", "--out", str(tmp_path / "x.json")])
    assert code == 4 and err.startswith("resource cap:")
    target = tmp_path / "nan.json"
    code, _, err = run(capsys, ["family", "--name", "triangle-chain", "--r", "0.5",
                                "--epsilon", "nan", "--out", str(target)])
    assert code == 1 and "epsilon must be positive" in err and not target.exists()
    code, out, err = run(capsys, ["family", "--name", "triangle-chain", "--r", "0.5",
                                  "--study", "-1"])
    assert code == 1 and "K_max must be >= 0" in err and not out
    # a rejected study leaves no --out file behind
    target = tmp_path / "both.json"
    code, out, err = run(capsys, ["family", "--name", "triangle-chain", "--r", "0.5",
                                  "--epsilon", "1.0", "--out", str(target), "--study", "-1"])
    assert code == 1 and "K_max must be >= 0" in err and not out and not target.exists()


def test_stats_frozen(gfile, capsys):
    code, out, _ = run(capsys, ["stats", gfile("wt3")])
    assert code == 0
    assert out == [
        "key,value",
        "vertex_count,3",
        "unoriented_edge_count,3",
        "oriented_edge_count,6",
        "euler_number,0",
        "total_weight,1.95",
        "valency_bound,2",
        "girth_lower_bound,3",
        "backtrack_flag_count,0",
        "backtrack_symmetric,empty",
        "roundtrip_weight[x-y],0.05",
        "roundtrip_weight[x-z],0.1",
        "roundtrip_weight[y-z],0.1",
    ]


def test_names_that_need_quotes_are_quoted_fields(gfile, capsys):
    """A vertex name holding a comma or a double quote puts the name fields
    of primes and stats in RFC 4180 quotes: csv.reader reads every row back
    with the header's field count and the names as they were.  A graph
    whose names need none prints no quote."""
    g = make_graph(['a,b', 'q"r', 'd>e'], [('a,b', 'q"r', 0.5, 0.25), ('q"r', 'd>e', 0.5, 0.5),
                                           ('d>e', 'a,b', 0.3, 0.5)])
    path = gfile("quoted", serialize_graph(g) + "\n")
    for argv, names in ((["primes", path, "--max-len", "6"],
                         [cycles.edge_sequence_label(rec.edges)
                          for rec in cycles.prime_cycles(g, 6)]),
                        (["stats", path],
                         [f"roundtrip_weight[{u}-{v}]" for u, v in
                          sorted(sorted(pair) for pair in graph_stats(g).W_per_edge)])):
        assert main(argv) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert {len(row) for row in rows} == {len(rows[0])}
        fields = [row[-1] if argv[0] == "primes" else row[0] for row in rows]
        assert fields[len(fields) - len(names):] == names
    plain = make_graph(["d>e", "x", "y"], [("d>e", "x", 0.5, 0.5), ("x", "y", 0.5, 0.5),
                                           ("y", "d>e", 0.5, 0.5)])
    path = gfile("plain", serialize_graph(plain) + "\n")
    for argv in (["primes", path, "--max-len", "6"], ["stats", path]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "d>e" in out and '"' not in out


def test_stats_flag_symmetry_column(gfile, capsys):
    _, out, _ = run(capsys, ["stats", gfile("bt1")])
    assert "backtrack_symmetric,true" in out
    _, out, _ = run(capsys, ["stats", gfile("bt2")])
    assert "backtrack_symmetric,false" in out


def test_exit_3_io_and_parse(tmp_path, capsys):
    code, _, err = run(capsys, ["stats", str(tmp_path / "absent.json")])
    assert code == 3 and err.startswith("i/o error:")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["stats", str(bad)])
    assert code == 3 and err.startswith("parse error:")
    arrays = tmp_path / "arrays.json"
    arrays.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b", 1.0]]}))
    code, _, err = run(capsys, ["stats", str(arrays)])
    assert code == 3 and err.startswith("parse error:")
    # a local system whose transfers are not a list
    twisted = json.loads(serialize_graph(fixtures.catalogue()["k3"]))
    twisted["local_system"] = {"dim": 1, "transfers": 5}
    system = tmp_path / "system.json"
    system.write_text(json.dumps(twisted))
    code, out, err = run(capsys, ["lfun", str(system), "--order", "4"])
    assert code == 3 and out == [] and err.startswith("parse error:")
    # a file that is not UTF-8 fails to parse; it is not a validation failure
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps({"vertices": ["é"], "edges": []}, ensure_ascii=False)
                       .encode("latin-1"))
    code, out, err = run(capsys, ["stats", str(latin1)])
    assert code == 3 and out == [] and err.startswith("parse error: not UTF-8 text:")


def test_graph_files_are_read_as_utf8_in_any_locale(tmp_path):
    """JSON is UTF-8 (RFC 8259): a vertex named with a non-ASCII letter
    reads the same under the C locale, with neither UTF-8 mode nor locale
    coercion, as under UTF-8 mode."""
    g = make_graph(["é", "b", "c"], [("é", "b", 0.5, 0.5), ("b", "c", 0.5, 0.5),
                                      ("c", "é", 0.5, 0.5)])
    path = tmp_path / "accent.json"
    path.write_bytes(json.dumps(json.loads(serialize_graph(g)), ensure_ascii=False).encode())
    assert "é".encode() in path.read_bytes()
    env = {**os.environ, "PYTHONPATH": str(Path(zetagraph.__file__).parents[1])}
    runs = [subprocess.run([sys.executable, "-m", "zetagraph", "coeffs", str(path), "--order", "6"],
                           env={**env, **locale}, capture_output=True, timeout=60)
            for locale in ({"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
                           {"PYTHONUTF8": "1"})]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout and b"3,-0.25,0.0" in runs[0].stdout


@pytest.mark.parametrize("argv", (["stats"], ["primes", "--max-len", "3"]))
def test_stdout_is_written_as_utf8_in_any_locale(tmp_path, argv):
    """stats and primes print vertex names: a non-ASCII one is written as
    UTF-8 under the C locale, with neither UTF-8 mode nor locale coercion,
    byte for byte as under UTF-8 mode."""
    g = make_graph(["é", "b", "c"], [("é", "b", 0.5, 0.5), ("b", "c", 0.5, 0.5),
                                      ("c", "é", 0.5, 0.5)])
    path = tmp_path / "accent.json"
    path.write_text(serialize_graph(g) + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(zetagraph.__file__).parents[1])}
    runs = [subprocess.run([sys.executable, "-m", "zetagraph", argv[0], str(path), *argv[1:]],
                           env={**env, **locale}, capture_output=True, timeout=60)
            for locale in ({"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
                           {"PYTHONUTF8": "1"})]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout and "é".encode() in runs[0].stdout


def test_exit_1_validation_and_limits(tmp_path, gfile, capsys):
    neg = tmp_path / "neg.json"
    neg.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "wuv": -1.0}],
    }))
    code, _, err = run(capsys, ["stats", str(neg)])
    assert code == 1
    assert "invalid graph [nonpositive-weight]" in err
    code, _, err = run(capsys, ["coeffs", gfile("k3"), "--order", "99"])
    assert code == 1 and "order must be in [1, 64]" in err
    # a tolerance that is not a finite number >= 0 is a usage error, not a
    # route disagreement (nan, -1) or a vacuous pass (inf)
    for tol in ("nan", "-1", "inf"):
        code, _, err = run(capsys, ["check", gfile("k3"), "--tol", tol])
        assert code == 1 and "tol must be a finite number >= 0" in err, tol
    code, _, _ = run(capsys, ["check", gfile("k3"), "--tol", "0"])
    assert code == 0
    # a length bound below 1 is a usage error, like an order below 1
    for max_len in ("0", "-3"):
        code, out, err = run(capsys, ["primes", gfile("k3"), "--max-len", max_len])
        assert code == 1 and out == [] and "max-len must be >= 1" in err, max_len


def test_exit_4_oracle_length_cap(gfile, capsys):
    path = gfile("k3")
    code, _, err = run(capsys, ["coeffs", path, "--route", "oracle", "--order", "25"])
    assert code == 4 and err.startswith("resource cap:")
    code, _, err = run(capsys, ["primes", path, "--max-len", "21"])
    assert code == 4 and err.startswith("resource cap:")
    # one cap of 20 for every command that enumerates cycles
    for argv in (["check", path, "--order", "16"],
                 ["coeffs", path, "--route", "oracle", "--order", "16"],
                 ["primes", path, "--max-len", "16"]):
        code, out, err = run(capsys, argv)
        assert code == 0 and out, (argv, err)


def test_exit_4_oracle_class_budget(tmp_path, capsys, monkeypatch):
    """K7 has 26.0 million cycle classes up to length 12: check and primes
    are refused at the class budget within the length cap, in children whose
    timeout fails the test rather than hanging it.  coeffs and lfun on the
    oracle route are refused by the same budget, here lowered below k3's
    four classes up to length 8."""
    v = [f"v{i}" for i in range(7)]
    k7 = make_graph(v, [(a, b, 1.5, 1.5) for i, a in enumerate(v) for b in v[i + 1:]])
    path = tmp_path / "k7.json"
    path.write_text(serialize_graph(k7) + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(zetagraph.__file__).parents[1])}
    for argv in (["check", path, "--order", "12"], ["primes", path, "--max-len", "12"]):
        r = subprocess.run([sys.executable, "-m", "zetagraph", *map(str, argv)], env=env,
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 4 and r.stdout == "", argv
        assert r.stderr.startswith("resource cap: more than"), (argv, r.stderr)
    k3 = fixtures.catalogue()["k3"]
    path = tmp_path / "k3.json"
    path.write_text(serialize_graph(k3, local_system_block(trivial_system(k3), k3)) + "\n")
    monkeypatch.setattr(cycles, "CLASS_BUDGET", 3)
    for command in ("coeffs", "lfun"):
        code, out, err = run(capsys, [command, str(path), "--route", "oracle", "--order", "8"])
        assert code == 4 and out == [] and err.startswith("resource cap: more than 3 "), command


def test_thread_cap_env(gfile, capsys, monkeypatch):
    path = gfile("k3")
    monkeypatch.setenv("ZETAGRAPH_THREADS", "abc")
    code, _, err = run(capsys, ["stats", path])
    assert code == 1 and "ZETAGRAPH_THREADS" in err
    monkeypatch.setenv("ZETAGRAPH_THREADS", "-2")
    code, _, err = run(capsys, ["stats", path])
    assert code == 1 and "ZETAGRAPH_THREADS" in err
    monkeypatch.setenv("ZETAGRAPH_THREADS", "4")
    code, _, _ = run(capsys, ["stats", path])
    assert code == 0


def test_thread_cap_sets_the_blas_threads(gfile, capsys, monkeypatch, blas_threads):
    """A command that builds arrays applies ZETAGRAPH_THREADS; stats, which
    runs no BLAS, leaves the count alone; every command rejects a bad value."""
    if blas_threads is None:
        pytest.skip("numpy bundles no OpenBLAS here; ZETAGRAPH_THREADS leaves BLAS alone")
    get, put = blas_threads
    path = gfile("k3")
    coeffs = ["coeffs", path, "--order", "2"]
    for env, before, after in ((None, 2, 1), ("2", 1, 2), ("1", 2, 1), ("0", 2, 2), ("0", 1, 1)):
        if env is None:
            monkeypatch.delenv("ZETAGRAPH_THREADS", raising=False)
        else:
            monkeypatch.setenv("ZETAGRAPH_THREADS", env)
        put(before)
        assert run(capsys, coeffs)[0] == 0
        assert get() == after, env
    monkeypatch.delenv("ZETAGRAPH_THREADS", raising=False)
    put(2)
    assert run(capsys, ["stats", path])[0] == 0 and get() == 2
    for env in ("abc", "-2"):
        monkeypatch.setenv("ZETAGRAPH_THREADS", env)
        for argv in (coeffs, ["stats", path]):
            put(2)
            code, _, err = run(capsys, argv)
            assert code == 1 and "ZETAGRAPH_THREADS" in err and get() == 2


def _refuse(g, M, *args):
    raise RefusalError("refused by the test")


def test_check_notes_a_refused_route_and_compares_the_rest(gfile, capsys, monkeypatch):
    path = gfile("k3")
    monkeypatch.setitem(routes.ROUTE_BUILDERS, "sunada", _refuse)
    code, out, err = run(capsys, ["check", path])
    assert code == 0
    assert err == "note: sunada refused: refused by the test\n"
    assert out[0] == "routeA,routeB,max_dev,verdict"
    assert len(out) == 7  # oracle/fredholm/bass/classical pairwise
    assert all(line.endswith(",agree") and "sunada" not in line for line in out[1:])
    for name in routes.ROUTE_BUILDERS:
        monkeypatch.setitem(routes.ROUTE_BUILDERS, name, _refuse)
    code, out, err = run(capsys, ["check", path])
    assert code == 1 and out == []
    assert [line.split(":")[1] for line in err.splitlines()[:-1]] == [
        " fredholm refused", " sunada refused", " bass refused", " classical refused"]
    assert err.splitlines()[-1] == "error: fewer than two series left to compare"


def test_check_fails_on_a_broken_route_rather_than_noting_it(gfile, capsys, monkeypatch):
    """Only a determinant check's refusal is noted; a route whose series
    does not start at 1, or that divides by zero, fails check."""
    path = gfile("k3")

    def shifted(g, M, *args):
        return RouteResult("sunada", Series([2.0]), {})

    def divides(g, M, *args):
        return 1 / 0

    for broken, message in ((shifted, "error: route sunada: constant coefficient is not 1\n"),
                            (divides, "error: division by zero\n")):
        monkeypatch.setitem(routes.ROUTE_BUILDERS, "sunada", broken)
        code, out, err = run(capsys, ["check", path])
        assert (code, out, err) == (1, [], message)


@pytest.mark.parametrize("weight", [1.25, 2.5])
def test_check_on_heavy_k4_notes_the_bass_refusal(gfile, capsys, weight):
    """At weight 2.5 Newton's recursion cancels at u^11 on the vertex series
    and on the bass companion, and check notes both refusals; at 1.25 the
    power sums stop at the degree 12 and nothing is refused.  The oracle and
    fredholm are exact at both weights, and every series left agrees."""
    v = "pqrs"
    k4 = make_graph(v, [(a, b, weight, weight) for i, a in enumerate(v) for b in v[i + 1:]])
    code, out, err = run(capsys, ["check", gfile("k4h", serialize_graph(k4)), "--order", "18"])
    assert code == 0
    refused = ["sunada", "bass"] if weight == 2.5 else []
    assert [line.split(" refused: ")[0] for line in err.splitlines()] == [
        f"note: {name}" for name in refused]
    assert all("Newton's recursion cannot certify u^11" in line for line in err.splitlines())
    names = sorted({"oracle", "fredholm", "sunada", "bass"} - set(refused))
    assert [line.rsplit(",", 2)[0] for line in out[1:]] == [
        f"{a},{b}" for i, a in enumerate(names) for b in names[i + 1:]]
    assert all(line.endswith(",agree") for line in out[1:])


def test_usage_errors_exit_1(capsys):
    assert run(capsys, ["frobnicate"])[0] == 1
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["check"])[0] == 1
    assert run(capsys, ["coeffs", "x.json", "--route", "imaginary"])[0] == 1


def test_reruns_are_byte_identical(gfile, capsys):
    """The parser is built once per process: a usage error, another command
    and a refusal in between leave no trace on the next run."""
    path = gfile("k4")
    first = run(capsys, ["check", path, "--order", "8"])
    assert run(capsys, ["check"])[0] == 1
    assert run(capsys, ["primes", path, "--max-len", "4"])[0] == 0
    assert run(capsys, ["primes", path, "--max-len", "21"])[0] == 4
    second = run(capsys, ["check", path, "--order", "8"])
    assert first == second
    assert first[0] == 0

"""Command-line surface: flags, formats, exit codes, determinism."""

import json
import resource
import subprocess
import sys
import time

import pytest

from freecurve import cli, syzygy
from freecurve.arrangements import MAX_INTERVAL_DEGREE
from freecurve.cli import main
from freecurve.data import data_dir, shipped_corpus_dir
from freecurve.parser import MAX_LITERAL_DIGITS


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "freecurve", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_analyze_json_cusp(capsys):
    code = main(["analyze", "--poly", "x^3-y^2*z", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["tau"] == 2
    assert report["mdr"] == 1
    assert report["classification"]["verdict"] == "NearlyFree"
    assert report["classification"]["exponents"] == [1, 2]
    assert report["ct"] == 2 and report["st"] == 3
    assert report["tables"]["m"]["values"][:5] == [1, 3, 3, 2, 2]


def test_analyze_smooth_reports_infinite_ct(capsys):
    code = main(["analyze", "--poly", "x^3+y^3+z^3", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["tau"] == 0
    assert report["ct"] == "infinity"
    assert report["classification"]["verdict"] == "Smooth"


def test_analyze_nonreduced_is_not_an_error(capsys):
    code = main(["analyze", "--poly", "x^2*y", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["reducedness"] == "NonReduced"
    assert report["classification"] is None
    assert "tau" not in report


def test_analyze_parse_error_exit_code(capsys):
    assert main(["analyze", "--poly", "x^2 + y"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_analyze_text_and_json_agree(capsys):
    main(["analyze", "--poly", "x*y*z"])
    text = capsys.readouterr().out
    main(["analyze", "--poly", "x*y*z", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert f"tjurina tau   : {report['tau']}" in text
    assert "Free(1, 1)" in text


def test_analyze_rational_mode(capsys):
    code = main(["analyze", "--poly", "x*y*z", "--json", "--field", "qq"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["field"] == {"mode": "qq", "primes": None, "fallbacks": 0}


def test_analyze_rational_mode_degree_12_matches_auto(capsys):
    # the certified rational profile keeps qq fast at degree 12
    args = ["analyze", "--poly", "x*y*z*(x^9-y^9)", "--json"]
    assert main(args + ["--field", "qq"]) == 0
    over_q = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    auto = json.loads(capsys.readouterr().out)
    assert over_q.pop("field") == {"mode": "qq", "primes": None, "fallbacks": 0}
    auto.pop("field")
    assert over_q == auto
    assert over_q["classification"]["verdict"] == "Free"
    assert over_q["classification"]["exponents"] == [1, 10]


def test_analyze_table_cap(capsys):
    main(["analyze", "--poly", "x*y*z", "--json", "--max-degree-table", "3"])
    report = json.loads(capsys.readouterr().out)
    assert len(report["tables"]["ar"]["values"]) == 4


@pytest.mark.parametrize(
    "expr,table",
    [("x^3-y^2*z", "-1"), ("x^3-y^2*z", "1000"), ("x^60+y^60+z^60", None), ("2", None)],
)
def test_analyze_refuses_before_building_a_matrix(monkeypatch, capsys, expr, table):
    def refuse(*args):
        raise AssertionError("a matrix was built")

    # every multiplication matrix is laid out by the array core
    for builder in ("jacobian_matrix", "multiples", "_multiples_array"):
        monkeypatch.setattr(syzygy, builder, refuse)
    args = ["analyze", "--poly", expr, "--json"]
    if table is not None:
        args += ["--max-degree-table", table]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


def test_analyze_from_file(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_text("# cusp\nx^3 - y^2*z\n")
    code = main(["analyze", "--file", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["tau"] == 2


@pytest.mark.parametrize(
    "expr",
    ["(" * 3000 + "x" + ")" * 3000, "(x+y+z)^100", "(x+y+z)^200", "9" * 5000 + "*x^3+y^3+z^3", "3^10000000*x^3+y^3+z^3"],
)
def test_analyze_refuses_what_the_parser_cannot_finish(capsys, expr):
    start = time.perf_counter()
    assert main(["analyze", "--poly", expr]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("error:")


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("x*y*z # caf\xe9\n".encode("latin-1"))
    return path


@pytest.mark.parametrize("flag", ["analyze --file", "terao --lines", "terao --lattice"])
def test_unreadable_input_files_exit_2(tmp_path, capsys, flag):
    for path in (tmp_path, _not_utf8(tmp_path), tmp_path / "missing"):
        assert main([*flag.split(), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and str(path) in err


def test_corpus_records_unreadable_entries_as_failures(tmp_path, capsys):
    (tmp_path / "good.curve").write_text("# expect_tau: 3\nx*y*z\n")
    (tmp_path / "dir.curve").mkdir()
    (tmp_path / "latin1.curve").write_bytes("# caf\xe9\nx*y*z\n".encode("latin-1"))
    code = main(["corpus", str(tmp_path), "--json"])
    cases = {case["name"]: case for case in json.loads(capsys.readouterr().out)["cases"]}
    assert code == 1
    assert cases["good.curve"]["passed"]
    for name in ("dir.curve", "latin1.curve"):
        assert not cases[name]["passed"] and cases[name]["failures"][0].startswith("cannot read")


@pytest.mark.parametrize("line", ["expect_tau: abc", "expect_mdr: 1.5", "expect_exponents: 1,x"])
def test_corpus_records_malformed_expectations_as_failures(tmp_path, capsys, line):
    (tmp_path / "a_bad.curve").write_text(f"# {line}\nx*y*z\n")
    (tmp_path / "b_good.curve").write_text("# expect_tau: 3\nx*y*z\n")
    code = main(["corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  a_bad.curve" in out and line.split(":")[0] in out
    assert "PASS  b_good.curve" in out


def test_intervals_refuses_degrees_above_the_bound(capsys):
    assert main(["intervals", "--degree", "100000000"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["intervals", "--degree", str(MAX_INTERVAL_DEGREE), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == MAX_INTERVAL_DEGREE // 2


def test_terao_at_a_huge_degree_is_immediate(capsys):
    start = time.perf_counter()
    assert main(["terao", "--degree", "100000000", "--tau", "5", "--json"]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["status"] == "NoSolution"


def test_intervals_json(capsys):
    code = main(["intervals", "--degree", "12", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    rows = {row["r"]: (row["tau_min"], row["tau_max"]) for row in payload["rows"]}
    assert rows[1] == (110, 111) and rows[4] == (77, 93)


def test_terao_direct_and_files(capsys):
    assert main(["terao", "--degree", "12", "--tau", "93", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "NotCovered" and payload["r"] == 4

    lattice = data_dir() / "wheel12.lattice"
    assert main(["terao", "--lattice", str(lattice), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tau"] == 111 and payload["status"] == "Rigid" and payload["r"] == 1

    lines = data_dir() / "braid6.lines"
    assert main(["terao", "--lines", str(lines), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tau"] == 19
    assert payload["algebraic_tau"] == 19
    assert payload["agreement"] is True


def test_terao_requires_degree_with_tau(capsys):
    assert main(["terao", "--tau", "93"]) == 2


def test_terao_malformed_lattice(tmp_path, capsys):
    bad = tmp_path / "bad.lattice"
    for text in ("degree 12\n11 1\n2 10\n", "degree 3\n--2 3\n", "degree \u00b3\n2 3\n"):
        bad.write_text(text)
        assert main(["terao", "--lattice", str(bad)]) == 2, text


@pytest.mark.parametrize(
    "text, zeros, message",
    [
        ("degree 12\n11 1\n2 1{}\n", MAX_LITERAL_DIGITS, f"longer than {MAX_LITERAL_DIGITS} digits"),
        ("degree 1{}\n2 1\n", MAX_LITERAL_DIGITS, f"longer than {MAX_LITERAL_DIGITS // 2} digits"),
        # binom(d, 2) of the longest degree admitted still prints; a longer
        # multiplicity or pair count than the lines allow is not printed
        ("degree 1{}\n2 1\n", MAX_LITERAL_DIGITS // 2 - 1, "line pairs but"),
        ("degree 3\n1{}1 1\n", MAX_LITERAL_DIGITS - 2, "above the 3 lines"),
        ("degree 3\n3 1{}\n", MAX_LITERAL_DIGITS - 1, "more than the 3 pairs"),
    ],
    ids=["count", "degree", "longest-degree", "multiplicity", "pair-count"],
)
def test_terao_refuses_overlong_lattice_integers(tmp_path, capsys, text, zeros, message):
    path = tmp_path / "long.lattice"
    path.write_text(text.format("0" * zeros))
    assert main(["terao", "--lattice", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_terao_prints_the_tau_of_the_longest_lattice_degree(tmp_path, capsys):
    # every line through one point: tau = (d-1)^2 has 4300 digits, the
    # most an int may print
    degree = "9" * (MAX_LITERAL_DIGITS // 2)
    path = tmp_path / "pencil.lattice"
    path.write_text(f"degree {degree}\n{degree} 1\n")
    assert main(["terao", "--lattice", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tau"] == (int(degree) - 1) ** 2


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


def test_terao_lattice_with_a_huge_count_stays_small(tmp_path):
    # 2 * 10^8 double points of 20000 lines: one count, not one entry per point
    path = tmp_path / "big.lattice"
    path.write_text("degree 20000\n2 199990000\n")
    proc = subprocess.run(
        [sys.executable, "-m", "freecurve", "terao", "--lattice", str(path), "--json"],
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["multiplicities"] == {"2": 199990000} and payload["tau"] == 199990000


@pytest.mark.parametrize("count", [syzygy.MAX_CURVE_DEGREE, syzygy.MAX_CURVE_DEGREE + 1])
def test_terao_refuses_too_many_lines_before_building_anything(tmp_path, monkeypatch, capsys, count):
    # a degree-33 profile fits only below the default table degree 2d
    def refuse(*args):
        raise AssertionError("the lattice or the product was built")

    monkeypatch.setattr(cli, "intersection_lattice", refuse)
    monkeypatch.setattr(cli, "arrangement_poly", refuse)
    path = tmp_path / "many.lines"
    path.write_text("".join(f"1 {i} {i * i}\n" for i in range(count)))
    assert main(["terao", "--lines", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_corpus_empty_directory_warns_and_passes(tmp_path, capsys):
    code = main(["corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning" in out and "0/0" in out


def test_corpus_detects_wrong_expectation(tmp_path, capsys):
    (tmp_path / "bad.curve").write_text("# expect_tau: 99\nx*y*z\n")
    code = main(["corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "bad.curve" in out and "99" in out


def test_corpus_missing_directory(capsys):
    assert main(["corpus", "/nonexistent/path"]) == 2


def test_shipped_corpus_exists():
    files = sorted(shipped_corpus_dir().glob("*.curve"))
    assert len(files) >= 12


def test_json_determinism_across_processes():
    args = ["analyze", "--poly", "x^3-y^2*z", "--json", "--seed", "7"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["field"]["seed"] == 7


def test_seed_changes_primes_but_not_results():
    a = run_cli(["analyze", "--poly", "x^3-y^2*z", "--json", "--seed", "1"])
    b = run_cli(["analyze", "--poly", "x^3-y^2*z", "--json", "--seed", "2"])
    ra, rb = json.loads(a.stdout), json.loads(b.stdout)
    assert ra["field"]["primes"] != rb["field"]["primes"]
    for key in ("tau", "mdr", "ct", "st", "tables", "classification"):
        assert ra[key] == rb[key]


def test_a_run_leaves_numpy_ma_unimported():
    # numpy.ma adds about 1 MB of resident memory to a run, which the
    # benchmark's peak_rss_mb reads; np.unique and np.setdiff1d import it,
    # a boolean mask read by np.flatnonzero does not
    script = "\n".join(
        [
            "import sys",
            "import freecurve",
            "from freecurve.corpus import run_corpus",
            "from freecurve.data import shipped_corpus_dir",
            "for mode in ('auto', 'pp', 'qq'):",
            "    for expr in ('x*y*z', 'x^3-y^2*z', 'x*y*z*(x+y+z)*(x+2*y+3*z)'):",
            "        freecurve.analyze(freecurve.parse_poly(expr), freecurve.FieldPlan.from_mode(mode, 0))",
            "assert all(case.passed for case in run_corpus(shipped_corpus_dir()))",
            "print('numpy.ma' in sys.modules)",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"

"""CLI behavior: outputs, formats, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys

import mpmath
import pytest

import dompoly.cli
from dompoly.cli import (
    EXIT_BUDGET,
    EXIT_DISAGREE,
    EXIT_FAIL,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    MAX_SAMPLES,
    _poly_methods,
    build_parser,
    main,
)
from dompoly.domination import BRUTE_FORCE_BUDGET_BITS, family_poly
from dompoly.graphs import FamilySpec, Graph, build_family, write_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poly_family_all_methods(capsys):
    code, out, _ = run(capsys, "poly", "--family", "friendship:2",
                       "--method", "all")
    assert code == EXIT_OK
    assert "x + 8x^2 + 10x^3 + 5x^4 + x^5" in out
    assert "verdict: AGREE" in out
    assert "closed:" in out and "brute:" in out


def test_poly_graph6(capsys):
    code, out, _ = run(capsys, "poly", "--graph6", "A_")
    assert code == EXIT_OK
    assert "2x + x^2" in out


def test_poly_book_closed(capsys):
    code, out, _ = run(capsys, "poly", "--family", "book:3")
    assert code == EXIT_OK
    assert "closed:" in out


def test_poly_json_and_csv(capsys):
    code, out, _ = run(capsys, "poly", "--family", "friendship:2",
                       "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload[0]["polynomials"]["closed"]["coefficients"] == "0,1,8,10,5,1"
    code, out, _ = run(capsys, "poly", "--family", "friendship:2",
                       "--format", "csv", "--method", "all")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["input", "method", "degree", "coefficients"]
    assert len(rows) == 5


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no integer string conversion limit")
def test_poly_prints_past_the_int_string_limit(capsys):
    """Coefficients of about 720 digits print under a 640-digit limit,
    which main() puts back when it returns."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run(capsys, "poly", "--family", "friendship:1200",
                           "--format", "csv")
        assert code == EXIT_OK
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    coeffs = out.splitlines()[1].split(",", 3)[3].strip('"').split(",")
    assert max(len(c) for c in coeffs) > 640
    assert coeffs == [str(c) for c in family_poly(FamilySpec("friendship", 1200)).coeffs]


def test_poly_bad_inputs(capsys):
    code, _, err = run(capsys, "poly", "--graph6", "A" + chr(20))
    assert code == EXIT_PARSE and "error" in err
    code, _, err = run(capsys, "poly", "--family", "nosuch:3")
    assert code == EXIT_PARSE
    code, _, err = run(capsys, "poly", "--family", "friendship:0")
    assert code == EXIT_PARSE


def test_poly_budget_exit(capsys):
    code, _, err = run(capsys, "poly", "--family", "friendship:20",
                       "--method", "brute")
    assert code == EXIT_BUDGET
    assert "budget" in err


def _path_graph6(n):
    return write_graph6(build_family(FamilySpec("path", n)))


@pytest.mark.parametrize("command", ["poly", "roots"])
@pytest.mark.parametrize("order", [30, 70])
def test_graph6_over_budget_exits_budget(capsys, command, order):
    """Graph6 input over the enumeration budget exits 3 at any order, the
    long-form header of orders above 62 included."""
    code, out, err = run(capsys, command, "--graph6", _path_graph6(order))
    assert code == EXIT_BUDGET
    assert "budget" in err and out == ""


def _refuse_over_budget_decodes(monkeypatch):
    """Make decoding a graph over the enumeration budget fail the test."""
    original = Graph._from_adj.__func__

    def small_only(cls, adj):
        assert len(adj) <= BRUTE_FORCE_BUDGET_BITS, "decoded an over-budget line"
        return original(cls, adj)

    monkeypatch.setattr(Graph, "_from_adj", classmethod(small_only))


@pytest.mark.parametrize("command", ["poly", "roots"])
def test_graph6_file_over_budget_rejected_before_decoding(tmp_path, capsys,
                                                          monkeypatch, command):
    """The vertex count in the header decides the budget: an over-budget
    line is never decoded, and a malformed line after it still exits 2."""
    _refuse_over_budget_decodes(monkeypatch)
    path = tmp_path / "big.g6"
    path.write_text(f"A_\n{_path_graph6(70)}\n")
    code, out, err = run(capsys, command, "--graph6-file", str(path))
    assert code == EXIT_BUDGET
    assert err == ("error: 70 vertices needs 2^70 subsets, over the 2^26 "
                   "budget; use family_poly instead\n")
    assert out == ""
    path.write_text(f"A_\n{_path_graph6(70)}\nA_x\n")
    code, _, err = run(capsys, command, "--graph6-file", str(path))
    assert code == EXIT_PARSE
    assert "trailing data" in err


def test_equiv_catalog_skips_over_budget(tmp_path, capsys, monkeypatch):
    """equiv skips an over-budget line by its header, without decoding it,
    and reports it as partition_catalog reports an over-budget graph."""
    _refuse_over_budget_decodes(monkeypatch)
    big = _path_graph6(70)
    path = tmp_path / "mixed.g6"
    path.write_text(f"{big}\nA_\n")
    code, out, _ = run(capsys, "equiv", "--catalog", str(path), "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["graph_count"] == 1
    assert payload["skipped"] == [[big, "70 vertices needs 2^70 subsets, over "
                                        "the 2^26 budget; use family_poly instead"]]


def test_equiv_text_lists_skipped_lines(tmp_path, capsys):
    big = _path_graph6(30)
    path = tmp_path / "mixed.g6"
    path.write_text(f"A_\n{big}\n")
    code, out, _ = run(capsys, "equiv", "--catalog", str(path))
    assert code == EXIT_OK
    assert out.endswith(f"skipped {big}: 30 vertices needs 2^30 subsets, over "
                        f"the 2^26 budget; use family_poly instead\n")


def test_poly_closed_unavailable_for_graph(tmp_path, capsys):
    code, _, err = run(capsys, "poly", "--graph6", "A_", "--method", "closed")
    assert code == EXIT_PARSE
    assert err == ("error: no closed form for an explicit graph; "
                   "use --method brute\n")
    # the method alone decides: the file's lines are never read
    path = tmp_path / "bad.g6"
    path.write_text("not graph6\n")
    assert run(capsys, "poly", "--graph6-file", str(path),
               "--method", "closed") == (EXIT_PARSE, "", err)


def test_poly_all_reports_disagreement(capsys, monkeypatch):
    wrong = family_poly(FamilySpec("path", 3))
    monkeypatch.setattr(dompoly.cli, "recurrence_poly_vertex", lambda g, u: wrong)
    code, out, _ = run(capsys, "poly", "--family", "friendship:2",
                       "--method", "all")
    assert code == EXIT_DISAGREE
    assert f"recurrence-vertex: {wrong}\n" in out
    assert out.endswith("verdict: DISAGREE\n")


def test_verify_failure_exits_fail(capsys, monkeypatch):
    from dompoly import verification

    @verification._check("always-fails", "a check that fails")
    def failing():
        return ["first problem", "second problem"], "never shown"

    monkeypatch.setattr(verification, "ALL_CHECKS", (failing,))
    code, out, err = run(capsys, "verify")
    assert code == EXIT_FAIL
    assert out == ("[FAIL] always-fails  a check that fails\n"
                   "                     -> first problem; second problem\n"
                   "0/1 checks passed\n")
    assert err == "first failing check: always-fails\n"


def test_poly_graph6_file(tmp_path, capsys):
    path = tmp_path / "two.g6"
    path.write_text("A_\nB?\n")
    code, out, _ = run(capsys, "poly", "--graph6-file", str(path))
    assert code == EXIT_OK
    assert "# A_" in out and "# B?" in out
    assert "x^3" in out  # 3K1 has polynomial x^3


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_graph6_label_drops_trailing_line_break(capsys, fmt):
    """parse_graph6 strips a trailing line break, LF or CRLF as the file
    readers do, and so does the label."""
    outputs = [run(capsys, "poly", "--graph6", g6, "--format", fmt)
               for g6 in ("A_", "A_\n", "A_\r\n")]
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][0] == EXIT_OK


def test_roots_real_only_matches_reference(capsys):
    code, out, _ = run(capsys, "roots", "--family", "friendship:4",
                       "--real-only")
    assert code == EXIT_OK
    assert "-1.683727169" in out
    assert "-0.231617585" in out
    assert "(exact 0)" in out


def test_roots_full_text(capsys):
    code, out, _ = run(capsys, "roots", "--family", "friendship:2")
    assert code == EXIT_OK
    assert "zero multiplicity: 1" in out
    assert "integer roots: 0" in out
    assert "complex roots" in out


def test_roots_digits_match_reference(capsys):
    # all 20 printed digits must be right, not the digits of a 53-bit float
    code, out, _ = run(capsys, "roots", "--family", "friendship:3",
                       "--format", "json")
    assert code == EXIT_OK
    printed = [(r["re"], r["im"]) for r in json.loads(out)[0]["complex_roots"]]
    coeffs = family_poly(FamilySpec("friendship", 3)).coeffs
    with mpmath.workprec(256):
        reference = mpmath.polyroots(coeffs[:0:-1], maxsteps=200, extraprec=256)
        expect = [(mpmath.nstr(z.real, 20, strip_zeros=True),
                   mpmath.nstr(z.imag, 20, strip_zeros=True))
                  for z in reference if z != 0]
    assert ("-1.6935798112028607301", "-0.19689858294116647779") in printed
    assert sorted(printed) == sorted(expect)


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--family", "friendship:2",
                       "--format", "json", "--precision", "128")
    assert code == EXIT_OK
    payload = json.loads(out)
    entry = payload[0]
    assert entry["precision_bits"] == 128
    assert entry["zero_multiplicity"] == 1
    assert len(entry["complex_roots"]) == 4
    assert entry["integer_roots"] == [0]
    lo = entry["real_roots"][0]["lo"]
    assert "/" in lo  # exact rational endpoint


def test_roots_csv_counts_multiplicity(capsys):
    code, out, _ = run(capsys, "roots", "--family", "friendship:2",
                       "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["re", "im", "residual"]
    assert len(rows) - 1 == 5  # degree 5: zero root + 4 cofactor roots


def test_roots_deterministic(capsys):
    args = ("roots", "--family", "friendship:5", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_precision_env_var_is_ignored(capsys, monkeypatch):
    # --precision alone sets the working precision
    args = ("roots", "--family", "friendship:2", "--format", "json")
    monkeypatch.delenv("DOMPOLY_PRECISION", raising=False)
    code, expected, _ = run(capsys, *args)
    assert code == EXIT_OK and json.loads(expected)[0]["precision_bits"] == 256
    for value in ("128", "banana"):
        monkeypatch.setenv("DOMPOLY_PRECISION", value)
        code, out, _ = run(capsys, *args)
        assert code == EXIT_OK and out == expected


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "poly", "--family", "friendship:2",
                       "--format", "json", "--output", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())[0]["verdict"] == "AGREE"


@pytest.mark.parametrize("row", [["plain", 7, 2.5, ""],
                                 ["a,b", 'say "hi"', "two\nlines", "-1,0,12"],
                                 ["A_\n", "closed", -3, '"']])
def test_csv_output_is_csv_writers(tmp_path, row):
    """CSV output is csv.writer's default dialect with "\\n" line ends.  (A
    carriage return, which no output field can hold, is quoted by csv.writer
    only from Python 3.13 on.)"""
    header = ["input", "method", "degree", "coefficients"]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([row, row])
    got = io.StringIO()
    dompoly.cli._write_csv(got, header, iter([row, row]))
    assert got.getvalue() == expected.getvalue()
    target = tmp_path / "out.csv"
    with open(target, "w", encoding="utf-8") as fh:
        dompoly.cli._write_csv(fh, header, [row, row])
    assert target.read_bytes() == expected.getvalue().encode()


def test_limits_export_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "limits", "--family", "friendship",
                       "--n-max", "4", "--export", "csv",
                       "--output-dir", str(tmp_path), "--precision", "128",
                       "--samples", "101")
    assert code == EXIT_OK
    scatter = (tmp_path / "friendship_scatter.csv").read_text()
    curve = (tmp_path / "friendship_curve.csv").read_text()
    srows = list(csv.reader(io.StringIO(scatter)))
    crows = list(csv.reader(io.StringIO(curve)))
    assert srows[0] == ["re", "im", "residual"]
    assert crows[0] == ["re", "im", "piece"]
    # scatter rows = total degree of members 1..4 = 3+5+7+9
    assert len(srows) - 1 == 24
    assert {row[2] for row in crows[1:]} == {"hyperbola", "isolated"}
    assert "max root modulus" in out


def test_limits_export_deterministic(tmp_path, capsys):
    runs = []
    for out_dir in (tmp_path / "first", tmp_path / "second"):
        code, out, _ = run(capsys, "limits", "--family", "friendship",
                           "--n-max", "5", "--export", "csv",
                           "--output-dir", str(out_dir), "--precision", "128",
                           "--samples", "101")
        assert code == EXIT_OK
        runs.append([out.replace(str(out_dir), "DIR")]
                    + [(out_dir / name).read_bytes() for name in
                       ("friendship_scatter.csv", "friendship_curve.csv")])
    assert runs[0] == runs[1]


def test_limits_book_export(tmp_path, capsys):
    code, _, _ = run(capsys, "limits", "--family", "book", "--n-max", "3",
                     "--export", "csv", "--output-dir", str(tmp_path),
                     "--precision", "128", "--samples", "64")
    assert code == EXIT_OK
    crows = list(csv.reader(io.StringIO(
        (tmp_path / "book_curve.csv").read_text())))
    pieces = {row[2] for row in crows[1:]}
    assert {"circle", "hyperbola", "modulus-balance", "isolated"} <= pieces


def test_limits_trace_method(tmp_path, capsys):
    code, _, _ = run(capsys, "limits", "--family", "friendship", "--n-max", "2",
                     "--export", "csv", "--output-dir", str(tmp_path),
                     "--method", "trace", "--grid=-3:1:-2:2",
                     "--resolution", "40", "--precision", "128")
    assert code == EXIT_OK
    crows = list(csv.reader(io.StringIO(
        (tmp_path / "friendship_curve.csv").read_text())))
    assert any(row[2].startswith("equimodular") for row in crows[1:])


def test_limits_json_export(tmp_path, capsys):
    code, _, _ = run(capsys, "limits", "--family", "friendship", "--n-max", "2",
                     "--export", "json", "--output-dir", str(tmp_path),
                     "--precision", "128", "--samples", "33")
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "friendship_limits.json").read_text())
    assert payload["family"] == "friendship"
    assert payload["precision_bits"] == 128
    assert payload["curve"][0]["piece"] == "hyperbola"
    assert len(payload["scatter"]) == 8  # degrees 3 + 5


def test_equiv_bundled_order(capsys):
    code, out, _ = run(capsys, "equiv", "--order", "4", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["graph_count"] == 11
    assert payload["class_count"] == 10
    assert payload["non_unique_count"] == 2
    code, out, _ = run(capsys, "equiv", "--order", "4", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["order", "graphs", "classes", "non_unique"]
    assert rows[1] == ["4", "11", "10", "2"]


def test_equiv_catalog_file(tmp_path, capsys):
    from dompoly.graphs import FamilySpec, build_family, write_graph6

    lines = [write_graph6(build_family(FamilySpec("friendship", 2))),
             write_graph6(build_family(FamilySpec("book_contracted", 2)))]
    path = tmp_path / "pair.g6"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "equiv", "--catalog", str(path))
    assert code == EXIT_OK
    assert "non-unique graphs: 2" in out
    assert "witness" in out


def test_equiv_missing_file(capsys):
    code, _, err = run(capsys, "equiv", "--catalog", "/nonexistent/x.g6")
    assert code == EXIT_PARSE


@pytest.mark.parametrize("grid", ["bogus", "nan:2:-3:3", "-inf:2:-3:3",
                                  "-4:2:-3:inf", "-1.7e308:1.7e308:-1.7e308:1.7e308"])
def test_malformed_grid(capsys, tmp_path, grid):
    code, _, err = run(capsys, "limits", "--family", "friendship",
                       "--n-max", "1", "--method", "trace", f"--grid={grid}",
                       "--export", "csv", "--output-dir", str(tmp_path))
    assert code == EXIT_PARSE
    assert err.count("error:") == 1
    assert not list(tmp_path.iterdir())


def test_empty_graph6_file(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("\n")
    code, _, err = run(capsys, "poly", "--graph6-file", str(path))
    assert code == EXIT_PARSE
    assert "no graphs" in err


def test_roots_graph6_file(tmp_path, capsys):
    path = tmp_path / "two.g6"
    path.write_text("A_\nBw\n")  # an edge and a triangle
    code, out, _ = run(capsys, "roots", "--graph6-file", str(path),
                       "--precision", "128")
    assert code == EXIT_OK
    assert out.count("# ") == 2
    assert "integer roots: 0" in out


def test_poly_method_all_requires_enumeration_budget(capsys):
    code, _, err = run(capsys, "poly", "--family", "friendship:50",
                       "--method", "all")
    assert code == EXIT_BUDGET
    assert "closed" in err


def test_poly_methods_agree():
    spec = FamilySpec("friendship", 2)
    out = _poly_methods(str(spec), spec, None, "all")
    assert set(out) == {"closed", "brute", "recurrence-vertex", "recurrence-odot"}
    assert len(set(out.values())) == 1


def test_roots_convergence_failure_exit(capsys):
    code, out, err = run(capsys, "roots", "--family", "friendship:3",
                         "--tol", "1e-300")
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("error: Aberth iteration") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["friendship:5", "book:4", "cycle:9", "path:8"])
@pytest.mark.parametrize("precision", ["53", "64", "256"])
def test_roots_printed_residuals_within_tol(capsys, spec, precision):
    """The residual --tol gates is the one printed: a report either keeps
    every printed residual within --tol or exits 5 and prints none."""
    code, out, err = run(capsys, "roots", "--family", spec,
                         "--precision", precision, "--format", "json")
    if code == EXIT_NUMERIC:
        assert out == "" and err.count("\n") == 1
        return
    assert code == EXIT_OK
    (entry,) = json.loads(out)
    tol = float(entry["tolerance"])
    assert entry["complex_roots"]
    assert all(float(r["residual"]) <= tol for r in entry["complex_roots"])


def test_roots_friendship_5_at_53_bits_misses_tol_1e_20(capsys):
    # rounded to 53 bits, its roots leave residuals up to about 1e-18
    code, out, err = run(capsys, "roots", "--family", "friendship:5",
                         "--precision", "53", "--tol", "1e-20", "--format", "csv")
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run(capsys, "roots", "--family", "friendship:5",
                       "--precision", "53", "--tol", "1e-15", "--format", "csv")
    assert code == EXIT_OK
    residuals = [float(row[2]) for row in list(csv.reader(io.StringIO(out)))[1:]]
    assert max(residuals) <= 1e-15


SMALL_MEMBERS = ([f"{kind}:{n}" for kind in ("friendship", "book", "book-contracted")
                  for n in range(1, 13)]
                 + [f"{kind}:{n}" for kind in ("cycle", "path", "star", "complete")
                    for n in range(3, 21)])


@pytest.mark.parametrize("precision, tol", [("53", 2.0 ** -45), ("64", 2.0 ** -56)])
def test_default_tol_follows_precision(capsys, precision, tol):
    """Below 75 bits the default --tol is 2^(8 - precision), which every
    small member meets: at 53 bits the worst residual is about 2.3e-17
    (star:5), at 64 bits about 1.2e-20 (path:3), above 1e-20."""
    for spec in SMALL_MEMBERS:
        code, out, _ = run(capsys, "roots", "--family", spec,
                           "--precision", precision, "--format", "json")
        assert code == EXIT_OK, spec
        (entry,) = json.loads(out)
        assert float(entry["tolerance"]) == tol


@pytest.mark.parametrize("precision, tol", [("53", "2.842170943040401e-14"),
                                            ("74", "1.3552527156068805e-20"),
                                            ("75", "1e-20"), ("256", "1e-20")])
def test_roots_and_limits_share_the_default_tol(capsys, tmp_path, precision, tol):
    code, out, _ = run(capsys, "roots", "--family", "friendship:4",
                       "--precision", precision, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)[0]["tolerance"] == tol
    code, _, _ = run(capsys, "limits", "--family", "friendship", "--n-max", "2",
                     "--precision", precision, "--samples", "5",
                     "--export", "json", "--output-dir", str(tmp_path))
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "friendship_limits.json").read_text())
    assert payload["tolerance"] == tol


@pytest.mark.parametrize("spec", ["friendship:7", "book:6", "cycle:11", "star:9"])
def test_roots_conjugates_print_equal_residuals(capsys, spec):
    code, out, _ = run(capsys, "roots", "--family", spec, "--format", "json")
    assert code == EXIT_OK
    roots = json.loads(out)[0]["complex_roots"]
    residual = {(r["re"], r["im"]): r["residual"] for r in roots}
    lower = [(re, im) for re, im in residual
             if im.startswith("-") and abs(float(im)) > 1e-40]
    assert lower
    for re, im in lower:
        assert residual[re, im[1:]] == residual[re, im]


def test_parser_built_once_and_options_do_not_leak(capsys):
    code, out, _ = run(capsys, "roots", "--family", "friendship:2",
                       "--format", "json", "--precision", "128")
    assert code == EXIT_OK and json.loads(out)[0]["precision_bits"] == 128
    code, out, _ = run(capsys, "roots", "--family", "friendship:2",
                       "--format", "json")
    assert code == EXIT_OK and json.loads(out)[0]["precision_bits"] == 256
    assert build_parser() is build_parser()


def test_parser_not_built_at_import():
    src = os.path.dirname(os.path.dirname(dompoly.cli.__file__))
    probe = ("import dompoly.cli as cli; "
             "print(cli.build_parser.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout == "0\n"


@pytest.mark.parametrize("command", ["roots", "limits"])
@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_tol_must_be_finite_and_positive(capsys, command, tol):
    family = "friendship:3" if command == "roots" else "friendship"
    with pytest.raises(SystemExit) as exc:
        main([command, "--family", family, "--tol", tol])
    assert exc.value.code == EXIT_PARSE
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("flag, command", [
    ("--precision 10", "roots --family friendship:3 --real-only"),
    ("--precision 52", "roots --family friendship:3"),
    ("--precision 10", "limits --family friendship"),
    ("--samples 1", "limits --family friendship"),
    ("--n-max 0", "limits --family friendship"),
    ("--n-max two", "limits --family friendship"),
    ("--resolution 1", "limits --family friendship"),
    ("--resolution 2001", "limits --family friendship"),
    (f"--samples {MAX_SAMPLES + 1}", "limits --family friendship --export csv"),
])
def test_numeric_flags_rejected_at_parse_time(capsys, monkeypatch, flag, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr("dompoly.cli.family_poly", no_work)
    with pytest.raises(SystemExit) as exc:
        main(command.split() + flag.split())
    assert exc.value.code == EXIT_PARSE
    assert f"argument {flag.split()[0]}" in capsys.readouterr().err


def test_roots_constant_polynomial(capsys):
    # K0, the graph with no vertices, has D = 1: no roots at all
    code, out, _ = run(capsys, "roots", "--graph6", "?")
    assert code == EXIT_OK
    assert "polynomial: 1\n" in out
    assert "integer roots: (none)" in out
    assert "zero multiplicity: 0" in out
    assert out.endswith("complex roots (re, im, residual, multiplicity):\n")
    code, out, _ = run(capsys, "roots", "--graph6", "?", "--format", "json")
    assert code == EXIT_OK
    entry = json.loads(out)[0]
    assert entry["zero_multiplicity"] == 0
    assert entry["complex_roots"] == [] and entry["real_roots"] == []


def test_verify_report_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "11/11 checks passed"
        outputs.append(out)
    assert outputs[0] == outputs[1]

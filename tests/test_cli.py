import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ncsym.cli import main
from ncsym.elements import NCSymElement, ncsym_from_json
from ncsym.intpartitions import IntPartition
from ncsym.macmahon import Truncation, VectorPartition, parse_multipolynomial
from ncsym.setpartitions import SetPartition
from ncsym.words import parse_word_polynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golden_convert(capsys):
    code, out, _ = run(capsys, "convert", "p[1,3/2,4]", "--to", "m")
    assert code == 0
    assert out == "m[1,3/2,4] + m[1,2,3,4]\n"


def test_golden_mobius(capsys):
    code, out, _ = run(capsys, "mobius", "1/2/3/4", "1,2,3,4")
    assert code == 0
    assert out == "-6\n"


def test_golden_inner(capsys):
    code, out, _ = run(capsys, "inner", "m[1,3/2,4]", "h[1,3/2,4]")
    assert code == 0
    assert out == "24\n"


def test_golden_multiply(capsys):
    # factors in different bases multiply in m: h[1,2] = 2*m[1,2] + m[1/2]
    code, out, _ = run(capsys, "multiply", "h[1,2]", "m[1]")
    assert (code, out) == (0, "m[1/2/3] + 2*m[1,2/3] + m[1,3/2] + m[1/2,3] + 2*m[1,2,3]\n")
    code, out, _ = run(capsys, "multiply", "h[1,2]", "h[1]")
    assert (code, out) == (0, "h[1,2/3]\n")
    code, out, _ = run(capsys, "multiply", "2*e[1,3/2]", "1/3*e[1/2]")
    assert (code, out) == (0, "2/3*e[1,3/2/4/5]\n")
    # degree-10 output reads back
    code, out, _ = run(capsys, "multiply", "h[1/2/3/4/5]", "h[1/2/3/4/5]")
    assert (code, out) == (0, "h[1/2/3/4/5/6/7/8/9/10]\n")
    code, back, _ = run(capsys, "convert", out.strip(), "--to", "h")
    assert (code, back) == (0, out)


def test_exit_code_usage(capsys):
    code, _, err = run(capsys, "convert", "m[1]")  # --to missing
    assert code == 1
    assert "usage error" in err
    code, _, _ = run(capsys, "not-a-command")
    assert code == 1


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "convert", "z[1]", "--to", "m")
    assert code == 2
    assert "parse error" in err


def test_exit_code_semantic_error(capsys):
    code, _, err = run(capsys, "mobius", "1,2", "1,2,3")
    assert code == 3
    assert "ground set" in err


def test_negative_vectors_and_empty_truncations_exit_3(capsys):
    for argv in [
        ("schur", "2,1", "--vec", "[-1,4]"),
        ("jacobi-trudi", "2,1", "--vec", "[4,-1]"),
        ("jacobi-trudi", "2,1", "--vec", "[2,1]", "--vars", "0"),
        ("jacobi-trudi", "2,1", "--vec", "[2,1]", "--vars", "-2"),
        ("schur", "2,1", "--vec", "[2,1]", "--expand", "0"),
        ("expand", "m[1]", "--vars", "0"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: "), argv
    code, out, _ = run(capsys, "schur", "()", "--vec", "[]")
    assert (code, out) == (0, "1\n")


def test_json_reader_errors(capsys):
    def convert(body):
        return run(capsys, "convert", body, "--to", "p")

    code, out, err = convert('{"basis": "q", "terms": []}')
    assert (code, out) == (2, "") and "unknown basis 'q'" in err
    code, out, err = convert('{"basis": "m", "terms": [{"blocks": [[1]], "coeff": "abc"}]}')
    assert (code, out) == (2, "") and 'term 1: bad "coeff"' in err
    code, out, err = convert('{"basis": "m", "terms": [{"blocks": [[1]], "coeff": true}]}')
    assert (code, out) == (3, "") and "bool" in err
    for coeff in ("null", "[1, 2]", '{"p": 1}'):
        body = '{"basis": "m", "terms": [{"%s": [%s], "coeff": %s}]}'
        for argv in [
            ("convert", body % ("blocks", "[1]", coeff), "--to", "p"),
            ("lift", body % ("parts", "1", coeff)),
        ]:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "") and 'term 1: bad "coeff"' in err, argv
    code, out, err = convert("1/0*m[1]")
    assert (code, out) == (2, "") and "zero denominator" in err
    # indices must be JSON ints: floats, bools and strings are not read as numbers
    term = '{"basis": "m", "terms": [{"%s": %s, "coeff": 1}]}'
    cases = [("convert", "blocks", v) for v in ("[[1.9], [2]]", "[[true], [2]]", '"12"', "[1, 2]")]
    cases += [("lift", "parts", v) for v in ("[2.5, 1]", '"21"', "[true]", "[[2]]")]
    for command, field, value in cases:
        argv = (command, term % (field, value)) + (("--to", "p") if command == "convert" else ())
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f'parse error: term 1: bad "{field}"' in err, argv


def test_malformed_text_arguments_exit_2(tmp_path, capsys):
    biword = tmp_path / "biword.txt"
    biword.write_text("x'\n")
    for argv in [
        ("schur", "2,x"),
        ("schur", "2,1", "--vec", "[a,1]"),
        ("jacobi-trudi", "2,1", "--vec", "[2,b]"),
        ("mobius", "1,x", "1,2"),
        ("mobius", "1,2", "1/x"),
        ("multiply", "m[1", "m[1]"),
        ("multiply", "m[1]", "m[1"),
        ("rsk", str(biword)),
        ("rsk", "--inverse", str(biword)),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("parse error: "), argv
    # checks made after reading stay semantic errors
    pair = tmp_path / "pair.txt"
    pair.write_text("1'\n\n1' 2'\n")
    for argv in [
        ("schur", "2,1", "--vec", "[1,1]"),
        ("rsk", "--inverse", str(pair)),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: "), argv


TWO = "\u0662"  # ARABIC-INDIC DIGIT TWO: int(), str.isdigit and \d all read it as 2
ONE = "\u0661"
JSON_COEFF = '{"basis": "m", "terms": [{"blocks": [[1]], "coeff": "%s"}]}'


@pytest.mark.parametrize(
    "read, code",
    [
        pytest.param(["convert", f"m[1,{TWO}]", "--to", "p"], 2, id="set partition blocks"),
        pytest.param(["convert", f"m[1/{TWO}]", "--to", "p"], 2, id="set partition compact"),
        pytest.param(["convert", f"{TWO}*m[1]", "--to", "p"], 2, id="expression coefficient"),
        # Fraction() would read each of these JSON coefficient strings
        pytest.param(["convert", JSON_COEFF % f"{ONE}/{TWO}", "--to", "p"], 2, id="json digits"),
        pytest.param(["convert", JSON_COEFF % "1_0", "--to", "p"], 2, id="json underscore"),
        pytest.param(["convert", JSON_COEFF % "0.5", "--to", "p"], 2, id="json decimal"),
        pytest.param(["convert", JSON_COEFF % "1e2", "--to", "p"], 2, id="json exponent"),
        pytest.param(["mobius", "1,+2", "12"], 2, id="set partition plus"),
        pytest.param(["lift", f"m[{TWO}]"], 2, id="integer partition"),
        pytest.param(["schur", "+2"], 2, id="integer partition plus"),
        pytest.param(["schur", "2", "--vec", f"[{TWO}]"], 2, id="vector"),
        pytest.param(["jacobi-trudi", "2", "--vec", "[+2]"], 2, id="vector plus"),
        pytest.param(["rsk", f"1' {TWO}'\n1' 1'\n"], 2, id="biword file"),
        pytest.param(["rsk", "--inverse", f"{TWO}'\n\n1'\n"], 2, id="tableau pair file"),
        pytest.param(["lattice", "--n", TWO, "--table", "meet"], 1, id="--n"),
        pytest.param(["verify", "mobius", "--max-n", "+1"], 1, id="--max-n"),
        pytest.param(["expand", "m[1]", "--vars", TWO], 1, id="expand --vars"),
        pytest.param(["jacobi-trudi", "1", "--vec", "[1]", "--vars", "+1"], 1, id="jt --vars"),
        pytest.param(["schur", "1", "--expand", TWO], 1, id="--expand"),
        # readers that no command calls raise; "_" needs two digits, so it is read here only
        pytest.param(lambda: IntPartition.parse("1_0"), None, id="integer partition underscore"),
        pytest.param(lambda: VectorPartition.parse(f"{{[{TWO},1]}}"), None, id="vector partition"),
        pytest.param(lambda: parse_word_polynomial(f"{TWO} x1", 1), None, id="word coefficient"),
        pytest.param(lambda: parse_word_polynomial(f"1 x{TWO}", 2), None, id="word letter"),
        pytest.param(lambda: parse_word_polynomial("1/-2 x1", 1), None, id="word negative den"),
        pytest.param(lambda: parse_word_polynomial("1/0 x1", 1), None, id="word zero den"),
        pytest.param(
            lambda: parse_multipolynomial(f"x{TWO}'", Truncation(1, 2, 1)), None, id="subscript"
        ),
    ],
)
def test_readers_take_ascii_digits_only(tmp_path, capsys, read, code):
    """Each reader refuses a short text that int(), str.isdigit or Fraction would
    take: a bad text argument or file exits 2, a bad option exits 1."""
    if callable(read):
        with pytest.raises(ValueError):
            read()
        return
    if read[0] == "rsk":  # the last argument is the file's text
        path = tmp_path / "input.txt"
        path.write_text(read[-1], encoding="utf-8")
        read = [*read[:-1], str(path)]
    code_got, out, err = run(capsys, *read)
    assert (code_got, out) == (code, "")
    assert err.startswith("parse error: " if code == 2 else "usage error: ")


def test_json_coefficient_strings_read_as_int_when_integral():
    """A JSON "3" reads as the int 3, as JSON 3 and the text 3*m[1] do."""
    for coeff in ('"3"', "3", '"6/2"'):
        f = ncsym_from_json(JSON_COEFF.replace('"%s"', coeff))
        assert [type(c) for c in f.terms.values()] == [int], coeff
    assert ncsym_from_json(JSON_COEFF % "-1/2").terms == {SetPartition.parse("1"): Fraction(-1, 2)}


def test_float_json_coefficient_is_a_clean_error(capsys):
    for argv in [
        ("convert", '{"basis": "m", "terms": [{"blocks": [[1]], "coeff": 0.5}]}', "--to", "p"),
        ("lift", '{"basis":"m","terms":[{"parts":[2,1],"coeff":0.1}]}'),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "inexact coefficient" in err


def test_strict_rationals_flag(capsys):
    code, out, _ = run(
        capsys, "inner", "m[1,3/2,4]", "h[1,3/2,4]", "--strict-rationals"
    )
    assert code == 0
    assert out == "24/1\n"


def test_omega_project_lift(capsys):
    code, out, _ = run(capsys, "omega", "e[1,3/2,4]")
    assert code == 0 and out == "h[1,3/2,4]\n"
    code, out, _ = run(capsys, "project", "m[1,3/2,4]")
    assert code == 0 and out == "2*m[2,2]\n"
    code, out, _ = run(capsys, "lift", "m[2,2]")
    assert code == 0
    assert out == "1/6*m[1,2/3,4] + 1/6*m[1,3/2,4] + 1/6*m[1,4/2,3]\n"


def test_lattice_table(capsys):
    code, out, _ = run(capsys, "lattice", "--n", "2", "--table", "join")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["*", "1,2", "1/2"]
    assert lines[1].split("\t") == ["1,2", "1,2", "1,2"]
    assert lines[2].split("\t") == ["1/2", "1,2", "1/2"]
    code, out, _ = run(capsys, "lattice", "--n", "2", "--table", "join", "--format", "json")
    assert (code, out) == (0, (
        '{"n": 2, "table": "join", "elements": ["1,2", "1/2"],'
        ' "rows": [["1,2", "1,2"], ["1,2", "1/2"]]}\n'
    ))
    code, out, _ = run(capsys, "lattice", "--n", "3", "--table", "mobius", "--format", "json")
    payload = json.loads(out)
    assert payload["n"] == 3 and len(payload["rows"]) == 5


def test_lattice_mobius_table_honours_strict_rationals(capsys):
    plain = run(capsys, "lattice", "--n", "2", "--table", "mobius")
    assert plain[1] == "*\t1,2\t1/2\n1,2\t1\t0\n1/2\t-1\t1\n"
    code, out, _ = run(capsys, "lattice", "--n", "2", "--table", "mobius", "--strict-rationals")
    assert code == 0 and out == "*\t1,2\t1/2\n1,2\t1/1\t0/1\n1/2\t-1/1\t1/1\n"
    argv = ["lattice", "--n", "2", "--table", "mobius", "--format", "json"]
    plain = json.loads(run(capsys, *argv)[1])
    strict = json.loads(run(capsys, *argv, "--strict-rationals")[1])
    assert plain["rows"] == [["1", "0"], ["-1", "1"]]
    assert strict["rows"] == [["1/1", "0/1"], ["-1/1", "1/1"]]
    assert {**strict, "rows": plain["rows"]} == plain


def test_lattice_refuses_large_n(capsys):
    code, out, err = run(capsys, "lattice", "--n", "8", "--table", "meet")
    assert code == 3 and out == ""
    assert "B_8 = 4140" in err and "4140 x 4140" in err
    code, out, err = run(capsys, "lattice", "--n", "-1", "--table", "meet")
    assert code == 3 and out == "" and "--n must be nonnegative" in err


def test_schur_and_jacobi_trudi(capsys):
    code, out, _ = run(capsys, "schur", "(2)")
    assert code == 0 and out == "m[1/2] + 2*m[1,2]\n"
    code, out_schur, _ = run(capsys, "schur", "(2,1)", "--vec", "[2,1]")
    assert code == 0
    code, out_jt, _ = run(capsys, "jacobi-trudi", "(2,1)", "--vec", "[2,1]", "--variant", "h")
    assert code == 0
    assert out_schur == out_jt


def test_expand_output(capsys):
    code, out, _ = run(capsys, "expand", "m[1,3/2,4]", "--vars", "2")
    assert code == 0
    assert out == "1 x1 x2 x1 x2\n1 x2 x1 x2 x1\n"
    code, out, _ = run(capsys, "expand", "p[1,3/2,4]", "--vars", "1", "--format", "json")
    payload = json.loads(out)
    assert payload == {
        "variables": 1,
        "terms": [{"word": [1, 1, 1, 1], "coeff": "1"}],
    }


def test_json_output_for_convert(capsys):
    code, out, _ = run(
        capsys, "convert", "p[1,3/2,4]", "--to", "m", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "m"
    assert payload["terms"] == [
        {"blocks": [[1, 3], [2, 4]], "coeff": "1"},
        {"blocks": [[1, 2, 3, 4]], "coeff": "1"},
    ]


def test_rsk_files(tmp_path, capsys):
    biword_file = tmp_path / "biword.txt"
    biword_file.write_text("1' 2' 2'' 2' 3'' 4'\n2' 1'' 3'' 3' 2'' 1'\n")
    code, out, _ = run(capsys, "rsk", str(biword_file))
    assert code == 0
    assert out == "1'' 1' 3'\n2' 2''\n3''\n\n1' 2'' 2'\n2' 3''\n4'\n"

    tableau_file = tmp_path / "pair.txt"
    tableau_file.write_text("1'' 1' 3'\n2' 2''\n3''\n\n1' 2'' 2'\n2' 3''\n4'\n")
    code, out, _ = run(capsys, "rsk", "--inverse", str(tableau_file))
    assert code == 0
    assert out == "1' 2' 2'' 2' 3'' 4'\n2' 1'' 3'' 3' 2'' 1'\n"

    code, _, err = run(capsys, "rsk", str(tmp_path / "missing.txt"))
    assert code == 3


def test_golden_rsk_json(tmp_path, capsys):
    biword_file = tmp_path / "tied_tops.txt"
    biword_file.write_text("1' 1'' 2' 2' 3''\n1'' 2' 1' 3'' 2'\n")
    code, out, _ = run(capsys, "rsk", str(biword_file), "--format", "json")
    assert (code, out) == (0, (
        '{"insertion": [[[1, 2], [1, 1], [2, 1]], [[2, 1], [3, 2]]],'
        ' "recording": [[[1, 1], [1, 2], [2, 1]], [[2, 1], [3, 2]]]}\n'
    ))
    pair_file = tmp_path / "tied_tops_pair.txt"
    pair_file.write_text(run(capsys, "rsk", str(biword_file))[1])
    code, out, _ = run(capsys, "rsk", "--inverse", str(pair_file), "--format", "json")
    assert (code, out) == (0, (
        '{"top": [[1, 1], [1, 2], [2, 1], [2, 1], [3, 2]],'
        ' "bottom": [[1, 2], [2, 1], [1, 1], [3, 2], [2, 1]]}\n'
    ))


def test_rsk_files_treat_whitespace_only_lines_as_blank(tmp_path, capsys):
    biword_file = tmp_path / "biword.txt"
    biword_file.write_text("\n  \n1' 2' 2'' 2' 3'' 4'\n2' 1'' 3'' 3' 2'' 1'\n")
    code, out, _ = run(capsys, "rsk", str(biword_file))
    assert (code, out) == (0, "1'' 1' 3'\n2' 2''\n3''\n\n1' 2'' 2'\n2' 3''\n4'\n")

    tableau_file = tmp_path / "pair.txt"
    tableau_file.write_text(" \n1'' 1' 3'\n2' 2''\n3''\n  \t\n1' 2'' 2'\n2' 3''\n4'\n")
    code, out, _ = run(capsys, "rsk", "--inverse", str(tableau_file))
    assert (code, out) == (0, "1' 2' 2'' 2' 3'' 4'\n2' 1'' 3'' 3' 2'' 1'\n")


def test_verify_subcommand_small(capsys):
    code, out, _ = run(capsys, "verify", "mobius", "--max-n", "2")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, _, err = run(capsys, "verify", "no-such-suite")
    assert code == 3


def test_golden_json_values(capsys):
    code, out, _ = run(capsys, "project", "m[1,3/2,4]", "--format", "json")
    assert code == 0
    assert out == '{"basis": "m", "terms": [{"parts": [2, 2], "coeff": "2"}]}\n'
    code, out, _ = run(capsys, "inner", "m[1,3/2,4]", "h[1,3/2,4]", "--format", "json")
    assert code == 0 and out == '{"value": "24"}\n'
    code, out, _ = run(capsys, "mobius", "1/2/3/4", "1,2,3,4", "--format", "json")
    assert code == 0 and out == '{"value": "-6"}\n'
    # p[1] = m[1], whose one block merges into neither, the first or the second block of m[1/2]
    code, out, _ = run(capsys, "multiply", "p[1]", "1/2*m[1/2]", "--format", "json")
    assert code == 0 and out == (
        '{"basis": "m", "terms": [{"blocks": [[1], [2], [3]], "coeff": "1/2"},'
        ' {"blocks": [[1, 2], [3]], "coeff": "1/2"}, {"blocks": [[1, 3], [2]], "coeff": "1/2"}]}\n'
    )
    code, out, _ = run(
        capsys, "mobius", "1/2/3/4", "1,2,3,4", "--format", "json", "--strict-rationals"
    )
    assert code == 0 and out == '{"value": "-6/1"}\n'


def test_element_json_honours_strict_rationals(capsys):
    argv = ("convert", "m[1]", "--to", "p", "--format", "json")
    code, out, _ = run(capsys, *argv, "--strict-rationals")
    assert code == 0
    assert out == '{"basis": "p", "terms": [{"blocks": [[1]], "coeff": "1/1"}]}\n'
    assert ncsym_from_json(out) == NCSymElement("p", {SetPartition.parse("1"): 1})
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == '{"basis": "p", "terms": [{"blocks": [[1]], "coeff": "1"}]}\n'


def test_golden_jacobi_trudi_json(capsys):
    code, out, _ = run(capsys, "jacobi-trudi", "2,1", "--vec", "[2,1]", "--format", "json")
    assert code == 0
    terms = [
        ([[1, 1, 1], [1, 2, 1], [2, 1, 1]], "2"),
        ([[1, 1, 1], [1, 2, 1], [3, 1, 1]], "2"),
        ([[1, 1, 1], [2, 1, 1], [2, 2, 1]], "2"),
        ([[1, 1, 1], [2, 1, 1], [3, 2, 1]], "2"),
        ([[1, 1, 1], [2, 2, 1], [3, 1, 1]], "2"),
        ([[1, 1, 1], [3, 1, 1], [3, 2, 1]], "2"),
        ([[1, 1, 2], [2, 2, 1]], "1"),
        ([[1, 1, 2], [3, 2, 1]], "1"),
        ([[1, 2, 1], [2, 1, 1], [3, 1, 1]], "2"),
        ([[1, 2, 1], [2, 1, 2]], "1"),
        ([[1, 2, 1], [3, 1, 2]], "1"),
        ([[2, 1, 1], [2, 2, 1], [3, 1, 1]], "2"),
        ([[2, 1, 1], [3, 1, 1], [3, 2, 1]], "2"),
        ([[2, 1, 2], [3, 2, 1]], "1"),
        ([[2, 2, 1], [3, 1, 2]], "1"),
    ]
    body = ", ".join(f'{{"monomial": {m}, "coeff": "{c}"}}' for m, c in terms)
    assert out == f'{{"alphabets": 2, "variables": 3, "degree": 3, "terms": [{body}]}}\n'


def test_golden_schur_strict_and_expanded(capsys):
    code, out, _ = run(capsys, "schur", "(2,1)", "--vec", "[2,1]", "--strict-rationals")
    assert code == 0
    assert out == (
        "2/1*x1' x1'' x2' + 2/1*x1' x1'' x3' + 2/1*x1' x2' x2'' + 2/1*x1' x2' x3'' "
        "+ 2/1*x1' x2'' x3' + 2/1*x1' x3' x3'' + 1/1*x1'^2 x2'' + 1/1*x1'^2 x3'' "
        "+ 2/1*x1'' x2' x3' + 1/1*x1'' x2'^2 + 1/1*x1'' x3'^2 + 2/1*x2' x2'' x3' "
        "+ 2/1*x2' x3' x3'' + 1/1*x2'^2 x3'' + 1/1*x2'' x3'^2\n"
    )
    code, out, _ = run(capsys, "schur", "(2)", "--expand", "2")
    assert code == 0
    assert out == "2 x1 x1\n1 x1 x2\n1 x2 x1\n2 x2 x2\n"
    code, out, _ = run(capsys, "schur", "(2)", "--expand", "2", "--format", "json")
    assert code == 0
    assert out == (
        '{"variables": 2, "terms": [{"word": [1, 1], "coeff": "2"}, '
        '{"word": [1, 2], "coeff": "1"}, {"word": [2, 1], "coeff": "1"}, '
        '{"word": [2, 2], "coeff": "2"}]}\n'
    )
    # word polynomials honour --strict-rationals like every other value
    code, out, _ = run(capsys, "expand", "m[1,3/2,4]", "--vars", "2", "--strict-rationals")
    assert code == 0 and out == "1/1 x1 x2 x1 x2\n1/1 x2 x1 x2 x1\n"


def test_golden_lift_strict(capsys):
    code, out, _ = run(capsys, "lift", "m[2,2]", "--strict-rationals")
    assert code == 0
    assert out == "1/6*m[1,2/3,4] + 1/6*m[1,3/2,4] + 1/6*m[1,4/2,3]\n"


def test_malformed_json_is_a_parse_error(capsys):
    """Exit 2 with empty stdout and the offending field named, never a traceback."""
    shape_errors = [
        ('{"terms": []}', '"basis"'),
        ('{"basis": "m"}', '"terms"'),
        ('{"basis": "m", "terms": "x"}', '"terms"'),
        ('{"basis": "m", "terms": ["x"]}', "term 1"),
        ("{bad", "invalid JSON"),
    ]
    cases = [(cmd, text, field) for text, field in shape_errors for cmd in ("convert", "lift")]
    cases += [
        ("convert", '{"basis": "m", "terms": [{"blocks": [[1]]}]}', '"coeff"'),
        ("convert", '{"basis": "m", "terms": [{"coeff": "1"}]}', '"blocks"'),
        ("convert", '{"basis": "m", "terms": [{"blocks": [[1, 3]], "coeff": 1}]}', '"blocks"'),
        ("lift", '{"parts": [1]}', '"basis"'),
        ("lift", '{"basis": "m", "terms": [{"blocks": [[1]], "coeff": 1}]}', '"parts"'),
    ]
    for cmd, text, field in cases:
        argv = (cmd, text, "--to", "p") if cmd == "convert" else (cmd, text)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("parse error: ") and field in err, (argv, err)


_DEEP = "[" * 20000 + "]" * 20000  # far past the JSON decoder's recursion limit


@pytest.mark.parametrize(
    "cmd, text",
    [
        ("convert", '{"basis": "m", "terms": %s}' % _DEEP),
        ("convert", '{"basis": "m", "terms": [{"blocks": %s, "coeff": "1"}]}' % _DEEP),
        ("lift", '{"basis": "m", "terms": %s}' % _DEEP),
        ("lift", '{"basis": "m", "terms": [{"parts": %s, "coeff": "1"}]}' % _DEEP),
    ],
    ids=["convert-terms", "convert-blocks", "lift-terms", "lift-parts"],
)
def test_deeply_nested_json_is_a_parse_error(capsys, cmd, text):
    argv = (cmd, text, "--to", "h") if cmd == "convert" else (cmd, text)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "parse error: invalid JSON: nested too deeply (at position 0)\n"


def test_unknown_suite_lists_every_suite(capsys):
    from ncsym.verify import SUITES

    code, out, err = run(capsys, "verify", "bogus")
    assert (code, out) == (3, "")
    assert err == f"error: unknown suite 'bogus'; choose from {', '.join([*SUITES, 'all'])}\n"


def test_verify_failure_exits_4_with_the_first_three_failures(capsys, monkeypatch):
    import ncsym.verify

    monkeypatch.setattr(ncsym.verify, "mobius", lambda sigma, pi: 0)
    detail = "n=1: 0 != 1; n=2: 0 != -1; n=3: 0 != 2"
    code, out, err = run(capsys, "verify", "examples")
    lines = out.splitlines()
    assert (code, err) == (4, "")
    assert f"FAIL examples.mobius_bottom_top_formula: {detail}" in lines
    assert lines[-1] == "7/8 checks passed"
    code, out, err = run(capsys, "verify", "examples", "--format", "json")
    failed = [check for check in json.loads(out) if not check["ok"]]
    assert (code, err) == (4, "")
    assert failed == [{"name": "examples.mobius_bottom_top_formula", "ok": False, "detail": detail}]


def test_verify_one_pass_fails_only_the_checks_whose_views_differ(monkeypatch):
    import ncsym.verify
    from ncsym.rsk import Biword

    # the biword pass serves three checks; only the round trip's views change
    monkeypatch.setattr(ncsym.verify, "rsk_inverse", lambda T, U: Biword())
    records = ncsym.verify.run(["rsk"], 2)
    assert [r["name"] for r in records if not r["ok"]] == [
        "rsk.inverse_after_forward_is_identity",
        "rsk.forward_after_inverse_is_identity",
    ]
    assert len(records) == 5


def test_verify_reference_row_reports_a_short_case_count(monkeypatch):
    import ncsym.verify

    row = ("one_case", 1, lambda size: iter([(("only",), 1, 1)]), 2)  # states 2, yields 1
    monkeypatch.setattr(ncsym.verify, "_REFERENCE", [row])
    assert ncsym.verify.run(["reference"]) == [
        {"name": "reference.one_case", "ok": False, "detail": "1 cases, expected 2"}
    ]


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs one command in a fresh interpreter, then prints its exit code and the
# ncsym submodules it loaded; argv null means plain "import ncsym".
LOADED = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if argv is None:
        import ncsym
        code = 0
    else:
        from ncsym.cli import main
        code = main(argv)
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("ncsym."))]))
"""


def loaded(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, json.dumps(argv)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


def test_import_ncsym_loads_no_submodule():
    assert loaded(None) == (0, set())


BASIS_COMMANDS = [
    ["convert", "p[1,3/2,4]", "--to", "m"],
    ["convert", "m[1/2]", "--to", "e", "--format", "json"],
    ["inner", "m[1,3/2,4]", "h[1,3/2,4]"],
    ["omega", "e[1/2]"],
    ["project", "m[1,3/2,4]", "--format", "json"],
    ["lift", "m[2,1]"],
    ["multiply", "h[1,2]", "m[1]"],
    ["mobius", "1/2/3/4", "1,2,3,4"],
    ["lattice", "--n", "3", "--table", "meet"],
    ["expand", "m[1/2]", "--vars", "2", "--format", "json"],
    ["schur", "3,1"],
]


@pytest.mark.parametrize("argv", BASIS_COMMANDS, ids=" ".join)
def test_basis_commands_skip_the_macmahon_and_rsk_layers(argv):
    code, modules = loaded(argv)
    assert code == 0
    assert "ncsym.cli" in modules
    skipped = {"ncsym.macmahon", "ncsym.tableaux", "ncsym.rsk", "ncsym.verify"}
    assert not modules & skipped


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["mobius", "1/2/3/4", "1,2,3,4"], {"ncsym.combination"}),  # its rational printer
        (["mobius", "1/2", "12", "--format", "json"], {"ncsym.combination"}),
        (["lattice", "--n", "3", "--table", "meet"], set()),
        (["lattice", "--n", "2", "--table", "mobius", "--format", "json"], set()),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_lattice_commands_load_neither_elements_nor_the_parser(argv, extra):
    lattice_layer = {"ncsym.cli", "ncsym.intpartitions", "ncsym.setpartitions"}
    assert loaded(argv) == (0, lattice_layer | extra)


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (["schur", "2,x"], 2, {"combination", "intpartitions"}),
        (["mobius", "1,x", "1,2"], 2, {"combination", "intpartitions", "setpartitions"}),
        (
            ["lattice", "--n", "8", "--table", "meet"],
            3,
            {"combination", "intpartitions", "setpartitions"},
        ),
        (
            ["convert", "p[1,3/2,4]", "--to", "m"],
            0,
            {"classical", "combination", "elements", "intpartitions", "setpartitions"},
        ),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_failed_and_element_commands_load_only_what_they_use(argv, code, modules):
    """ParseError lives in combination, so telling a parse error from another failure
    loads no element layer; an element command loads those layers and no reader module."""
    assert loaded(argv) == (code, {"ncsym.cli"} | {f"ncsym.{m}" for m in modules})


def test_only_verify_loads_the_verify_module():
    ncsym_layer = {"ncsym.elements", "ncsym.words", "ncsym.classical"}
    for argv in (
        ["schur", "2,1", "--vec", "[2,1]", "--format", "json"],
        ["schur", "2,1", "--vec", "[2,1]"],
        ["jacobi-trudi", "2,1", "--vec", "[2,1]", "--format", "json"],
        ["jacobi-trudi", "2,1", "--vec", "[2,1]"],
    ):  # rsk's exact module set is pinned by test_rsk_loads_the_dotted_layer_alone
        code, modules = loaded(argv)
        assert code == 0 and "ncsym.macmahon" in modules, argv
        assert "ncsym.verify" not in modules and "ncsym.tableaux" not in modules, argv
        assert not modules & ncsym_layer, argv
    code, modules = loaded(["verify", "product", "--max-n", "2"])
    assert code == 0 and "ncsym.verify" in modules


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_rsk_loads_the_dotted_layer_alone(tmp_path, inverse, fmt):
    path = tmp_path / "input.txt"
    path.write_text("1'\n2'\n\n1'\n2'\n" if inverse else "1' 2'\n2' 1'\n", encoding="utf-8")
    argv = ["rsk", str(path), *(["--inverse"] if inverse else []), "--format", fmt]
    dotted_layer = {"ncsym.cli", "ncsym.intpartitions", "ncsym.rsk", "ncsym.tableaux"}
    assert loaded(argv) == (0, dotted_layer)


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_verify_refuses_a_cap_below_one_before_any_suite_runs(capsys, cap):
    for suite in ("oracle", "mobius", "all"):
        code, out, err = run(capsys, "verify", suite, "--max-n", cap)
        assert (code, out) == (3, "")
        assert err == f"error: max_n must be an int >= 1, got {cap}\n"


def test_verify_run_refuses_a_bool_cap():
    from ncsym.verify import run as run_suites

    with pytest.raises(ValueError, match="max_n must be an int >= 1, got True"):
        run_suites(["all"], True)

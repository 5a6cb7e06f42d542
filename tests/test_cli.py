import importlib
import io
import json
import pkgutil
import tracemalloc
from fractions import Fraction

import pytest

import meroforms
import meroforms.cli as cli
import meroforms.engine as engine
import meroforms.quasi as quasi
from meroforms.cli import MAX_BASIS_K, MAX_ORACLE_ORDER, MAX_POLE_ORDER, MAX_PRECISION, main, parse_m_range
from meroforms.engine import TruncatedSum


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_m_range():
    assert parse_m_range("0..3") == [0, 1, 2, 3]
    assert parse_m_range("5") == [5]


@pytest.mark.parametrize("text", ["x", "1..", "..3", "1..x", ""])
def test_malformed_m_range_is_usage_error(capsys, text):
    # int("") used to surface as "invalid literal for int() with base 10: ''"
    with pytest.raises(cli.UsageError, match=f"--m: expected an index or a range lo..hi, got {text!r}"):
        parse_m_range(text)
    code, out, err = run(capsys, "oracle", "--form", "1/E6", f"--m={text}")
    assert code == 1 and out == ""
    assert f"got {text!r}" in err


def test_oracle_subcommand(capsys):
    code, out, _ = run(capsys, "oracle", "--form", "1/E6^4", "--m", "0..1")
    assert code == 0
    payload = json.loads(out)
    assert [row["coefficient"] for row in payload["coefficients"]] == ["1", "2016"]


@pytest.mark.parametrize(
    "argv",
    [("oracle", "--form", "1/E6^4", "--m", "0..40"), ("enumerate", "--field", "gaussian", "--bound", "30")],
    ids=["json", "csv"],
)
def test_out_file_holds_the_printed_bytes(capsys, tmp_path, argv):
    # a JSON payload is streamed by json.dump and a CSV table written whole;
    # either reaches a file as it reaches stdout, JSON as
    # json.dumps(indent=2) + "\n"
    code, out, _ = run(capsys, *argv)
    path = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert code == 0 and path.read_bytes().decode() == out
    if argv[0] == "oracle":
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_enumerate_subcommand(capsys):
    code, out, _ = run(capsys, "enumerate", "--field", "gaussian", "--bound", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,c,d,norm,a,b"
    assert len(lines) == 5  # four ideals
    norms = [int(line.split(",")[3]) for line in lines[1:]]
    assert norms == [1, 2, 5, 5]


def test_verify_pass(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--form", "1/E10",
        "--m", "0..2",
        "--tol", "1e-8",
        "--norm-bound", "1500",
        "--precision", "192",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--form", "1/E10",
        "--m", "0..1",
        "--tol", "1e-60",
        "--norm-bound", "500",
        "--precision", "128",
    )
    assert code == 3
    assert "fail" in json.loads(out)["verdict"]


def test_verify_e2_fourth_constant_term(capsys):
    # the slowest-converging m = 0 block (N^-2) now comes from its closed
    # form, so the default norm bound meets 1e-8
    code, out, _ = run(capsys, "verify", "--form", "E2^4 * (1/E10)", "--m", "0", "--tol", "1e-8")
    assert code == 0
    payload = json.loads(out)
    assert payload["norm_bound"] == 5000
    assert payload["verdict"] == "pass"


def test_closed_form_mismatch_is_numerical(monkeypatch, capsys):
    def inconsistent(k, j, r, point, m, norm_bound, precision, blocks=None):
        return TruncatedSum(1000, 0, norm_bound)

    monkeypatch.setattr(engine, "f_series_coeff", inconsistent)
    code, out, err = run(capsys, "coeffs", "--form", "1/E10", "--m", "0", "--norm-bound", "200", "--precision", "128")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "numerical"


def test_coeffs_csv_and_quasi_routing(capsys):
    code, out, _ = run(
        capsys,
        "coeffs",
        "--form", "E2^1 * (1/E10)",
        "--m", "0..1",
        "--norm-bound", "800",
        "--precision", "128",
        "--output", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("m,value_re")
    assert len(lines) == 3
    assert lines[1].split(",")[4] == "1"  # oracle constant term


def test_expand_subcommand(capsys):
    code, out, _ = run(
        capsys, "expand", "--form", "1/E10", "--point", "i", "--depth", "0", "--precision", "128"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][0]["order"] == -1


def test_constants_subcommand(capsys):
    code, out, _ = run(capsys, "constants", "--depth", "1", "--precision", "96")
    assert code == 0
    payload = json.loads(out)
    # digits must be faithful well past the double-precision boundary
    assert payload["points"]["i"]["E2"][0]["re"].startswith("0.95492965855137201461330258023")


def test_basis_subcommand(tmp_path, capsys):
    request = {
        "k": 6,
        "principal_parts": [
            {"point": "i", "coeffs": {"1": ["0", "0.10323759943705595"]}}
        ],
    }
    path = tmp_path / "pp.json"
    path.write_text(json.dumps(request))
    code, out, _ = run(capsys, "basis", "--input", str(path), "--precision", "96")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"][0]["n"] == 0
    # 1/E4(i)^3 to the accuracy of the 17-digit input residue
    assert payload["terms"][0]["a_re"].startswith("0.32433048396570")


def test_basis_congruence_failure_is_numerical(tmp_path, capsys):
    request = {"k": 7, "principal_parts": [{"point": "i", "coeffs": {"1": ["1", "0"]}}]}
    path = tmp_path / "pp.json"
    path.write_text(json.dumps(request))
    code, out, err = run(capsys, "basis", "--input", str(path), "--precision", "96")
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "numerical"


def test_malformed_basis_request_is_usage_error(monkeypatch, capsys):
    good = {"point": "i", "coeffs": {"1": ["0", "1"]}}
    requests = [
        {},
        [1],
        "k",
        {"k": 6},
        {"k": 6, "principal_parts": {"point": "i"}},
        {"k": 6, "principal_parts": [{"coeffs": {"1": ["0", "1"]}}]},
        {"k": 6, "principal_parts": [{"point": "i", "coeffs": [["0", "1"]]}]},
        {"k": 6, "principal_parts": [{"point": "i", "coeffs": {"1": "01x"}}]},
        {"k": 6, "principal_parts": [{"point": "i", "coeffs": {"1": 1}}]},
        {"k": 6, "principal_parts": [{"point": "i", "coeffs": {"one": ["0", "1"]}}]},
        {"k": 6, "principal_parts": [{"point": "i", "coeffs": {"1": ["nan", "1"]}}]},
        {"k": 6, "principal_parts": [{"point": "z", "coeffs": {"1": ["0", "1"]}}]},
        {"k": "6", "principal_parts": [good]},
        {"k": 6.5, "principal_parts": [good]},
        {"k": 1, "principal_parts": [good]},
        # the solve's factorials grow with k: at pole order 39 at both
        # points, k = 10^4 takes 35 s
        {"k": MAX_BASIS_K + 2, "principal_parts": [good]},
        {"k": 6, "principal_parts": [{"point": "i", "coeffs": {"0": ["0", "1"]}}]},
        {"k": 6, "principal_parts": [{"point": "i", "coeffs": {str(MAX_POLE_ORDER + 1): ["0", "1"]}}]},
    ]
    for request in requests:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
        code, out, err = run(capsys, "basis", "--input", "-", "--precision", "96")
        assert code == 1 and out == "", request
        assert err.startswith("error:"), request


@pytest.mark.parametrize(
    "coeffs, message",
    [
        # were "invalid literal for int() with base 10: 'x'" and "too many
        # values to unpack (expected 2)", naming neither entry nor key
        ({"1": ["0", "1"], "x": ["0", "1"]}, "principal_parts[1] at rho, order key 'x': the pole order is not an integer"),
        ({"2": ["0", "1", "2"]}, "principal_parts[1] at rho, order key '2': coefficient must be [re, im], got ['0', '1', '2']"),
    ],
)
def test_basis_request_errors_name_the_entry_and_the_order_key(monkeypatch, capsys, coeffs, message):
    request = {"k": 6, "principal_parts": [{"point": "i", "coeffs": {"1": ["0", "1"]}}, {"point": "rho", "coeffs": coeffs}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    code, out, err = run(capsys, "basis", "--input", "-", "--precision", "96")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_pole_order_above_limit_is_usage_error(capsys):
    # every pole order lengthens every series: expand of 1/E6^2000 ran for
    # more than a minute, and verify of 1/E6^200 ended in a traceback
    n = MAX_POLE_ORDER + 1
    for point, form in (("i", f"1/E6^{n}"), ("rho", f"E6 / E4^{n}"), ("i", f"1/(E10 * E6^{n - 1})")):
        code, out, err = run(capsys, "expand", "--form", form, "--point", point, "--depth", "3")
        assert code == 1 and out == "", form
        assert f"pole order must be <= {MAX_POLE_ORDER}, got {n}" in err
    # the auxiliary form F_n of E2^n f has the poles of f raised by n
    for form in (f"1/E6^{n}", f"E2^30 * (1/E6^{n - 30})", f"E2^{n - 20} * (1/E10^20)"):
        for command in (("coeffs",), ("verify", "--tol", "1e-8")):
            code, out, err = run(capsys, *command, "--form", form, "--m", "0", "--norm-bound", "100")
            assert code == 1 and out == "", form
            assert f"pole order plus E2 power must be <= {MAX_POLE_ORDER}, got {n}" in err
    # 2 * 10^6 enumerated for 26 s and held 467 MB
    code, out, err = run(capsys, "enumerate", "--field", "gaussian", "--bound", "2000000")
    assert code == 1 and out == ""
    assert "--bound must be <= 1000000, got 2000000" in err


def test_verify_high_pole_order_at_low_precision(capsys):
    # at 64 bits a coefficient-size threshold took 1/E10^5 for a pole of
    # order 6 at i; the exact valuation gives 5.  The principal part of
    # 1/E10^10 at rho spans more binades than 2^-32 of its largest
    # coefficient, and no order of it may be taken for zero
    for form, m in (("1/E10^5", "0..2"), ("1/E10^10", "0")):
        code, out, err = run(
            capsys, "verify", "--form", form, "--m", m, "--tol", "1e-8", "--precision", "64", "--norm-bound", "400"
        )
        assert code == 0, (form, err)
        assert json.loads(out)["verdict"] == "pass"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "oracle", "--form", "E3", "--m", "0")
    assert code == 1
    code, _, err = run(capsys, "coeffs", "--form", "1/E10", "--m", "0", "--precision", "32")
    assert code == 1
    code, _, err = run(capsys, "coeffs", "--form", "D(1/E10)", "--m", "0")
    assert code == 1
    assert err == "error: D(...) is not modular; only the oracle can expand it\n"
    code, _, _ = run(capsys, "nosuchcommand")
    assert code == 1


def test_dee_without_a_pole_is_refused_as_dee(capsys):
    # D(E4) has valuation 0 at i and rho: a pole scan ahead of the D check
    # refused 1/D(E4) for having no poles
    code, out, err = run(capsys, "coeffs", "--form", "1/D(E4)", "--m", "0")
    assert code == 1 and out == ""
    assert err == "error: D(...) is not modular; only the oracle can expand it\n"


def test_every_error_class_maps_to_one_exit_code():
    # main sends ArithmeticError to exit 2 and ValueError to exit 1, so an
    # error class deriving from neither, or from both, is mapped wrongly
    # (__main__ runs the command line when imported)
    classes = [
        obj
        for info in pkgutil.iter_modules(meroforms.__path__)
        if info.name != "__main__"
        for obj in vars(importlib.import_module(f"meroforms.{info.name}")).values()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__.startswith("meroforms.")
    ]
    assert {"UsageError", "FormParseError", "ExpansionError", "BasisResidualError"} <= {c.__name__ for c in classes}
    for cls in classes:
        assert issubclass(cls, ArithmeticError) != issubclass(cls, ValueError), cls


def test_out_of_range_input_is_usage_error(capsys, monkeypatch):
    # a negative m would index the coefficient tuple from its end, and a
    # negative depth leaves nothing to expand
    for m in ("-2..1", "-1"):
        code, out, err = run(capsys, "oracle", "--form", "1/E6", f"--m={m}")
        assert code == 1 and out == ""
        assert "m must be >= 0" in err
    code, out, err = run(capsys, "expand", "--form", "1/E10", "--point", "i", "--depth", "-3")
    assert code == 1 and out == ""
    assert "depth must be >= 0" in err
    # jets cost about depth^2 products, so the depth is capped
    for command in (("expand", "--form", "1/E10", "--point", "i"), ("constants",)):
        code, out, err = run(capsys, *command, "--depth", "201")
        assert code == 1 and out == ""
        assert "depth must be <= 200" in err
    # every command with a precision checks it, from the flag or from the
    # environment, before any work; the oracle is exact and has none
    for command in (("constants",), ("verify", "--form", "1/E10", "--m", "0", "--tol", "1e-8")):
        for bits in ("-5", "63", str(MAX_PRECISION + 1)):
            code, out, err = run(capsys, *command, "--precision", bits)
            assert code == 1 and out == ""
            assert f"--precision: precision must be in 64..{MAX_PRECISION} bits, got {bits}" in err
    for value in ("abc", "-5"):
        monkeypatch.setenv("MEROFORMS_PRECISION", value)
        code, out, err = run(capsys, "constants")
        assert code == 1 and out == "" and err.startswith("error:") and "MEROFORMS_PRECISION" in err
        code, out, _ = run(capsys, "oracle", "--form", "1/E6", "--m", "1")
        assert code == 0 and json.loads(out)["coefficients"][0]["coefficient"] == "504"


def test_norm_bound_above_limit_is_usage_error(capsys):
    # 10^8 would enumerate for minutes and cache about 48M ideals
    code, out, err = run(capsys, "verify", "--form", "1/E10", "--m", "0", "--tol", "1e-8", "--norm-bound", "100000000")
    assert code == 1 and out == ""
    assert "norm-bound must be <= 1000000" in err
    code, out, err = run(capsys, "identity", "--norm-bound", "1000001")
    assert code == 1 and out == ""
    assert "norm-bound must be <= 1000000" in err


@pytest.mark.parametrize(
    "bound,message",
    [
        ("0", "--bound must be >= 1, got 0"),
        ("-5", "--bound must be >= 1, got -5"),
        ("2000000", "--bound must be <= 1000000, got 2000000"),
    ],
)
def test_enumerate_bound_errors_name_the_flag(capsys, bound, message):
    # enumerate takes --bound, not --norm-bound
    code, out, err = run(capsys, "enumerate", "--field", "eisenstein", "--bound", bound)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (("coeffs", "--form", "1/E6", "--m", "0", "--norm-bound", "15"), "--norm-bound must be >= 16, got 15"),
        (("verify", "--form", "1/E6", "--m", "0", "--tol", "1e-8", "--norm-bound", "-3"), "--norm-bound must be >= 16, got -3"),
        (
            ("coeffs", "--form", "1/E6", "--m", "0", "--norm-bound", "2000000"),
            "--norm-bound must be <= 1000000, got 2000000",
        ),
        (("identity", "--norm-bound", "99"), "identity check needs --norm-bound >= 100, got 99"),
        (("identity", "--norm-bound", "1000001"), "--norm-bound must be <= 1000000, got 1000001"),
    ],
)
def test_norm_bound_errors_name_the_flag(capsys, args, message):
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args",
    [
        ("coeffs", "--form", "0/E6", "--m", "0"),
        ("verify", "--form", "0*(1/E6)", "--m", "0..2", "--tol", "1e-8"),
        ("expand", "--form", "0/E6", "--point", "i"),
    ],
    ids=["coeffs", "verify", "expand"],
)
def test_zero_form_is_usage_error(capsys, args):
    # a zero factor has no valuation: an input error, not a numerical failure
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert err == "error: the form has a factor 0, so it is identically zero or divides by zero\n"


def test_zero_form_oracle_prints_zero(capsys):
    code, out, _ = run(capsys, "oracle", "--form", "0", "--m", "0")
    assert code == 0
    assert [row["coefficient"] for row in json.loads(out)["coefficients"]] == ["0"]


@pytest.mark.parametrize("form", ["1/(0*E6)", "1/D(E4)", "E4/D(E6)"])
def test_oracle_of_non_invertible_form_is_usage_error(capsys, form):
    # exact arithmetic fails only on a reciprocal of a series with constant
    # term 0, a form unbounded towards the cusp: an input error
    code, out, err = run(capsys, "oracle", "--form", form, "--m", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "constant term 0" in err


def test_deterministic_output(capsys):
    args = ("coeffs", "--form", "1/E4", "--m", "0..1", "--norm-bound", "400", "--precision", "128")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_precision_env_default(monkeypatch, capsys):
    monkeypatch.setenv("MEROFORMS_PRECISION", "96")
    code, out, _ = run(capsys, "constants", "--depth", "0")
    assert code == 0
    assert json.loads(out)["precision"] == 96


def test_coefficients_beyond_int_str_limit_print_exactly(monkeypatch, capsys):
    # str() of an int refuses more than 4300 digits; E2^4/E6^4 passes that
    # from about m = 1570
    big = Fraction(-(10**4300 + 7), 3)
    digits = "-" + "1" + "0" * 4299 + "7/3"
    monkeypatch.setattr(cli, "oracle_coeffs", lambda expr, n: (big, Fraction(0)))
    code, out, err = run(capsys, "oracle", "--form", "1/E10", "--m", "0..1", "--order", "1")
    assert code == 0, err
    assert [row["coefficient"] for row in json.loads(out)["coefficients"]] == [digits, "0"]
    code, out, _ = run(
        capsys, "verify", "--form", "1/E10", "--m", "0", "--tol", "1e-8", "--norm-bound", "200", "--precision", "128"
    )
    assert code == 3
    assert json.loads(out)["rows"][0]["oracle"] == digits


def test_oracle_order_above_limit_is_usage_error(capsys):
    code, out, err = run(capsys, "oracle", "--form", "1/E6", "--m", "0", "--order", str(MAX_ORACLE_ORDER + 1))
    assert code == 1 and out == ""
    assert f"oracle order must be <= {MAX_ORACLE_ORDER}" in err
    for command in (("coeffs",), ("verify", "--tol", "1e-8")):
        code, out, err = run(capsys, *command, "--form", "1/E10", "--m", f"0..{MAX_ORACLE_ORDER + 1}")
        assert code == 1 and out == ""
        assert f"oracle order must be <= {MAX_ORACLE_ORDER}" in err


M_COMMANDS = [("oracle",), ("coeffs",), ("verify", "--tol", "1e-8")]


@pytest.mark.parametrize("command", M_COMMANDS, ids=lambda c: c[0])
def test_m_range_is_bounded_before_its_list(capsys, command):
    # the list of every m was built before its cap was checked: 0..10^7
    # peaked at 404 MB, and 0..10^8 ended in a MemoryError traceback
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *command, "--form", "1/E6", "--m", "0..10000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == f"error: oracle order must be <= {MAX_ORACLE_ORDER}, got 10000000\n"
    assert peak < 5 * 2**20


NESTED = "(" * 400 + "1/E6" + ")" * 400


@pytest.mark.parametrize(
    "args",
    [
        ("oracle", "--form", NESTED, "--m", "0"),
        ("coeffs", "--form", NESTED, "--m", "0"),
        ("expand", "--form", NESTED, "--point", "i"),
        ("oracle", "--form", "D(" * 400 + "1/E6" + ")" * 400, "--m", "0"),
        ("oracle", "--form", "1/E6\x00", "--m", "0"),
        ("oracle", "--form", " * ".join(["E4"] * 5000), "--m", "0"),
        ("oracle", "--form=" + "-" * 10000 + "E4", "--m", "0"),
    ]
    + [(*command, "--form", "1/E6", "--m", "0..10000000") for command in M_COMMANDS],
    ids=[
        "parens-oracle", "parens-coeffs", "parens-expand", "nested-D", "nul", "5000-factors", "10000-minus",
        "m-oracle", "m-coeffs", "m-verify",
    ],
)
def test_hostile_input_is_one_line_usage_error(capsys, args):
    # Python's parser gives up on deep nesting and long products with
    # RecursionError or MemoryError; the user sees one usage line, not a traceback
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


def test_oracle_negative_order_is_usage_error(capsys):
    # a negative order was silently replaced by the largest m
    code, out, err = run(capsys, "oracle", "--form", "1/E6", "--m", "0..5", "--order", "-3")
    assert code == 1 and out == ""
    assert "--order must be >= 0, got -3" in err


def test_norm_bound_checked_before_oracle(monkeypatch, capsys):
    # E2^20 * (1/E10^20) built its expansion for seconds before the bound was checked
    def must_not_run(*args):
        raise AssertionError("expansion or oracle built before the norm-bound check")

    monkeypatch.setattr(cli, "oracle_coeffs", must_not_run)
    monkeypatch.setattr(quasi, "quasi_expansion", must_not_run)
    for command in (("coeffs",), ("verify", "--tol", "1e-8")):
        code, out, err = run(capsys, *command, "--form", "1/E6^4", "--m", "400", "--norm-bound", "100")
        assert code == 1 and out == ""
        assert err == "error: norm_bound 100 below required 5027\n"
    args = ("--form", "E2^20 * (1/E10^20)", "--m", "0..50", "--tol", "1e-8", "--norm-bound", "200")
    code, out, err = run(capsys, "verify", *args)
    assert code == 1 and out == ""
    assert err == "error: norm_bound 200 below required 629\n"


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "abc"])
def test_tol_checked_before_any_work(monkeypatch, capsys, tol):
    # inf passed every row, and the others built the expansion and the
    # oracle before failing
    def expansion_must_not_run(*args):
        raise AssertionError("expansion built before the --tol check")

    monkeypatch.setattr(quasi, "quasi_expansion", expansion_must_not_run)
    code, out, err = run(capsys, "verify", "--form", "1/E6^4", "--m", "0", f"--tol={tol}")
    assert code == 1 and out == ""
    assert f"--tol must be a finite number > 0, got {tol!r}" in err


@pytest.mark.parametrize(
    "args,message",
    [
        (("oracle", "--form", "-E4", "--m", "0"), "unexpected '-E4' in a form"),
        (("oracle", "--for", "-E4", "--m", "0"), "unexpected '-E4' in a form"),
        (("coeffs", "--form", "-1/E6", "--m", "0"), "unexpected '-1' in a form"),
        (("oracle", "--form", "E4", "--m", "-2..3"), "m must be >= 0, got '-2..3'"),
        (("verify", "--form", "1/E6", "--m", "0", "--tol", "-1e-8"), "--tol must be a finite number > 0, got '-1e-8'"),
        (("oracle", "--form", "-" * 10000 + "E4", "--m", "0"), None),
    ],
    ids=["form-oracle", "form-abbreviated", "form-coeffs", "m", "tol", "10000-minus"],
)
def test_value_starting_with_minus_reaches_its_flags_check(capsys, args, message):
    # argparse read '--form -E4' as two flags and printed its usage text;
    # the value now meets the same check as in the '--form=-E4' spelling
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message is None or err == f"error: {message}\n"
    spelled = [f"{flag}={value}" for flag, value in zip(args[1::2], args[2::2])]
    assert run(capsys, args[0], *spelled) == (code, out, err)


def test_abbreviated_flags_join_only_values(capsys):
    # '--h' prefixes '--help' alone, which takes no value: the '-E4' after
    # it is not joined, and help is printed; '--norm' still takes its value
    code, out, err = run(capsys, "oracle", "--h", "-E4")
    assert code == 0 and out.startswith("usage: ") and err == ""
    code, out, err = run(capsys, "coeffs", "--form", "1/E6", "--m", "0", "--norm", "300")
    assert code == 0 and json.loads(out)["norm_bound"] == 300


def test_missing_flag_value_keeps_argparse_message(capsys):
    # a flag where the value should be is not taken for the value
    code, out, err = run(capsys, "coeffs", "--form", "--m", "0")
    assert code == 1 and out == ""
    assert "argument --form: expected one argument" in err

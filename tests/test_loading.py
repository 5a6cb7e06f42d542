"""What importing the package loads.  A layer module runs on its first
attribute access, so each check runs in a fresh interpreter: in the test
process earlier tests have loaded every layer."""

import json

import pytest

from conftest import fresh_python

ORACLE = ("oracle", "--form", "E2^4 * (1/E6^4)", "--m", "0..80", "--order", "80")
# runs the command line of its arguments with mpmath unimportable
WITHOUT_MPMATH = "import sys; sys.modules['mpmath'] = None; from meroforms.cli import main; sys.exit(main())"

# the same with the csv module unimportable
WITHOUT_CSV = WITHOUT_MPMATH.replace("'mpmath'", "'csv'")

# the same with the dataclasses module unimportable
WITHOUT_DATACLASSES = WITHOUT_MPMATH.replace("'mpmath'", "'dataclasses'")
VERIFY = ("verify", "--form", "1/E10", "--m", "0..1", "--tol", "1e-8", "--norm-bound", "100")

# runs the command line of its arguments, then prints a line of JSON: its
# exit code, the layers that ran (a lazy layer's placeholder is no plain
# module until it runs) and whether mpmath was loaded
PROBE_LAYERS = """
import json, sys, types
from meroforms.cli import main
code = main()
ran = [name[10:] for name, module in sorted(sys.modules.items())
       if name.startswith("meroforms.") and name != "meroforms.cli" and type(module) is types.ModuleType]
print()
print(json.dumps({"code": code, "ran": ran, "mpmath": "mpmath" in sys.modules}))
"""
LAYERS = ("constants", "engine", "expansion", "lattice", "qseries", "quasi", "solver")
BASIS_REQUEST = {"k": 6, "principal_parts": [{"point": "i", "coeffs": {"1": ["0", "0.10323759943705595"]}}]}

# README's "What a command loads" table: a command, the layers it runs
# besides cli and whether it loads mpmath; "<request>" is a file holding
# BASIS_REQUEST
COMMAND_LOADS = [
    (ORACLE, ("qseries",), False),
    (("constants", "--depth", "0"), ("constants", "qseries"), True),
    (("enumerate", "--field", "gaussian", "--bound", "50"), ("constants", "lattice", "qseries"), True),
    (("expand", "--form", "1/E6", "--point", "i", "--depth", "2"), ("constants", "expansion", "qseries"), True),
    (("basis", "--input", "<request>", "--precision", "96"), ("constants", "expansion", "qseries", "solver"), True),
    (("identity", "--norm-bound", "100"), tuple(layer for layer in LAYERS if layer != "quasi"), True),
    (("coeffs", *VERIFY[1:5], "--norm-bound", "100"), LAYERS, True),
    (VERIFY, LAYERS, True),
]

# the names the package re-exports, by the layer that defines them
REEXPORTS = {
    "constants": (
        "DEFAULT_PRECISION",
        "POINT_I",
        "POINT_RHO",
        "EllipticPoint",
        "closed_value",
        "derivative_jet",
        "e10_jet",
        "generic_point",
        "qseries_eval",
    ),
    "engine": (
        "ClosedFormMismatch",
        "TruncatedSum",
        "assemble_coefficient",
        "block_table",
        "f_series_coeff",
        "general_coeff_sum",
        "identity_check_m0",
        "raising_expansion",
    ),
    "expansion": ("LaurentSeries", "PrincipalPart", "laurent_at", "principal_part", "taylor_at", "valuation"),
    "lattice": ("Field", "PrimitiveIdeal", "b_kernel", "c_kernel", "complete_unimodular", "enumerate_primitive"),
    "qseries": ("FormExpression", "RationalQSeries", "make_eisenstein", "oracle_coeffs", "parse_form"),
    "quasi": ("QuasiExpansion", "coefficients", "quasi_expansion", "simple_pole_quasi_coeff"),
    "solver": ("BasisRepresentation", "BasisTerm", "basis_principal_part", "epsilon_tilde", "solve_basis"),
}

# prints what the package lists and loads, then which re-exports are the
# defining layer's own objects
PROBE_REEXPORTS = """
import importlib, json, sys
import meroforms
listed = dir(meroforms)
loaded = "mpmath" in sys.modules
table = json.loads(sys.argv[1])
same = [
    name
    for layer, names in table.items()
    for name in names
    if getattr(meroforms, name) is getattr(importlib.import_module(f"meroforms.{layer}"), name)
]
print(json.dumps({"all": meroforms.__all__, "dir": listed, "loaded": loaded, "same": same,
                  "unknown": hasattr(meroforms, "no_such_name")}))
"""


def test_oracle_runs_without_mpmath():
    # the north star: the exact oracle is independent of the float path
    plain = fresh_python("-m", "meroforms", *ORACLE)
    blocked = fresh_python("-c", WITHOUT_MPMATH, *ORACLE)
    assert plain.returncode == 0 and plain.stdout.startswith(b"{")
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (0, plain.stdout, b"")


def test_a_float_command_needs_mpmath():
    # the block above does block: a command on the float path cannot run
    blocked = fresh_python("-c", WITHOUT_MPMATH, "constants", "--depth", "0")
    assert blocked.returncode != 0 and blocked.stdout == b""
    assert b"mpmath" in blocked.stderr


def test_only_csv_output_loads_csv():
    # JSON commands never import csv; `--output csv` does, so blocking it
    # stops that command alone
    for command in (ORACLE, VERIFY):
        plain = fresh_python("-m", "meroforms", *command)
        blocked = fresh_python("-c", WITHOUT_CSV, *command)
        assert plain.returncode == 0 and plain.stdout.startswith(b"{")
        assert (blocked.returncode, blocked.stdout, blocked.stderr) == (0, plain.stdout, b"")
    blocked = fresh_python("-c", WITHOUT_CSV, "coeffs", *VERIFY[1:5], "--norm-bound", "100", "--output", "csv")
    assert blocked.returncode != 0 and b"csv" in blocked.stderr


def test_no_command_loads_dataclasses():
    # the records are NamedTuples and plain classes, so no command imports
    # dataclasses (nor inspect and the modules it pulls in): blocking it
    # changes no byte of the oracle or of a verify run
    for command in (ORACLE, VERIFY):
        plain = fresh_python("-m", "meroforms", *command)
        blocked = fresh_python("-c", WITHOUT_DATACLASSES, *command)
        assert plain.returncode == 0 and plain.stdout.startswith(b"{")
        assert (blocked.returncode, blocked.stdout, blocked.stderr) == (0, plain.stdout, b"")


def test_reexports_resolve_to_their_layers():
    run = fresh_python("-c", PROBE_REEXPORTS, json.dumps(REEXPORTS))
    assert run.returncode == 0, run.stderr
    probe = json.loads(run.stdout)
    names = [name for names in REEXPORTS.values() for name in names]
    # importing the package and listing it runs no layer
    assert not probe["loaded"]
    assert sorted(probe["all"]) == sorted(names)
    assert set(names) <= set(probe["dir"])
    assert set(REEXPORTS) <= set(probe["dir"])
    assert probe["same"] == names
    assert not probe["unknown"]


@pytest.mark.parametrize("command, layers, mpmath", COMMAND_LOADS, ids=[loads[0][0] for loads in COMMAND_LOADS])
def test_each_command_runs_the_layers_of_its_table_row(tmp_path, command, layers, mpmath):
    request = tmp_path / "request.json"
    request.write_text(json.dumps(BASIS_REQUEST))
    run = fresh_python("-c", PROBE_LAYERS, *(str(request) if arg == "<request>" else arg for arg in command))
    assert run.returncode == 0, run.stderr
    probe = json.loads(run.stdout.splitlines()[-1])
    assert probe == {"code": 0, "ran": list(layers), "mpmath": mpmath}

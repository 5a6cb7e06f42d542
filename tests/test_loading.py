"""What importing the package loads.  A layer module runs on its first
attribute access, so each check runs in a fresh interpreter: in the test
process earlier tests have loaded every layer."""

import json

from conftest import fresh_python

ORACLE = ("oracle", "--form", "E2^4 * (1/E6^4)", "--m", "0..80", "--order", "80")
# runs the command line of its arguments with mpmath unimportable
WITHOUT_MPMATH = "import sys; sys.modules['mpmath'] = None; from meroforms.cli import main; sys.exit(main())"

# the same with the csv module unimportable
WITHOUT_CSV = WITHOUT_MPMATH.replace("'mpmath'", "'csv'")
VERIFY = ("verify", "--form", "1/E10", "--m", "0..1", "--tol", "1e-8", "--norm-bound", "100")

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
        "elliptic_block_coeff",
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

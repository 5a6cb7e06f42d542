"""Fourier coefficients of negative-weight meromorphic cusp forms.

The package computes coefficients two independent ways: lattice
ideal-sum formulas evaluated in arbitrary precision, and an exact
rational q-series oracle, and cross-validates them.

Importing the package runs no layer.  Each layer module is put in
``sys.modules`` by a lazy loader and runs on its first attribute access,
so a command loads only the layers it uses: ``oracle`` loads ``qseries``
and never mpmath.  The names in ``__all__`` are read from their layers
on first use (PEP 562), so ``from meroforms import X`` loads X's layer.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(layer: str):
    """The module ``meroforms.<layer>``, registered in ``sys.modules`` but
    not run until one of its attributes is read."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


constants = _lazy("constants")
engine = _lazy("engine")
expansion = _lazy("expansion")
lattice = _lazy("lattice")
qseries = _lazy("qseries")
quasi = _lazy("quasi")
solver = _lazy("solver")

# re-exported name -> the layer that defines it
_EXPORTS = {
    name: module
    for module, names in (
        (
            constants,
            (
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
        ),
        (
            engine,
            (
                "ClosedFormMismatch",
                "TruncatedSum",
                "assemble_coefficient",
                "elliptic_block_coeff",
                "f_series_coeff",
                "general_coeff_sum",
                "identity_check_m0",
                "raising_expansion",
            ),
        ),
        (expansion, ("LaurentSeries", "PrincipalPart", "laurent_at", "principal_part", "taylor_at", "valuation")),
        (lattice, ("Field", "PrimitiveIdeal", "b_kernel", "c_kernel", "complete_unimodular", "enumerate_primitive")),
        (qseries, ("FormExpression", "RationalQSeries", "make_eisenstein", "oracle_coeffs", "parse_form")),
        (quasi, ("QuasiExpansion", "coefficients", "quasi_expansion", "simple_pole_quasi_coeff")),
        (solver, ("BasisRepresentation", "BasisTerm", "basis_principal_part", "epsilon_tilde", "solve_basis")),
    )
    for name in names
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(_EXPORTS[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})

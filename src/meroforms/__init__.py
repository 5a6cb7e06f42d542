"""Fourier coefficients of negative-weight meromorphic cusp forms.

The package computes coefficients two independent ways: lattice
ideal-sum formulas evaluated in arbitrary precision, and an exact
rational q-series oracle, and cross-validates them.
"""

__version__ = "0.1.0"

from .constants import (  # noqa: F401
    DEFAULT_PRECISION,
    POINT_I,
    POINT_RHO,
    EllipticPoint,
    closed_value,
    derivative_jet,
    e10_jet,
    generic_point,
    qseries_eval,
)
from .engine import (  # noqa: F401
    ClosedFormMismatch,
    TruncatedSum,
    assemble_coefficient,
    elliptic_block_coeff,
    f_series_coeff,
    general_coeff_sum,
    identity_check_m0,
    raising_expansion,
)
from .expansion import (  # noqa: F401
    LaurentSeries,
    PrincipalPart,
    laurent_at,
    principal_part,
    taylor_at,
    valuation,
)
from .lattice import (  # noqa: F401
    Field,
    PrimitiveIdeal,
    b_kernel,
    c_kernel,
    complete_unimodular,
    enumerate_primitive,
)
from .qseries import (  # noqa: F401
    FormExpression,
    RationalQSeries,
    make_eisenstein,
    oracle_coeffs,
    parse_form,
)
from .quasi import (  # noqa: F401
    QuasiExpansion,
    coefficients,
    quasi_expansion,
    simple_pole_quasi_coeff,
)
from .solver import (  # noqa: F401
    BasisRepresentation,
    BasisTerm,
    basis_principal_part,
    epsilon_tilde,
    solve_basis,
)

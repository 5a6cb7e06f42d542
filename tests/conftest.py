import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpf, mpc, workprec

PREC = 256
SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` run in a new interpreter with the package on its
    path; stdout and stderr are captured as bytes.  A test that asks what
    importing loads needs one: in the test process every layer is loaded."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path}, capture_output=True, timeout=300)


@pytest.fixture(scope="session")
def prec():
    return PREC


def rel_err(got, want):
    """Relative error as an mpf; absolute when want == 0.

    Evaluated at high fixed precision so ambient context never floors it.
    """
    with workprec(600):
        got, want = mpc(got), mpc(want)
        denom = abs(want)
        return abs(got - want) / denom if denom != 0 else abs(got)


@pytest.fixture(scope="session")
def rel():
    return rel_err


@pytest.fixture(scope="session")
def e4i(prec):
    from meroforms import POINT_I, closed_value

    return closed_value(4, POINT_I, prec)


@pytest.fixture(scope="session")
def e6rho(prec):
    from meroforms import POINT_RHO, closed_value

    return closed_value(6, POINT_RHO, prec)


def reference_angle_row(ideal, bits):
    """(N, theta, phase numerator P, v0) of an ideal, straight from the kernel
    conventions in the meroforms.lattice docstring: theta = arg(c mu + d)
    by atan2 at ``bits`` bits.  Independent of the library's kernels."""
    from meroforms import Field

    a, b, c, d = ideal.a, ideal.b, ideal.c, ideal.d
    with workprec(bits):
        if ideal.field is Field.GAUSSIAN:
            return ideal.norm, mpmath.atan2(c, d), 2 * (a * c + b * d), mpf(1)
        sqrt3 = mpmath.sqrt(3)
        return ideal.norm, mpmath.atan2(c * sqrt3, c + 2 * d), 2 * a * c + 2 * b * d + a * d + b * c, sqrt3 / 2


def reference_cosine(row, weight, m, bits):
    """cos(pi m P/N + weight theta) of a ``reference_angle_row``."""
    norm, theta, phase_num, _ = row
    with workprec(bits):
        return mpmath.cos(mp.pi * m * phase_num / norm + weight * theta)


def reference_mul(a, b):
    """Product of two coefficient sequences by the plain ``Fraction``
    convolution, truncated to the shorter operand's order."""
    order = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += Fraction(a[i]) * b[j]
    return tuple(out)


def reference_reciprocal(a):
    """Inverse of a coefficient sequence by the ``Fraction`` recurrence
    b_0 = 1/a_0, b_k = -sum_(i>=1) a_i b_(k-i) / a_0."""
    n = len(a) - 1
    b = [Fraction(0)] * (n + 1)
    b[0] = 1 / Fraction(a[0])
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += a[i] * b[k - i]
        b[k] = -acc / a[0]
    return tuple(b)

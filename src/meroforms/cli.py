"""Command-line interface.

Subcommands: coeffs (formula path with oracle column), oracle (exact
rationals), verify (side-by-side comparison against the oracle),
identity (the quartic-reciprocal constant-term identity), enumerate,
expand, basis, constants.  ``coeffs`` and ``verify`` only check their
flags and format ``meroforms.coefficients`` next to the oracle.  Numbers
are emitted as decimal strings so output precision is not limited by
binary doubles.

Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections.abc import Iterator
from fractions import Fraction
from typing import TYPE_CHECKING

# The float layers are read module-qualified, so each loads on its first use
# (see the package docstring), and mpmath is imported only by the helpers
# that format or parse reals: `oracle` runs without either.
from . import __version__, constants, engine, expansion, lattice, quasi, solver
from .qseries import MAX_POLE_ORDER, exact_str, oracle_coeffs, parse_form

if TYPE_CHECKING:
    from mpmath import mpf

ENV_PRECISION = "MEROFORMS_PRECISION"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


# Enumeration and ideal sums are pure Python, so the bound caps time and
# memory.  On a 2-core x86-64 VM, in fresh processes at 10^6, ``enumerate``
# takes 1.9-2.2 s and 168 MB peak (Gaussian, 477k ideals) or 1.35-1.6 s and
# 133 MB (Eisenstein, 368k); ``verify --form "1/E10" --m 0 --tol 1e-8``
# takes 0.76-0.78 s and 22 MB, its m = 0 pass streaming the sector scan.
# Time grows linearly in the bound, and so does memory where a table is
# built.
MAX_NORM_BOUND = 10**6

# The exact oracle's cost is its divisions, one per form and one more per
# D(...) of a quotient, each growing about as order^3 (an order^2 recurrence
# over coefficients whose size grows linearly).  It grows with the form too:
# a high power widens the divisor, and a product with a divided factor packs
# coefficients thousands of bits wide.  On a 2-core x86-64 VM, in a fresh
# process that loads no mpmath, `oracle --form "E2^4 * (1/E6^4)" --order N`
# takes 0.16-0.19 s and 17 MB at N = 600 and 2.9-3.7 s and 22 MB at 2000,
# and the same oracle_coeffs call 9.6-11.8 s and 27 MB at 3000; in-process
# the oracle takes 0.09-0.10 s at order 600, 3.1-3.7 s at 2000 and 13 s at
# 3000.  At order 2000, `1/E6^64` takes 23 s and 25 MB, and `D(1/E6)^2`
# 48-53 s and 106 MB.
MAX_ORACLE_ORDER = 2000

# Jets and Laurent expansions cost about depth^2 products.  On a 2-core
# x86-64 VM, in a fresh process at the default 256 bits, `constants
# --depth 200` takes 3.4 s and `expand --form "E2^8 * (1/E6^8)" --point i
# --depth 200` takes 2.5 s; `constants --depth 500` takes 19 s.
MAX_DEPTH = 200

# Run time grows faster than linearly in the precision.  On a 2-core
# x86-64 VM, in a fresh process at 4096 bits, `verify --form "1/E10"
# --m 0..3 --tol 1e-8` takes 4.1-6.5 s, `constants --depth 200` 4.2-5.2 s
# and `constants --depth 3` 0.10-0.11 s; at 1024 bits the first two take
# 0.38 s and 1.3-1.4 s.  Every ideal's term is still summed at the full
# precision, so the lattice pass bounds the cap.
MAX_PRECISION = 4096

# The basis solve's factorials grow with k.  On the same VM, solving
# principal parts of order 39 at i and rho at 1024 bits takes 0.75 s at
# k = 1000 and 35 s at k = 10^4.
MAX_BASIS_K = 1000


class UsageError(ValueError):
    pass


def _check_precision(flag: int | None) -> int:
    """The --precision flag, else MEROFORMS_PRECISION, else the default,
    checked to lie in 64..MAX_PRECISION bits."""
    source, raw = ("--precision", flag) if flag is not None else (ENV_PRECISION, os.environ.get(ENV_PRECISION))
    try:
        precision = constants.DEFAULT_PRECISION if raw is None else int(raw)
    except ValueError:
        raise UsageError(f"bad {ENV_PRECISION} value {raw!r}")
    if not 64 <= precision <= MAX_PRECISION:
        raise UsageError(f"{source}: precision must be in 64..{MAX_PRECISION} bits, got {precision}")
    return precision


def fmt_real(x, precision: int) -> str:
    import mpmath

    with mpmath.workprec(precision + 8):
        return mpmath.nstr(mpmath.mpf(x), int(precision * 0.30103) + 2)


def _complex_row(key: str, index: int, z, precision: int) -> dict:
    return {key: index, "re": fmt_real(z.real, precision), "im": fmt_real(z.imag, precision)}


def parse_m_range(text: str) -> list[int]:
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    except ValueError:
        raise UsageError(f"--m: expected an index or a range lo..hi, got {text!r}") from None
    if hi < lo:
        raise UsageError(f"empty m range {text!r}")
    if lo < 0:
        raise UsageError(f"m must be >= 0, got {text!r}")
    _at_most(hi, MAX_ORACLE_ORDER, "oracle order")  # before the list, which could fill memory
    return list(range(lo, hi + 1))


def _at_most(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise UsageError(f"{what} must be <= {limit}, got {value}")


def _emit(payload: dict | str, out_path: str | None) -> None:
    """Write text as it is, or a payload as indented JSON and a newline,
    streamed by ``json.dump`` rather than built as one string first."""
    fh = open(out_path, "w") if out_path else sys.stdout
    try:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    finally:
        if out_path:
            fh.close()


def _coefficients(args) -> Iterator[tuple[int, engine.TruncatedSum, Fraction, mpf]]:
    """Check the ``coeffs``/``verify`` flags, then iterate ``(m, result, exact,
    rel_err)`` from ``coefficients`` and the oracle at the working precision;
    ``rel_err`` is absolute where the oracle is 0."""
    import mpmath

    ms = parse_m_range(args.m)
    if args.norm_bound < 16:
        raise UsageError(f"--norm-bound must be >= 16, got {args.norm_bound}")
    _at_most(args.norm_bound, MAX_NORM_BOUND, "--norm-bound")
    expr = parse_form(args.form)
    results = quasi.coefficients(expr, ms, norm_bound=args.norm_bound, precision=args.precision)
    oracle = oracle_coeffs(expr, max(ms))
    with mpmath.workprec(args.precision):
        for m, res in zip(ms, results):
            exact = oracle[m]
            exact_mp = mpmath.mpf(exact.numerator) / exact.denominator
            denom = abs(exact_mp) if exact != 0 else mpmath.mpf(1)
            yield m, res, exact, abs(res.value - exact_mp) / denom


def cmd_oracle(args) -> int:
    expr = parse_form(args.form)
    ms = parse_m_range(args.m)
    if args.order < 0:
        raise UsageError(f"--order must be >= 0, got {args.order}")
    order = max(args.order, max(ms))
    _at_most(order, MAX_ORACLE_ORDER, "oracle order")
    coeffs = oracle_coeffs(expr, order)
    rows = [{"m": m, "coefficient": exact_str(coeffs[m])} for m in ms]
    _emit({"form": str(expr), "coefficients": rows}, args.out)
    return EXIT_OK


def cmd_coeffs(args) -> int:
    rows = [
        {
            "m": m,
            "value_re": fmt_real(res.value.real, args.precision),
            "value_im": fmt_real(res.value.imag, args.precision),
            "tail_bound": fmt_real(res.tail_bound, 64),
            "oracle": exact_str(exact),
            "rel_err": fmt_real(err, 64) if exact != 0 else "",
        }
        for m, res, exact, err in _coefficients(args)
    ]
    if args.output == "json":
        payload = {
            "form": args.form,
            "norm_bound": args.norm_bound,
            "precision": args.precision,
            "rows": rows,
        }
        _emit(payload, args.out)
    else:
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _parse_tol(text: str) -> mpf:
    import mpmath

    try:
        tol = mpmath.mpf(text)
        valid = mpmath.isfinite(tol) and tol > 0
    except ValueError:
        valid = False
    if not valid:
        raise UsageError(f"--tol must be a finite number > 0, got {text!r}")
    return tol


def cmd_verify(args) -> int:
    tol = _parse_tol(args.tol)
    results = _coefficients(args)
    rows = [
        {
            "m": m,
            "formula_re": fmt_real(res.value.real, args.precision),
            "oracle": exact_str(exact),
            "rel_err": fmt_real(err, 64),
            "status": "pass" if err <= tol else "fail",
        }
        for m, res, exact, err in results
    ]
    failures = sum(row["status"] == "fail" for row in rows)
    payload = {
        "form": args.form,
        "tol": args.tol,
        "norm_bound": args.norm_bound,
        "precision": args.precision,
        "rows": rows,
        "verdict": "pass" if failures == 0 else f"fail ({failures} of {len(rows)})",
    }
    _emit(payload, args.out)
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_identity(args) -> int:
    if args.norm_bound < 100:
        raise UsageError(f"identity check needs --norm-bound >= 100, got {args.norm_bound}")
    _at_most(args.norm_bound, MAX_NORM_BOUND, "--norm-bound")
    lhs, rhs, err = engine.identity_check_m0(args.norm_bound, args.precision)
    payload = {
        "norm_bound": args.norm_bound,
        "lhs": fmt_real(lhs, args.precision),
        "rhs": fmt_real(rhs, args.precision),
        "abs_err": fmt_real(err, 64),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    field = lattice.Field(args.field)
    if args.bound < 1:
        raise UsageError(f"--bound must be >= 1, got {args.bound}")
    _at_most(args.bound, MAX_NORM_BOUND, "--bound")
    ideals = lattice.enumerate_primitive(field, args.bound)
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["field", "c", "d", "norm", "a", "b"])
    for b in ideals:
        writer.writerow([field.value, b.c, b.d, b.norm, b.a, b.b])
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_expand(args) -> int:
    _at_most(args.depth, MAX_DEPTH, "depth")
    point = constants.point_from_tag(args.point)
    expr = parse_form(args.form)
    _at_most(-expansion.valuation(expr, point), MAX_POLE_ORDER, "pole order")
    series = expansion.laurent_at(expr, point, args.precision, depth=args.depth)
    rows = [_complex_row("order", series.lowest_order + i, c, args.precision) for i, c in enumerate(series.coeffs)]
    payload = {"form": args.form, "point": args.point, "coefficients": rows}
    _emit(payload, args.out)
    return EXIT_OK


def _basis_request(request, precision: int) -> tuple[int, list[expansion.PrincipalPart]]:
    """``k`` and the principal parts of a ``basis`` request, which must read
    {"k": 2..MAX_BASIS_K, "principal_parts": [{"point": "i" or "rho",
    "coeffs": {order: [re, im]}}]} with orders in 1..MAX_POLE_ORDER.  A bad
    order or coefficient is named by its entry's index and point and its key."""
    import mpmath

    try:
        k = request["k"]
        if type(k) is not int or not 2 <= k <= MAX_BASIS_K:
            raise UsageError(f"k must be an integer in 2..{MAX_BASIS_K}, got {k!r}")
        pps = []
        with mpmath.workprec(precision + constants.GUARD_BITS):
            for index, entry in enumerate(request["principal_parts"]):
                point = constants.point_from_tag(entry["point"])
                coeffs = {}
                for key, value in entry["coeffs"].items():
                    where = f"principal_parts[{index}] at {point}, order key {key!r}"
                    try:
                        order = int(key)
                    except ValueError:
                        raise UsageError(f"{where}: the pole order is not an integer") from None
                    if not 1 <= order <= MAX_POLE_ORDER:
                        raise UsageError(f"{where}: pole order must be in 1..{MAX_POLE_ORDER}, got {order}")
                    try:
                        re, im = value
                        coeffs[order] = mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im))
                    except (ValueError, TypeError):
                        raise UsageError(f"{where}: coefficient must be [re, im], got {value!r}") from None
                    if not mpmath.isfinite(coeffs[order]):
                        raise UsageError(f"{where}: coefficient is not finite")
                pps.append(expansion.PrincipalPart(point, coeffs, frozenset(), precision))
    except (KeyError, TypeError, AttributeError) as exc:
        raise UsageError(f"malformed basis request: {exc!r}") from None
    return k, pps


def cmd_basis(args) -> int:
    if args.input == "-":
        request = json.load(sys.stdin)
    else:
        with open(args.input) as fh:
            request = json.load(fh)
    k, pps = _basis_request(request, args.precision)
    rep = solver.solve_basis(pps, k, args.precision)
    terms = [(t, fmt_real(t.a.real, args.precision), fmt_real(t.a.imag, args.precision)) for t in rep.terms]
    payload = {"k": rep.k, "terms": [{"point": t.point.tag, "n": t.n, "a_re": re, "a_im": im} for t, re, im in terms]}
    _emit(payload, args.out)
    return EXIT_OK


def cmd_constants(args) -> int:
    _at_most(args.depth, MAX_DEPTH, "depth")
    table = {}
    for tag, point in (("i", constants.POINT_I), ("rho", constants.POINT_RHO)):
        jet = constants.derivative_jet(point, args.depth, args.precision)
        table[tag] = {
            f"E{w}": [_complex_row("r", r, jet.value(w, r), args.precision) for r in range(args.depth + 1)]
            for w in (2, 4, 6, 10)
        }
    payload = {"precision": args.precision, "depth": args.depth, "points": table}
    _emit(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meroforms",
        description="Fourier coefficients of negative-weight meromorphic and "
        "quasi-meromorphic cusp forms, with an exact q-series oracle.",
    )
    parser.add_argument("--version", action="version", version=f"meroforms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, norm_bound=True):
        p.add_argument("--precision", type=int, help=f"working precision in bits, 64..{MAX_PRECISION}")
        if norm_bound:
            p.add_argument("--norm-bound", type=int, default=5000, help="ideal-norm truncation bound")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("oracle", help="exact rational coefficients")
    p.add_argument("--form", required=True)
    p.add_argument("--m", required=True, help="single index or range lo..hi")
    p.add_argument("--order", type=int, default=64, help="q-series truncation order")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("coeffs", help="formula-path coefficients with oracle column")
    p.add_argument("--form", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--output", choices=("json", "csv"), default="json")
    add_common(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="compare formula path against the oracle")
    p.add_argument("--form", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--tol", required=True, help="relative tolerance, e.g. 1e-8")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identity", help="quartic-reciprocal constant-term identity check")
    add_common(p)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("enumerate", help="primitive ideals up to a norm bound")
    p.add_argument("--field", choices=("gaussian", "eisenstein"), required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("expand", help="Laurent expansion at i or rho")
    p.add_argument("--form", required=True)
    p.add_argument("--point", choices=("i", "rho"), required=True)
    p.add_argument("--depth", type=int, default=6)
    add_common(p, norm_bound=False)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("basis", help="solve principal parts into the raised basis")
    p.add_argument("--input", required=True, help="JSON file with k and principal parts, or - for stdin")
    add_common(p, norm_bound=False)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("constants", help="derivative jets at i and rho")
    p.add_argument("--depth", type=int, default=3)
    add_common(p, norm_bound=False)
    p.set_defaults(func=cmd_constants)

    # each flag of the program and its subcommands -> whether it takes a value
    parser.takes_value = {
        flag: a.nargs is None for p in (parser, *sub.choices.values()) for a in p._actions for flag in a.option_strings
    }
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    flags, joined = parser.takes_value, []

    def takes(token):  # of each flag the token names, in full or as a prefix argparse expands
        return {value for flag, value in flags.items() if flag == token or token[:2] == "--" and flag.startswith(token)}

    for arg in sys.argv[1:] if argv is None else argv:
        # '--form -E4' or '--for -E4' as '--form=-E4', which reaches the form's
        # check: argparse would read the value as a flag and print its usage text
        if joined and takes(joined[-1]) == {True} and arg[:1] == "-" and not takes(arg.split("=")[0]):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    try:
        args = parser.parse_args(joined)
    except SystemExit as exc:  # argparse exits 2 on usage problems
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if "precision" in args:
            args.precision = _check_precision(args.precision)
        return args.func(args)
    except ArithmeticError as exc:
        sys.stderr.write(json.dumps({"error": {"kind": "numerical", "message": str(exc)}}) + "\n")
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

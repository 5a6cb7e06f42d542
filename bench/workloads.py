"""The benchmark's fixed workloads and the checks on their output.

Each workload is one CLI command a user would type.  The forms are fixed
by name; the run seed only orders the children (see ``run.py``).  All
workloads use the CLI's default precision of 256 bits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

# sha256 over the exact rationals of E2^4/E6^4, one canonical str(Fraction)
# per line for m = 0..N, as printed by the oracle at the parent commit of
# the benchmark.  Coefficients below the truncation order do not depend on
# it, so the order-50 digest is the first 51 lines of the order-600 one.
ORACLE_DIGEST_600 = "90817dc7926e59de2055b9f85e7cc5fc848bf1bcdf92f0edca8093a5073bc84f"
ORACLE_DIGEST_50 = "6845d69deeab9d4c1b8e5dcca513e3f40a4734df6e3e99a638b1ed55e851c119"


@dataclass(frozen=True)
class Workload:
    name: str
    cli: tuple[str, ...]  # arguments after `python -m meroforms`
    # exact oracle values spot-checked by index, plus the digest of them all
    spot: dict = field(default_factory=dict)
    digest: str | None = None
    # per-layer counts that the traced run must reproduce exactly
    counts: dict = field(default_factory=dict)
    # summary that setup_probe.py must print for this form
    setup: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.cli[0]

    @property
    def form(self) -> str:
        return self.cli[self.cli.index("--form") + 1]

    @property
    def ms(self) -> list[int]:
        text = self.cli[self.cli.index("--m") + 1]
        lo, _, hi = text.partition("..")
        return list(range(int(lo), int(hi or lo) + 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quasi-i-B5k",
            ("verify", "--form", "E2 * (1/E6^4)", "--m", "0..10", "--tol", "1e-8"),
            counts={"engine.f_series_coeff.misses": 165, "lattice.ideals": 2376},
            setup={"weight": -22, "k": 13, "n": 1},
        ),
        Workload(
            "supp-B200k",
            ("verify", "--form", "E2^4 * (1/E10)", "--m", "0", "--tol", "1e-8", "--norm-bound", "200000"),
            counts={"engine.f_series_coeff.misses": 2},
            setup={"weight": -2, "k": 6, "n": 4},
        ),
        Workload(
            "oracle-600",
            ("oracle", "--form", "E2^4 * (1/E6^4)", "--m", "0..600", "--order", "600"),
            spot={0: 1, 1: 1920},
            digest=ORACLE_DIGEST_600,
            counts={"engine.f_series_coeff.calls": 0, "lattice.ideals": 0},
            setup={"weight": -16},
        ),
    )
}

# Tiny versions of the three workloads for the harness self-test.
TINY_WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tiny-quasi",
            ("verify", "--form", "E2 * (1/E6^4)", "--m", "0..2", "--tol", "1e-8", "--norm-bound", "200"),
            setup={"weight": -22, "k": 13, "n": 1},
        ),
        Workload(
            "tiny-supp",
            ("verify", "--form", "E2^4 * (1/E10)", "--m", "0", "--tol", "1e-3", "--norm-bound", "200"),
            counts={"engine.f_series_coeff.misses": 2},
            setup={"weight": -2, "k": 6, "n": 4},
        ),
        Workload(
            "tiny-oracle",
            ("oracle", "--form", "E2^4 * (1/E6^4)", "--m", "0..50", "--order", "50"),
            spot={0: 1, 1: 1920},
            digest=ORACLE_DIGEST_50,
            counts={"engine.f_series_coeff.calls": 0, "lattice.ideals": 0},
            setup={"weight": -16},
        ),
    )
}


def oracle_digest(values: list[Fraction]) -> str:
    return hashlib.sha256("\n".join(str(v) for v in values).encode()).hexdigest()


class CheckFailed(Exception):
    pass


def check_output(workload: Workload, returncode: int, stdout: bytes) -> float | None:
    """Raise CheckFailed unless the child's output is right.

    Returns the largest relative error of a ``verify`` run, else None.
    """
    if returncode != 0:
        raise CheckFailed(f"exit code {returncode}")
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    if workload.command == "verify":
        rows = payload.get("rows", [])
        if payload.get("verdict") != "pass":
            raise CheckFailed(f"verdict {payload.get('verdict')!r}")
        if [r.get("m") for r in rows] != workload.ms:
            raise CheckFailed(f"rows for m={[r.get('m') for r in rows]}, asked {workload.ms}")
        if any(r.get("status") != "pass" for r in rows):
            raise CheckFailed("a row is not marked pass")
        return max(float(r["rel_err"]) for r in rows)
    rows = payload.get("coefficients", [])
    if [r.get("m") for r in rows] != workload.ms:
        raise CheckFailed("oracle rows do not cover the asked m range")
    values = [Fraction(r["coefficient"]) for r in rows]
    for m, expected in workload.spot.items():
        if values[m] != expected:
            raise CheckFailed(f"a({m}) = {values[m]}, expected {expected}")
    if oracle_digest(values) != workload.digest:
        raise CheckFailed("oracle coefficients differ from the recorded digest")
    return None


def check_setup(workload: Workload, returncode: int, stdout: bytes) -> None:
    """Raise CheckFailed unless setup_probe.py built what the form needs."""
    if returncode != 0:
        raise CheckFailed(f"set-up exit code {returncode}")
    try:
        summary = json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"set-up output is not JSON: {exc}") from None
    if summary != workload.setup:
        raise CheckFailed(f"set-up built {summary}, expected {workload.setup}")

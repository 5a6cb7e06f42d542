"""What a CLI run does before its first coefficient, in a fresh process.

    python3 bench/setup_probe.py verify "E2 * (1/E6^4)"

Imports meroforms and parses the form.  For ``verify`` it also splits off
the E2 power and builds the quasi-expansion machine (derivative jets,
Laurent expansions and basis solves) at the CLI's default precision.  No
coefficient is computed.  Prints a JSON summary that the benchmark checks.
"""

from __future__ import annotations

import json
import sys

from meroforms.qseries import parse_form, split_e2_power
from meroforms.quasi import quasi_expansion

PRECISION = 256  # the CLI default, which every workload runs at


def main(command: str, form: str) -> None:
    expr = parse_form(form)
    summary = {"weight": expr.weight}
    if command == "verify":
        e2_power, remainder = split_e2_power(expr)
        machine = quasi_expansion(remainder, e2_power, PRECISION)
        summary.update(k=machine.k, n=machine.n)
    print(json.dumps(summary))


if __name__ == "__main__":
    main(*sys.argv[1:])

"""Self-test of the benchmark harness at tiny sizes; takes seconds.

    python3 bench/selftest.py

Runs the three tiny workloads (B=200, m=0..2, oracle order 50) once each,
untraced and traced, and checks that:

* every run passes its output check;
* the metrics emitted are exactly those BENCHMARK.json declares, with the
  same units, and every name matches ``[A-Za-z0-9_.-]+``;
* a corrupted oracle digest, and a wrong exact count, are each counted as
  a failure and make the result incorrect.

Exit status 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys

import run
from workloads import TINY_WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared(kind: str) -> dict:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def emitted(workloads: list, trace: bool) -> dict:
    measurements = run.measure(workloads, seed=0, seconds=0, trace=trace, setup_probes=1)
    res = run.result(measurements, trace)
    for m in measurements:
        for line in m.failures:
            print(f"  {line}")
    return res


def main() -> int:
    problems = []
    tiny = list(TINY_WORKLOADS.values())
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        want = declared(kind)
        for w in tiny:
            res = emitted([w], trace)
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if not res["correct"] or res["failed"]:
                problems.append(f"{w.name} trace={trace}: a check failed")
            if got != want:
                problems.append(f"{w.name} trace={trace}: emitted {sorted(got.items())}, declared {sorted(want.items())}")
            problems += [f"bad metric name {n!r}" for n in got if not NAME.fullmatch(n)]

    oracle = TINY_WORKLOADS["tiny-oracle"]
    broken = {
        "corrupted oracle digest": (dataclasses.replace(oracle, digest="0" * 64), False),
        "wrong exact count": (dataclasses.replace(oracle, counts={"lattice.ideals": 1}), True),
    }
    for what, (w, trace) in broken.items():
        res = emitted([w], trace)
        if res["correct"] or res["failed"] != 1:
            problems.append(f"{what} was not counted as a failure: {res}")

    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

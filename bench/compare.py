"""Compare two sets of benchmark records, such as a parent and a change.

    python3 bench/compare.py --before BENCH_a1.json BENCH_a2.json --after BENCH_b1.json BENCH_b2.json

Each file is a record written by ``run.py --out``.  Records are compared
only when their environment fingerprints agree on ``ENVIRONMENT_KEYS``
(Python, mpmath and its backend, core count, machine): the pure-Python and
gmpy2 backends of mpmath alone change every timing.  Load average, git
commit and source digest are shown but may differ.

For every workload and end-to-end metric it prints each side's median and
quartiles over the records, and the change against the bound fixed in
BENCHMARK.json: ``regressed`` when the after median is worse by more than
the bound, ``unresolved`` when the before side's own spread is wider than
the bound (unless every after value beats every before value), ``better``
when the after median is better by more than that spread, else ``no
worse``.  The
largest ``max_rel_err`` of the formula path is shown on both sides.
Exit status: 0, or 1 if a metric regressed, or 2 if the fingerprints
differ.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import ENVIRONMENT_KEYS, ROOT, quartiles


def load(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def fingerprint_mismatch(records: list[dict]) -> list[str]:
    first = records[0]["fingerprint"]
    return [
        f"{key}: {first.get(key)!r} vs {r['fingerprint'].get(key)!r}"
        for r in records[1:]
        for key in ENVIRONMENT_KEYS
        if r["fingerprint"].get(key) != first.get(key)
    ]


def values(records: list[dict], workload: str, metric: str) -> list[float]:
    return [
        r["workloads"][workload]["metrics"][metric]
        for r in records
        if metric in r["workloads"].get(workload, {}).get("metrics", {})
    ]


def verdict(before: list[float], after: list[float], bound: float, lower_is_better: bool) -> str:
    sign = 1 if lower_is_better else -1
    b1, b2, b3 = quartiles(before)
    a2 = quartiles(after)[1]
    change = sign * (a2 - b2) / b2
    if change > bound:
        return "regressed"
    spread = (b3 - b1) / b2
    all_better = all(sign * (a - b) < 0 for a in after for b in before)
    if spread > bound and not all_better:
        return "unresolved"
    return "better" if -change > spread else "no worse"


def _q(q: tuple) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    mismatch = fingerprint_mismatch(before + after)
    if mismatch:
        print("refusing to compare: environment fingerprints differ\n  " + "\n  ".join(mismatch))
        return 2
    for side, records in (("before", before), ("after", after)):
        commits = sorted({str(r["fingerprint"].get("git_commit")) for r in records})
        digests = sorted({r["fingerprint"]["source_sha256"][:12] for r in records})
        print(f"{side}: {len(records)} records, commit {', '.join(commits)}, source {', '.join(digests)}")
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    regressed = False
    seen = [{w for r in records for w in r["workloads"]} for records in (before, after)]
    workloads = sorted(seen[0] & seen[1])
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':<12} {'before q1/median/q3':>30} {'after q1/median/q3':>30} {'change':>8}  verdict")
        for spec in metrics:
            b, a = values(before, workload, spec["name"]), values(after, workload, spec["name"])
            if not b or not a:
                print(f"  {spec['name']:<12} missing on one side")
                continue
            v = verdict(b, a, spec["bound"], spec["better"] == "lower")
            regressed |= v == "regressed"
            qb, qa = quartiles(b), quartiles(a)
            change = (qa[1] - qb[1]) / qb[1]
            print(f"  {spec['name']:<12} {_q(qb):>30} {_q(qa):>30} {change:>+8.1%}  {v} (bound {spec['bound']:.0%})")
        errs = [
            max(
                (
                    run["max_rel_err"]
                    for r in records
                    for run in r["workloads"].get(workload, {}).get("runs", [])
                    if run["max_rel_err"] is not None
                ),
                default=None,
            )
            for records in (before, after)
        ]
        if errs != [None, None]:
            print(f"  max_rel_err  before {errs[0]}  after {errs[1]}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-process benchmark of the meroforms CLI.

    python3 bench/run.py --workload quasi-i-B5k --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 25 --trace 1 --out BENCH_x.json

Every measured run is a fresh interpreter running the command a user would
type, ``python -m meroforms ...`` with ``src/`` on the path.  It is timed
from spawn to exit, and its CPU time and peak RSS are read with
``os.wait4``, by the small launcher ``spawn.py`` (see there why).  A
run's numbers are kept only if its output passes the workload's check
(see ``workloads.py``); a failed check is counted and its timing
discarded.  Runs repeat until the next one would overrun
``--seconds`` (at least one run).

The speed of a shared machine drifts by 10-30% within a minute, so the
launcher also times a fixed reference loop while each child runs.
``wall_ref`` is the median over the children of their wall time divided
by that reference time: wall time in units of the reference loop.  The
raw ``wall_s`` is in the table and, as ``process.wall_s``, in the
per-layer metrics.

``setup_s`` is the median wall time of ``SETUP_PROBES`` separate fresh
children that do everything before the first coefficient
(``setup_probe.py``).  One child runs at a time.

``--seed`` fixes the order in which workloads, repeats and set-up probes
are interleaved; the forms themselves are fixed by name.

With ``--trace 1`` one more child per workload runs the same command under
``traced_cli.py``, and the per-layer metrics are derived from its spans.
Its exact counts are checked against the workload's, and a mismatch counts
as a failure.

Output: an environment fingerprint, a table per workload, and as the last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With several workloads each metric name is prefixed by the
workload name.  ``--out`` also writes the whole record, samples included,
for ``compare.py``.  Exit status: 0 if every check passed, 1 if one failed,
2 if the source tree is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

from workloads import WORKLOADS, CheckFailed, Workload, check_output, check_setup

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 150  # a child still running then is killed and counted as failed
REFERENCE_EVERY_S = 1.0  # how often spawn.py stops a measured child to time its reference loop
# Must agree between two records for compare.py to compare them.
ENVIRONMENT_KEYS = ("python", "implementation", "mpmath", "mpmath_backend", "nproc", "machine")

# Spans whose self time is reported as ``<span>.s``.
SELF_TIME_SPANS = (
    "engine.f_series_coeff",
    "engine.assemble_coefficient",
    "quasi.coefficient",
    "quasi.simple_pole_quasi_coeff",
    "quasi.quasi_expansion",
    "lattice.enumerate_primitive",
    "lattice.ideal_sum_data",
    "constants.derivative_jet",
    "constants.e10_jet",
    "expansion.laurent_at",
    "expansion.taylor_at",
    "solver.solve_basis",
    "qseries.oracle_coeffs",
    "qseries.parse_form",
)


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ref_s: float
    returncode: int
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], env: dict, reference_every_s: float = REFERENCE_EVERY_S) -> Child:
    """Run one fresh process to completion through ``spawn.py``."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        read_fd, write_fd = os.pipe()
        launcher_argv = [
            sys.executable, str(BENCH / "spawn.py"), str(CHILD_TIMEOUT_S), str(reference_every_s), str(write_fd), *argv
        ]
        try:
            launcher = subprocess.Popen(launcher_argv, stdout=out, stderr=err, env=env, cwd=ROOT, pass_fds=(write_fd,))
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            report = fh.read()
        launcher.wait()
        out.seek(0)
        err.seek(0)
        if launcher.returncode != 0:
            return Child(0.0, 0.0, 0.0, 0.0, launcher.returncode, out.read(), err.read())
        return Child(**json.loads(report), stdout=out.read(), stderr=err.read())


@dataclass
class Run:
    """A measured child whose output passed its check."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    ref_s: float  # mean reference-loop time while the child ran
    max_rel_err: float | None

    @property
    def wall_ref(self) -> float:
        return self.wall_s / self.ref_s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("MEROFORMS_PRECISION", None)  # every workload runs at the CLI default
    return env


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Measurement:
    """Samples of one workload within one benchmark run."""

    workload: Workload
    runs: list = field(default_factory=list)  # Run of each passing child
    setups: list = field(default_factory=list)  # passing set-up probes
    run_walls: list = field(default_factory=list)  # every run, passing or not
    failures: list = field(default_factory=list)
    attempted: int = 0
    setups_left: int = 0
    layers: dict | None = None

    def wants_run(self, seconds: float) -> bool:
        if not self.run_walls:
            return True
        return seconds - sum(self.run_walls) >= statistics.median(self.run_walls)

    def _fail(self, what: str, exc: CheckFailed, child: Child) -> None:
        tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
        self.failures.append(f"{self.workload.name} {what}: {exc}" + (f" ({tail[0]})" if tail else ""))

    def run_once(self, env: dict) -> None:
        self.attempted += 1
        child = run_child([sys.executable, "-m", "meroforms", *self.workload.cli], env)
        self.run_walls.append(child.wall_s)
        try:
            max_rel_err = check_output(self.workload, child.returncode, child.stdout)
            self.runs.append(Run(child.wall_s, child.cpu_s, child.rss_mb, child.ref_s, max_rel_err))
        except CheckFailed as exc:
            self._fail("run", exc, child)

    def setup_once(self, env: dict) -> None:
        self.attempted += 1
        self.setups_left -= 1
        argv = [sys.executable, str(BENCH / "setup_probe.py"), self.workload.command, self.workload.form]
        child = run_child(argv, env, reference_every_s=0)
        try:
            check_setup(self.workload, child.returncode, child.stdout)
            self.setups.append(child)
        except CheckFailed as exc:
            self._fail("set-up", exc, child)

    def trace_once(self, env: dict) -> None:
        self.attempted += 1
        spans_path = OUT_DIR / f"spans-{os.getpid()}-{self.workload.name}.json"
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *self.workload.cli]
        child = run_child(argv, env, reference_every_s=0)  # stops would count in its spans
        try:
            max_rel_err = check_output(self.workload, child.returncode, child.stdout)
            try:
                with open(spans_path) as fh:
                    trace = json.load(fh)
            except (OSError, ValueError) as exc:
                raise CheckFailed(f"no readable spans: {exc}") from None
            self.layers = layer_metrics(trace, self, child, max_rel_err)
            for name, expected in self.workload.counts.items():
                if self.layers[name][0] != expected:
                    raise CheckFailed(f"{name} = {self.layers[name][0]}, expected exactly {expected}")
        except CheckFailed as exc:
            self._fail("traced run", exc, child)
        finally:
            spans_path.unlink(missing_ok=True)

    def end_to_end(self) -> dict:
        """name -> (value, unit); empty when no run or no probe passed."""
        if not self.runs or not self.setups:
            return {}
        return {
            "wall_ref": (statistics.median(r.wall_ref for r in self.runs), "ref"),
            "setup_s": (statistics.median(c.wall_s for c in self.setups), "s"),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in self.runs), "MB"),
        }


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(trace: dict, m: Measurement, traced: Child, max_rel_err: float | None) -> dict:
    """Per-layer metrics of one traced run: name -> (value, unit)."""
    spans = trace["spans"]
    own = self_times(spans)
    totals: dict = {}
    calls: dict = {}
    for span, t in zip(spans, own):
        totals[span[0]] = totals.get(span[0], 0.0) + t
        calls[span[0]] = calls.get(span[0], 0) + 1

    def hit_ratio(name: str) -> float:
        info = trace["caches"][name]
        lookups = info["hits"] + info["misses"]
        return info["hits"] / lookups if lookups else 0.0

    def is_miss(index: int) -> bool:
        return index >= 0 and spans[index][0] == "engine.f_series_coeff" and spans[index][4]["miss"]

    fsc_misses = sum(1 for s in spans if s[0] == "engine.f_series_coeff" and s[4]["miss"])
    # rows handed to the kernel: ideal rows fetched inside an uncached sum
    terms = sum(s[4]["n"] for s in spans if s[0] == "lattice.ideal_sum_data" and is_miss(s[3]))
    ideals = sum(s[4]["n"] for s in spans if s[0] == "lattice.enumerate_primitive" and s[4]["miss"])
    main_span = next(s for s in spans if s[0] == "cli.main")
    cli_self = totals.get("cli.main", 0.0)

    def median_of_runs(attr: str) -> float:
        return statistics.median(getattr(r, attr) for r in m.runs) if m.runs else 0.0

    metrics = {f"{name}.s": (totals.get(name, 0.0), "s") for name in SELF_TIME_SPANS}
    metrics.update(
        {
            "engine.f_series_coeff.calls": (calls.get("engine.f_series_coeff", 0), "count"),
            "engine.f_series_coeff.misses": (fsc_misses, "count"),
            "engine.f_series_coeff.hit_ratio": (hit_ratio("engine.f_series_coeff"), "ratio"),
            "engine.terms": (terms, "count"),
            "engine.us_per_term": (totals.get("engine.f_series_coeff", 0.0) * 1e6 / terms if terms else 0.0, "us"),
            "lattice.ideals": (ideals, "count"),
            "lattice.ideal_sum_data.hit_ratio": (hit_ratio("lattice.ideal_sum_data"), "ratio"),
            "solver.solve_basis.calls": (calls.get("solver.solve_basis", 0), "count"),
            "cli.self_s": (cli_self, "s"),
            "verify.max_rel_err": (max_rel_err or 0.0, "ratio"),
            "process.import_s": (trace["import_s"], "s"),
            "process.wall_s": (median_of_runs("wall_s"), "s"),
            "process.cpu_s": (median_of_runs("cpu_s"), "s"),
            "process.ref_s": (median_of_runs("ref_s"), "s"),
            "trace.overhead_s": (traced.wall_s - median_of_runs("wall_s"), "s"),
            "trace.coverage": (1 - cli_self / (main_span[2] - main_span[1]), "ratio"),
        }
    )
    return metrics


def fingerprint() -> dict:
    import mpmath
    import mpmath.libmp

    sources = sorted((ROOT / "src" / "meroforms").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources)).hexdigest()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg": list(os.getloadavg()),
        "git_commit": git_commit(),
        "source_sha256": digest,
    }


def git_commit() -> str | None:
    """HEAD of the repository rooted here, or None outside a git checkout."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def measure(
    workloads: list[Workload], seed: int, seconds: float, trace: bool, setup_probes: int = SETUP_PROBES
) -> list[Measurement]:
    """Interleave runs and set-up probes of the workloads in a seeded order."""
    rng = random.Random(seed)
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    measurements = [Measurement(w, setups_left=setup_probes) for w in workloads]
    active = list(measurements)
    while active:
        for m in rng.sample(active, len(active)):
            run_next = m.wants_run(seconds)
            if m.setups_left and (not run_next or rng.random() < 0.5):
                m.setup_once(env)
            elif run_next:
                m.run_once(env)
        active = [m for m in active if m.setups_left or m.wants_run(seconds)]
    if trace:
        for m in rng.sample(measurements, len(measurements)):
            m.trace_once(env)
    return measurements


def print_table(m: Measurement) -> None:
    w = m.workload
    print(f"\n{w.name}: meroforms {' '.join(w.cli)}")
    print(f"  runs passed {len(m.runs)}, set-up probes passed {len(m.setups)}, failed {len(m.failures)} of {m.attempted}")
    rows = [
        ("wall_ref", "ref", [r.wall_ref for r in m.runs]),
        ("wall_s", "s", [r.wall_s for r in m.runs]),
        ("ref_s", "s", [r.ref_s for r in m.runs]),
        ("setup_s", "s", [c.wall_s for c in m.setups]),
        ("peak_rss_mb", "MB", [r.rss_mb for r in m.runs]),
        ("cpu_s", "s", [r.cpu_s for r in m.runs]),
    ]
    print(f"  {'metric':<12} {'unit':<6} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}")
    for name, unit, values in rows:
        if values:
            q1, q2, q3 = quartiles(values)
            print(f"  {name:<12} {unit:<6} {len(values):>3} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g}")
    errs = [r.max_rel_err for r in m.runs if r.max_rel_err is not None]
    print(f"  {'max_rel_err':<12} {'ratio':<6} {max(errs):.6g}" if errs else "  max_rel_err  (no formula path)")
    print(f"  {'fail_frac':<12} {'ratio':<6} {len(m.failures) / m.attempted:.6g}")
    for line in m.failures:
        print(f"  FAILED {line}")
    if m.layers:
        print("  per-layer (traced run):")
        for name, (value, unit) in m.layers.items():
            print(f"    {name:<36} {unit:<6} {value:.6g}")


def result(measurements: list[Measurement], trace: bool) -> dict:
    single = len(measurements) == 1
    metrics = {}
    for m in measurements:
        chosen = (m.layers or {}) if trace else m.end_to_end()
        for name, (value, unit) in chosen.items():
            metrics[name if single else f"{m.workload.name}.{name}"] = {"value": value, "unit": unit}
    failed = sum(len(m.failures) for m in measurements)
    return {
        "correct": failed == 0 and all(m.runs and m.setups for m in measurements),
        "attempted": sum(m.attempted for m in measurements),
        "failed": failed,
        "metrics": metrics,
    }


def record(measurements: list[Measurement], fp: dict, args) -> dict:
    return {
        "fingerprint": fp,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workloads": {
            m.workload.name: {
                "cli": list(m.workload.cli),
                "runs": [asdict(r) for r in m.runs],
                "setup_s": [c.wall_s for c in m.setups],
                "failures": m.failures,
                "attempted": m.attempted,
                "metrics": {k: v for k, (v, _) in m.end_to_end().items()},
                "per_layer": {k: v for k, (v, _) in (m.layers or {}).items()},
            }
            for m in measurements
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, a comma list, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record to this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "meroforms" / "__init__.py").is_file():
        print(f"no meroforms source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    fp = fingerprint()
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}")
    measurements = measure([WORKLOADS[n] for n in names], args.seed, args.seconds, bool(args.trace))
    fp["loadavg_end"] = list(os.getloadavg())
    for m in measurements:
        print_table(m)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record(measurements, fp, args), fh, indent=1)
    res = result(measurements, bool(args.trace))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

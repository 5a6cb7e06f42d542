"""The benchmark's traced run reaches into the library by name: every
entry point it wraps must resolve, and the cached ones must keep their
``cache_info``, or ``bench/run.py --trace 1`` crashes."""

import importlib.util
import json
import sys
from pathlib import Path

from conftest import fresh_python

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name):
    # registered before it runs, as dataclasses look their module up
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_cli_import_registers_the_traced_layers_without_mpmath():
    # install() reads sys.modules["meroforms.<layer>"] right after `import
    # meroforms.cli`: each layer is registered there, and none has run, so
    # mpmath is not loaded
    layers = {f"meroforms.{layer}" for layer in _load_bench("traced_cli").LAYER_FUNCTIONS}
    run = fresh_python("-c", "import json, sys, meroforms.cli; print(json.dumps(sorted(sys.modules)))")
    assert run.returncode == 0, run.stderr
    modules = set(json.loads(run.stdout))
    assert "mpmath" not in modules
    assert layers <= modules


def test_layer_functions_resolve():
    for layer, attrs in _load_bench("traced_cli").LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"meroforms.{layer}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                assert hasattr(owner, part), f"meroforms.{layer}.{attr}"
                owner = getattr(owner, part)
            assert callable(owner), f"meroforms.{layer}.{attr}"


def test_traced_caches_exist():
    from meroforms import engine, lattice

    for fn in (engine.f_series_coeff, lattice.ideal_sum_data, lattice.enumerate_primitive):
        assert callable(getattr(fn, "cache_info", None)), fn.__name__


def test_ideal_sum_data_enumerates_through_module_attribute(monkeypatch):
    # the traced run counts ``lattice.ideals`` from the enumerate_primitive
    # calls it wraps at the module attribute; rows built any other way
    # would read 0 ideals on quasi-i-B5k
    from meroforms import lattice

    calls = []
    inner = lattice.enumerate_primitive

    def counting(field, norm_bound):
        calls.append((field, norm_bound))
        return inner(field, norm_bound)

    monkeypatch.setattr(lattice, "enumerate_primitive", counting)
    rows = lattice.ideal_sum_data.__wrapped__(lattice.Field.GAUSSIAN, 50)
    assert calls == [(lattice.Field.GAUSSIAN, 50)]
    assert len(rows) == len(inner(lattice.Field.GAUSSIAN, 50))


def test_m_ideal_sums_enumerate_once_through_module_attribute(monkeypatch):
    # an m >= 1 pass reaches the ideals through phasor_row's one
    # ideal_sum_data miss, so quasi-i-B5k's traced run counts each of its
    # 2376 ideals once; the bound is one no other test sums at
    from meroforms import POINT_I, lattice

    calls = []
    inner = lattice.enumerate_primitive

    def counting(field, norm_bound):
        calls.append((field, norm_bound))
        return inner(field, norm_bound)

    monkeypatch.setattr(lattice, "enumerate_primitive", counting)
    lattice.ideal_sums.__wrapped__(POINT_I, 1357, 64, ((0, 12, 0), (1, 12, 0), (2, 16, 1)))
    assert calls == [(lattice.Field.GAUSSIAN, 1357)]


def test_traced_kernel_counts(capsys):
    # quasi-i-B5k's traced run pins the f_series_coeff misses, which the
    # norm bound does not change; the ideals are summed in one pass per
    # pole for the whole m range: E2/E6^4 has its one pole at i
    from meroforms import cli, engine

    expected = _load_bench("workloads").WORKLOADS["quasi-i-B5k"].counts["engine.f_series_coeff.misses"]
    engine.f_series_coeff.cache_clear()
    engine.ideal_sums.cache_clear()
    assert cli.main(["coeffs", "--form", "E2 * (1/E6^4)", "--m", "0..10", "--norm-bound", "200"]) == 0
    capsys.readouterr()
    assert engine.f_series_coeff.cache_info().misses == expected
    assert engine.ideal_sums.cache_info().misses == 1


def test_traced_supp_kernel_counts(capsys):
    # supp-B200k's traced run pins 2 f_series_coeff misses: E2^4/E10 at
    # m = 0 sums one m = 0-only family at each of its poles, i and rho
    from meroforms import cli, engine

    expected = _load_bench("workloads").WORKLOADS["supp-B200k"].counts["engine.f_series_coeff.misses"]
    engine.f_series_coeff.cache_clear()
    engine.ideal_sums.cache_clear()
    assert cli.main(["coeffs", "--form", "E2^4 * (1/E10)", "--m", "0", "--norm-bound", "200"]) == 0
    capsys.readouterr()
    assert engine.f_series_coeff.cache_info().misses == expected
    assert engine.ideal_sums.cache_info().misses == 2


def test_setup_probe_prints_each_workload_summary(capsys):
    # the probe behind setup_s builds every verify form's quasi-expansion
    probe = _load_bench("setup_probe")
    workloads = _load_bench("workloads")
    for workload in (*workloads.WORKLOADS.values(), *workloads.TINY_WORKLOADS.values()):
        probe.main(workload.command, workload.form)
        assert json.loads(capsys.readouterr().out) == workload.setup, workload.name


def test_oracle_digests_match_the_exactness_gate():
    # oracle-600 keeps a child's timing only if the sha256 of its 601
    # rationals matches the recorded digest; tiny-oracle does the same at 50
    from meroforms.qseries import oracle_coeffs

    workloads = _load_bench("workloads")
    assert workloads.oracle_digest(oracle_coeffs("E2^4 * (1/E6^4)", 600)) == workloads.ORACLE_DIGEST_600
    assert workloads.oracle_digest(oracle_coeffs("E2^4 * (1/E6^4)", 50)) == workloads.ORACLE_DIGEST_50

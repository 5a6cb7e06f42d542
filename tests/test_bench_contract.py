"""The benchmark's traced run reaches into the library by name: every
entry point it wraps must resolve, and the cached ones must keep their
``cache_info``, or ``bench/run.py --trace 1`` crashes."""

import importlib.util
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parent.parent / "bench" / "traced_cli.py"


def _load_traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_resolve():
    for layer, attrs in _load_traced_cli().LAYER_FUNCTIONS.items():
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

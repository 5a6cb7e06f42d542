"""Run one meroforms CLI command in-process under layer spans.

    python3 bench/traced_cli.py SPANS.json verify --form "1/E10" --m 0..3 --tol 1e-8

The program is not changed.  Before ``meroforms.cli.main`` runs, each
layer entry point in ``LAYER_FUNCTIONS`` is replaced by a timing wrapper
at every module attribute bound to it (``quasi`` binds its own name for
``engine.f_series_coeff``, for example).  Spans are kept in memory as
``[name, start, end, parent_index, info]`` and written to SPANS.json when
the command returns, together with the import time of the package and
the final ``cache_info()`` of the cached entry points.  The command's own
output goes to stdout as usual, and the exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time

perf_counter = time.perf_counter

# Layer module -> entry points timed as spans.  Only boundaries are
# wrapped: per-ideal helpers would multiply the tracing cost.
LAYER_FUNCTIONS = {
    "lattice": ("enumerate_primitive", "ideal_sum_data"),
    "engine": ("f_series_coeff", "assemble_coefficient"),
    "constants": ("derivative_jet", "e10_jet"),
    "expansion": ("laurent_at", "taylor_at"),
    "solver": ("solve_basis",),
    "quasi": ("quasi_expansion", "simple_pole_quasi_coeff", "QuasiExpansion.coefficient"),
    "qseries": ("parse_form", "oracle_coeffs"),
    "cli": ("main",),
}
# Spans whose result length is recorded: ideals enumerated, rows prepared.
SIZED = {"lattice.enumerate_primitive", "lattice.ideal_sum_data"}


def _wrap(fn, name: str, spans: list, stack: list):
    cache_info = getattr(fn, "cache_info", None)
    sized = name in SIZED

    def wrapper(*args, **kwargs):
        index = len(spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        spans.append(span)
        stack.append(index)
        misses = cache_info().misses if cache_info else 0
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        info = {}
        if cache_info:
            info["miss"] = cache_info().misses > misses
        if sized:
            info["n"] = len(result)
        span[4] = info or None
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(spans: list, stack: list) -> dict:
    """Wrap every entry point; return the cached ones by span name."""
    modules = [m for name, m in sys.modules.items() if name == "meroforms" or name.startswith("meroforms.")]
    cached = {}
    for layer, attrs in LAYER_FUNCTIONS.items():
        module = sys.modules[f"meroforms.{layer}"]
        for attr in attrs:
            owner_name, _, fn_name = attr.rpartition(".")
            span_name = f"{layer}.{fn_name}"
            if owner_name:  # a method: wrap it on its class
                owner = getattr(module, owner_name)
                setattr(owner, fn_name, _wrap(getattr(owner, fn_name), span_name, spans, stack))
                continue
            original = getattr(module, fn_name)
            if hasattr(original, "cache_info"):
                cached[span_name] = original
            wrapper = _wrap(original, span_name, spans, stack)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)
    return cached


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = perf_counter()
    import meroforms.cli  # noqa: F401  (imports every layer module)

    import_s = perf_counter() - start
    spans: list = []
    stack: list = []
    cached = install(spans, stack)
    try:
        returncode = sys.modules["meroforms.cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        caches = {name: fn.cache_info()._asdict() for name, fn in cached.items()}
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "caches": caches, "spans": spans}, fh)
    return returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

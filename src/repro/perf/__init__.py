"""Performance layer: structural memoization, parallel mapping, perf bench.

Three coordinated pieces (see ``docs/PERFORMANCE.md``):

* :mod:`repro.perf.lru` / :mod:`repro.perf.memo` — a metrics-
  instrumented LRU of canonical node tables keyed by structural
  signature, shared across trees, networks, and K sweeps, with optional
  on-disk persistence.  Cache hits rehydrate to results bit-identical
  to the uncached tree DP.
* :mod:`repro.perf.parallel` — deterministic process-pool fan-out of
  forest trees (tree-level) and benchmark suite cells (suite-level).
* :mod:`repro.perf.benchperf` — the measured perf trajectory and its
  gate behind ``chortle bench-perf`` and the committed
  ``BENCH_perf.json``.

Submodule attributes are re-exported lazily: :mod:`repro.perf.lru` must
stay importable from low layers (``repro.truth.canonical`` uses it), so
this package must not eagerly import :mod:`repro.perf.memo`, which
depends on the core mapper.
"""

from __future__ import annotations

_EXPORTS = {
    "LruCache": "repro.perf.lru",
    "NodeTableCache": "repro.perf.memo",
    "canonicalize_table": "repro.perf.memo",
    "default_cache_dir": "repro.perf.memo",
    "get_cache": "repro.perf.memo",
    "node_signature": "repro.perf.memo",
    "rehydrate_table": "repro.perf.memo",
    "resolve_cache": "repro.perf.memo",
    "map_trees_processes": "repro.perf.parallel",
    "run_cells_processes": "repro.perf.parallel",
    "run_bench_perf": "repro.perf.benchperf",
    "render_bench_perf": "repro.perf.benchperf",
    "save_bench_perf": "repro.perf.benchperf",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    import importlib

    return getattr(importlib.import_module(module), name)

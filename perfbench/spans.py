"""Traced mode: timing spans wrapped around the program's public callables.

The spans live here, not in the program: each listed callable is
replaced, for the traced passes only, by a wrapper that records how long
the call took and how much of that its nested listed calls took.  A
layer's self time is its span minus its child spans.  Counter deltas
come from ``repro.obs.get_metrics()``.  A listed callable that no
longer exists is reported as missing by name; the run goes on.
"""

import functools
import importlib
import sys
import time

# (layer, metric, kind, targets, result counter).  ``kind`` "total"
# reports the span's inclusive time, "self" its time minus child spans.
# A target is "module:function" or "module:Class.method".  A function
# is replaced in every loaded ``repro`` module that imported it by name.
SPANS = [
    ("blif", "blif.parse_s", "total",
     ["repro.blif.parser:parse_blif", "repro.blif.convert:blif_to_network"], None),
    ("blif", "blif.write_s", "total", ["repro.blif.writer:write_lut_circuit"], None),
    ("network", "network.sweep_s", "total", ["repro.network.transform:sweep"], None),
    ("network", "network.strash_s", "total", ["repro.network.transform:strash"], None),
    ("core.forest", "core.forest.build_s", "total", ["repro.core.forest:build_forest"],
     ("core.forest.trees", lambda forest: len(forest.trees))),
    ("core.tree_mapper", "core.tree_mapper.map_tree_s", "total",
     ["repro.core.tree_mapper:TreeMapper.map_tree"], None),
    ("core.substrate", "core.substrate.emit_s", "total",
     ["repro.core.substrate:emit_candidate", "repro.core.substrate:wire_outputs"], None),
    ("core.chortle", "core.chortle.self_s", "self", ["repro.core.chortle:ChortleMapper.map"], None),
    ("baseline.subject", "baseline.subject.decompose_s", "total",
     ["repro.baseline.subject:decompose_to_binary"], None),
    ("core.cuts", "core.cuts.enumerate_s", "total", ["repro.core.cuts:enumerate_cuts"], None),
    ("core.cut_mapper", "core.cut_mapper.self_s", "self",
     ["repro.core.cut_mapper:CutMapper.map"], None),
    ("opt", "opt.refactor_s", "total", ["repro.opt.refactor:refactor_network"], None),
    ("opt", "opt.minimize_s", "total", ["repro.opt.minimize:minimize_cover"], None),
    ("sat", "sat.encode_s", "total",
     ["repro.sat.cnf:Encoder.encode_network", "repro.sat.cnf:Encoder.encode_circuit"], None),
    ("sat", "sat.solve_s", "total", ["repro.sat.solver:CdclSolver.solve"], None),
    ("sat", "sat.check_self_s", "self", ["repro.sat.miter:check_equivalence"], None),
    ("extensions.lutmerge", "extensions.lutmerge.merge_s", "total",
     ["repro.extensions.lutmerge:merge_luts"], None),
    ("flow", "flow.self_s", "self", ["repro.flow.engine:Flow.run"], None),
    ("verify", "verify.self_s", "self",
     ["repro.verify:verify_equivalence", "repro.verify:verify_network_equivalence"], None),
]

LAYERS = sorted({layer for layer, *_ in SPANS})

# Program counters reported per job, under the layer that does the work.
COUNTERS = {
    "core.tree_mapper.minmap_entries": "chortle.minmap_entries",
    "core.tree_mapper.decomp_candidates": "chortle.decomp_candidates",
    "core.cuts.candidates": "cuts.candidates",
    "core.cuts.nodes_enumerated": "cuts.nodes_enumerated",
    "core.cut_mapper.nodes_covered": "cutmap.nodes_covered",
    "core.cut_mapper.exact_area_passes": "cutmap.exact_area_passes",
    "sat.propagations": "sat.propagations",
    "sat.conflicts": "sat.conflicts",
    "sat.decisions": "sat.decisions",
    "sat.learned": "sat.learned",
    "network.nodes_removed": "sweep.nodes_removed",
    "network.nodes_merged": "strash.nodes_merged",
}

# Per-unit costs: (metric, time metric, count metric), in microseconds.
UNIT_COSTS = [
    ("core.tree_mapper.us_per_minmap_entry", "core.tree_mapper.map_tree_s",
     "core.tree_mapper.minmap_entries"),
    ("core.cuts.us_per_candidate", "core.cuts.enumerate_s", "core.cuts.candidates"),
    ("sat.us_per_propagation", "sat.solve_s", "sat.propagations"),
]

#: Raised by the verify layer to deliver a refutation; not a failed call.
VERDICT_ERRORS = ("VerificationError",)


class SpanTracer:
    """Installs the wrappers and accumulates spans of the traced jobs."""

    def __init__(self):
        self.missing = []
        self._patches = []  # (holder, attribute, original) while installed
        self._stack = []  # open spans: [start, seconds of child spans]
        self._depth = {}  # metric -> open spans of it, to count nesting once
        self.seconds = dict.fromkeys((m for _, m, *_ in SPANS), 0.0)
        self.counts = {"core.forest.trees": 0}  # result counters of the spans
        self.program_counts = {}  # repro.obs counter deltas over traced jobs
        self.failed = dict.fromkeys(LAYERS, 0)
        self.minimize_calls = 0
        self.minimize_max_s = 0.0
        self.jobs = 0
        self.job_seconds = 0.0
        self.unattributed_seconds = 0.0
        self._resolve()

    # -- installation ------------------------------------------------------

    def _resolve(self):
        self._targets = []
        for layer, metric, kind, targets, counter in SPANS:
            for target in targets:
                module_name, _, attr = target.partition(":")
                cls_name, _, meth = attr.rpartition(".")
                try:
                    owner = importlib.import_module(module_name)
                    if cls_name:
                        owner = getattr(owner, cls_name)
                        original = owner.__dict__[meth]
                    else:
                        original = getattr(owner, meth)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(target)
                    continue
                wrapper = self._wrap(original, layer, metric, kind, counter)
                self._targets.append((owner, meth, original, wrapper, bool(cls_name)))

    def install(self):
        for owner, name, original, wrapper, is_method in self._targets:
            holders = [owner]
            if not is_method:
                holders = [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod_name.startswith("repro") and getattr(mod, name, None) is original
                ]
            for holder in holders:
                setattr(holder, name, wrapper)
                self._patches.append((holder, name, original))

    def uninstall(self):
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, layer, metric, kind, counter):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            depth = tracer._depth.get(metric, 0)
            tracer._depth[metric] = depth + 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ not in VERDICT_ERRORS:
                    tracer.failed[layer] += 1
                raise
            finally:
                elapsed = time.perf_counter() - frame[0]
                tracer._stack.pop()
                tracer._depth[metric] = depth
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                if kind == "self":
                    tracer.seconds[metric] += elapsed - frame[1]
                elif depth == 0:
                    tracer.seconds[metric] += elapsed
                if metric == "opt.minimize_s":
                    tracer.minimize_calls += 1
                    tracer.minimize_max_s = max(tracer.minimize_max_s, elapsed)
            if counter is not None:
                name, count = counter
                tracer.counts[name] = tracer.counts.get(name, 0) + count(result)
            return result

        return span

    def job(self, run, *args):
        """Run one job as the root span; its self time is unattributed."""
        from repro.obs import get_metrics

        before = get_metrics().counters()
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return run(*args)
        finally:
            elapsed = time.perf_counter() - frame[0]
            self._stack.pop()
            self.jobs += 1
            self.job_seconds += elapsed
            self.unattributed_seconds += elapsed - frame[1]
            for name, value in get_metrics().counter_delta(before).items():
                self.program_counts[name] = self.program_counts.get(name, 0) + value

    # -- report ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: seconds and counts per traced job, and ratios."""
        jobs = max(self.jobs, 1)
        out = {}
        for metric, seconds in self.seconds.items():
            out[metric] = (seconds / jobs, "s")
        counts = dict(self.counts)
        for metric, source in COUNTERS.items():
            counts[metric] = self.program_counts.get(source, 0)
        for metric, count in counts.items():
            out[metric] = (count / jobs, "count")
        for metric, time_metric, count_metric in UNIT_COSTS:
            count = counts.get(count_metric, 0)
            out[metric] = (1e6 * self.seconds[time_metric] / count if count else 0.0, "us")
        out["opt.minimize_calls"] = (self.minimize_calls / jobs, "count")
        out["opt.minimize_max_s"] = (self.minimize_max_s, "s")
        for layer in LAYERS:
            out[layer + ".failed"] = (self.failed[layer], "count")
        out["bench.job_s"] = (self.job_seconds / jobs, "s")
        out["bench.unattributed_ratio"] = (
            self.unattributed_seconds / self.job_seconds if self.job_seconds else 0.0, "ratio")
        out["bench.missing_callables"] = (len(self.missing), "count")
        return out

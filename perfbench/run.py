"""The repository benchmark: four workloads, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload map_tree --seed 1 --seconds 20 --trace 0

One client in one process runs one job at a time (a closed loop), each
mapper at its default ``jobs=1``.  Inputs come from ``--seed`` through
``perfbench/gen.py``; outputs are checked by ``perfbench/blifcheck.py``.
The job loop runs whole passes over the workload's inputs until
``--seconds`` have passed, so every run sees the same mix of jobs.
Times in the JSON are in reference seconds: each interval is scaled by
a calibration loop timed right before and right after it (see
:class:`HostClock`).
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of ``perfbench/spans.py``.  The lines before it are a readable report.
See perfbench/README.md for why each workload exists.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import blifcheck  # noqa: E402
import gen  # noqa: E402

#: A run keeps going past ``--seconds`` until it has this many jobs, so
#: that the tail percentile always has ten samples beyond it.
MIN_JOBS = 20
#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 3
TAIL_BEYOND = 10
#: Iterations of the calibration loop, and the seconds it takes at the
#: reference host speed.  Every time in the JSON is scaled to that speed.
CALIBRATION_ROUNDS = 10000
REFERENCE_CALIBRATION_S = 0.008


class Job:
    """One unit of work: its input BLIF and what the benchmark knows of it."""

    def __init__(self, text, gates, **attrs):
        self.text = text
        self.gates = gates
        self.__dict__.update(attrs)


# -- workloads ---------------------------------------------------------------


class MapTree:
    """``chortle map``: parse BLIF, ChortleMapper(k), write BLIF."""

    def inputs(self, rng):
        jobs = []
        for i in range(12):
            net = gen.wide_tree_network(rng, "tree%d" % i, n_inputs=32, n_gates=250)
            jobs.append(Job(net.to_blif(), len(net.gates), k=4 + i % 3))
        return jobs

    def mapper(self, job):
        from repro.core import ChortleMapper

        return ChortleMapper(job.k)

    def run(self, job):
        from repro.blif import blif_to_network, parse_blif, write_lut_circuit

        net = blif_to_network(parse_blif(job.text))
        return write_lut_circuit(self.mapper(job).map(net))

    def check(self, job, output):
        return blifcheck.compare(job.text, output, seed=job.gates)

    def lut_stats(self, job, output):
        return blifcheck.lut_stats(output)


class MapDag(MapTree):
    """The same job path with the cut mapper, area and depth ranking side by side."""

    def inputs(self, rng):
        jobs = []
        for i in range(12):
            # Levels spread over 10-40, like the MCNC-89 circuits; every
            # K meets both ranking modes.
            levels = 10 + 30 * i // 11
            net = gen.reconvergent_dag(rng, "dag%d" % i, levels, n_inputs=32, n_gates=250)
            text = net.to_blif()
            jobs.append(Job(text, len(net.gates), k=4 + i % 3, mode="area"))
            jobs.append(Job(text, len(net.gates), k=4 + (i + 1) % 3, mode="depth"))
        return jobs

    def mapper(self, job):
        from repro.core.cut_mapper import CutMapper

        return CutMapper(job.k, mode=job.mode)


class FlowArea(MapTree):
    """``chortle map --flow area``: sweep, strash, refactor, strash, chortle, merge."""

    # Cone leaf counts per job.  Most jobs stay below refactor's
    # Quine-McCluskey cliff; one in four reaches 9 leaves and one in
    # eight 10, so the median sits among the light jobs and the tail
    # among the 9-leaf ones, away from the boundary between them.
    LIGHT = [8, 7, 6, 5, 5, 4]
    NINE = [9, 6, 5, 4]
    TEN = [10, 6, 5, 4]
    PASS = [LIGHT, NINE, LIGHT, LIGHT, TEN, LIGHT, NINE, LIGHT]

    def inputs(self, rng):
        jobs = []
        for i, leaves in enumerate(self.PASS):
            net = gen.cone_network(rng, "cones%d" % i, leaves)
            jobs.append(Job(net.to_blif(), len(net.gates), k=4))
        return jobs

    def mapper(self, job):
        from repro.flow import resolve_mapper

        return resolve_mapper("area", job.k)


class Prove:
    """``verify --method sat`` on pairs whose verdict is known by construction."""

    # Two proofs for every refutation, so the median is a proof and the
    # cheap simulation refutations stay below it.
    PASS = ["rewrite", "lut", "rare", "rewrite", "lut", "invert",
            "rewrite", "lut", "rare", "rewrite", "lut", "lutflip"] * 12

    def inputs(self, rng):
        jobs = []
        for i, kind in enumerate(self.PASS):
            levels, n_inputs = (12, 16, 20, 24)[i % 4], (24, 28, 32)[i % 3]
            golden = gen.reconvergent_dag(
                rng, "ref%d" % i, levels, n_inputs=n_inputs, n_gates=200
            )
            cand, form, expected, witness = gen.prove_pair(rng, kind, golden)
            jobs.append(Job(golden.to_blif(), len(golden.gates), candidate=cand, form=form,
                            expected=expected, witness=witness, kind=kind))
        return jobs

    def run(self, job):
        from repro.blif import blif_to_network, parse_blif
        from repro.errors import VerificationError
        from repro.verify import verify_equivalence, verify_network_equivalence

        golden = blif_to_network(parse_blif(job.text))
        try:
            if job.form == "lut":
                result = verify_equivalence(golden, lut_circuit(job.candidate), method="sat")
            else:
                cand = blif_to_network(parse_blif(job.candidate))
                result = verify_network_equivalence(golden, cand, method="sat")
        except VerificationError:
            return False
        return result.proved

    def check(self, job, output):
        if output != job.expected:
            return "verdict %s, known answer %s" % (output, job.expected)
        if job.witness is not None and not blifcheck.differs_at(
                job.text, job.candidate, job.witness):
            return "known witness does not separate the pair"
        return None

    def lut_stats(self, job, output):
        # The LUT-form candidates are what the solver proves against.
        if job.form == "lut":
            return blifcheck.lut_stats(job.candidate)
        return 0, 0


def lut_circuit(text):
    """A LUT circuit from BLIF with one ``.names`` table per LUT."""
    from repro.blif import parse_blif
    from repro.core import LUTCircuit

    model = parse_blif(text)
    circuit = LUTCircuit(model.name)
    for name in model.inputs:
        circuit.add_input(name)
    for table in model.tables:
        circuit.add_lut(table.output, tuple(table.inputs), table.truth_table())
    for name in model.outputs:
        circuit.set_output(name, name)
    return circuit


WORKLOADS = {
    "map_tree": MapTree,
    "map_dag": MapDag,
    "flow_area": FlowArea,
    "prove": Prove,
}


# -- measurement -------------------------------------------------------------


def calibrate():
    """Seconds a fixed piece of pure-Python work takes right now."""
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        acc = 0
        for i in range(CALIBRATION_ROUNDS):
            key = (i * 2654435761) & 0xFFFF
            table[key] = table.get(key, 0) + i
            acc ^= key << (i & 7)
        sorted(table.items())
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostClock:
    """Scales wall-clock intervals to the reference host speed.

    A shared host can run the same Python code 1.6 times faster in one
    half minute than in the next, and the program slows with it.  An
    interval is scaled by the mean of the calibration times measured
    just before and just after it, which takes that drift out of the
    figures while a change to the program still moves them.
    """

    def __init__(self):
        self.before = calibrate()
        self.calibrations = [self.before]

    def scale(self, elapsed):
        after = calibrate()
        self.calibrations.append(after)
        scaled = elapsed * 2 * REFERENCE_CALIBRATION_S / (self.before + after)
        self.before = after
        return scaled


def tail(latencies):
    """(percentile, value) of the highest percentile with ten samples beyond it.

    That is the eleventh-largest sample; None with ten samples or fewer.
    """
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


class Runner:
    """Runs one workload's jobs and keeps what the report needs."""

    def __init__(self, workload, pool):
        self.workload = workload
        self.pool = pool
        self.latencies = []
        self.by_kind = {}
        self.gates = 0
        self.attempted = 0
        self.failed = 0
        self.outputs = [None] * len(pool)
        self.errors = []
        self.wall = []
        self.clock = HostClock()

    def one(self, index, call=None):
        """Run one job; returns its time in reference seconds."""
        job = self.pool[index]
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = call(self.workload.run, job) if call else self.workload.run(job)
        except Exception as exc:  # a job that raises counts as failed
            self.clock.scale(0.0)
            self.failed += 1
            self.errors.append("%s: %s" % (type(exc).__name__, exc))
            return 0.0
        wall = time.perf_counter() - start
        elapsed = self.clock.scale(wall)
        if self.outputs[index] is None:
            self.outputs[index] = output
            error = self.workload.check(job, output)
        else:
            error = None if output == self.outputs[index] else "output changed between repeats"
        if error:
            self.failed += 1
            self.errors.append("job %d: %s" % (index, error))
            return elapsed
        self.latencies.append(elapsed)
        self.wall.append(wall)
        self.gates += job.gates
        if hasattr(job, "expected"):
            kind = "proof" if job.expected else "refute"
            self.by_kind.setdefault(kind, []).append(elapsed)
        return elapsed

    def one_pass(self, call=None):
        return sum(self.one(i, call) for i in range(len(self.pool)))


def setup(workload_cls, seed):
    """(workload, input pool, reference seconds): build the inputs, run one warm-up job."""
    clock = HostClock()
    start = time.perf_counter()
    import repro.blif  # noqa: F401  (the import is part of set-up)
    import repro.flow  # noqa: F401
    import repro.verify  # noqa: F401

    import_s = clock.scale(time.perf_counter() - start)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workload_cls()
        pool = workload.inputs(random.Random(seed))
        workload.run(pool[0])
        times.append(clock.scale(time.perf_counter() - start))
    return workload, pool, import_s + statistics.median(times)


def run_untraced(runner, seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(runner.latencies) < MIN_JOBS:
        runner.one_pass()
        if runner.failed == runner.attempted:
            break


def run_traced(runner, seconds):
    """Alternate untraced and traced passes; returns (tracer, overhead ratio)."""
    import spans

    tracer = spans.SpanTracer()
    plain = traced = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        plain += runner.one_pass()
        tracer.install()
        try:
            traced += runner.one_pass(tracer.job)
        finally:
            tracer.uninstall()
        if runner.failed == runner.attempted:
            break
    return tracer, (traced / plain - 1.0 if plain else 0.0)


def end_to_end(runner, setup_s):
    lat = runner.latencies
    luts = depth = 0
    for job, output in zip(runner.pool, runner.outputs):
        if output is not None:
            count, levels = runner.workload.lut_stats(job, output)
            luts += count
            depth += levels
    tail_pct, tail_s = tail(lat) or (None, None)
    metrics = {
        "setup_s": (setup_s, "s"),
        "gates_per_s": (runner.gates / sum(lat) if lat else 0.0, "gates/s"),
        "job_p50_s": (statistics.median(lat) if lat else 0.0, "s"),
        "job_tail_s": (tail_s or 0.0, "s"),
        "luts": (luts, "count"),
        "lut_depth": (depth, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = ["job_p50_s over n=%d jobs" % len(lat)]
    if lat:
        notes.append("wall clock: gates_per_s %.1f, job_p50_s %.6f; calibration median "
                     "%.2f ms, reference %.2f ms" % (
                         runner.gates / sum(runner.wall), statistics.median(runner.wall),
                         1e3 * statistics.median(runner.clock.calibrations),
                         1e3 * REFERENCE_CALIBRATION_S))
    if tail_pct is not None:
        notes.append("job_tail_s is p%.1f, n=%d, %d beyond" % (tail_pct, len(lat), TAIL_BEYOND))
    notes.append("failed_ratio %.4f (failed %d / attempted %d)" % (
        runner.failed / max(runner.attempted, 1), runner.failed, runner.attempted))
    for kind, values in sorted(runner.by_kind.items()):
        notes.append("%s_p50_s %.6f s (n=%d)" % (kind, statistics.median(values), len(values)))
    return metrics, notes


def per_layer(runner, tracer, overhead):
    metrics = tracer.metrics()
    # Traced passes are whole passes over the pool.
    passes = tracer.jobs // len(runner.pool)
    refutes = passes * sum(1 for job in runner.pool if getattr(job, "expected", True) is False)
    sim = tracer.program_counts.get("sat.sim_refutations", 0)
    metrics["sat.sim_refute_ratio"] = (sim / refutes if refutes else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    notes = ["traced jobs: %d" % tracer.jobs]
    notes += ["missing callable: %s" % name for name in tracer.missing]
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload, pool, setup_s = setup(WORKLOADS[args.workload], args.seed)
    runner = Runner(workload, pool)
    if args.trace:
        tracer, overhead = run_traced(runner, args.seconds)
        metrics, notes = per_layer(runner, tracer, overhead)
    else:
        run_untraced(runner, args.seconds)
        metrics, notes = end_to_end(runner, setup_s)

    print("workload %s, seed %d, %d inputs" % (args.workload, args.seed, len(pool)))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-40s %14.6f %s" % (name, value, unit))
    for note in notes + runner.errors[:10]:
        print("  " + note)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests for the benchmark: ``python3 -m pytest perfbench -q``."""

import json
import os
import random
import re

import pytest

import blifcheck
import gen
import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_same_seed_gives_byte_identical_inputs():
    for name, workload_cls in run.WORKLOADS.items():
        first = workload_cls().inputs(random.Random(7))
        again = workload_cls().inputs(random.Random(7))
        other = workload_cls().inputs(random.Random(8))
        texts = [(job.text, getattr(job, "candidate", "")) for job in first]
        assert texts == [(job.text, getattr(job, "candidate", "")) for job in again], name
        assert texts != [(job.text, getattr(job, "candidate", "")) for job in other], name


def test_cones_reach_the_requested_leaf_counts():
    from repro.blif import blif_to_network, parse_blif
    from repro.core import build_forest
    from repro.network import strash, sweep

    text = gen.cone_network(random.Random(3), "c", [10, 9, 8, 4]).to_blif()
    net = strash(sweep(blif_to_network(parse_blif(text))))
    leaves = sorted(len(tree.leaves) for tree in build_forest(net).trees)
    assert leaves == [4, 8, 9, 10]


def _mapped_pair():
    """A small network and its mapped BLIF, checked exhaustively (12 inputs)."""
    from repro.blif import blif_to_network, parse_blif, write_lut_circuit
    from repro.core import ChortleMapper

    net = gen.reconvergent_dag(random.Random(5), "small", 6, n_inputs=12, n_gates=40)
    text = net.to_blif()
    mapped = write_lut_circuit(ChortleMapper(4).map(blif_to_network(parse_blif(text))))
    return text, mapped


def _table_on_inputs(mapped):
    """(port, inputs) of an output-driving table that reads only primary inputs."""
    model = blifcheck.parse(mapped)
    for port in model.outputs:
        ins = model.tables[port][0]
        if len(ins) >= 2 and all(i in model.inputs for i in ins):
            return port, ins
    raise AssertionError("no output table reads primary inputs only")


def test_checker_accepts_the_mapping():
    text, mapped = _mapped_pair()
    assert blifcheck.compare(text, mapped) is None


def test_checker_catches_a_flipped_lut_row():
    text, mapped = _mapped_pair()
    port, ins = _table_on_inputs(mapped)
    lines = mapped.splitlines()
    head = lines.index(".names %s %s" % (" ".join(ins), port))
    # Every row of a table on primary inputs is reachable: drop the first
    # on-set row, which flips that row's output.
    del lines[head + 1]
    assert blifcheck.compare(text, "\n".join(lines) + "\n") is not None


def test_checker_catches_an_inverted_edge():
    text, mapped = _mapped_pair()
    port, ins = _table_on_inputs(mapped)
    lines = mapped.splitlines()
    head = lines.index(".names %s %s" % (" ".join(ins), port))
    end = head + 1
    while end < len(lines) and not lines[end].startswith("."):
        end += 1
    flip = {"0": "1", "1": "0", "-": "-"}
    for j in range(len(ins)):
        edited = list(lines)
        for row in range(head + 1, end):
            cube, value = edited[row].split()
            edited[row] = "%s%s%s %s" % (cube[:j], flip[cube[j]], cube[j + 1:], value)
        # A mapped table depends on each of its inputs, so negating any
        # one of them changes the output somewhere.
        assert blifcheck.compare(text, "\n".join(edited) + "\n") is not None, j


def test_every_prove_verdict_matches_its_known_answer():
    workload = run.Prove()
    pool = workload.inputs(random.Random(11))
    assert {job.kind for job in pool} == set(run.Prove.PASS)
    assert all(len(blifcheck.parse(job.text).inputs) > 20 for job in pool)
    for job in pool:
        assert workload.check(job, workload.run(job)) is None, job.kind


def test_rare_witnesses_escape_random_simulation():
    # One vector in 2**RARE_LITERALS separates a rare mutant, so 256
    # random vectors almost never find it.
    rng = random.Random(2)
    golden = gen.reconvergent_dag(rng, "g", 12, n_inputs=24, n_gates=120)
    cand, _, expected, witness = gen.prove_pair(rng, "rare", golden)
    assert expected is False
    assert blifcheck.differs_at(golden.to_blif(), cand, witness)
    mutant = blifcheck.parse(cand)
    words = {name: rng.getrandbits(256) for name in golden.inputs}
    want = golden.simulate(words, 256)
    got = mutant.evaluate(words, 256)
    assert all(want[port] == got[port] for port in golden.outputs)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([1.0] * 10) is None
    assert run.tail(list(range(11))) == (100.0 * 1 / 11, 0)
    pct, value = run.tail([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)
    assert sum(1 for x in range(100) if x > value) == 10


def test_metric_names_and_counts():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


class _Echo:
    """A stand-in workload: the job's output is its input."""

    def inputs(self, rng):
        return [run.Job("x%d" % i, 1) for i in range(3)]

    def run(self, job):
        return job.text

    def check(self, job, output):
        return None

    def lut_stats(self, job, output):
        return 1, 1


def test_reports_carry_exactly_the_declared_metrics():
    spec = _spec()
    runner = run.Runner(_Echo(), _Echo().inputs(None))
    run.run_untraced(runner, 0)
    metrics, _ = run.end_to_end(runner, 0.5)
    assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])
    runner = run.Runner(_Echo(), _Echo().inputs(None))
    tracer, overhead = run.run_traced(runner, 0)
    metrics, _ = run.per_layer(runner, tracer, overhead)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])


def test_a_vanished_callable_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + [
        ("core.chortle", "core.chortle.self_s", "self", ["repro.core.chortle:Gone.map"], None),
    ])
    tracer = spans.SpanTracer()
    assert tracer.missing == ["repro.core.chortle:Gone.map"]
    tracer.install()
    tracer.uninstall()


def test_traced_job_attributes_its_time_to_layers():
    workload = run.MapTree()
    job = workload.inputs(random.Random(1))[0]
    tracer = spans.SpanTracer()
    tracer.install()
    try:
        tracer.job(workload.run, job)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["core.tree_mapper.map_tree_s"][0] > 0
    assert metrics["core.tree_mapper.minmap_entries"][0] > 0
    assert metrics["bench.unattributed_ratio"][0] < 0.1
    # Uninstalled: the program's own callables are back in place.
    from repro.core.tree_mapper import TreeMapper

    assert not hasattr(TreeMapper.map_tree, "__wrapped__")


def test_host_clock_scales_by_the_calibrations_around_an_interval(monkeypatch):
    ref = run.REFERENCE_CALIBRATION_S
    speeds = iter([0.5 * ref, 1.5 * ref, 2.5 * ref])
    monkeypatch.setattr(run, "calibrate", lambda: next(speeds))
    clock = run.HostClock()
    # Calibrations around the first interval average the reference time.
    assert clock.scale(3.0) == pytest.approx(3.0)
    # Around the second they average twice it: the host ran at half speed.
    assert clock.scale(3.0) == pytest.approx(1.5)

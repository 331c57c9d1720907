"""Tests for two-level minimization (Quine-McCluskey + cover selection)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blif.sop import SopCover
from repro.obs import metrics
from repro.opt.minimize import (
    _implicant_to_cube,
    _select_cover,
    _tie_break,
    minimize_cover,
    minimize_truth_table,
    prime_implicants,
)
from repro.truth.truthtable import TruthTable


# -- reference: the all-pairs Quine-McCluskey the bitset code replaced ------
#
# Kept verbatim (bar names) as the oracle the rewrite must match exactly:
# same primes, same cover order, same minimize_cover output.


def _implicant_covers(imp, minterm):
    values, mask = imp
    return (minterm & ~mask) == (values & ~mask)


def _try_merge(a, b):
    """Combine two implicants differing in exactly one cared bit."""
    if a[1] != b[1]:
        return None
    diff = (a[0] ^ b[0]) & ~a[1]
    if diff == 0 or diff & (diff - 1):
        return None
    return (a[0] & ~diff, a[1] | diff)


def reference_prime_implicants(tt):
    current = {(m, 0) for m in tt.minterms()}
    primes = set()
    while current:
        merged = set()
        used = set()
        current_list = sorted(current)
        for i, a in enumerate(current_list):
            for b in current_list[i + 1:]:
                combo = _try_merge(a, b)
                if combo is not None:
                    merged.add(combo)
                    used.add(a)
                    used.add(b)
        primes |= current - used
        current = merged
    return sorted(primes)


def reference_select_cover(primes, minterms):
    remaining = set(minterms)
    coverage = {
        p: {m for m in minterms if _implicant_covers(p, m)} for p in primes
    }
    chosen = []
    for m in minterms:
        covering = [p for p in primes if m in coverage[p]]
        if len(covering) == 1 and covering[0] not in chosen:
            chosen.append(covering[0])
    for p in chosen:
        remaining -= coverage[p]
    while remaining:
        best = max(
            primes,
            key=lambda p: (len(coverage[p] & remaining), -bin(~p[1]).count("1")),
        )
        gain = coverage[best] & remaining
        if not gain:
            raise AssertionError("prime cover selection stalled")
        chosen.append(best)
        remaining -= gain
    return chosen


def reference_minimize_truth_table(tt):
    minterms = list(tt.minterms())
    if not minterms:
        return []
    return reference_select_cover(reference_prime_implicants(tt), minterms)


def reference_minimize_cover(cover):
    """minimize_cover's exact path (non-constant, at most 10 columns).

    ``SopCover.truth_table`` is pinned to per-minterm ``evaluate`` in
    tests/test_sop.py, so the reference may start from it.
    """
    n = cover.num_inputs
    tt = cover.truth_table()
    on_cover = reference_minimize_truth_table(tt)
    off_cover = reference_minimize_truth_table(~tt)

    def literals(imps):
        return sum(n - bin(m[1]).count("1") for m in imps)

    use_off = (len(off_cover), literals(off_cover)) < (
        len(on_cover), literals(on_cover)
    )
    imps = off_cover if use_off else on_cover
    return [_implicant_to_cube(i, n) for i in imps], 0 if use_off else 1


def read_once_cone(rng, n):
    """A random read-once AND/OR formula over all ``n`` variables."""
    terms = [TruthTable.var(j, n) for j in range(n)]
    terms = [t if rng.random() < 0.5 else ~t for t in terms]
    rng.shuffle(terms)
    while len(terms) > 1:
        width = rng.randint(2, min(3, len(terms)))
        group, terms = terms[:width], terms[width:]
        acc = group[0]
        is_and = rng.random() < 0.5
        for term in group[1:]:
            acc = acc & term if is_and else acc | term
        terms.append(acc)
    return terms[0] if terms else TruthTable.const(True, 0)


def random_function(rng, n, density):
    bits = 0
    for m in range(1 << n):
        if rng.random() < density:
            bits |= 1 << m
    return TruthTable(n, bits)


class TestMerging:
    """The reference's merge and coverage helpers."""

    def test_merge_adjacent(self):
        assert _try_merge((0b00, 0), (0b01, 0)) == (0b00, 0b01)

    def test_merge_requires_same_mask(self):
        assert _try_merge((0b00, 0b01), (0b10, 0b00)) is None

    def test_merge_requires_single_difference(self):
        assert _try_merge((0b00, 0), (0b11, 0)) is None

    def test_covers(self):
        imp = (0b00, 0b01)  # x1=0, x0 free
        assert _implicant_covers(imp, 0b00)
        assert _implicant_covers(imp, 0b01)
        assert not _implicant_covers(imp, 0b10)


class TestPrimeImplicants:
    def test_and2(self):
        tt = TruthTable.var(0, 2) & TruthTable.var(1, 2)
        assert prime_implicants(tt) == [(0b11, 0)]

    def test_or2(self):
        tt = TruthTable.var(0, 2) | TruthTable.var(1, 2)
        primes = set(prime_implicants(tt))
        assert primes == {(0b01, 0b10), (0b10, 0b01)}

    def test_xor_has_minterm_primes(self):
        tt = TruthTable.var(0, 2) ^ TruthTable.var(1, 2)
        assert set(prime_implicants(tt)) == {(0b01, 0), (0b10, 0)}

    def test_tautology(self):
        tt = TruthTable.const(True, 3)
        assert prime_implicants(tt) == [(0, 0b111)]

    def test_classic_consensus(self):
        # f = ab + ~ac has the consensus prime bc; QM must find all 3.
        a, b, c = (TruthTable.var(j, 3) for j in range(3))
        tt = (a & b) | (~a & c)
        primes = prime_implicants(tt)
        assert len(primes) == 3


class TestMinimizeTruthTable:
    def test_constant_zero(self):
        assert minimize_truth_table(TruthTable.const(False, 2)) == []

    @given(st.integers(0, 255))
    @settings(max_examples=120)
    def test_cover_is_exact(self, bits):
        tt = TruthTable(3, bits)
        cover = minimize_truth_table(tt)
        for m in range(8):
            covered = any(_implicant_covers(i, m) for i in cover)
            assert covered == bool(tt.value(m))

    @given(st.integers(0, 65535))
    @settings(max_examples=60)
    def test_cover_no_larger_than_minterms(self, bits):
        tt = TruthTable(4, bits)
        cover = minimize_truth_table(tt)
        assert len(cover) <= tt.count_ones()


class TestMinimizeCover:
    def test_redundant_cubes_removed(self):
        cover = SopCover(["a", "b"], "y", ["11", "1-", "10"])
        result = minimize_cover(cover)
        assert result.truth_table() == cover.truth_table()
        assert result.num_cubes == 1  # collapses to "1-"

    def test_phase_choice(self):
        # ~(abc) is cheaper as a single off-set cube.
        tt = ~(
            TruthTable.var(0, 3) & TruthTable.var(1, 3) & TruthTable.var(2, 3)
        )
        cover = SopCover.from_truth_table(["a", "b", "c"], "y", tt)
        result = minimize_cover(cover)
        assert result.truth_table() == tt
        assert result.num_cubes == 1
        assert result.phase == 0

    def test_constant_cover(self):
        result = minimize_cover(SopCover(["a"], "y", ["-"]))
        assert result.is_constant()
        assert result.constant_value() == 1

    def test_wide_cover_containment_only(self):
        inputs = ["x%d" % i for i in range(14)]
        wide = SopCover(inputs, "y", ["1" + "-" * 13, "11" + "-" * 12])
        result = minimize_cover(wide, max_inputs=10)
        assert result.num_cubes == 1
        assert result.truth_table().bits  # unchanged function (spot check)

    @given(st.integers(0, 255), st.integers(0, 1))
    @settings(max_examples=80)
    def test_function_preserved(self, bits, phase):
        tt = TruthTable(3, bits)
        base = SopCover.from_truth_table(["a", "b", "c"], "y", tt)
        cover = SopCover(base.inputs, "y", base.cubes, phase=1)
        if phase == 0:
            cover = SopCover(base.inputs, "y", base.cubes, phase=0)
        result = minimize_cover(cover)
        assert result.truth_table() == cover.truth_table()

    @given(st.integers(1, 255))
    @settings(max_examples=60)
    def test_never_more_cubes_than_input(self, bits):
        tt = TruthTable(3, bits)
        cover = SopCover.from_truth_table(["a", "b", "c"], "y", tt)
        result = minimize_cover(cover)
        assert result.num_cubes <= max(1, cover.num_cubes)


class TestTieBreak:
    def test_key_is_popcount_of_mask_plus_one(self):
        # Not a literal count: more don't-cares can score lower.
        assert _tie_break(0b110) == -3
        assert _tie_break(0b111) == -1
        for mask in range(1 << 10):
            assert _tie_break(mask) == -bin(~mask).count("1")

    def test_hand_built_tie(self):
        # f(x0, x1, x2) has minterms {1, 2, 3, 5, 6} and four primes:
        # (1, 0b010) covers {1, 3}, (1, 0b100) {1, 5}, (2, 0b001) {2, 3}
        # and (2, 0b100) {2, 6}.  The essentials (1, 0b100) and
        # (2, 0b100) leave minterm 3, which (1, 0b010) and (2, 0b001)
        # cover equally, with two literals each.  The key scores mask
        # 0b010 at -2 and mask 0b001 at -1, so the later prime wins.
        tt = TruthTable(3, 0b01101110)
        primes = prime_implicants(tt)
        assert primes == [(1, 0b010), (1, 0b100), (2, 0b001), (2, 0b100)]
        expected = [(1, 0b100), (2, 0b100), (2, 0b001)]
        assert _select_cover(primes, tt) == expected
        assert reference_select_cover(primes, list(tt.minterms())) == expected


class TestOptCounters:
    def test_area_flow_reports_opt_counters(self):
        from repro.flow import resolve_mapper
        from tests.util import make_random_tree_network

        before = metrics.counters()
        resolve_mapper("area", 4).map(make_random_tree_network(0))
        delta = metrics.counter_delta(before)
        assert delta["refactor.trees"] >= 1
        # refactor minimizes each collapsed cone once, both phases exact.
        assert delta["minimize.calls"] == delta["refactor.trees"]
        assert delta["minimize.primes"] >= 2


class TestModelIntegration:
    def test_minimize_model_tables(self):
        from repro.blif.parser import parse_blif
        from repro.blif.convert import blif_to_network
        from repro.network.simulate import output_truth_tables
        from repro.opt.minimize import minimize_model_tables

        text = """
.model m
.inputs a b c
.outputs y
.names a b c y
111 1
110 1
101 1
100 1
011 1
.end
"""
        model = parse_blif(text)
        before = output_truth_tables(blif_to_network(model))
        model = minimize_model_tables(model)
        after = output_truth_tables(blif_to_network(model))
        assert before == after
        assert model.tables[0].num_cubes <= 2  # a + bc


def _parity_functions(n):
    """Seeded single-phase ``n``-variable cases for the QM parity test.

    Each function is replaced by its complement when that has fewer
    minterms: the reference's all-pairs merging is the cliff this file
    guards against, and the sparse phase keeps it to milliseconds.  The
    dense 10-variable case, half a second here, is left to
    :func:`_parity_covers`, which minimizes both of its phases.
    """
    rng = random.Random(1990 + n)
    dense = 4 if n <= 8 else 1 if n == 9 else 0
    cases = [random_function(rng, n, 0.5) for _ in range(dense)]
    cases.append(random_function(rng, n, 0.1))
    cases += [read_once_cone(rng, n) for _ in range(4 if n <= 8 else 2)]
    return [~tt if 2 * tt.count_ones() > 1 << n else tt for tt in cases]


def _parity_covers(n):
    """Seeded non-constant ``n``-column covers for the minimize_cover test.

    Both phases of a cover are minimized, so above 7 columns only a
    random function of density 1/2 is used: its two phases are
    balanced, which keeps the reference near half a second at 10.
    """
    rng = random.Random(90 + n)
    names = ["x%d" % j for j in range(n)]
    if n > 7:
        tt = random_function(rng, n, 0.5)
        return [SopCover.from_truth_table(names, "y", tt)]
    covers = []
    for _ in range(6):
        cubes = [
            "".join(rng.choice("01--") for _ in range(n))
            for _ in range(rng.randint(1, 8))
        ]
        covers.append(SopCover(names, "y", cubes, phase=rng.randint(0, 1)))
    for _ in range(3):
        tt = read_once_cone(rng, n)
        covers.append(SopCover.from_truth_table(names, "y", tt))
    return [c for c in covers if not c.is_constant()]


class TestReferenceParity:
    """The bitset minimizer reproduces the all-pairs reference exactly."""

    @pytest.mark.parametrize("n", range(11))
    def test_primes_and_cover_order(self, n):
        for tt in _parity_functions(n):
            primes = reference_prime_implicants(tt)
            assert prime_implicants(tt) == primes
            minterms = list(tt.minterms())
            cover = reference_select_cover(primes, minterms) if minterms else []
            assert minimize_truth_table(tt) == cover

    @pytest.mark.parametrize("n", range(11))
    def test_minimize_cover(self, n):
        for cover in _parity_covers(n):
            result = minimize_cover(cover)
            cubes, phase = reference_minimize_cover(cover)
            assert list(result.cubes) == cubes
            assert result.phase == phase
            assert result.inputs == cover.inputs

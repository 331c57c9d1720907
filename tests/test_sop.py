"""Tests for SOP covers."""

import random

import pytest

from repro.blif.sop import SopCover
from repro.errors import BlifError
from repro.truth.truthtable import TruthTable


class TestConstruction:
    def test_basic(self):
        cover = SopCover(["a", "b"], "y", ["11", "0-"])
        assert cover.num_inputs == 2
        assert cover.num_cubes == 2
        assert cover.num_literals() == 3

    def test_bad_phase(self):
        with pytest.raises(BlifError):
            SopCover(["a"], "y", ["1"], phase=2)

    def test_bad_cube_width(self):
        with pytest.raises(BlifError):
            SopCover(["a", "b"], "y", ["1"])

    def test_bad_cube_chars(self):
        with pytest.raises(BlifError):
            SopCover(["a"], "y", ["x"])


class TestConstants:
    def test_constant_one(self):
        cover = SopCover.constant("y", 1)
        assert cover.is_constant()
        assert cover.constant_value() == 1

    def test_constant_zero(self):
        cover = SopCover.constant("y", 0)
        assert cover.is_constant()
        assert cover.constant_value() == 0

    def test_all_dash_cube_is_constant(self):
        cover = SopCover(["a", "b"], "y", ["--"])
        assert cover.is_constant()
        assert cover.constant_value() == 1

    def test_tautological_term_among_cubes(self):
        """An all-dash cube dominates the whole OR (found by fuzzing)."""
        cover = SopCover(["a", "b"], "y", ["10", "--"])
        assert cover.is_constant()
        assert cover.constant_value() == 1
        inverted = SopCover(["a", "b"], "y", ["10", "--"], phase=0)
        assert inverted.constant_value() == 0

    def test_phase0_empty_cover_is_one(self):
        cover = SopCover(["a"], "y", [], phase=0)
        assert cover.is_constant()
        assert cover.constant_value() == 1

    def test_constant_value_on_nonconstant_raises(self):
        with pytest.raises(BlifError):
            SopCover(["a"], "y", ["1"]).constant_value()


class TestEvaluation:
    def test_and_cover(self):
        cover = SopCover(["a", "b"], "y", ["11"])
        assert cover.evaluate([1, 1]) == 1
        assert cover.evaluate([1, 0]) == 0

    def test_dont_care_columns(self):
        cover = SopCover(["a", "b", "c"], "y", ["1-0"])
        assert cover.evaluate([1, 0, 0]) == 1
        assert cover.evaluate([1, 1, 0]) == 1
        assert cover.evaluate([1, 1, 1]) == 0

    def test_phase0_complements(self):
        cover = SopCover(["a", "b"], "y", ["11"], phase=0)
        assert cover.evaluate([1, 1]) == 0
        assert cover.evaluate([0, 1]) == 1

    def test_multi_cube_or(self):
        cover = SopCover(["a", "b"], "y", ["1-", "-1"])
        assert cover.truth_table() == TruthTable.var(0, 2) | TruthTable.var(1, 2)

    def test_evaluate_arity(self):
        with pytest.raises(BlifError):
            SopCover(["a", "b"], "y", ["11"]).evaluate([1])


class TestTruthTableRoundTrip:
    def test_from_truth_table(self):
        tt = TruthTable.var(0, 3) & ~TruthTable.var(2, 3)
        cover = SopCover.from_truth_table(["a", "b", "c"], "y", tt)
        assert cover.truth_table() == tt

    def test_from_truth_table_arity_mismatch(self):
        with pytest.raises(BlifError):
            SopCover.from_truth_table(["a"], "y", TruthTable.var(0, 2))

    @pytest.mark.parametrize("bits", [0, 1, 0b0110, 0b1011, 0b1111])
    def test_round_trip_all_2var(self, bits):
        tt = TruthTable(2, bits)
        cover = SopCover.from_truth_table(["a", "b"], "y", tt)
        assert cover.truth_table() == tt

    def test_repr(self):
        assert "cubes=1" in repr(SopCover(["a"], "y", ["1"]))


def _truth_table_by_evaluation(cover):
    """The cover's truth table, one evaluate() call per minterm."""
    n = cover.num_inputs
    bits = 0
    for m in range(1 << n):
        if cover.evaluate([(m >> j) & 1 for j in range(n)]):
            bits |= 1 << m
    return TruthTable(n, bits)


class TestBitParallelTruthTable:
    """truth_table() agrees with per-minterm evaluate() on every cover shape."""

    @pytest.mark.parametrize("phase", [0, 1])
    @pytest.mark.parametrize("cubes", [[], [""], ["", ""]])
    def test_zero_input_covers(self, cubes, phase):
        cover = SopCover([], "y", cubes, phase=phase)
        assert cover.truth_table() == _truth_table_by_evaluation(cover)

    @pytest.mark.parametrize("phase", [0, 1])
    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_empty_and_all_dash_covers(self, n, phase):
        names = ["x%d" % j for j in range(n)]
        for cubes in ([], ["-" * n], ["1" + "-" * (n - 1), "-" * n]):
            cover = SopCover(names, "y", cubes, phase=phase)
            assert cover.truth_table() == _truth_table_by_evaluation(cover)

    @pytest.mark.parametrize("n", range(11))
    def test_seeded_covers(self, n):
        rng = random.Random(n)
        names = ["x%d" % j for j in range(n)]
        for _ in range(12):
            cubes = [
                "".join(rng.choice("01--") for _ in range(n))
                for _ in range(rng.randint(0, 8))
            ]
            cover = SopCover(names, "y", cubes, phase=rng.randint(0, 1))
            assert cover.truth_table() == _truth_table_by_evaluation(cover)

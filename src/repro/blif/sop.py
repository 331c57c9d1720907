"""Sum-of-products covers, the function representation inside ``.names``.

A cover is a list of cubes over the table's input columns plus a phase:
phase 1 means the cubes describe the on-set, phase 0 the off-set (the
function is then the complement of the OR of the cubes), exactly as in
BLIF semantics.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import BlifError
from repro.truth.truthtable import TruthTable, projection_words

_CUBE_CHARS = frozenset("01-")


class SopCover:
    """An SOP cover: ``output = phase XNOR (cube1 | cube2 | ...)``."""

    __slots__ = ("inputs", "output", "cubes", "phase")

    def __init__(
        self,
        inputs: Sequence[str],
        output: str,
        cubes: Sequence[str],
        phase: int = 1,
    ):
        if phase not in (0, 1):
            raise BlifError("cover phase must be 0 or 1, got %r" % (phase,))
        self.inputs: Tuple[str, ...] = tuple(inputs)
        self.output = output
        self.cubes: Tuple[str, ...] = tuple(cubes)
        self.phase = phase
        width = len(self.inputs)
        for cube in self.cubes:
            if len(cube) != width:
                raise BlifError(
                    "cube %r has %d columns, table %r has %d inputs"
                    % (cube, len(cube), output, width)
                )
            if not set(cube) <= _CUBE_CHARS:
                raise BlifError("cube %r contains characters outside 0/1/-" % cube)

    # -- queries ------------------------------------------------------------

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_cubes(self) -> int:
        return len(self.cubes)

    def num_literals(self) -> int:
        """Count of care (non '-') positions across all cubes."""
        return sum(len(c) - c.count("-") for c in self.cubes)

    def is_constant(self) -> bool:
        if not self.cubes:
            return True
        # A single all-don't-care cube is a tautological term: it forces
        # the whole OR of cubes to 1 no matter what else is present.
        return any(set(c) <= {"-"} for c in self.cubes)

    def constant_value(self) -> int:
        """The constant value, assuming :meth:`is_constant` is true."""
        if not self.is_constant():
            raise BlifError("cover of %r is not constant" % self.output)
        # No cubes: OR of nothing is 0; with phase 0 that complements to 1.
        covered = any(set(c) <= {"-"} for c in self.cubes)
        return int(covered == bool(self.phase))

    def cube_matches(self, cube: str, assignment: Sequence[int]) -> bool:
        for ch, v in zip(cube, assignment):
            if ch == "-":
                continue
            if (ch == "1") != bool(v):
                return False
        return True

    def evaluate(self, assignment: Sequence[int]) -> int:
        if len(assignment) != len(self.inputs):
            raise BlifError(
                "expected %d input values, got %d"
                % (len(self.inputs), len(assignment))
            )
        covered = any(self.cube_matches(c, assignment) for c in self.cubes)
        return int(covered == bool(self.phase))

    def truth_table(self) -> TruthTable:
        """The cover's function with variable order = column order.

        Bit-parallel: a cube is the AND of its literals' projection
        words, and the cover is the OR of its cubes.
        """
        n = len(self.inputs)
        words = projection_words(n)
        full = (1 << (1 << n)) - 1
        bits = 0
        for cube in self.cubes:
            term = full
            for word, ch in zip(words, cube):
                if ch == "1":
                    term &= word
                elif ch == "0":
                    term &= ~word
            bits |= term
        if not self.phase:
            bits ^= full
        return TruthTable(n, bits)

    # -- construction helpers --------------------------------------------------

    @classmethod
    def constant(cls, output: str, value: int) -> SopCover:
        return cls((), output, ("",) if value else (), phase=1)

    @classmethod
    def from_truth_table(
        cls, inputs: Sequence[str], output: str, tt: TruthTable
    ) -> SopCover:
        """A minterm-per-cube cover of the on-set (no minimization)."""
        if tt.nvars != len(inputs):
            raise BlifError(
                "truth table has %d vars, %d input names given"
                % (tt.nvars, len(inputs))
            )
        cubes = []
        for m in tt.minterms():
            cubes.append(
                "".join("1" if (m >> j) & 1 else "0" for j in range(tt.nvars))
            )
        return cls(inputs, output, cubes, phase=1)

    def __repr__(self) -> str:
        return "SopCover(%r, inputs=%d, cubes=%d, phase=%d)" % (
            self.output,
            len(self.inputs),
            len(self.cubes),
            self.phase,
        )

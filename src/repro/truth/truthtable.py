"""Bit-parallel truth tables.

The table of an ``n``-variable function is stored as an integer whose bit
``m`` holds the function value on the input assignment ``m``, where bit
``j`` of ``m`` is the value of variable ``j`` (variable 0 is the least
significant).  All operations are pure; instances are immutable and
hashable, so they can be used as dictionary keys for Boolean matching.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Sequence, Tuple


def _full_mask(nvars: int) -> int:
    return (1 << (1 << nvars)) - 1


class TruthTable:
    """An immutable boolean function of ``nvars`` ordered variables."""

    __slots__ = ("_nvars", "_bits")

    def __init__(self, nvars: int, bits: int):
        if nvars < 0:
            raise ValueError("nvars must be non-negative, got %d" % nvars)
        if nvars > 24:
            raise ValueError(
                "refusing to build a %d-variable truth table "
                "(2**%d rows); use simulation instead" % (nvars, nvars)
            )
        mask = _full_mask(nvars)
        if bits < 0 or bits > mask:
            raise ValueError(
                "bits 0x%x out of range for a %d-variable table" % (bits, nvars)
            )
        self._nvars = nvars
        self._bits = bits

    # -- constructors ----------------------------------------------------

    @classmethod
    def const(cls, value: bool, nvars: int = 0) -> TruthTable:
        """The constant ``value`` function of ``nvars`` variables."""
        return cls(nvars, _full_mask(nvars) if value else 0)

    @classmethod
    def var(cls, index: int, nvars: int) -> TruthTable:
        """The projection function returning variable ``index``."""
        if not 0 <= index < nvars:
            raise ValueError("variable %d out of range for %d vars" % (index, nvars))
        period = 1 << index
        # Pattern 0^period 1^period repeated.
        block = ((1 << period) - 1) << period
        bits = 0
        for start in range(0, 1 << nvars, 2 * period):
            bits |= block << start
        return cls(nvars, bits)

    @classmethod
    def from_values(cls, values: Sequence[int]) -> TruthTable:
        """Build from an explicit list of 0/1 outputs, one per assignment."""
        size = len(values)
        nvars = size.bit_length() - 1
        if size == 0 or (1 << nvars) != size:
            raise ValueError("values length must be a power of two, got %d" % size)
        bits = 0
        for i, v in enumerate(values):
            if v not in (0, 1, True, False):
                raise ValueError("truth table values must be 0/1, got %r" % (v,))
            if v:
                bits |= 1 << i
        return cls(nvars, bits)

    @classmethod
    def from_callable(cls, func: Callable[..., bool], nvars: int) -> TruthTable:
        """Build by evaluating ``func`` on every assignment of ``nvars`` bits."""
        bits = 0
        for m in range(1 << nvars):
            args = [(m >> j) & 1 for j in range(nvars)]
            if func(*args):
                bits |= 1 << m
        return cls(nvars, bits)

    # -- basic accessors --------------------------------------------------

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def bits(self) -> int:
        return self._bits

    def value(self, assignment: int) -> int:
        """Evaluate on an assignment encoded as an integer minterm index."""
        if not 0 <= assignment < (1 << self._nvars):
            raise ValueError("assignment %d out of range" % assignment)
        return (self._bits >> assignment) & 1

    def evaluate(self, inputs: Sequence[int]) -> int:
        """Evaluate on a sequence of 0/1 input values (index 0 first)."""
        if len(inputs) != self._nvars:
            raise ValueError(
                "expected %d inputs, got %d" % (self._nvars, len(inputs))
            )
        m = 0
        for j, v in enumerate(inputs):
            if v:
                m |= 1 << j
        return (self._bits >> m) & 1

    def minterms(self) -> Iterable[int]:
        """Yield the assignments on which the function is 1."""
        bits = self._bits
        for m in range(1 << self._nvars):
            if (bits >> m) & 1:
                yield m

    def count_ones(self) -> int:
        """Number of satisfying assignments."""
        return bin(self._bits).count("1")

    # -- logical operations -----------------------------------------------

    def _check_compatible(self, other: TruthTable) -> None:
        if not isinstance(other, TruthTable):
            raise TypeError("expected TruthTable, got %r" % type(other).__name__)
        if other._nvars != self._nvars:
            raise ValueError(
                "variable-count mismatch: %d vs %d" % (self._nvars, other._nvars)
            )

    def __and__(self, other: TruthTable) -> TruthTable:
        self._check_compatible(other)
        return TruthTable(self._nvars, self._bits & other._bits)

    def __or__(self, other: TruthTable) -> TruthTable:
        self._check_compatible(other)
        return TruthTable(self._nvars, self._bits | other._bits)

    def __xor__(self, other: TruthTable) -> TruthTable:
        self._check_compatible(other)
        return TruthTable(self._nvars, self._bits ^ other._bits)

    def __invert__(self) -> TruthTable:
        return TruthTable(self._nvars, self._bits ^ _full_mask(self._nvars))

    # -- structural operations ---------------------------------------------

    def cofactor(self, index: int, value: int) -> TruthTable:
        """The function with variable ``index`` fixed to ``value``.

        The result keeps ``nvars`` variables (the fixed one becomes a
        don't-care) so cofactors stay directly comparable.
        """
        if not 0 <= index < self._nvars:
            raise ValueError("variable %d out of range" % index)
        bits = 0
        period = 1 << index
        src = self._bits
        for m in range(1 << self._nvars):
            base = (m & ~period) | (period if value else 0)
            if (src >> base) & 1:
                bits |= 1 << m
        return TruthTable(self._nvars, bits)

    def depends_on(self, index: int) -> bool:
        """True if the function is sensitive to variable ``index``."""
        return self.cofactor(index, 0)._bits != self.cofactor(index, 1)._bits

    def support(self) -> tuple:
        """Indices of the variables the function actually depends on."""
        return tuple(j for j in range(self._nvars) if self.depends_on(j))

    def support_size(self) -> int:
        return len(self.support())

    def is_constant(self) -> bool:
        return self._bits == 0 or self._bits == _full_mask(self._nvars)

    def permute(self, perm: Sequence[int]) -> TruthTable:
        """Reorder inputs: result(x0..) = self(x[perm[0]], x[perm[1]], ...).

        ``perm`` must be a permutation of ``range(nvars)``; input ``i`` of
        the original function is connected to new input ``perm[i]``.
        """
        if sorted(perm) != list(range(self._nvars)):
            raise ValueError("perm %r is not a permutation of inputs" % (perm,))
        bits = 0
        src = self._bits
        n = self._nvars
        for m in range(1 << n):
            src_m = 0
            for i in range(n):
                if (m >> perm[i]) & 1:
                    src_m |= 1 << i
            if (src >> src_m) & 1:
                bits |= 1 << m
        return TruthTable(n, bits)

    def negate_inputs(self, mask: int) -> TruthTable:
        """Complement every input whose bit is set in ``mask``."""
        if not 0 <= mask < (1 << self._nvars):
            raise ValueError("negation mask 0x%x out of range" % mask)
        bits = 0
        src = self._bits
        for m in range(1 << self._nvars):
            if (src >> (m ^ mask)) & 1:
                bits |= 1 << m
        return TruthTable(self._nvars, bits)

    def extend(self, nvars: int) -> TruthTable:
        """View this function over a larger variable set (new vars unused)."""
        if nvars < self._nvars:
            raise ValueError(
                "cannot extend %d-var table to %d vars" % (self._nvars, nvars)
            )
        bits = self._bits
        width = 1 << self._nvars
        for _ in range(nvars - self._nvars):
            bits |= bits << width
            width *= 2
        return TruthTable(nvars, bits)

    def shrink_to_support(self) -> TruthTable:
        """Project onto the variables in the support, preserving their order."""
        sup = self.support()
        bits = 0
        for m in range(1 << len(sup)):
            src_m = 0
            for i, j in enumerate(sup):
                if (m >> i) & 1:
                    src_m |= 1 << j
            if (self._bits >> src_m) & 1:
                bits |= 1 << m
        return TruthTable(len(sup), bits)

    def compose(self, subs: Sequence[TruthTable]) -> TruthTable:
        """Substitute ``subs[j]`` (all over a common variable set) for input j."""
        if len(subs) != self._nvars:
            raise ValueError("expected %d substitutions" % self._nvars)
        if self._nvars == 0:
            return TruthTable(0, self._bits)
        inner_n = subs[0].nvars
        for s in subs:
            if s.nvars != inner_n:
                raise ValueError("substituted tables must share a variable set")
        result = TruthTable.const(False, inner_n)
        for m in self.minterms():
            term = TruthTable.const(True, inner_n)
            for j in range(self._nvars):
                lit = subs[j] if (m >> j) & 1 else ~subs[j]
                term = term & lit
            result = result | term
        return result

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruthTable)
            and self._nvars == other._nvars
            and self._bits == other._bits
        )

    def __hash__(self) -> int:
        return hash((self._nvars, self._bits))

    def __repr__(self) -> str:
        width = 1 << self._nvars
        return "TruthTable(%d, 0b%s)" % (
            self._nvars,
            format(self._bits, "0%db" % width),
        )

    def to_binary_string(self) -> str:
        """MSB-first binary string, one character per assignment."""
        return format(self._bits, "0%db" % (1 << self._nvars))


@functools.lru_cache(maxsize=None)
def projection_words(nvars: int) -> Tuple[int, ...]:
    """``TruthTable.var(j, nvars).bits`` for every ``j``, built once per width.

    These are the bit-parallel simulation inputs: AND/OR/NOT of these
    words evaluates a function on all ``2**nvars`` assignments at once.
    The cache holds at most 25 entries: tables stop at 24 variables.
    """
    return tuple(TruthTable.var(j, nvars).bits for j in range(nvars))


def all_permutations(nvars: int) -> Iterable[tuple]:
    """All input permutations for ``nvars`` variables."""
    return itertools.permutations(range(nvars))

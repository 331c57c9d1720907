"""Two-level SOP minimization (the ``simplify`` step of the MIS script).

Exact Quine-McCluskey prime generation with a greedy-plus-essential
cover selection, both on integer bitsets over the ``2**n`` minterm
positions.  Exact minimization is exponential, so it is reserved for
the table sizes that occur in BLIF ``.names`` covers (bounded by
``max_inputs``); larger covers fall back to fast single-cube-containment
cleanup, which is what MIS's ``simplify`` degrades to as well.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.blif.sop import SopCover
from repro.obs import metrics
from repro.truth.truthtable import TruthTable, projection_words

if TYPE_CHECKING:
    from repro.blif.parser import BlifModel

# A QM implicant: (values, mask) where bit j of `mask` means "don't care"
# and, for cared positions, bit j of `values` is the literal polarity.
# Masked bits of `values` are always 0.
Implicant = Tuple[int, int]


def prime_implicants(tt: TruthTable) -> List[Implicant]:
    """All prime implicants of the function, by iterated merging.

    ``level[mask]`` is the set of implicants with that don't-care mask,
    as a bitset with bit ``v`` set for the implicant ``(v, mask)``.  Two
    implicants merge along a cared bit ``j`` when ``v`` and
    ``v | 2**j`` are both present, so one shift-and-AND finds every
    merge of a mask along ``j``.  A merge only adds mask bits, so
    visiting masks in increasing order completes each mask's set before
    it is read.  An implicant that merges with none of its neighbours
    is prime.  This is the same set of primes as pairwise merging level
    by level, in O(2**n * n) big-int operations.
    """
    n = tt.nvars
    words = projection_words(n)
    level = [0] * (1 << n)
    level[0] = tt.bits
    primes: List[Implicant] = []
    for mask, present in enumerate(level):
        if not present:
            continue
        used = 0
        for j, word in enumerate(words):
            bit = 1 << j
            if mask & bit:
                continue
            # Values with bit j clear whose neighbour across bit j is present.
            lows = present & (present >> bit) & ~word
            if lows:
                level[mask | bit] |= lows
                used |= lows | (lows << bit)
        unused = present & ~used
        while unused:
            low = unused & -unused
            primes.append((low.bit_length() - 1, mask))
            unused ^= low
    primes.sort()
    return primes


def _cube_word(imp: Implicant) -> int:
    """The minterm positions an implicant covers, as a bitset."""
    values, mask = imp
    word = 1 << values
    while mask:
        bit = mask & -mask
        word |= word << bit
        mask ^= bit
    return word


def _tie_break(mask: int) -> int:
    """Secondary key of the greedy step: ``-popcount(mask + 1)``.

    This equals ``-bin(~mask).count("1")``: for ``mask >= 0``,
    ``bin(~mask)`` is ``"-0b"`` followed by the binary of ``mask + 1``.
    It is not a literal count: mask ``0b110`` scores -3 and mask
    ``0b111`` scores -1.  Every cover depends on it, so a literal-count
    key would be a QoR change, not a refactoring.
    """
    return -(mask + 1).bit_count()


def _select_cover(primes: List[Implicant], tt: TruthTable) -> List[Implicant]:
    """Essential primes first, then greedy set cover of the rest.

    Essential primes come in the order of the lowest minterm each covers
    alone.  The greedy step takes the first prime (in ``primes`` order)
    maximizing (newly covered minterms, :func:`_tie_break`).
    """
    # A prime's cube lies inside the on-set, so its word is its coverage.
    covers = [_cube_word(p) for p in primes]
    once = twice = 0
    for word in covers:
        twice |= once & word
        once |= word
    alone = once & ~twice
    essential = sorted(
        (own & -own, i) for i, word in enumerate(covers) if (own := word & alone)
    )
    chosen = [primes[i] for _, i in essential]
    remaining = tt.bits
    for _, i in essential:
        remaining &= ~covers[i]

    ties = [_tie_break(mask) for _, mask in primes]
    while remaining:
        best = max(
            range(len(primes)),
            key=lambda i: ((covers[i] & remaining).bit_count(), ties[i]),
        )
        gain = covers[best] & remaining
        if not gain:
            raise AssertionError("prime cover selection stalled")
        chosen.append(primes[best])
        remaining &= ~gain
    return chosen


def minimize_truth_table(tt: TruthTable) -> List[Implicant]:
    """A small prime cover of the on-set (empty list for constant 0)."""
    if not tt.bits:
        return []
    primes = prime_implicants(tt)
    metrics.count("minimize.primes", len(primes))
    return _select_cover(primes, tt)


def _implicant_to_cube(imp: Implicant, width: int) -> str:
    values, mask = imp
    chars = []
    for j in range(width):
        if (mask >> j) & 1:
            chars.append("-")
        else:
            chars.append("1" if (values >> j) & 1 else "0")
    return "".join(chars)


def _single_cube_containment(cover: SopCover) -> SopCover:
    """Drop cubes contained in other cubes (cheap, any size)."""
    def contains(big: str, small: str) -> bool:
        return all(b == "-" or b == s for b, s in zip(big, small))

    kept: List[str] = []
    cubes = sorted(cover.cubes, key=lambda c: c.count("-"), reverse=True)
    for cube in cubes:
        if not any(contains(other, cube) for other in kept):
            kept.append(cube)
    return SopCover(cover.inputs, cover.output, kept, phase=cover.phase)


def minimize_cover(cover: SopCover, max_inputs: int = 10) -> SopCover:
    """Minimize a BLIF cover, preserving its function exactly.

    Covers with at most ``max_inputs`` columns get exact Quine-McCluskey
    minimization (both phases are tried, keeping the smaller); wider
    covers get single-cube-containment cleanup only.
    """
    metrics.count("minimize.calls")
    if cover.is_constant():
        value = cover.constant_value()
        if not cover.inputs:
            return SopCover.constant(cover.output, value)
        # Keep the column interface; dropping unused inputs is the
        # caller's (sweep's) job.
        width = cover.num_inputs
        return SopCover(
            cover.inputs, cover.output, ["-" * width] if value else [], phase=1
        )
    if cover.num_inputs > max_inputs:
        return _single_cube_containment(cover)

    tt = cover.truth_table()
    on_cover = minimize_truth_table(tt)
    off_cover = minimize_truth_table(~tt)

    def literals(imps: List[Implicant]) -> int:
        width = cover.num_inputs
        return sum(width - m[1].bit_count() for m in imps)

    use_off = (len(off_cover), literals(off_cover)) < (
        len(on_cover),
        literals(on_cover),
    )
    imps = off_cover if use_off else on_cover
    cubes = [_implicant_to_cube(i, cover.num_inputs) for i in imps]
    return SopCover(
        cover.inputs, cover.output, cubes, phase=0 if use_off else 1
    )


def minimize_model_tables(model: BlifModel, max_inputs: int = 10) -> BlifModel:
    """Minimize every table of a parsed BLIF model in place; returns it."""
    model.tables = [minimize_cover(t, max_inputs=max_inputs) for t in model.tables]
    return model

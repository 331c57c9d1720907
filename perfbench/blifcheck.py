"""The benchmark's own BLIF reader and evaluator.

Outputs of the program under test are checked here, against the input
BLIF, without going through ``repro.verify`` or ``repro.network``: a
defect shared by the mapper and the program's own simulator cannot
hide from this module.  It reads the combinational subset of BLIF the
generator writes and the program's writer emits: ``.model``,
``.inputs``, ``.outputs``, ``.names`` (on-set or off-set covers) and
``.end``, with ``#`` comments and ``\\`` continuations.
"""

import random

#: Up to this many inputs every vector is tried; above it, seeded random
#: vectors plus the all-zero and all-one vectors.
EXHAUSTIVE_INPUTS = 16
RANDOM_VECTORS = 4096


class Model:
    """A parsed BLIF model: ports plus ``.names`` tables by output name."""

    def __init__(self, name, inputs, outputs, tables):
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        # output name -> (input names, cubes, phase); phase 0 = off-set cover
        self.tables = tables

    def depth(self):
        """Longest path, in tables of two or more inputs, to an output."""
        level = {name: 0 for name in self.inputs}
        for name in self.order():
            ins = self.tables[name][0]
            step = 1 if len(ins) >= 2 else 0
            level[name] = step + max((level[i] for i in ins), default=0)
        return max((level[o] for o in self.outputs), default=0)

    def order(self):
        """Table outputs in dependency order; raises ValueError on a cycle."""
        done = set(self.inputs)
        open_ = set()
        out = []
        for root in self.tables:
            stack = [(root, False)]
            while stack:
                name, expanded = stack.pop()
                if expanded:
                    done.add(name)
                    out.append(name)
                    continue
                if name in done:
                    continue
                if name not in self.tables:
                    raise ValueError("signal %r is never driven" % name)
                open_.add(name)
                stack.append((name, True))
                for dep in self.tables[name][0]:
                    if dep in open_ and dep not in done:
                        raise ValueError("combinational cycle through %r" % dep)
                    if dep not in done:
                        stack.append((dep, False))
        return out

    def evaluate(self, words, width):
        """Bit-parallel simulation: ``words`` maps input -> int of ``width`` bits."""
        mask = (1 << width) - 1
        values = dict(words)
        for name in self.order():
            ins, cubes, phase = self.tables[name]
            acc = 0
            for cube in cubes:
                term = mask
                for sig, ch in zip(ins, cube):
                    if ch == "1":
                        term &= values[sig]
                    elif ch == "0":
                        term &= ~values[sig]
                acc |= term
            values[name] = (acc if phase else ~acc) & mask
        return values


def _logical_lines(text):
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = (pending + line).strip()
        pending = ""
        if line:
            yield line


def parse(text):
    """Parse BLIF text into a :class:`Model`; raises ValueError when malformed."""
    name, inputs, outputs, tables = "", [], [], {}
    current = None
    for line in _logical_lines(text):
        if line.startswith("."):
            words = line.split()
            key = words[0]
            current = None
            if key == ".model":
                name = words[1] if len(words) > 1 else ""
            elif key == ".inputs":
                inputs.extend(words[1:])
            elif key == ".outputs":
                outputs.extend(words[1:])
            elif key == ".names":
                if len(words) < 2:
                    raise ValueError(".names without an output")
                out = words[-1]
                if out in tables or out in inputs:
                    raise ValueError("signal %r driven twice" % out)
                current = [tuple(words[1:-1]), [], None]
                tables[out] = current
            elif key == ".end":
                break
            else:
                raise ValueError("unsupported BLIF construct %r" % key)
            continue
        if current is None:
            raise ValueError("cube line outside a .names table: %r" % line)
        ins = current[0]
        parts = line.split()
        cube, value = (parts[0], parts[1]) if ins else ("", parts[0])
        if len(cube) != len(ins) or value not in ("0", "1"):
            raise ValueError("bad cube line %r" % line)
        if current[2] is not None and current[2] != value:
            raise ValueError("mixed on-set and off-set cubes")
        current[2] = value
        current[1].append(cube)
    frozen = {
        out: (ins, tuple(cubes), 1 if phase in (None, "1") else 0)
        for out, (ins, cubes, phase) in tables.items()
    }
    return Model(name, inputs, outputs, frozen)


def vectors(inputs, seed):
    """Input words and their width: exhaustive up to 16 inputs, else sampled."""
    n = len(inputs)
    if n <= EXHAUSTIVE_INPUTS:
        width = 1 << n
        words = {}
        for j, name in enumerate(inputs):
            period = 1 << j
            block = ((1 << period) - 1) << period
            word = 0
            for start in range(0, width, 2 * period):
                word |= block << start
            words[name] = word
        return words, width
    rng = random.Random(seed)
    width = RANDOM_VECTORS + 2
    # Bit 0 is the all-zero vector and bit 1 the all-one vector.
    return {name: (rng.getrandbits(RANDOM_VECTORS) << 2) | 2 for name in inputs}, width


def port_signal(model, port):
    """The signal in ``model`` that carries output ``port``.

    The program's BLIF writer renames a port to ``<port>_out`` when the
    port's name is already taken by an internal table.
    """
    if port in model.outputs:
        return port
    if port + "_out" in model.outputs:
        return port + "_out"
    return None


def compare(golden_text, candidate_text, seed=0):
    """None when both BLIFs agree on every checked vector, else a reason."""
    golden = parse(golden_text)
    candidate = parse(candidate_text)
    if sorted(golden.inputs) != sorted(candidate.inputs):
        return "input ports differ"
    words, width = vectors(golden.inputs, seed)
    want = golden.evaluate(words, width)
    got = candidate.evaluate(words, width)
    for port in golden.outputs:
        sig = port_signal(candidate, port)
        if sig is None:
            return "output %r missing" % port
        diff = want[port] ^ got[sig]
        if diff:
            bit = (diff & -diff).bit_length() - 1
            vec = {name: (words[name] >> bit) & 1 for name in golden.inputs}
            return "output %r differs at %s" % (port, vec)
    return None


def differs_at(golden_text, candidate_text, vector):
    """Whether the two BLIFs disagree on some output for one input vector."""
    golden = parse(golden_text)
    candidate = parse(candidate_text)
    words = {name: vector[name] & 1 for name in golden.inputs}
    want = golden.evaluate(words, 1)
    got = candidate.evaluate(words, 1)
    return any(want[p] != got[port_signal(candidate, p)] for p in golden.outputs)


def lut_stats(text):
    """(LUT count, LUT depth) of a mapped BLIF.

    Single-input tables that only buffer or invert a signal are not
    counted, matching the paper's cost, which ignores inverters.
    """
    model = parse(text)
    count = sum(1 for ins, _, _ in model.tables.values() if len(ins) >= 2)
    return count, model.depth()

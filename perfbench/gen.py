"""Seeded generators for the benchmark's inputs, emitted as BLIF text.

Every generator takes a ``random.Random`` and returns BLIF, so parsing
stays inside the measured job path.  The same seed gives byte-identical
text.  Nothing here imports the program under test: its own generators
may change shape without changing what this benchmark measures.

Three network textures, one per mapping workload:

* :func:`wide_tree_network` -- wide-fanin gates grouped into large
  fanout-free regions, where the tree DP carries the job (``map_tree``);
* :func:`reconvergent_dag` -- narrow gates on a bounded number of
  levels with heavy reconvergence, the shape of real MCNC-89 logic,
  where cut enumeration and cover carry the job (``map_dag``);
* :func:`cone_network` -- fanout-free cones of a chosen leaf count,
  reaching the refactor pass's 10-leaf bound (``flow_area``).

:func:`prove_pair` builds the ``prove`` workload's pairs whose verdict
is known by construction.
"""

import blifcheck

AND, OR = "and", "or"


class Net:
    """A gate-level network: AND/OR gates over (signal, inverted) fanins."""

    def __init__(self, name, inputs):
        self.name = name
        self.inputs = list(inputs)
        self.gates = {}  # name -> (op, [(signal, inverted), ...]); insertion = topological
        self.outputs = []

    def add(self, name, op, fanins):
        self.gates[name] = (op, list(fanins))
        return name

    def copy(self):
        net = Net(self.name, self.inputs)
        net.gates = {g: (op, list(f)) for g, (op, f) in self.gates.items()}
        net.outputs = list(self.outputs)
        return net

    def simulate(self, words, width):
        """Bit-parallel values of every signal for the given input words."""
        mask = (1 << width) - 1
        values = dict(words)
        for name, (op, fanins) in self.gates.items():
            acc = mask if op == AND else 0
            for sig, inv in fanins:
                word = values[sig] ^ mask if inv else values[sig]
                acc = acc & word if op == AND else acc | word
            values[name] = acc
        return values

    def cone_bits(self, target, support):
        """Truth bits of ``target`` as a function of the ``support`` signals."""
        cone = set()
        stack = [target]
        while stack:
            name = stack.pop()
            if name not in cone and name not in support:
                cone.add(name)
                stack.extend(s for s, _ in self.gates[name][1])
        sub = Net(self.name, support)
        sub.gates = {name: gate for name, gate in self.gates.items() if name in cone}
        words, width = blifcheck.vectors(support, seed=0)
        return sub.simulate(words, width)[target]

    def inject_xor(self, port, lits):
        """Make output ``port`` flip exactly when every literal in ``lits`` holds.

        Other readers of the port's gate keep reading its original value.
        """
        inner, rare = port + "_f", port + "_rare"
        gates = {}
        for name, (op, fanins) in self.gates.items():
            fanins = [(inner if s == port else s, inv) for s, inv in fanins]
            if name != port:
                gates[name] = (op, fanins)
                continue
            gates[inner] = (op, fanins)
            gates[rare] = (AND, list(lits))
            gates[port + "_t0"] = (AND, [(inner, False), (rare, True)])
            gates[port + "_t1"] = (AND, [(inner, True), (rare, False)])
            gates[port] = (OR, [(port + "_t0", False), (port + "_t1", False)])
        self.gates = gates

    def fanout_counts(self):
        counts = dict.fromkeys(list(self.inputs) + list(self.gates), 0)
        for _, fanins in self.gates.values():
            for sig, _ in fanins:
                counts[sig] += 1
        return counts

    def to_blif(self, off_set=()):
        """BLIF text with one ``.names`` table per gate.

        Gates named in ``off_set`` are written by De Morgan as off-set
        covers (output column 0), which the program must read back as
        the same function.
        """
        lines = [
            ".model %s" % self.name,
            ".inputs %s" % " ".join(self.inputs),
            ".outputs %s" % " ".join(self.outputs),
        ]
        for name, (op, fanins) in self.gates.items():
            lines.append(".names %s %s" % (" ".join(s for s, _ in fanins), name))
            lines.extend(_cover(op, [inv for _, inv in fanins], name in off_set))
        lines.append(".end")
        return "\n".join(lines) + "\n"


def _cover(op, invs, off_set):
    lit = ["0" if inv else "1" for inv in invs]
    neg = ["1" if inv else "0" for inv in invs]
    n = len(invs)
    if (op == AND) != off_set:
        # AND on-set: one cube of all literals.  OR off-set: the same
        # cube of negated literals, complemented.
        cube = lit if op == AND else neg
        return ["%s %s" % ("".join(cube), "0" if off_set else "1")]
    # OR on-set: one single-literal cube per fanin.  AND off-set: one
    # single-negated-literal cube per fanin, complemented.
    chars = lit if op == OR else neg
    rows = []
    for j in range(n):
        cube = ["-"] * n
        cube[j] = chars[j]
        rows.append("%s %s" % ("".join(cube), "0" if off_set else "1"))
    return rows


#: Gate fanins and tree sizes of the wide-fanin texture, drawn without
#: replacement so every network has the same number of wide gates, which
#: dominate the tree DP's cost, and trees of the same sizes.
FANIN_WIDTHS = (2, 3, 3, 4, 4, 5, 5, 6, 7, 8)
TREE_SIZES = (20, 25, 30, 35, 40, 45, 50, 55, 60)


def wide_tree_network(rng, name, n_inputs=32, n_gates=500):
    """Wide-fanin gates in large fanout-free regions, every root an output."""
    net = Net(name, ["i%d" % j for j in range(n_inputs)])
    widths = list(FANIN_WIDTHS) * -(-n_gates // len(FANIN_WIDTHS))
    rng.shuffle(widths)
    sizes = list(TREE_SIZES) * -(-n_gates // sum(TREE_SIZES))
    rng.shuffle(sizes)
    roots = []
    while len(net.gates) < n_gates:
        size = min(sizes.pop(), n_gates - len(net.gates))
        pending = []
        for _ in range(size):
            width = widths.pop()
            take = min(len(pending), rng.randint(0, width))
            kids = [pending.pop(rng.randrange(len(pending))) for _ in range(take)]
            # Leaves from the last two trees chain the trees into a
            # multi-level network of steady depth.
            kids += _leaves(rng, net.inputs, roots[-2:], width - take, exclude=kids)
            pending.append(_gate(rng, net, kids))
        while len(pending) > 1:
            take = min(len(pending), 8)
            kids = [pending.pop(rng.randrange(len(pending))) for _ in range(take)]
            pending.append(_gate(rng, net, kids))
        roots.append(pending[0])
        net.outputs.append(pending[0])
    return net


def _leaves(rng, inputs, roots, count, exclude=()):
    """``count`` distinct leaves: mostly primary inputs, some of ``roots``."""
    out = []
    taken = set(exclude)
    while len(out) < count:
        pool = roots if roots and rng.random() < 0.15 else inputs
        sig = rng.choice(pool)
        if sig not in taken:
            taken.add(sig)
            out.append(sig)
    return out


def _gate(rng, net, kids):
    name = "g%d" % len(net.gates)
    op = rng.choice((AND, OR))
    return net.add(name, op, [(k, rng.random() < 0.3) for k in kids])


def reconvergent_dag(rng, name, levels, n_inputs=32, n_gates=400):
    """Two- and three-input gates on ``levels`` levels, with reconvergence.

    Each gate takes one fanin from the level below, so the network is
    exactly ``levels`` deep, and its other fanins from the three levels
    below, preferring signals that already fan out.  Every gate nobody
    reads is an output.
    """
    net = Net(name, ["i%d" % j for j in range(n_inputs)])
    layers = [list(net.inputs)]
    used = []
    width = -(-n_gates // levels)
    for level in range(1, levels + 1):
        layer = []
        window = [s for lay in layers[max(0, level - 3):] for s in lay]
        for _ in range(min(width, n_gates - len(net.gates))):
            kids = [rng.choice(layers[-1])]
            for _ in range(1 if rng.random() < 0.7 else 2):
                pool = used if used and rng.random() < 0.5 else window
                sig = rng.choice(pool)
                if sig not in kids:
                    kids.append(sig)
            if len(kids) < 2:
                kids.append(next(s for s in window if s not in kids))
            gate = _gate(rng, net, kids)
            used.extend(kids)
            layer.append(gate)
        layers.append(layer)
    counts = net.fanout_counts()
    net.outputs = [g for g in net.gates if counts[g] == 0]
    return net


# Cone shapes by leaf count, as (root op, nested lists of leaf
# positions); each level alternates AND and OR, and a ("xor", a, b)
# entry is the two-level XOR of two leaves, which reads each leaf twice
# and keeps the cone fanout-free.  Quine-McCluskey time does not change
# under leaf permutation or leaf polarity, so fixing the shapes and
# drawing leaves and polarities from the seed keeps the work per cone,
# and the gate count, the same across seeds.  The 9- and 10-leaf shapes
# sit on refactor's cliff.
CONE_SHAPES = {
    4: ("or", [[0, 1], [2, 3]]),
    5: ("and", [[0, 1], [2, 3], 4]),
    6: ("or", [[0, 1, 2], [3, 4], 5]),
    7: ("and", [[0, 1], [2, 3], [4, 5, 6]]),
    8: ("and", [[0, 1], [2, 3], [4, 5], [6, 7]]),
    9: ("and", [[0, 1, 2], [3, 4], [5, 6], [7, 8]]),
    10: ("or", [[("xor", 0, 1), ("xor", 2, 3), ("xor", 4, 5)],
                [("xor", 6, 7), ("xor", 8, 9)]]),
}


def cone_network(rng, name, leaf_counts):
    """One fanout-free cone per entry of ``leaf_counts``; every root an output.

    Each cone reads the previous cone's root at leaf position 0 and
    primary inputs of its own elsewhere, so no two cones share a gate
    that structural hashing could merge.  Internal gates have fanout
    one, so each cone is exactly one tree of the program's forest, with
    exactly the requested leaves.
    """
    n_inputs = sum(leaf_counts) - len(leaf_counts) + 1
    net = Net(name, ["i%d" % j for j in range(n_inputs)])
    free = list(net.inputs)
    rng.shuffle(free)
    root = None
    for n in leaf_counts:
        top, shape = CONE_SHAPES[n]
        leaves = [free.pop() for _ in range(n if root is None else n - 1)]
        if root is not None:
            leaves.insert(0, root)
        lits = [(leaf, rng.random() < 0.5) for leaf in leaves]
        root = _emit_shape(net, shape, lits, top)
        net.outputs.append(root)
    return net


def _emit_shape(net, shape, lits, op):
    fanins = []
    for part in shape:
        if isinstance(part, int):
            fanins.append(lits[part])
        elif part[0] == "xor":
            (a, inv_a), (b, inv_b) = lits[part[1]], lits[part[2]]
            t0 = net.add("g%d" % len(net.gates), AND, [(a, inv_a), (b, not inv_b)])
            t1 = net.add("g%d" % len(net.gates), AND, [(a, not inv_a), (b, inv_b)])
            xor = net.add("g%d" % len(net.gates), OR, [(t0, False), (t1, False)])
            fanins.append((xor, False))
        else:
            fanins.append((_emit_shape(net, part, lits, OR if op == AND else AND), False))
    return net.add("g%d" % len(net.gates), op, fanins)


# -- prove workload --------------------------------------------------------

#: A rare fault fires only when this many input literals hold at once:
#: one vector in 2**14, which the program's 256-vector simulation
#: prefilter misses about 98% of the time.
RARE_LITERALS = 14


def rewrite(rng, net):
    """A function-preserving rewrite of ``net`` in network form.

    Wide gates are re-associated into two levels, AND-over-OR gates are
    distributed into OR-over-AND, and some gates are written as off-set
    covers by De Morgan.  Output names are kept; internal names change.
    """
    out = Net(net.name + "_rw", net.inputs)
    rename = {s: s for s in net.inputs}
    counts = net.fanout_counts()

    def fresh():
        return "r%d" % len(out.gates)

    for name, (op, fanins) in net.gates.items():
        lits = [(rename[s], inv) for s, inv in fanins]
        child = _distributable(net, op, fanins, counts)
        if child is not None and rng.random() < 0.6:
            # AND(x.., OR(a, b..)) == OR(AND(x.., a), AND(x.., b)..)
            j, (_, cfan) = child
            rest = lits[:j] + lits[j + 1:]
            op = OR
            lits = [
                (out.add(fresh(), AND, rest + [(rename[sig], inv)]), False)
                for sig, inv in cfan
            ]
        elif len(lits) >= 3 and rng.random() < 0.5:
            split = rng.randint(2, len(lits) - 1)
            lits = [(out.add(fresh(), op, lits[:split]), False)] + lits[split:]
        rename[name] = out.add(name if name in net.outputs else fresh(), op, lits)
    out.outputs = list(net.outputs)
    off_set = {g for g in out.gates if rng.random() < 0.3}
    return out, off_set


def _distributable(net, op, fanins, counts):
    """(index, gate) of a non-inverted, single-fanout OR fanin of an AND gate."""
    if op != AND:
        return None
    for j, (sig, inv) in enumerate(fanins):
        if not inv and sig in net.gates and counts[sig] == 1:
            child = net.gates[sig]
            if child[0] == OR and not any(s == f for s, _ in child[1] for f, _ in fanins):
                return j, child
    return None


def lut_tables(net, k):
    """``net`` collapsed into single-output tables of at most ``k`` inputs.

    A gate is absorbed into its only reader while the reader's support
    stays within ``k``.  Returns ``[(name, support, truth bits)]`` in
    topological order; bit ``m`` of the truth bits is the table's value
    when support input ``j`` equals bit ``j`` of ``m``.
    """
    counts = net.fanout_counts()
    outputs = set(net.outputs)
    support = {}
    for name, (_, fanins) in net.gates.items():
        sup = []
        for sig, _ in fanins:
            absorbed = counts[sig] == 1 and sig not in outputs
            inner = support.get(sig, (sig,)) if absorbed else (sig,)
            sup.extend(s for s in inner if s not in sup)
        if len(sup) > k:
            sup = list(dict.fromkeys(s for s, _ in fanins))
        support[name] = tuple(sup)
    tables = {}
    needed = list(net.outputs)
    while needed:
        name = needed.pop()
        if name in tables or name not in net.gates:
            continue
        sup = support[name]
        tables[name] = sup
        needed.extend(sup)
    order = [g for g in net.gates if g in tables]
    return [(g, tables[g], net.cone_bits(g, tables[g])) for g in order]


def tables_to_blif(net, tables):
    """BLIF with one minterm row per on-set entry, as the program writes it."""
    lines = [
        ".model %s_lut" % net.name,
        ".inputs %s" % " ".join(net.inputs),
        ".outputs %s" % " ".join(net.outputs),
    ]
    for name, sup, bits in tables:
        lines.append(".names %s %s" % (" ".join(sup), name))
        for m in range(1 << len(sup)):
            if (bits >> m) & 1:
                lines.append("%s 1" % "".join(str((m >> j) & 1) for j in range(len(sup))))
    lines.append(".end")
    return "\n".join(lines) + "\n"


def _witness(rng, golden, mutant, width=4096):
    """A vector on which the two networks differ, or None if none was found."""
    words = {name: rng.getrandbits(width) for name in golden.inputs}
    want = golden.simulate(words, width)
    got = mutant.simulate(words, width)
    for port in golden.outputs:
        diff = want[port] ^ got[port]
        if diff:
            bit = (diff & -diff).bit_length() - 1
            return {name: (words[name] >> bit) & 1 for name in golden.inputs}
    return None


def prove_pair(rng, kind, golden, k=5):
    """A ``(candidate BLIF, form, expected, witness)`` for ``golden``.

    ``form`` is ``"network"`` or ``"lut"``.  ``expected`` is True for a
    function-preserving candidate; otherwise ``witness`` is an input
    vector on which candidate and golden differ, known by construction.
    Kinds: ``rewrite`` and ``lut`` are equivalent; ``rare`` XORs one
    output with a conjunction of RARE_LITERALS input literals; ``invert``
    inverts one gate fanin; ``lutflip`` flips one row of an
    output-driving table.
    """
    if kind == "rewrite":
        cand, off_set = rewrite(rng, golden)
        return cand.to_blif(off_set), "network", True, None
    if kind == "lut":
        return tables_to_blif(golden, lut_tables(golden, k)), "lut", True, None
    if kind == "lutflip":
        tables = lut_tables(golden, k)
        vector = {name: rng.getrandbits(1) for name in golden.inputs}
        values = golden.simulate(vector, 1)
        idx = rng.choice([i for i, t in enumerate(tables) if t[0] in golden.outputs])
        name, sup, bits = tables[idx]
        row = sum(values[s] << j for j, s in enumerate(sup))
        tables[idx] = (name, sup, bits ^ (1 << row))
        return tables_to_blif(golden, tables), "lut", False, vector
    if kind == "rare":
        mutant = golden.copy()
        port = rng.choice(golden.outputs)
        lits = [(s, rng.random() < 0.5) for s in rng.sample(golden.inputs, RARE_LITERALS)]
        mutant.inject_xor(port, lits)
        vector = {name: rng.getrandbits(1) for name in golden.inputs}
        for sig, inv in lits:
            vector[sig] = 0 if inv else 1
        return mutant.to_blif(), "network", False, vector
    if kind == "invert":
        while True:
            mutant = golden.copy()
            gate = rng.choice(list(golden.gates))
            op, fanins = golden.gates[gate]
            j = rng.randrange(len(fanins))
            sig, inv = fanins[j]
            fanins = list(fanins)
            fanins[j] = (sig, not inv)
            mutant.gates[gate] = (op, fanins)
            vector = _witness(rng, golden, mutant)
            if vector is not None:
                return mutant.to_blif(), "network", False, vector
    raise ValueError("unknown pair kind %r" % kind)

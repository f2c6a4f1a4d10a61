"""Seeded input generators for the `pd` and `large` workloads.

Each generator returns source text plus the analytic value the program must
reproduce; those with random content take a ``numpy.random.Generator``. The
oracles are derived by hand from the structure of each diagram (trace
preservation, the snake equations, multiplicativity of disconnected
products); none of them calls into ``proctheory``. Only numpy is used here,
so these inputs never depend on the code under test.

Wire types are fixed to ``Q(2)`` and ``C(2)`` so that the cost of a workload
depends on its shape, not on the seed; the seed picks matrix entries, swap
positions, wire kinds and effect values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The identity channel's Choi operator on Q(2): sum_ij |ii><jj|.
IDENTITY_CHOI_Q2 = np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)


@dataclass(frozen=True)
class Case:
    """One generated `.pd` source with the outcome the program must produce.

    kind:     "scalar" (closed diagram, value in ``expect``), "choi" (open
              diagram, Choi matrix in ``expect``) or "causal" (a file whose
              every ``check`` directive must print ``pass``).
    theory:   theory the diagram is written for; it fixes the typechecker's
              wiring capabilities.
    diagram:  name of the diagram in ``text``.
    nodes, wires: size of the diagram.
    """

    name: str
    text: str
    kind: str
    expect: object
    theory: str
    diagram: str
    nodes: int
    wires: int


def fmt_entry(z):
    """A complex number as a `.pd` literal that round-trips exactly."""
    z = complex(z)
    sign = "-" if np.signbit(z.imag) else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def choi_literal(mat):
    return "choi [" + ", ".join(fmt_entry(z) for z in np.asarray(mat).ravel()) + "]"


def random_cptp_choi(rng, din, dout, env):
    """Choi operator (input (x) output) of a random channel, from a Stinespring isometry.

    J[(a, b), (A, B)] = sum_e V[(b, e), a] conj(V[(B, e), A]); the partial
    trace over the output of J is the identity, which is what makes a closed
    circuit of these channels evaluate to 1.
    """
    g = rng.normal(size=(dout * env, din)) + 1j * rng.normal(size=(dout * env, din))
    v, _ = np.linalg.qr(g)
    v = v.reshape(dout, env, din)
    j4 = np.einsum("bea,BeA->abAB", v, v.conj())
    return j4.reshape(din * dout, din * dout)


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _source(header, name, nodes, wire_lines, footer=()):
    # Nodes are declared in the order a person would write them. Planning
    # breaks ties on that order, so a seeded order would make the cost of a
    # diagram depend on the seed.
    node_lines = [f"    node {node} : {box}" for node, box in nodes]
    body = [f"diagram {name} {{", *node_lines, *wire_lines, "}"]
    return "\n".join([*header, *body, *footer]) + "\n"


# ---------------------------------------------------------------------------
# `pd` workload: files the CLI evaluates or checks (at most 26 wires each)


def brick_circuit(rng, name, width=4, layers=6, closed=True):
    """A brick pattern of distinct random 2-qubit channels on ``Q(2)`` lines.

    Closed: every line starts in a random density matrix and ends in
    ``discard``, so the diagram is a trace of a trace-preserving map of a
    unit-trace state: the scalar is exactly 1. Open: the lines are the
    diagram's boundary, and a composite of channels is causal, so the
    file's ``check causal ... in qphys`` must print ``pass``.
    """
    header = ["system q = Q(2)"]
    nodes, wires = [], []
    line_src = []
    for k in range(width):
        if closed:
            header.append(f"box r{k} : -> q = {choi_literal(random_density(rng, 2))}")
            nodes.append((f"s{k}", f"r{k}"))
            line_src.append(f"s{k}.out[0]")
        else:
            line_src.append(f"bound.in[{k}]")
    gate = 0
    for layer in range(layers):
        for top in range(layer % 2, width - 1, 2):
            header.append(f"box g{gate} : q * q -> q * q = {choi_literal(random_cptp_choi(rng, 4, 4, 2))}")
            node = f"n{gate}"
            nodes.append((node, f"g{gate}"))
            wires.append(f"    wire {line_src[top]} -> {node}.in[0]")
            wires.append(f"    wire {line_src[top + 1]} -> {node}.in[1]")
            line_src[top], line_src[top + 1] = f"{node}.out[0]", f"{node}.out[1]"
            gate += 1
    if closed:
        header.append("box tr : q -> = discard")
    for k in range(width):
        if closed:
            nodes.append((f"t{k}", "tr"))
            wires.append(f"    wire {line_src[k]} -> t{k}.in[0]")
        else:
            wires.append(f"    wire {line_src[k]} -> bound.out[{k}]")
    footer = () if closed else (f"check causal {name} in qphys",)
    text = _source(header, name, nodes, wires, footer)
    kind, expect = ("scalar", 1.0) if closed else ("causal", None)
    return Case(name, text, kind, expect, "qphys", name, len(nodes), len(wires))


def snake_ladder(name, snakes):
    """``snakes`` cup/cap zig-zags in series on ``Q(2)``.

    Each zig-zag is the identity by the snake equation, so the whole ladder
    is the identity channel, whose Choi operator is the Bell pattern
    ``IDENTITY_CHOI_Q2``. Needs cups and caps: written for ``qcalc``.
    """
    header = [
        "system q = Q(2)",
        "box u : -> q * dual(q) = cup",
        "box e : q * dual(q) -> = cap",
    ]
    nodes, wires = [], []
    src = "bound.in[0]"
    for k in range(snakes):
        nodes += [(f"c{k}", "u"), (f"k{k}", "e")]
        wires.append(f"    wire {src} -> k{k}.in[0]")
        wires.append(f"    wire c{k}.out[1] -> k{k}.in[1]")
        src = f"c{k}.out[0]"
    wires.append(f"    wire {src} -> bound.out[0]")
    text = _source(header, name, nodes, wires)
    return Case(name, text, "choi", IDENTITY_CHOI_Q2, "qcalc", name, len(nodes), len(wires))


# ---------------------------------------------------------------------------
# `large` workload: diagrams of 40 and more nodes; every box declared once


def identity_chain(name, n):
    """maxmix -> (n - 2) identities -> discard on ``Q(2)``: the scalar is 1."""
    header = [
        "system q = Q(2)",
        "box mu : -> q = maxmix",
        "box w : q -> q = id",
        "box tr : q -> = discard",
    ]
    nodes = [("a", "mu")] + [(f"i{k}", "w") for k in range(n - 2)] + [("z", "tr")]
    wires = [f"    wire {nodes[k][0]}.out[0] -> {nodes[k + 1][0]}.in[0]" for k in range(n - 1)]
    text = _source(header, name, nodes, wires)
    return Case(name, text, "scalar", 1.0, "qphys", name, n, len(wires))


def swap_network(rng, name, n, width):
    """Random adjacent swaps on ``width`` lines of seeded kinds ``Q(2)``/``C(2)``.

    Each line starts in ``maxmix`` and ends in ``discard`` of its kind;
    swaps are trace preserving, so the closed diagram's scalar is 1.
    ``n - 2 * width`` swaps are placed, each on a seeded adjacent pair.
    """
    kinds = ["q" if b else "c" for b in rng.integers(0, 2, size=width)]
    header = ["system q = Q(2)", "system c = C(2)"]
    for k in "qc":
        header += [f"box m{k} : -> {k} = maxmix", f"box d{k} : {k} -> = discard"]
    for a in "qc":
        for b in "qc":
            header.append(f"box s{a}{b} : {a} * {b} -> {b} * {a} = swap")
    nodes, wires = [], []
    line_src = []
    for k in range(width):
        nodes.append((f"m{k}", f"m{kinds[k]}"))
        line_src.append(f"m{k}.out[0]")
    for s in range(n - 2 * width):
        top = int(rng.integers(0, width - 1))
        node = f"x{s}"
        nodes.append((node, f"s{kinds[top]}{kinds[top + 1]}"))
        wires.append(f"    wire {line_src[top]} -> {node}.in[0]")
        wires.append(f"    wire {line_src[top + 1]} -> {node}.in[1]")
        # out[0] carries the lower line's kind up, out[1] the upper line's down
        line_src[top], line_src[top + 1] = f"{node}.out[0]", f"{node}.out[1]"
        kinds[top], kinds[top + 1] = kinds[top + 1], kinds[top]
    for k in range(width):
        nodes.append((f"d{k}", f"d{kinds[k]}"))
        wires.append(f"    wire {line_src[k]} -> d{k}.in[0]")
    text = _source(header, name, nodes, wires)
    return Case(name, text, "scalar", 1.0, "qphys", name, len(nodes), len(wires))


def pair_product(rng, name, n, effects=3):
    """``n // 2`` disconnected state-effect pairs on ``Q(2)``.

    Pair ``k`` is ``maxmix`` closed by one of ``effects`` diagonal effects
    ``diag(a, b)``; its value is ``(a + b) / 2``, and a disconnected
    diagram's value is the product of its components' values.
    """
    diag = rng.uniform(0.8, 1.2, size=(effects, 2))
    header = ["system q = Q(2)", "box mu : -> q = maxmix"]
    for e in range(effects):
        header.append(f"box e{e} : q -> = {choi_literal(np.diag(diag[e]))}")
    pick = rng.integers(0, effects, size=n // 2)
    nodes, wires = [], []
    for k, e in enumerate(pick):
        nodes += [(f"p{k}", "mu"), (f"f{k}", f"e{e}")]
        wires.append(f"    wire p{k}.out[0] -> f{k}.in[0]")
    value = float(np.prod([(diag[e, 0] + diag[e, 1]) / 2 for e in pick]))
    text = _source(header, name, nodes, wires)
    return Case(name, text, "scalar", value, "qphys", name, len(nodes), len(wires))

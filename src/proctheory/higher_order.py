"""Wire bending and two-slot process matrices built from ordinary channels.

Bending moves a boundary factor to the other side of a process with its
orientation flipped, by composing with a cup or cap. Because the cup/cap
contraction pairs kets with kets and bras with bras, bending is exactly a
relabelling of the Choi tensor's boundary: the array is permuted, never
altered, so bending is involutive to machine precision.

A process matrix W maps a pair of channels (A, B) to a channel. Plugging
them in is a diagram of three nodes, evaluated by
:func:`proctheory.diagram.evaluate`: W's slot-input ports feed each
channel's leading inputs, and the channel's leading outputs feed W's
slot-output ports. :func:`circuit_form_channel` is likewise the diagram of
its three gates. Plugging swaps into both slots of W yields an ordinary
channel; conversely, any CPTP channel of that shape can be read as a
process matrix by retagging its boundary legs as slot ports, which is how
:func:`realize_process_matrix` works. Plugging the swaps back in undoes the
retagging, so the round trip is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diagram
from .numerics import DEFAULT_TOL, Tolerances
from .processes import ProcessTensor, ProcessTypeError, dagger_h, identity, is_causal
from .systems import SystemType

__all__ = [
    "SLOT_ROLES",
    "HigherOrderMap",
    "bend",
    "realize_process_matrix",
    "apply_process_matrix",
    "ordered_process_channel",
]

SLOT_ROLES = ("past", "a-out", "b-out", "a-in", "b-in", "future")
_INPUT_ROLES = ("past", "a-out", "b-out")
_OUTPUT_ROLES = ("a-in", "b-in", "future")


def bend(f: ProcessTensor, side, index):
    """Move boundary factor ``index`` on ``side`` ("in"/"out") to the end of
    the other side, orientation flipped.

    Bending an input is composition with a cup; numerically it permutes the
    Choi tensor's axes and nothing else, so bending the resulting last factor
    back restores ``f`` exactly. Bending an output, composition with a cap, is
    its reflection in time: the dagger of bending that factor off the input
    of ``f``'s dagger.
    """
    if side == "out":
        if not 0 <= index < len(f.output.factors):
            raise IndexError(f"output port {index} out of range for {f}")
        return dagger_h(bend(dagger_h(f), "in", index))
    if side != "in":
        raise ValueError(f"side must be 'in' or 'out', got {side!r}")
    if not 0 <= index < len(f.input.factors):
        raise IndexError(f"input port {index} out of range for {f}")
    n = len(f.input.factors) + len(f.output.factors)
    order = [i for i in range(n) if i != index] + [index]
    t = f.legs().transpose(order + [i + n for i in order])
    s_in = SystemType(f.input.factors[:index] + f.input.factors[index + 1 :])
    s_out = SystemType(f.output.factors + (f.input.factors[index].dual(),))
    side_len = s_in.total_dim * s_out.total_dim
    return ProcessTensor._trusted(s_in, s_out, t.reshape(side_len, side_len))


@dataclass(frozen=True)
class HigherOrderMap:
    """A two-slot process matrix: a process with slot-tagged boundary factors.

    ``input_roles`` assigns each input factor of the underlying process one
    of past/a-out/b-out (the W receives the global past and the slot
    outputs); ``output_roles`` assigns each output factor one of
    a-in/b-in/future (the W feeds the slot inputs and the global future).
    """

    underlying: ProcessTensor
    input_roles: tuple
    output_roles: tuple

    def __post_init__(self):
        if len(self.input_roles) != len(self.underlying.input.factors):
            raise ValueError("one input role per input factor required")
        if len(self.output_roles) != len(self.underlying.output.factors):
            raise ValueError("one output role per output factor required")
        for r in self.input_roles:
            if r not in _INPUT_ROLES:
                raise ValueError(f"invalid input role {r!r}; expected one of {_INPUT_ROLES}")
        for r in self.output_roles:
            if r not in _OUTPUT_ROLES:
                raise ValueError(f"invalid output role {r!r}; expected one of {_OUTPUT_ROLES}")

    def slot_system(self, role):
        if role in _INPUT_ROLES:
            facs = [f for f, r in zip(self.underlying.input.factors, self.input_roles) if r == role]
        else:
            facs = [f for f, r in zip(self.underlying.output.factors, self.output_roles) if r == role]
        return SystemType(tuple(facs))


def realize_process_matrix(w_channel: ProcessTensor, input_roles, output_roles,
                           tol: Tolerances = DEFAULT_TOL):
    """Read a CPTP channel as a process matrix by tagging its legs as slots.

    ``w_channel`` is the channel obtained from the process matrix by
    plugging swaps into both slots: its inputs carry the global past and the
    two slot outputs, its outputs the two slot inputs and the global future.
    Plugging swaps into the realized W recovers ``w_channel`` exactly.
    """
    if not is_causal(w_channel, tol):
        raise ValueError("process-matrix realization expects a trace-preserving channel")
    return HigherOrderMap(w_channel, tuple(input_roles), tuple(output_roles))


def _plug(procs, links, ins, outs):
    """Evaluate the diagram with a node per ``procs`` entry (name -> process), ``links``
    wiring ``(source, sink)`` ports ``(node, side, k)``, ``bound.in[k]`` feeding ``ins[k]``
    and ``outs[k]`` feeding ``bound.out[k]``. Wires are numbered ins, links, outs; the
    numbering fixes the order of the floating-point sums."""
    nodes = {name: diagram.DiagramNode(name, name, p.input, p.output) for name, p in procs.items()}
    ends = [(("bound", "in", k), p) for k, p in enumerate(ins)] + links
    ends += [(p, ("bound", "out", k)) for k, p in enumerate(outs)]
    wires = [diagram.Wire(diagram.Port(*a), diagram.Port(*b)) for a, b in ends]
    return diagram.evaluate(diagram.Diagram("plug", nodes, wires), procs)


def apply_process_matrix(w: HigherOrderMap, a: ProcessTensor, b: ProcessTensor):
    """Plug channels into the slots: evaluate the diagram of W, a and b.

    W's ports of role ``a-in`` feed a's leading inputs, in order, and a's
    leading outputs feed W's ``a-out`` ports; likewise for b. Any further
    factors of a slot channel are ancilla legs that join the global boundary
    (so plugging ``swap(slot_in, slot_out)`` into both slots reproduces the
    underlying channel exactly). Inputs of the result are ordered past, then
    a's ancilla inputs, then b's; outputs are a's ancilla outputs, b's, future.

    The result is guaranteed CPTP when ``w`` came from a circuit-shaped
    channel; for exotic W inputs the contraction is still performed and the
    caller can test causality.
    """
    ports = {role: [] for role in SLOT_ROLES}  # W's ports of each role, in order
    for side, roles in (("in", w.input_roles), ("out", w.output_roles)):
        for i, role in enumerate(roles):
            ports[role].append(("w", side, i))
    links, anc_in, anc_out = [], [], []
    for slot, ch in (("a", a), ("b", b)):
        s_in, s_out = w.slot_system(f"{slot}-in"), w.slot_system(f"{slot}-out")
        k_in, k_out = len(s_in), len(s_out)
        if not SystemType(ch.input.factors[:k_in]).same_carrier(s_in):
            raise ValueError(f"slot {slot} expects input starting with {s_in}, got {ch.input}")
        if not SystemType(ch.output.factors[:k_out]).same_carrier(s_out):
            raise ValueError(f"slot {slot} expects output starting with {s_out}, got {ch.output}")
        # wires into W's inputs before those out of its outputs, as W's Choi legs run
        links += [((slot, "out", j), p) for j, p in enumerate(ports[f"{slot}-out"])]
        links += [(p, (slot, "in", j)) for j, p in enumerate(ports[f"{slot}-in"])]
        anc_in += [(slot, "in", j) for j in range(k_in, len(ch.input))]
        anc_out += [(slot, "out", j) for j in range(k_out, len(ch.output))]
    return _plug({"w": w.underlying, "a": a, "b": b}, links,
                 ports["past"] + anc_in, anc_out + ports["future"])


def ordered_process_channel(past: SystemType, mid: SystemType, late: SystemType):
    """The swap-plugged channel of the causally ordered process matrix.

    Routing is by identity wires: past -> slot A input, slot A output ->
    slot B input, slot B output -> future. Realize it with roles
    (past, a-out, b-out) -> (a-in, b-in, future); applying channels then
    yields their ordered composite b . a.
    """
    return identity(past * mid * late)


def circuit_form_channel(g1: ProcessTensor, g2: ProcessTensor, g3: ProcessTensor):
    """Swap-plugged channel of a general causally ordered circuit with memory.

    ``g1: P -> A_in (x) M1``, ``g2: A_out (x) M1 -> B_in (x) M2``,
    ``g3: B_out (x) M2 -> F``. Returns the channel
    ``(P, A_out, B_out) -> (A_in, B_in, F)`` obtained by plugging swaps into
    both slots; realize it with roles (past, a-out, b-out) ->
    (a-in, b-in, future). Applying channels (A, B) then equals the ordered
    composite g3 . (B (x) 1) . g2 . (A (x) 1) . g1.
    """
    procs, links = {"g1": g1, "g2": g2, "g3": g3}, []
    for f, g in (("g1", "g2"), ("g2", "g3")):  # f's outputs after the first are g's memory
        mem = SystemType(procs[f].output.factors[1:])
        if not SystemType(procs[g].input.factors[1:]).same_carrier(mem):
            raise ProcessTypeError(f"memory {mem} does not match the input of {procs[g]}")
        links += [((f, "out", j), (g, "in", j)) for j in range(1, len(mem) + 1)]
    ins = [("g1", "in", j) for j in range(len(g1.input))] + [("g2", "in", 0), ("g3", "in", 0)]
    outs = [("g1", "out", 0), ("g2", "out", 0)] + [("g3", "out", j) for j in range(len(g3.output))]
    return _plug(procs, links, ins, outs)

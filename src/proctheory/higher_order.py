"""Wire bending and two-slot process matrices built from ordinary channels.

Bending moves a boundary factor to the other side of a process with its
orientation flipped, by composing with a cup or cap. Because the cup/cap
contraction pairs kets with kets and bras with bras, bending is exactly a
relabelling of the Choi tensor's boundary: the array is permuted, never
altered, so bending is involutive to machine precision.

A process matrix W maps a pair of channels (A, B) to a channel. Plugging
swaps into both slots of W yields an ordinary channel; conversely, any
CPTP channel of that shape can be read as a process matrix by retagging
its boundary legs as slot ports, which is how :func:`realize_process_matrix`
works. Plugging the swaps back in undoes the retagging, so the round trip
is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import DEFAULT_TOL, Tolerances, contract
from .processes import ProcessTensor, ProcessTypeError, identity, is_causal
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

    Implemented as composition with a cup (bending an input) or cap (bending
    an output); numerically this permutes the Choi tensor's axes and nothing
    else, so bending the resulting last factor back restores ``f`` exactly.
    """
    n_in, n_out = len(f.input.factors), len(f.output.factors)
    n = n_in + n_out
    if side == "in":
        if not 0 <= index < n_in:
            raise IndexError(f"input port {index} out of range for {f}")
        pos = index
        new_in = f.input.factors[:index] + f.input.factors[index + 1 :]
        new_out = f.output.factors + (f.input.factors[index].dual(),)
        order = [i for i in range(n_in) if i != pos] + list(range(n_in, n)) + [pos]
    elif side == "out":
        if not 0 <= index < n_out:
            raise IndexError(f"output port {index} out of range for {f}")
        pos = n_in + index
        new_in = f.input.factors + (f.output.factors[index].dual(),)
        new_out = f.output.factors[:index] + f.output.factors[index + 1 :]
        order = list(range(n_in)) + [pos] + [i for i in range(n_in, n) if i != pos]
    else:
        raise ValueError(f"side must be 'in' or 'out', got {side!r}")
    t = f.legs().transpose(order + [i + n for i in order])
    s_in, s_out = SystemType(new_in), SystemType(new_out)
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


def _positions(roles, role):
    return [i for i, r in enumerate(roles) if r == role]


def _kets_bras(legs):
    return [(leg, 0) for leg in legs] + [(leg, 1) for leg in legs]


def apply_process_matrix(w: HigherOrderMap, a: ProcessTensor, b: ProcessTensor):
    """Plug channels into the slots: contract W with choi(a), then with choi(b).

    Each slot channel's leading input factors must match the slot's input
    wires and its leading output factors the slot's output wires; any further
    factors are ancilla legs that join the global boundary (so plugging
    ``swap(slot_in, slot_out)`` into both slots reproduces the underlying
    channel exactly). Inputs of the result are ordered past, then a's
    ancilla inputs, then b's; outputs are a's ancilla outputs, b's, future.

    The result is guaranteed CPTP when ``w`` came from a circuit-shaped
    channel; for exotic W inputs the contraction is still performed and the
    caller can test causality.
    """
    u = w.underlying
    n_in = len(u.input.factors)
    legs_w = [("w", i) for i in range(n_in + len(u.output.factors))]
    legs, anc_in, anc_out, extras = {}, {}, {}, {}
    for slot, ch in (("a", a), ("b", b)):
        s_in = w.slot_system(f"{slot}-in")
        s_out = w.slot_system(f"{slot}-out")
        k_in, k_out = len(s_in.factors), len(s_out.factors)
        if not SystemType(ch.input.factors[:k_in]).same_carrier(s_in):
            raise ValueError(f"slot {slot} expects input starting with {s_in}, got {ch.input}")
        if not SystemType(ch.output.factors[:k_out]).same_carrier(s_out):
            raise ValueError(f"slot {slot} expects output starting with {s_out}, got {ch.output}")
        extras[slot] = (ch.input.factors[k_in:], ch.output.factors[k_out:])
        # slot wires are W's legs; ancilla legs get names of their own
        anc_in[slot] = [(slot, "in", j) for j in range(k_in, len(ch.input.factors))]
        anc_out[slot] = [(slot, "out", j) for j in range(k_out, len(ch.output.factors))]
        feed = [legs_w[n_in + i] for i in _positions(w.output_roles, f"{slot}-in")]
        ret = [legs_w[i] for i in _positions(w.input_roles, f"{slot}-out")]
        legs[slot] = _kets_bras(feed + anc_in[slot] + ret + anc_out[slot])

    past = [legs_w[i] for i in _positions(w.input_roles, "past")]
    future = [legs_w[n_in + i] for i in _positions(w.output_roles, "future")]
    boundary = past + anc_in["a"] + anc_in["b"] + anc_out["a"] + anc_out["b"] + future
    lw = _kets_bras(legs_w)
    mid = [l for l in lw if l not in legs["a"]] + [l for l in legs["a"] if l not in lw]
    t = contract(u.legs(), lw, a.legs(), legs["a"], mid)
    res = contract(t, mid, b.legs(), legs["b"], _kets_bras(boundary))
    s_in = w.slot_system("past") * SystemType(extras["a"][0]) * SystemType(extras["b"][0])
    s_out = SystemType(extras["a"][1]) * SystemType(extras["b"][1]) * w.slot_system("future")
    side = s_in.total_dim * s_out.total_dim
    return ProcessTensor._trusted(s_in, s_out, res.reshape(side, side))


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
    a_in, m1 = SystemType(g1.output.factors[:1]), SystemType(g1.output.factors[1:])
    a_out = SystemType(g2.input.factors[:1])
    b_in, m2 = SystemType(g2.output.factors[:1]), SystemType(g2.output.factors[1:])
    b_out = SystemType(g3.input.factors[:1])
    for mem, g in ((m1, g2), (m2, g3)):
        if not SystemType(g.input.factors[1:]).same_carrier(mem):
            raise ProcessTypeError(f"memory {mem} does not match the input of {g}")
    # one leg per wire, grouped: p past, a/x slot A in/out, m/n memories,
    # b/y slot B in/out, f future; upper case marks the bra legs
    dim = dict(zip("paxmbnyf", (g1.din, a_in.total_dim, a_out.total_dim, m1.total_dim,
                                b_in.total_dim, m2.total_dim, b_out.total_dim, g3.dout)))

    def grouped(g, legs):
        return g.choi.reshape([dim[l] for l in legs + legs])

    t = contract(grouped(g1, "pam"), "pamPAM", grouped(g2, "xmbn"), "xmbnXMBN", "paPAxbnXBN")
    t = contract(t, "paPAxbnXBN", grouped(g3, "ynf"), "ynfYNF", "pxyabfPXYABF")
    s_in, s_out = g1.input * a_out * b_out, a_in * b_in * g3.output
    side = s_in.total_dim * s_out.total_dim
    return ProcessTensor._trusted(s_in, s_out, t.reshape(side, side))

import itertools

import numpy as np
import pytest

from proctheory import higher_order as HO
from proctheory import processes as P
from proctheory.processes import ProcessTensor, compose_par, compose_seq, identity, is_causal, swap
from proctheory.systems import C, Q, SystemType

ROLES_IN = ("past", "a-out", "b-out")
ROLES_OUT = ("a-in", "b-in", "future")


def test_bend_identity_gives_cup():
    bent = HO.bend(identity(Q(2)), "in", 0)
    assert np.allclose(bent.choi, P.cup(Q(2)).choi)
    assert bent.input.is_trivial()
    # and bending the output instead gives the cap
    assert np.allclose(HO.bend(identity(Q(2)), "out", 0).choi, P.cap(Q(2)).choi)


def test_bend_twice_restores():
    rng = np.random.default_rng(60)
    f = P.random_cptp(rng, Q(2) * Q(3), Q(2))
    g = HO.bend(HO.bend(f, "in", 1), "out", 1)
    assert np.allclose(g.choi, f.choi)
    assert g.input.same_carrier(f.input) and g.output.same_carrier(f.output)


def test_bend_of_swap_matches_entrywise_oracle():
    # bending the first input of the swap yields the cup routed across the crossing;
    # compare against composing with an explicit cup
    sw = swap(Q(2), Q(2))
    bent = HO.bend(sw, "in", 0)
    oracle = compose_seq(
        compose_par(sw, identity(Q(2).dual())),
        compose_par(identity(Q(2)), P.cup(Q(2))),
    )
    # oracle: feed input 1 normally, create (wire, dual) with the cup on input 0
    # positions: cup legs enter swap input 0 and exit as the dangling dual leg
    assert bent.choi.shape == oracle.choi.shape
    assert np.allclose(np.sort(np.linalg.eigvalsh(bent.choi)), np.sort(np.linalg.eigvalsh(oracle.choi)))


def test_bend_out_of_range():
    with pytest.raises(IndexError):
        HO.bend(identity(Q(2)), "in", 5)


def reference_bend(f, side, index):
    """Bending as one axis permutation per side, as it was written before the output case
    became the reflection of the input case, kept as that reflection's oracle."""
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


def test_bend_matches_reference_on_every_side_and_index():
    # products of up to two of Q(2), C(3) and dual(Q(2)) a side, the empty product I included
    factors = [Q(2), C(3), Q(2).dual()]
    sides = [SystemType(sum((s.factors for s in c), ())) for n in range(3)
             for c in itertools.product(factors, repeat=n)]
    rng = np.random.default_rng(68)
    bends = 0
    for s_in, s_out in itertools.product(sides, repeat=2):
        f = P.random_cp(rng, s_in, s_out)
        for side, index in itertools.product(("in", "out", "up"), range(-1, 4)):
            try:
                want = reference_bend(f, side, index)
            except (IndexError, ValueError) as exc:
                with pytest.raises(type(exc)) as got:
                    HO.bend(f, side, index)
                assert (type(got.value), str(got.value)) == (type(exc), str(exc))
                continue
            got = HO.bend(f, side, index)
            assert (got.input, got.output) == (want.input, want.output)
            assert got.choi.dtype == want.choi.dtype and got.choi.tobytes() == want.choi.tobytes()
            bends += 1
    assert bends == 2 * sum(len(s) for s in sides) * len(sides)


# Input checks: each row calls a public function with an input it rejects, and names
# the exception and its message.
REJECTED = [
    (lambda: HO.bend(identity(Q(2)), "out", 1), IndexError,
     "output port 1 out of range for Process[Q(2) -> Q(2)]"),
    (lambda: HO.bend(identity(Q(2)), "up", 0), ValueError, "side must be 'in' or 'out', got 'up'"),
    (lambda: HO.HigherOrderMap(identity(Q(2)), (), ("future",)), ValueError,
     "one input role per input factor required"),
    (lambda: HO.HigherOrderMap(identity(Q(2)), ("past",), ()), ValueError,
     "one output role per output factor required"),
    (lambda: HO.HigherOrderMap(identity(Q(2)), ("future",), ("future",)), ValueError,
     "invalid input role 'future'; expected one of ('past', 'a-out', 'b-out')"),
    (lambda: HO.HigherOrderMap(identity(Q(2)), ("past",), ("past",)), ValueError,
     "invalid output role 'past'; expected one of ('a-in', 'b-in', 'future')"),
    (lambda: HO.apply_process_matrix(
        HO.realize_process_matrix(HO.ordered_process_channel(Q(2), Q(2), Q(2)), ROLES_IN, ROLES_OUT),
        P.random_cptp(np.random.default_rng(0), Q(2), Q(3)), identity(Q(2))),
     ValueError, "slot a expects output starting with Q(2), got Q(3)"),
    # g1's second output is the memory that g2's second input must match
    (lambda: HO.circuit_form_channel(P.random_cptp(np.random.default_rng(0), Q(2), Q(2) * Q(2)),
                                     P.random_cptp(np.random.default_rng(1), Q(2) * Q(3), Q(2)), identity(Q(2))),
     P.ProcessTypeError, "memory Q(2) does not match the input of Process[Q(2) * Q(3) -> Q(2)]"),
]


@pytest.mark.parametrize("call, exc, message", REJECTED)
def test_rejected_input_raises_its_message(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


def test_ordered_w_composes_channels():
    rng = np.random.default_rng(61)
    w = HO.realize_process_matrix(
        HO.ordered_process_channel(Q(2), Q(2), Q(2)), ROLES_IN, ROLES_OUT
    )
    a = P.random_cptp(rng, Q(2), Q(2))
    b = P.random_cptp(rng, Q(2), Q(2))
    got = HO.apply_process_matrix(w, a, b)
    assert np.max(np.abs(got.choi - compose_seq(b, a).choi)) < 1e-9
    ident = HO.apply_process_matrix(w, identity(Q(2)), identity(Q(2)))
    assert np.allclose(ident.choi, identity(Q(2)).choi)


def test_constant_channels():
    rng = np.random.default_rng(62)
    w = HO.realize_process_matrix(
        HO.ordered_process_channel(Q(2), Q(2), Q(2)), ROLES_IN, ROLES_OUT
    )
    mu = compose_seq(P.max_mixed(Q(2)), P.discard(Q(2)))  # discard then reprepare noise/2
    got = HO.apply_process_matrix(w, mu, mu)
    assert np.allclose(got.choi, mu.choi)
    assert is_causal(got)


def test_roundtrip_on_circuit_form():
    rng = np.random.default_rng(63)
    for _ in range(5):
        g1 = P.random_cptp(rng, Q(2), Q(2) * Q(2))
        g2 = P.random_cptp(rng, Q(2) * Q(2), Q(2) * Q(3))
        g3 = P.random_cptp(rng, Q(2) * Q(3), Q(2))
        wch = HO.circuit_form_channel(g1, g2, g3)
        assert is_causal(wch)
        w = HO.realize_process_matrix(wch, ROLES_IN, ROLES_OUT)
        sw = swap(Q(2), Q(2))
        assert np.array_equal(HO.apply_process_matrix(w, sw, sw).choi, wch.choi)
        a = P.random_cptp(rng, Q(2), Q(2))
        b = P.random_cptp(rng, Q(2), Q(2))
        got = HO.apply_process_matrix(w, a, b)
        assert is_causal(got)
        oracle = compose_seq(
            g3,
            compose_seq(
                compose_par(b, identity(Q(3))),
                compose_seq(g2, compose_seq(compose_par(a, identity(Q(2))), g1)),
            ),
        )
        assert np.max(np.abs(got.choi - oracle.choi)) < 1e-9


def test_role_order_invariance():
    # the same circuit-form W with its factors and their roles permuted together
    rng = np.random.default_rng(65)
    g1 = P.random_cptp(rng, Q(2), Q(3) * Q(2))
    g2 = P.random_cptp(rng, Q(2) * Q(2), Q(2) * Q(2))
    g3 = P.random_cptp(rng, Q(3) * Q(2), Q(2))
    wch = HO.circuit_form_channel(g1, g2, g3)  # (P, A_out, B_out) -> (A_in, B_in, F)
    a = P.random_cptp(rng, Q(3), Q(2))
    b = P.random_cptp(rng, Q(2), Q(3))
    want = HO.apply_process_matrix(HO.realize_process_matrix(wch, ROLES_IN, ROLES_OUT), a, b)
    # inputs (B_out, P, A_out), outputs (F, A_in, B_in)
    permuted = compose_seq(swap(Q(3) * Q(2), Q(2)), compose_seq(wch, swap(Q(3), Q(2) * Q(2))))
    w = HO.realize_process_matrix(permuted, ("b-out", "past", "a-out"), ("future", "a-in", "b-in"))
    got = HO.apply_process_matrix(w, a, b)
    assert got.input == want.input and got.output == want.output
    assert np.max(np.abs(got.choi - want.choi)) < 1e-12


def test_multi_factor_slot():
    rng = np.random.default_rng(66)
    w = HO.realize_process_matrix(
        HO.ordered_process_channel(Q(2), Q(2) * Q(3), Q(2)),
        ("past", "a-out", "a-out", "b-out"), ("a-in", "b-in", "b-in", "future"),
    )
    assert w.slot_system("a-out") == w.slot_system("b-in") == Q(2) * Q(3)
    a = P.random_cptp(rng, Q(2), Q(2) * Q(3))
    b = P.random_cptp(rng, Q(2) * Q(3), Q(2))
    got = HO.apply_process_matrix(w, a, b)
    assert np.max(np.abs(got.choi - compose_seq(b, a).choi)) < 1e-12


def test_unequal_ancillas():
    # a has an ancilla output Y, b an ancilla input X; the result is (P, X) -> (Y, F)
    rng = np.random.default_rng(67)
    w = HO.realize_process_matrix(
        HO.ordered_process_channel(Q(2), Q(2), Q(2)), ROLES_IN, ROLES_OUT
    )
    s, x, y = Q(2), Q(2), Q(3)
    a = P.random_cptp(rng, s, s * y)
    b = P.random_cptp(rng, s * x, s)
    got = HO.apply_process_matrix(w, a, b)
    assert got.input == s * x and got.output == y * s
    oracle = compose_seq(
        compose_par(identity(y), b),
        compose_seq(compose_par(swap(s, y), identity(x)), compose_par(a, identity(x))),
    )
    assert np.max(np.abs(got.choi - oracle.choi)) < 1e-12


def test_bilinearity():
    rng = np.random.default_rng(64)
    w = HO.realize_process_matrix(
        HO.ordered_process_channel(Q(2), Q(2), Q(2)), ROLES_IN, ROLES_OUT
    )
    a1 = P.random_cptp(rng, Q(2), Q(2))
    a2 = P.random_cptp(rng, Q(2), Q(2))
    b = P.random_cptp(rng, Q(2), Q(2))
    mix = P.ProcessTensor(a1.input, a1.output, 0.25 * a1.choi + 0.75 * a2.choi)
    lhs = HO.apply_process_matrix(w, mix, b).choi
    rhs = 0.25 * HO.apply_process_matrix(w, a1, b).choi + 0.75 * HO.apply_process_matrix(w, a2, b).choi
    assert np.allclose(lhs, rhs)


def test_realize_rejects_non_cptp():
    with pytest.raises(ValueError, match="trace-preserving"):
        HO.realize_process_matrix(P.noise_state(Q(2) * Q(2) * Q(2)), (), ROLES_OUT)


def test_slot_mismatch_rejected():
    w = HO.realize_process_matrix(
        HO.ordered_process_channel(Q(2), Q(2), Q(2)), ROLES_IN, ROLES_OUT
    )
    with pytest.raises(ValueError, match="slot a"):
        HO.apply_process_matrix(w, P.random_cptp(np.random.default_rng(0), Q(3), Q(3)),
                                identity(Q(2)))

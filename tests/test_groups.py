import numpy as np
import pytest

from proctheory import groups as G
from proctheory import processes as P
from proctheory import suite
from proctheory.numerics import Tolerances
from proctheory.processes import (
    cap,
    channel_from_kraus,
    channel_from_unitary,
    classical_channel,
    compose_par,
    compose_seq,
    cup,
    dagger_h,
    discard,
    effect,
    state,
)
from proctheory.systems import C, DOWN, Q, SystemType
from proctheory.theories import QPART, membership

Z = np.diag([1.0, -1.0])


def z2_sign_rep():
    return G.Representation(G.cyclic_group(2), Q(2), (np.eye(2), Z))


class TestGroups:
    def test_z2_valid(self):
        assert G.validate_group(G.cyclic_group(2)) == []

    def test_s3_from_permutation_composition(self):
        s3 = G.symmetric_group_s3()
        assert s3.order == 6
        assert G.validate_group(s3) == []
        # spot-check against direct permutation composition
        perms = G.S3_PERMS
        for a in range(6):
            for b in range(6):
                comp = tuple(perms[a][perms[b][i]] for i in range(3))
                assert perms[s3.mul(a, b)] == comp

    def test_corrupted_table_reports_associativity(self):
        table = G.cyclic_group(2).table.copy()
        table = np.array([[0, 1], [1, 1]])  # 1*1 = 1 breaks inverses/associativity
        bad = G.FiniteGroup(2, table, 0)
        problems = G.validate_group(bad)
        assert any("associativity" in p for p in problems) or any("inverse" in p for p in problems)

    def test_identity_law_is_two_sided(self):
        # x * y = y: the identity row is right, the identity column is not; associative, with inverses
        right = G.FiniteGroup(2, np.array([[0, 1], [0, 1]]), 0)
        assert G.validate_group(right) == ["identity law fails at element 1"]
        assert G.validate_group(G.FiniteGroup(2, right.table.T, 0)) == ["identity law fails at element 1",
                                                                          "element 1 has no inverse"]

    @pytest.mark.parametrize("identity", [2, 7, -1])
    def test_out_of_range_identity_is_a_violation(self, identity):
        g = G.FiniteGroup(2, G.cyclic_group(2).table, identity)
        assert G.validate_group(g) == [f"identity element {identity} out of range"]

    def test_inverses(self):
        s3 = G.symmetric_group_s3()
        for a in s3.elements():
            assert s3.mul(a, s3.inverse(a)) == s3.identity


class TestRepresentations:
    def test_z2_sign_rep_valid(self):
        assert G.validate_representation(z2_sign_rep()) == []

    def test_scaled_rep_fails_unitarity(self):
        bad = G.Representation(G.cyclic_group(2), Q(2), (np.eye(2), 0.5 * Z))
        assert any("unitarily" in p for p in G.validate_representation(bad))

    def test_s3_standard_rep_valid(self):
        assert G.validate_representation(G.s3_standard_representation()) == []

    def test_tensor_at_nonidentity(self):
        r = z2_sign_rep()
        rr = G.tensor_rep(r, r)
        assert np.allclose(rr.action[1], np.kron(Z, Z))

    def test_tensor_of_different_groups_rejected(self):
        """Z3 against Z2, and Z4 against the Klein group of the same order; equal tables in two
        group objects are one group."""
        klein = G.FiniteGroup(4, np.bitwise_xor.outer(np.arange(4), np.arange(4)), 0)
        z3, z2, z4, v4 = (G.trivial_rep(g, Q(2)) for g in (G.cyclic_group(3), G.cyclic_group(2),
                                                         G.cyclic_group(4), klein))
        for a, b in ((z3, z2), (z2, z3), (z4, v4), (v4, z4)):
            with pytest.raises(ValueError, match="^cannot tensor representations of different groups$"):
                G.tensor_rep(a, b)
        twin = G.Representation(G.cyclic_group(2), Q(2), (np.eye(2), Z))
        assert np.array_equal(G.tensor_rep(z2_sign_rep(), twin).action[1], np.kron(Z, Z))

    def test_conjugate_rep(self):
        r = z2_sign_rep()
        assert np.allclose(G.conjugate_rep(r).action[1], Z)  # real rep is self-conjugate
        phase = G.Representation(G.cyclic_group(4), Q(2), tuple(
            np.diag([1.0, 1j ** k]) for k in range(4)
        ))
        conj = G.conjugate_rep(phase)
        assert np.allclose(conj.action[1], np.diag([1.0, -1j]))
        assert conj.system.factors[0].orientation == DOWN

    def test_caller_arrays_stay_writeable(self):
        # the representation freezes its own copies, never the caller's complex arrays
        mats = (np.eye(2, dtype=complex), np.diag([1, -1]).astype(complex))
        rep = G.Representation(G.cyclic_group(2), Q(2), mats)
        assert all(m.flags.writeable for m in mats)
        assert not any(u.flags.writeable for u in rep.action)
        mats[1][1, 1] = 5
        assert np.array_equal(rep.action[1], Z)

    def test_classical_factors_act_trivially(self):
        r = G.Representation(G.cyclic_group(2), Q(2) * C(3), (np.eye(2), Z))
        u = r.unitary(1)
        assert u.shape == (6, 6)
        assert np.allclose(u, np.kron(Z, np.eye(3)))

    def test_rep_file_roundtrip(self, tmp_path):
        text = """
# order and identity, table, side, then per-element matrices
2 0
0 1
1 0
2
1 0 0 1
1 0 0 -1
"""
        path = tmp_path / "z2.grp"
        path.write_text(text)
        rep = G.load_representation(path)
        assert G.validate_group(rep.group) == []
        assert np.allclose(rep.action[1], Z)
        group, mats = G.parse_representation("2 0 0 1 1 0 1 1 -1")
        assert mats[1][0, 0] == -1

    def test_rep_file_complex_entries(self):
        group, mats = G.parse_representation("2 0 0 1 1 0 1 1 0.5+0.5i")
        assert mats[1][0, 0] == 0.5 + 0.5j


class TestIntertwiners:
    def test_depolarizing_always_intertwines(self):
        depol = P.ProcessTensor(Q(2), Q(2), np.eye(4) / 2)
        for rep in (z2_sign_rep(), G.s3_standard_representation()):
            assert G.is_intertwiner(depol, rep, rep)

    def test_dephasing_vs_z2(self):
        deph = channel_from_kraus([np.eye(2) / np.sqrt(2), Z / np.sqrt(2)], Q(2), Q(2))
        assert G.is_intertwiner(deph, z2_sign_rep(), z2_sign_rep())

    def test_hadamard_rejected(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        had = channel_from_unitary(h, Q(2))
        assert not G.is_intertwiner(had, z2_sign_rep(), z2_sign_rep())

    def test_cap_intertwiner_law(self):
        for rep in (z2_sign_rep(), G.s3_standard_representation()):
            paired = G.tensor_rep(rep, G.conjugate_rep(rep))
            trivial_out = G.trivial_rep(rep.group, SystemType())
            c = cap(rep.system)
            assert G.is_intertwiner(c, paired, trivial_out)
            # residual over every element, directly
            for g in rep.group.elements():
                u = paired.unitary(g).conj()
                assert np.max(np.abs(u @ c.choi @ u.conj().T - c.choi)) <= 1e-10

    def test_conjugate_rep_matches_bent_wire_construction(self):
        # the dual action preserves the cup state: (U (x) conj(U)) eta = eta
        for rep in (z2_sign_rep(), G.s3_standard_representation()):
            d = rep.quantum_dim
            eta = np.zeros(d * d, dtype=complex)
            for i in range(d):
                eta[i * d + i] = 1.0
            for g in rep.group.elements():
                u = np.kron(rep.action[g], G.conjugate_rep(rep).action[g])
                assert np.allclose(u @ eta, eta)

    def test_composition_of_intertwiners(self):
        deph = channel_from_kraus([np.eye(2) / np.sqrt(2), Z / np.sqrt(2)], Q(2), Q(2))
        comp = compose_seq(deph, deph)
        assert G.is_intertwiner(comp, z2_sign_rep(), z2_sign_rep())

    def test_representations_of_different_groups_rejected(self):
        """Both representations must share one Cayley table: Z3 against Z2 in either order, and
        Z4 against the Klein group, both of order 4, are refused before any element is tried."""
        ident = P.identity(Q(2))
        klein = G.FiniteGroup(4, np.bitwise_xor.outer(np.arange(4), np.arange(4)), 0)
        assert G.validate_group(klein) == []
        z3, z2, z4, v4 = (G.trivial_rep(g, Q(2)) for g in (G.cyclic_group(3), G.cyclic_group(2),
                                                         G.cyclic_group(4), klein))
        for rep_in, rep_out in ((z3, z2), (z2, z3), (z4, v4), (v4, z4)):
            with pytest.raises(ValueError, match="^rep_in and rep_out represent different groups$"):
                G.is_intertwiner(ident, rep_in, rep_out)
            with pytest.raises(ValueError, match="^rep_in and rep_out represent different groups$"):
                membership(QPART, ident, rep_in=rep_in, rep_out=rep_out)
        # equal tables in two group objects are one group
        assert G.is_intertwiner(ident, z2, G.trivial_rep(G.cyclic_group(2), Q(2)))


def pr_box():
    """Party A on causal wires (x in, a out), party B on retro wires (b in, y out)."""
    kern = np.zeros((4, 4))
    for x in range(2):
        for b in range(2):
            for a in range(2):
                for y in range(2):
                    if a ^ b == x & y:
                        kern[a * 2 + y, x * 2 + b] = 0.5
    return classical_channel(kern, C(2) * C(2, DOWN), C(2) * C(2, DOWN))


class TestNoSignalling:
    def test_product_recovers_factors(self):
        rng = np.random.default_rng(50)
        f_c = P.random_cptp(rng, Q(2), Q(3))
        f_r = dagger_h(P.random_cptp(rng, Q(2, DOWN), Q(2, DOWN)))
        v = G.no_signalling(compose_par(f_c, f_r))
        assert v.ok
        assert np.max(np.abs(v.f_c.choi - f_c.choi)) < 1e-9
        assert np.max(np.abs(v.f_r.choi - f_r.choi)) < 1e-9

    def test_classical_cap_signals_causal_to_retro(self):
        v = G.no_signalling(cap(C(2)))
        assert not v.ok
        assert v.failed_directions() == ["causal->retro"]

    def test_classical_cup_signals_retro_to_causal(self):
        v = G.no_signalling(cup(C(2)))
        assert not v.ok
        assert v.failed_directions() == ["retro->causal"]

    def test_pr_box_passes_both(self):
        v = G.no_signalling(pr_box())
        assert v.ok
        assert v.residual_causal_to_retro < 1e-12 and v.residual_retro_to_causal < 1e-12

    def test_verdicts_and_notes_per_direction(self):
        q, qd = Q(2), Q(2, DOWN)
        lean = compose_par(discard(q), state(np.diag([1.0, 0.0]), qd))  # retro state is not noise
        bent_id = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex)
        retro, causal = ("extracted retro part does not preserve the noise state",
                         "extracted causal part is not trace preserving")
        cases = [
            (compose_par(discard(q), P.noise_state(qd)), (True, True, 0.0, 0.0), []),
            (lean, (False, False, 0.0, 0.5), [retro, causal]),
            (P.ProcessTensor(q, qd, 2 * lean.choi), (False, False, 0.0, 0.5), [retro]),
            (P.ProcessTensor(q, qd, bent_id), (False, False, 1.0, 1.0), [retro, causal]),
        ]
        for f, verdict, notes in cases:
            v = G.no_signalling(f)
            assert (v.causal_to_retro, v.retro_to_causal) == verdict[:2]
            assert (v.residual_causal_to_retro, v.residual_retro_to_causal) == pytest.approx(verdict[2:], abs=1e-12)
            assert v.notes == notes
            assert (v.f_c is None, v.f_r is None) == (not verdict[1], not verdict[0])

    def test_member_pairs_split_under_a_strict_tolerance(self):
        rng, strict = np.random.default_rng(57), Tolerances(psd_rel=0)
        for _ in range(100):
            f, f_c, f_r = suite._random_member_pair(rng, (2, 3))
            v = G.no_signalling(f, tol=strict)
            assert v.ok, v.notes
            assert np.max(np.abs(v.f_c.choi - f_c.choi)) < 1e-12
            assert np.max(np.abs(v.f_r.choi - f_r.choi)) < 1e-12


class TestQPartMembership:
    def test_unitary_channel_on_causal_wires(self):
        u = channel_from_unitary(P.random_unitary(np.random.default_rng(4), 2), Q(2))
        verdict = membership(QPART, u, rep_in=z2_sign_rep(), rep_out=z2_sign_rep())
        # the unitary must also intertwine; use the depolarizing channel instead
        depol = P.ProcessTensor(Q(2), Q(2), np.eye(4) / 2)
        verdict2 = membership(QPART, depol, rep_in=z2_sign_rep(), rep_out=z2_sign_rep())
        assert verdict2.ok
        assert membership(QPART, u).ok  # no symmetry demanded

    def test_cup_counterexample(self):
        v, ns = membership(QPART, cup(Q(2))), G.no_signalling(cup(Q(2)))
        assert not v.ok
        assert ns.causal_to_retro and not ns.retro_to_causal
        # closing it with the cap gives a scalar other than the empty diagram
        loop = P.as_scalar(compose_seq(cap(Q(2)), cup(Q(2))))
        assert loop.value != pytest.approx(1.0)

    def test_sequential_composite_of_members(self):
        rng = np.random.default_rng(51)
        f = compose_par(P.random_cptp(rng, Q(2), Q(2)),
                        dagger_h(P.random_cptp(rng, Q(3, DOWN), Q(2, DOWN))))
        g = compose_par(P.random_cptp(rng, Q(2), Q(4)),
                        dagger_h(P.random_cptp(rng, Q(2, DOWN), Q(3, DOWN))))
        assert membership(QPART, f).ok and membership(QPART, g).ok
        assert membership(QPART, compose_seq(g, f)).ok

    def test_parallel_composite_of_members(self):
        rng = np.random.default_rng(52)
        pairs = [compose_par(P.random_cptp(rng, Q(2), Q(2)),
                             dagger_h(P.random_cptp(rng, Q(2, DOWN), Q(2, DOWN))))
                 for _ in range(2)]
        assert membership(QPART, compose_par(*pairs)).ok

    def test_pr_box_is_member(self):
        assert membership(QPART, pr_box()).ok

    def test_closed_member_diagrams_give_one(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            f_c = P.random_cptp(rng, Q(2), Q(2))
            f_r = dagger_h(P.random_cptp(rng, Q(2, DOWN), Q(2, DOWN)))
            member = compose_par(f_c, f_r)
            rho = compose_par(state(P.random_density(rng, 2), Q(2)),
                              state(np.eye(2), Q(2, DOWN)))
            eff = compose_par(discard(Q(2)), effect(P.random_density(rng, 2), Q(2, DOWN)))
            val = P.as_scalar(compose_seq(eff, compose_seq(member, rho)))
            assert val.value == pytest.approx(1.0, abs=1e-9)

    NO_SIGNALLING_CHECKS = ["cp", "no-signalling-causal-retro", "no-signalling-retro-causal"]

    def test_purely_causal_member_is_causal(self):
        rng = np.random.default_rng(54)
        e = P.random_cptp(rng, Q(2), Q(3))
        v = membership(QPART, e)
        assert v.ok and P.is_causal(e)
        assert list(v.checks) == self.NO_SIGNALLING_CHECKS

    def test_purely_retro_member_preserves_noise(self):
        rng = np.random.default_rng(55)
        r = dagger_h(P.random_cptp(rng, Q(2, DOWN), Q(3, DOWN)))
        v = membership(QPART, r)
        assert v.ok and P.preserves_identity(r)
        assert list(v.checks) == self.NO_SIGNALLING_CHECKS

    @pytest.mark.parametrize("d", [2, 3])
    def test_channels_are_members_under_a_strict_tolerance(self, d):
        # psd_rel=0 admits no rounding; the extracted parts are partial traces and are not re-judged
        rng, strict = np.random.default_rng(56 + d), Tolerances(psd_rel=0)
        for _ in range(100):
            v = membership(QPART, P.random_cptp(rng, Q(d), Q(d)), tol=strict)
            assert v.ok, v.reasons


# Input checks: each row calls a public function with an input it rejects, and names
# the exception and its message.
REJECTED = [
    (lambda: G.FiniteGroup(2, np.zeros((3, 3))), ValueError, "Cayley table must be 2x2, got (3, 3)"),
    (lambda: G.FiniteGroup(2, [[0, 1], [1, 1]]).inverse(1), ValueError, "element 1 has no inverse"),
    (lambda: G.permutation_group([(0, 1, 2), (1, 2, 0)]), ValueError,
     "permutation list not closed: (1, 2, 0) after (1, 2, 0) = (2, 0, 1)"),
    (lambda: G.Representation(G.cyclic_group(2), Q(2), (np.eye(2),)), ValueError, "need 2 unitaries, got 1"),
    (lambda: G.is_intertwiner(P.identity(Q(2)), G.trivial_rep(G.cyclic_group(2), Q(3)),
                              G.trivial_rep(G.cyclic_group(2), Q(2))),
     ValueError, "input representation lives on Q(3), process input is Q(2)"),
    (lambda: G.is_intertwiner(P.identity(Q(2)), G.trivial_rep(G.cyclic_group(2), Q(2)),
                              G.trivial_rep(G.cyclic_group(2), Q(3))),
     ValueError, "output representation lives on Q(3), process output is Q(2)"),
]

@pytest.mark.parametrize("call, exc, message", REJECTED)
def test_rejected_input_raises_its_message(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message

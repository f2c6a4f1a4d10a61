import numpy as np
import pytest

from proctheory import groups as G
from proctheory import processes as P
from proctheory import theories as T
from proctheory.processes import (
    ProcessTensor,
    as_scalar,
    cap,
    channel_from_kraus,
    channel_from_unitary,
    compose_par,
    compose_seq,
    cup,
    dagger_h,
    discard,
    effect,
    identity,
    max_mixed,
    measurement_channel,
    noise_state,
    state,
)
from proctheory.systems import C, DOWN, Q, TRIVIAL


def amplitude_damping(gamma):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return channel_from_kraus([k0, k1], Q(2), Q(2))


def bend_identity():
    """The identity with its output bent backwards: a signalling map Q(2) -> Q(2, DOWN)."""
    return ProcessTensor(Q(2), Q(2, DOWN), np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]))


def halved_basis_measurement():
    return measurement_channel([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])], Q(2), C(2))


class TestMembership:
    def test_unitary_in_everything(self):
        u = channel_from_unitary(P.random_unitary(np.random.default_rng(0), 2), Q(2))
        for name in ("qphys", "qphys-unital", "qcalc", "qcalc-bullet", "qcalc-quotient"):
            assert T.membership(T.theory_by_name(name), u).ok, name

    def test_amplitude_damping_not_unital(self):
        ch = amplitude_damping(0.5)
        assert T.membership(T.QPHYS, ch).ok
        verdict = T.membership(T.QPHYS_UNITAL, ch)
        assert not verdict.ok and "unital" in verdict.reasons

    def test_noise_state_not_causal(self):
        nu = noise_state(Q(2))
        v = T.membership(T.QPHYS, nu)
        assert not v.ok and "causal" in v.reasons
        assert T.membership(T.QCALC, nu).ok
        assert not T.membership(T.QCALC_BULLET, nu).ok  # N = 2

    # each theory's laws beyond complete positivity, in the order membership reports them
    LAWS = {
        "qphys": ["causal"],
        "qphys-unital": ["causal", "unital"],
        "qcalc": [],
        "qcalc-bullet": ["representative"],
        "qcalc-quotient": [],
        "qneut": ["strictly-positive"],
        "qpart": ["no-signalling-causal-retro", "no-signalling-retro-causal"],
    }

    def test_laws_table_covers_every_theory(self):
        assert sorted(T.THEORIES) == sorted(self.LAWS)

    @pytest.mark.parametrize("name, laws", LAWS.items())
    def test_checks_are_cp_then_the_laws_in_order(self, name, laws):
        for f in (noise_state(Q(2)), max_mixed(Q(2)), amplitude_damping(0.5)):
            verdict = T.membership(T.theory_by_name(name), f)
            assert list(verdict.checks) == ["cp", *laws]
            assert verdict.reasons == [k for k, ok in verdict.checks.items() if not ok]
            n = T.normalization_scalar(f).value
            assert verdict.n_value == (pytest.approx(n) if name != "qpart" else None)  # qpart reports no N

    def test_qpart_membership_is_a_membership_verdict(self):
        member = compose_par(discard(Q(2)), noise_state(Q(2, DOWN)))
        verdict = T.membership(T.QPART, member)
        assert isinstance(verdict, T.MembershipVerdict)
        assert isinstance(G.no_signalling(member), G.NoSignallingVerdict) and G.no_signalling(member).ok
        assert (verdict.ok, verdict.theory, verdict.n_value) == (True, "qpart", None)
        assert str(verdict) == "member of qpart"
        signalling = T.membership(T.QPART, bend_identity())
        assert not G.no_signalling(bend_identity()).ok and str(signalling).startswith("not a member of qpart: failed ")

    def test_qpart_wants_both_representations_or_neither(self):
        rep, f = G.trivial_rep(G.cyclic_group(2), Q(2)), identity(Q(2))
        for one in ({"rep_in": rep}, {"rep_out": rep}):
            with pytest.raises(ValueError, match="^supply both rep_in and rep_out, or neither$"):
                T.membership(T.QPART, f, **one)
            assert list(T.membership(T.QPHYS, f, **one).checks) == ["cp", "causal"]
        # both: the intertwiner is checked first, and only by the covariant row
        both = {"rep_in": rep, "rep_out": rep}
        assert list(T.membership(T.QPART, f, **both).checks) == ["cp", "intertwiner", *self.LAWS["qpart"]]
        assert list(T.membership(T.QPHYS, f, **both).checks) == ["cp", "causal"]

    def test_qneut_wants_full_support(self):
        assert not T.membership(T.QNEUT, state(np.diag([1.0, 0.0]), Q(2))).ok
        noisy_state = T.noisy(state(np.diag([1.0, 0.0]), Q(2)), 0.1)
        assert T.membership(T.QNEUT, noisy_state).ok


class TestNormalization:
    def test_halved_measurement(self):
        n = T.normalization_scalar(compose_seq(halved_basis_measurement(), state(np.diag([0.75, 0.25]), Q(2))))
        assert n.value == pytest.approx(0.5)

    def test_identity_normalized(self):
        assert T.normalization_scalar(identity(Q(5))).value == pytest.approx(1.0)

    def test_cup(self):
        assert T.normalization_scalar(cup(Q(3))).value == pytest.approx(3.0)

    def test_multiplicative_and_zero(self):
        rng = np.random.default_rng(33)
        f = P.random_cptp(rng, Q(2), Q(3))
        g = state(P.random_density(rng, 2) * 0.7, Q(2))
        lhs = T.normalization_scalar(compose_par(f, g)).value
        assert lhs == pytest.approx(T.normalization_scalar(f).value * T.normalization_scalar(g).value)
        z = ProcessTensor(Q(2), Q(2), np.zeros((4, 4)))
        assert T.normalization_scalar(z).value == 0.0


    def test_a_nan_value_has_no_weight_and_no_class(self):
        # the value of a closed wiring that overflowed: NaN, never the zero class
        nan = ProcessTensor._trusted(TRIVIAL, TRIVIAL, np.array([[np.nan]]))
        for fn in (T.normalization_scalar, T.canonical_rep):
            with pytest.raises(ValueError, match="^scalar must be finite and nonnegative, got nan$"):
                fn(nan)

class TestBullet:
    def test_renormalizes_distribution(self):
        rho = state(np.diag([0.75, 0.25]), Q(2))
        got = T.bullet_compose(halved_basis_measurement(), rho)
        assert np.allclose(np.diag(got.choi).real, [0.75, 0.25])
        assert T.membership(T.QCALC_BULLET, got).ok

    def test_zero_branch(self):
        zero_meas = measurement_channel([np.zeros((2, 2)), np.zeros((2, 2))], Q(2), C(2))
        rho = state(P.random_density(np.random.default_rng(1), 2), Q(2))
        assert P.is_zero(T.bullet_compose(zero_meas, rho))

    def test_identity_is_unit_on_members(self):
        rng = np.random.default_rng(34)
        f = T.canonical_rep(P.random_cptp(rng, Q(2), Q(3))).canonical
        assert np.allclose(T.bullet_compose(identity(Q(3)), f).choi, f.choi)
        assert np.allclose(T.bullet_compose(f, identity(Q(2))).choi, f.choi)

    def test_associative_including_zero_branches(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            f = P.random_cptp(rng, Q(2), Q(2))
            g = P.random_cptp(rng, Q(2), Q(2))
            h = P.random_cptp(rng, Q(2), Q(2))
            lhs = T.bullet_compose(h, T.bullet_compose(g, f))
            rhs = T.bullet_compose(T.bullet_compose(h, g), f)
            assert np.max(np.abs(lhs.choi - rhs.choi)) < 1e-9
        e = effect(np.diag([0.0, 1.0]), Q(2))
        rho = state(np.diag([1.0, 0.0]), Q(2))
        lhs = T.bullet_compose(e, T.bullet_compose(identity(Q(2)), rho))
        rhs = T.bullet_compose(T.bullet_compose(e, identity(Q(2))), rho)
        assert P.is_zero(lhs) and P.is_zero(rhs)


class TestQuotient:
    def test_scale_invariance(self):
        c = cup(Q(2))
        scaled = ProcessTensor(c.input, c.output, 7 * c.choi)
        assert T.class_equal(T.canonical_rep(scaled), T.canonical_rep(c))

    def test_state_vs_double(self):
        rho = state(np.diag([0.75, 0.25]), Q(2))
        two_rho = ProcessTensor(rho.input, rho.output, 2 * rho.choi)
        assert T.class_equal(T.canonical_rep(rho), T.canonical_rep(two_rho))

    def test_distinct_pure_states(self):
        a = T.canonical_rep(state(np.diag([1.0, 0.0]), Q(2)))
        b = T.canonical_rep(state(np.diag([0.0, 1.0]), Q(2)))
        assert not T.class_equal(a, b)

    def test_equal_matrices_on_different_carriers_are_different_classes(self):
        rho = np.diag([0.75, 0.25])
        for make in (state, effect):  # the carriers differ on the output, then on the input
            a, b = T.canonical_rep(make(rho, Q(2))), T.canonical_rep(make(rho, C(2)))
            assert np.array_equal(a.canonical.choi, b.canonical.choi)
            assert not T.class_equal(a, b) and not T.class_equal(b, a)
            assert T.class_equal(a, T.canonical_rep(make(rho, Q(2))))

    def test_quotient_compose_well_defined(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            f = P.random_cptp(rng, Q(2), Q(3))
            g = P.random_cptp(rng, Q(3), Q(2))
            r, s = rng.uniform(0.01, 10), rng.uniform(0.01, 10)
            rf = ProcessTensor(f.input, f.output, r * f.choi)
            sg = ProcessTensor(g.input, g.output, s * g.choi)
            got = T.quotient_compose(T.canonical_rep(sg), T.canonical_rep(rf))
            want = T.canonical_rep(compose_seq(g, f))
            assert T.class_equal(got, want)

    def test_cap_cup_closed_class_is_one(self):
        closed = compose_seq(cap(Q(2)), cup(Q(2)))
        cls = T.quotient_compose(T.canonical_rep(cap(Q(2))), T.canonical_rep(cup(Q(2))))
        assert np.allclose(cls.canonical.choi, [[1.0]])
        assert T.class_equal(cls, T.canonical_rep(closed))

    def test_zero_class_absorbs(self):
        z = T.canonical_rep(ProcessTensor(Q(2), Q(2), np.zeros((4, 4))))
        f = T.canonical_rep(P.random_cptp(np.random.default_rng(2), Q(2), Q(2)))
        assert T.quotient_compose(f, z).is_zero_class()

    def test_dagger_descends(self):
        rng = np.random.default_rng(37)
        f = P.random_cptp(rng, Q(2), Q(3))
        rf = ProcessTensor(f.input, f.output, 3.7 * f.choi)
        assert T.class_equal(T.canonical_rep(dagger_h(rf)), T.class_dagger(T.canonical_rep(rf)))


class TestNoisy:
    def test_pure_state_mixes(self):
        got = T.noisy(state(np.diag([1.0, 0.0]), Q(2)), 0.1)
        assert np.allclose(got.choi, np.diag([0.95, 0.05]))

    def test_never_zero_and_strictly_positive(self):
        rng = np.random.default_rng(38)
        f = P.random_cptp(rng, Q(2), Q(2))
        nf = T.noisy(f, 0.05)
        from proctheory.numerics import min_eigenvalue_hermitian

        assert min_eigenvalue_hermitian(nf.choi) > 0
        assert not P.is_zero(nf)
        with pytest.raises(ValueError):
            T.NoiseParameter(0.0)

    def test_wirings_absorbed(self):
        # bending a noisy process yields another noisy-generated process:
        # the flat term re-normalises against the new output dimension
        from proctheory.higher_order import bend
        from proctheory.numerics import min_eigenvalue_hermitian

        rng = np.random.default_rng(39)
        f = P.random_cptp(rng, Q(2), Q(2))
        eps = 0.2
        noisy_f = T.noisy(f, eps)
        bent = bend(noisy_f, "in", 0)
        assert min_eigenvalue_hermitian(bent.choi) > 0
        eps_new = eps * bent.dout / f.dout  # 0.4: same flat weight, new normalisation
        g = bend(f, "in", 0)
        recon = (1 - eps) * g.choi + eps_new * np.eye(bent.din * bent.dout) / bent.dout
        assert np.allclose(bent.choi, recon)
        assert (1 - eps) / (1 - eps_new) > 0  # the residual part is again CP

    def test_closed_noisy_diagram_positive(self):
        rng = np.random.default_rng(40)
        rho = T.noisy(state(P.random_density(rng, 2), Q(2)), 0.05)
        eff = T.noisy(effect(P.random_density(rng, 2), Q(2)), 0.05)
        val = as_scalar(compose_seq(eff, rho)).value
        assert val > 0


class TestDaggerUnital:
    def test_discard_to_max_mixed(self):
        assert np.allclose(T.dagger_unital(discard(Q(2))).choi, max_mixed(Q(2)).choi)

    def test_unitary_inverts(self):
        u = P.random_unitary(np.random.default_rng(3), 3)
        got = T.dagger_unital(channel_from_unitary(u, Q(3)))
        assert np.allclose(got.choi, channel_from_unitary(u.conj().T, Q(3)).choi)

    def test_involutive_on_random_unital(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            f = P.random_mixture_of_unitaries(rng, Q(3))
            assert np.max(np.abs(T.dagger_unital(T.dagger_unital(f)).choi - f.choi)) < 1e-9

    def test_image_stays_unital_nonsquare(self):
        # discard is unital in the dimension-aware sense; its dagger is too
        d = T.dagger_unital(discard(Q(3)))
        assert T.membership(T.QPHYS_UNITAL, d).ok

    def test_precondition_reported(self):
        with pytest.raises(ValueError, match="unital"):
            T.dagger_unital(amplitude_damping(0.5))

    def test_bistochastic_classical(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = P.random_bistochastic(rng, 3)
            assert np.allclose(k.sum(axis=0), 1.0) and np.allclose(k.sum(axis=1), 1.0)
            ch = P.classical_channel(k, C(3), C(3))
            assert T.membership(T.QPHYS_UNITAL, ch).ok


def test_zero_lemma():
    rng = np.random.default_rng(43)
    for _ in range(50):
        f = P.random_cptp(rng, Q(2), Q(3))
        assert T.normalization_scalar(f).value > 1e-12
        assert np.max(np.abs(f.choi)) > 1e-12
    rank_def = state(np.diag([0.4, 0.0, 0.0]), Q(3))
    assert T.normalization_scalar(rank_def).value > 1e-12
    z = ProcessTensor(Q(3), TRIVIAL, np.zeros((3, 3)))
    assert T.normalization_scalar(z).value == 0.0
    assert np.max(np.abs(z.choi)) <= 1e-12


def test_unital_closure_under_composition():
    rng = np.random.default_rng(44)
    for _ in range(20):
        f = P.random_mixture_of_unitaries(rng, Q(2))
        g = P.random_mixture_of_unitaries(rng, Q(2))
        assert T.membership(T.QPHYS_UNITAL, compose_seq(g, f)).ok

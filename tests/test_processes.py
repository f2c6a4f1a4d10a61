import dataclasses
import itertools

import numpy as np
import pytest

from proctheory import processes as P
from proctheory.higher_order import ordered_process_channel
from proctheory.numerics import Tolerances
from proctheory.processes import (
    ProcessTensor,
    ProcessTypeError,
    apply,
    as_scalar,
    cap,
    channel_from_kraus,
    channel_from_unitary,
    classical_channel,
    compose_par,
    compose_seq,
    cup,
    dagger_h,
    discard,
    identity,
    is_causal,
    is_zero,
    max_mixed,
    measurement_channel,
    noise_state,
    preserves_identity,
    preserves_max_mixed,
    state,
    swap,
)
from proctheory.systems import C, CLASSICAL, DOWN, Q, QUANTUM, SystemType, TRIVIAL, WireFactor
from proctheory.theories import noisy


def born_oracle(povm, rho):
    return np.array([np.trace(m @ rho).real for m in povm])


def basis_povm(d):
    return [np.diag([1.0 if i == a else 0.0 for i in range(d)]) for a in range(d)]


def amplitude_damping(gamma):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return channel_from_kraus([k0, k1], Q(2), Q(2))


class TestComposeSeq:
    def test_born_rule(self):
        rho = state(np.diag([0.75, 0.25]), Q(2))
        m = measurement_channel(basis_povm(2), Q(2), C(2))
        dist = compose_seq(m, rho)
        assert np.allclose(np.diag(dist.choi).real, born_oracle(basis_povm(2), np.diag([0.75, 0.25])))

    def test_born_rule_random(self):
        rng = np.random.default_rng(21)
        for d in (2, 3, 4):
            rho_m = P.random_density(rng, d)
            povm = P.random_povm(rng, d, d)
            got = np.diag(compose_seq(measurement_channel(povm, Q(d), C(d)), state(rho_m, Q(d))).choi).real
            assert np.max(np.abs(got - born_oracle(povm, rho_m))) < 1e-10

    def test_identity_is_unit(self):
        rng = np.random.default_rng(22)
        f = P.random_cptp(rng, Q(2), Q(3))
        assert np.allclose(compose_seq(identity(Q(3)), f).choi, f.choi)
        assert np.allclose(compose_seq(f, identity(Q(2))).choi, f.choi)

    def test_loop_values(self):
        # classical loops close to the set size; quantum wires are doubled,
        # so their loops close to the squared dimension (see 'Loop values' in README.md)
        for n in (2, 3, 4):
            assert as_scalar(compose_seq(cap(C(n)), cup(C(n)))).value == pytest.approx(n, abs=1e-12)
            assert as_scalar(compose_seq(cap(Q(n)), cup(Q(n)))).value == pytest.approx(n * n, abs=1e-12)

    def test_type_mismatch_names_factor(self):
        f = P.random_cptp(np.random.default_rng(0), Q(2), Q(2) * C(2))
        g = P.random_cptp(np.random.default_rng(1), Q(2) * C(3), Q(2))
        with pytest.raises(ProcessTypeError, match="factor 1"):
            compose_seq(g, f)


class TestComposePar:
    def test_monoidal_unit(self):
        f = P.random_cptp(np.random.default_rng(2), Q(2), Q(2))
        unit = ProcessTensor(TRIVIAL, TRIVIAL, np.eye(1))
        assert np.allclose(compose_par(f, unit).choi, f.choi)
        assert np.allclose(compose_par(unit, f).choi, f.choi)

    def test_discard_of_composite(self):
        lhs = compose_par(discard(Q(2)), discard(C(3)))
        rhs = discard(Q(2) * C(3))
        assert np.allclose(lhs.choi, rhs.choi)

    def test_factorizes_on_products(self):
        rng = np.random.default_rng(23)
        f = P.random_cptp(rng, Q(2), Q(2))
        g = P.random_cptp(rng, Q(2), Q(2))
        x, y = P.random_density(rng, 2), P.random_density(rng, 2)
        lhs = apply(compose_par(f, g), np.kron(x, y))
        rhs = np.kron(apply(f, x), apply(g, y))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestGenerators:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_in, n_out", [(1, 1), (2, 3), (4, 2)])
    def test_random_stochastic_is_stochastic(self, seed, n_in, n_out):
        k = P.random_stochastic(np.random.default_rng(seed), n_in, n_out)
        assert k.shape == (n_out, n_in) and (k >= 0).all()
        assert np.allclose(k.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d, n", [(1, 1), (2, 3), (3, 2), (4, 4)])
    def test_random_povm_is_a_povm(self, seed, d, n):
        povm = P.random_povm(np.random.default_rng(seed), d, n)
        assert len(povm) == n
        for e in povm:
            assert np.allclose(e, e.conj().T, rtol=0, atol=1e-12)
            assert np.linalg.eigvalsh(e).min() >= -1e-12
        assert np.allclose(sum(povm), np.eye(d), rtol=0, atol=1e-10)

    def test_discard_is_trace(self):
        assert as_scalar(compose_seq(discard(Q(2)), state(np.diag([0.3, 0.7]), Q(2)))).value == pytest.approx(1.0)
        assert as_scalar(discard(TRIVIAL)).value == pytest.approx(1.0)
        dist = state(np.diag([0.2, 0.3, 0.5]), C(3))
        assert as_scalar(compose_seq(discard(C(3)), dist)).value == pytest.approx(1.0)

    def test_max_mixed_and_noise(self):
        assert np.allclose(max_mixed(Q(2)).choi, np.diag([0.5, 0.5]))
        assert np.trace(noise_state(Q(3)).choi).real == pytest.approx(3.0)
        assert np.allclose(noise_state(Q(3)).choi, 3 * max_mixed(Q(3)).choi)
        ab = Q(2) * C(3)
        assert np.allclose(max_mixed(ab).choi, compose_par(max_mixed(Q(2)), max_mixed(C(3))).choi)

    def test_cup_construction_oracle(self):
        # explicit 4x4 entrywise construction
        want = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                want[i * 2 + i, j * 2 + j] = 1.0
        got = cup(Q(2)).choi
        assert np.array_equal(got, want)
        assert np.trace(got).real == pytest.approx(2.0)  # trace equals the wire dimension
        assert np.sum(np.abs(got)) == pytest.approx(4.0)  # entrywise l1 norm is d^2

    def test_classical_cap_on_correlated_distribution(self):
        corr = state(np.diag([0.5, 0.0, 0.0, 0.5]), C(2) * C(2, DOWN))
        assert as_scalar(compose_seq(cap(C(2)), corr)).value == pytest.approx(1.0)

    def test_snake_q3(self):
        s = Q(3)
        lhs = compose_seq(compose_par(cap(s), identity(s)), compose_par(identity(s), cup(s)))
        assert np.max(np.abs(lhs.choi - identity(s).choi)) < 1e-12

    def test_snakes_all_kinds(self):
        for make in (Q, C):
            for d in (2, 3, 4):
                s = make(d)
                ident = identity(s).choi
                lhs1 = compose_seq(compose_par(cap(s), identity(s)), compose_par(identity(s), cup(s)))
                lhs2 = compose_seq(compose_par(identity(s), cap(s)), compose_par(cup(s), identity(s)))
                assert np.max(np.abs(lhs1.choi - ident)) < 1e-12
                assert np.max(np.abs(lhs2.choi - ident)) < 1e-12
                assert np.max(np.abs(compose_seq(swap(s, s.dual()), cup(s)).choi - cup(s).choi)) < 1e-12
                assert np.max(np.abs(compose_seq(cap(s), swap(s, s.dual())).choi - cap(s).choi)) < 1e-12

    def test_identity_and_swap(self):
        rng = np.random.default_rng(24)
        rho = P.random_density(rng, 2)
        assert np.allclose(apply(identity(Q(2)), rho), rho)
        sw = swap(Q(2), Q(3))
        back = compose_seq(swap(Q(3), Q(2)), sw)
        assert np.allclose(back.choi, identity(Q(2) * Q(3)).choi)
        dist = np.diag([0.2, 0.8])
        pure = np.diag([1.0, 0.0])
        got = apply(swap(C(2), Q(2)), np.kron(dist, pure))
        assert np.allclose(got, np.kron(pure, dist))


def basis(s: SystemType):
    return list(itertools.product(*(range(d) for d in s.dims)))


def decohered_pattern(kets, system: SystemType):
    """Sum of |k><b| over pairs of basis kets (digit tuples on ``system``), kept
    only where k and b agree on every classical factor."""
    dims = system.dims
    classical = [p for p, f in enumerate(system.factors) if f.kind == CLASSICAL]
    side = int(np.prod(dims))
    j = np.zeros((side, side), dtype=complex)
    for k in kets:
        for b in kets:
            if all(k[p] == b[p] for p in classical):
                j[np.ravel_multi_index(k, dims), np.ravel_multi_index(b, dims)] = 1.0
    return j


def reference_kraus_choi(kraus, din, dout):
    """The former ``channel_from_kraus`` sum: one ``einsum`` per Kraus operator."""
    j4 = np.zeros((din, dout, din, dout), dtype=complex)
    for k in kraus:
        j4 += np.einsum("ba,BA->abAB", k, k.conj())
    return j4.reshape(din * dout, din * dout)


MIXES = [Q(2), C(2), Q(3), C(3), Q(2) * C(3), C(2) * Q(2), Q(2) * C(2) * Q(2), C(2) * C(2)]


class TestKrausPath:
    """Every pure generator is a Kraus list; the wirings are Bell and permutation
    patterns, decohered on classical factors."""

    @pytest.mark.parametrize("s_in, s_out", [(Q(2), Q(3)), (C(2) * Q(2), Q(2) * C(3)),
                                             (TRIVIAL, Q(2) * C(2)), (Q(3), TRIVIAL)], ids=str)
    def test_kraus_choi_matches_reference(self, s_in, s_out):
        rng = np.random.default_rng(len(s_in) + 3 * len(s_out))
        din, dout = s_in.total_dim, s_out.total_dim
        mask = decohered_pattern(basis(s_in * s_out), s_in * s_out)
        for n in (1, 2, 5):
            ks = [rng.normal(size=(dout, din)) + 1j * rng.normal(size=(dout, din)) for _ in range(n)]
            want = reference_kraus_choi(ks, din, dout) * mask
            got = channel_from_kraus(ks, s_in, s_out).choi
            assert np.allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("s", MIXES, ids=str)
    def test_identity_and_cup(self, s):
        kets = [x + x for x in basis(s)]
        assert np.array_equal(identity(s).choi, decohered_pattern(kets, s * s))
        assert np.array_equal(cup(s).choi, decohered_pattern(kets, s * s.dual()))

    @pytest.mark.parametrize("a, b", [(a, b) for a in MIXES[:6] for b in MIXES[:6]][::3], ids=str)
    def test_swap(self, a, b):
        kets = [x + y + y + x for x in basis(a) for y in basis(b)]
        assert np.array_equal(swap(a, b).choi, decohered_pattern(kets, a * b * b * a))

    def test_empty_kraus_list_is_the_zero_map(self):
        f = channel_from_kraus([], Q(2), C(3))
        assert np.array_equal(f.choi, np.zeros((6, 6)))
        assert is_zero(f)

    def test_many_quantum_factors(self):
        # 33 factors would need 66 tensor axes, past numpy's 64, if decoherence reshaped them
        s = SystemType((WireFactor(QUANTUM, 1),) * 33)
        f = ProcessTensor(s, TRIVIAL, np.eye(1))
        assert f.input.dims == [1] * 33 and identity(s).choi.shape == (1, 1)

    def test_total_dim_is_stored_but_not_a_field(self):
        s = Q(2) * C(3) * Q(5, DOWN)
        assert (s.total_dim, TRIVIAL.total_dim, SystemType(s.factors).dual().total_dim) == (30, 1, 30)
        assert [f.name for f in dataclasses.fields(SystemType)] == ["factors"]
        assert s == Q(2) * C(3) * Q(5, DOWN) and hash(s) == hash(Q(2) * C(3) * Q(5, DOWN))
        assert "total_dim" not in repr(s) and dataclasses.replace(s).total_dim == 30

    def test_classical_factor_among_many(self):
        s = SystemType((WireFactor(QUANTUM, 1),) * 40 + (WireFactor(CLASSICAL, 2),))
        assert np.array_equal(identity(s).choi, np.diag([1.0, 0.0, 0.0, 1.0]))


class TestDagger:
    def test_discard_to_noise(self):
        assert np.allclose(dagger_h(discard(Q(4))).choi, noise_state(Q(4)).choi)

    def test_inverts_unitaries(self):
        u = P.random_unitary(np.random.default_rng(25), 3)
        assert np.allclose(
            dagger_h(channel_from_unitary(u, Q(3))).choi,
            channel_from_unitary(u.conj().T, Q(3)).choi,
        )

    def test_cup_cap_pair(self):
        assert np.allclose(dagger_h(cup(Q(3))).choi, cap(Q(3)).choi)
        assert np.allclose(dagger_h(cap(C(2))).choi, cup(C(2)).choi)

    def test_involutive_and_antihomomorphic(self):
        rng = np.random.default_rng(26)
        f = P.random_cptp(rng, Q(2), Q(3))
        g = P.random_cptp(rng, Q(3), Q(2))
        assert np.allclose(dagger_h(dagger_h(f)).choi, f.choi)
        assert np.allclose(
            dagger_h(compose_seq(g, f)).choi,
            compose_seq(dagger_h(f), dagger_h(g)).choi,
        )

    def test_trace_pairing(self):
        rng = np.random.default_rng(27)
        f = P.random_cptp(rng, Q(2), Q(3))
        x = P.random_density(rng, 2)
        y = (lambda g: g @ g.conj().T)(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        lhs = np.trace(y.conj().T @ apply(f, x))
        rhs = np.trace(apply(dagger_h(f), y).conj().T @ x)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


class TestPredicates:
    def test_random_cptp_is_causal(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            din, dout = rng.integers(2, 5), rng.integers(2, 5)
            e = P.random_cptp(rng, Q(int(din)), Q(int(dout)))
            assert is_causal(e)
            assert np.max(np.abs(compose_seq(discard(e.output), e).choi - discard(e.input).choi)) < 1e-9

    def test_unitary_preserves_identity(self):
        u = P.random_unitary(np.random.default_rng(29), 2)
        assert preserves_identity(channel_from_unitary(u, Q(2)))

    def test_amplitude_damping_not_unital(self):
        ch = amplitude_damping(0.5)
        # direct image of the maximally mixed input
        img = apply(ch, np.eye(2) / 2)
        assert np.allclose(img, np.diag([0.75, 0.25]))
        assert not preserves_max_mixed(ch)
        assert is_causal(ch)

    def test_trace_nonincreasing_and_zero(self):
        z = ProcessTensor(Q(2), Q(2), np.zeros((4, 4)))
        assert is_zero(z)
        assert not is_zero(identity(Q(2)))

    def test_time_reversal_swaps_the_two_discardings(self):
        """f is causal exactly when its reflection dagger_h(f) is retrocausal, and retrocausal
        exactly when dagger_h(f) is causal: on channels, their reflections and non-causal
        processes (Wishart maps, noise, a doubled channel) over Q/C mixes."""
        rng = np.random.default_rng(61)
        systems = [Q(2), C(2), Q(3), Q(2) * C(2), C(3) * Q(2)]
        verdicts = set()
        for _ in range(20):
            a, b = (systems[k] for k in rng.integers(len(systems), size=2))
            f = P.random_cptp(rng, a, b)
            for g in (f, dagger_h(f), ProcessTensor(a, b, 2 * f.choi), P.random_cp(rng, a, b),
                      noise_state(b), max_mixed(b), channel_from_unitary(P.random_unitary(rng, 2), Q(2))):
                assert preserves_identity(dagger_h(g)) == is_causal(g)
                assert is_causal(dagger_h(g)) == preserves_identity(g)
                verdicts.add((is_causal(g), preserves_identity(g)))
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}

    def test_basis_states_differ(self):
        zero = state(np.diag([1.0, 0.0]), Q(2))
        one = state(np.diag([0.0, 1.0]), Q(2))
        assert np.max(np.abs(zero.choi - one.choi)) == pytest.approx(1.0)


class TestClassicalDecoherence:
    def test_constructors_decohered(self):
        # identity on a classical trit is the copy-diagonal, not the Bell pattern
        j = identity(C(3)).choi.reshape(3, 3, 3, 3)
        for a in range(3):
            for b in range(3):
                want = 1.0 if a == b else 0.0
                assert j[a, a, b, b] == pytest.approx(want if a == b else 0.0)
        # classical cup is the perfectly correlated distribution
        u = cup(C(2)).choi
        assert np.allclose(u, np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_composition_preserves_decoherence(self):
        rng = np.random.default_rng(30)
        m = measurement_channel(P.random_povm(rng, 2, 3), Q(2), C(3))
        post = classical_channel(P.random_stochastic(rng, 3, 2), C(3), C(2))
        comp = compose_seq(post, m)  # wiring keeps decoherence: revalidating accepts it
        assert comp.output.factors[0].kind == "classical"
        ProcessTensor(comp.input, comp.output, comp.choi)

    def test_non_decohered_choi_rejected(self):
        full = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                full[i * 2 + i, j * 2 + j] = 1.0
        with pytest.raises(ValueError, match="decoherence"):
            ProcessTensor(C(2), C(2), full)  # coherent identity on a classical wire

    def test_cp_violation_rejected(self):
        with pytest.raises(ValueError, match="not PSD"):
            ProcessTensor(Q(2), TRIVIAL, np.diag([1.0, -1.0]))


class TestTrustBoundary:
    """Public constructors validate; wirings of valid processes are built unchecked."""

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            ProcessTensor(Q(2), TRIVIAL, np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1, np.inf), complex(np.nan, 0)])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ProcessTensor(TRIVIAL, TRIVIAL, [[bad]])
        choi = np.eye(4, dtype=complex)
        choi[1, 2] = choi[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ProcessTensor(Q(2), Q(2), choi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf), 1e200])
    def test_non_finite_kraus_entries_rejected(self, bad):
        k = np.eye(2, dtype=complex)
        k[0, 1] = bad  # 1e200 overflows in V V^dag
        # the finiteness check is the only report: numpy's RuntimeWarnings are errors in this suite
        with pytest.raises(ValueError, match="non-finite entries"):
            channel_from_kraus([k], Q(2), Q(2))
        with pytest.raises(ValueError, match="non-finite entries"):
            channel_from_unitary(k, C(2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_haar_unitary_channels_construct(self, d):
        # an eigenvalue check with psd_rel=0 rejects nearly every such channel, for rounding alone
        rng = np.random.default_rng(100 + d)
        for _ in range(400):
            f = channel_from_unitary(P.random_unitary(rng, d), Q(d))
            assert is_causal(f) and preserves_identity(f)

    def test_constructor_honours_callers_tolerances_without_storing_them(self):
        choi = np.diag([1.0, -1e-10]).astype(complex)  # a rounding-sized negative eigenvalue
        lenient = ProcessTensor(TRIVIAL, Q(2), choi)
        with pytest.raises(ValueError, match="not PSD"):
            ProcessTensor(TRIVIAL, Q(2), choi, Tolerances(psd_rel=1e-12))
        strict_ok = ProcessTensor(TRIVIAL, Q(2), np.eye(2), Tolerances(psd_rel=1e-12))
        for f in (lenient, strict_ok, ProcessTensor._trusted(TRIVIAL, Q(2), np.eye(2, dtype=complex))):
            assert sorted(vars(f)) == ["choi", "input", "output"]
        assert [f.name for f in dataclasses.fields(ProcessTensor)] == ["input", "output", "choi"]

    def test_trusted_checks_shape_and_freezes(self):
        with pytest.raises(ProcessTypeError, match="choi must be 4x4"):
            ProcessTensor._trusted(Q(2), Q(2), np.eye(2))
        f = ProcessTensor._trusted(Q(2), TRIVIAL, np.eye(2, dtype=complex))
        assert not f.choi.flags.writeable

    def test_compositions_skip_validation(self, monkeypatch):
        calls = []
        real = ProcessTensor.__post_init__
        monkeypatch.setattr(ProcessTensor, "__post_init__", lambda self, tol: calls.append(self) or real(self, tol))
        rng = np.random.default_rng(70)
        # a decohered V V^dag is positive for every V: Stinespring, Wishart and Kraus forms
        f = P.random_cptp(rng, Q(2), Q(3))
        g = P.random_cptp(rng, Q(3), Q(2))
        ks = [rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)) for _ in range(3)]
        samples = [P.random_cptp(rng, C(2), Q(2) * C(2)), P.random_cp(rng, Q(2), C(3)),
                   P.random_cp(rng, C(2) * Q(2), Q(2)), P.random_mixture_of_unitaries(rng, Q(3)),
                   channel_from_kraus(ks, Q(2), C(2) * Q(3)), channel_from_kraus([], Q(2), C(3)),
                   channel_from_unitary(P.random_unitary(rng, 3), Q(3))]
        s = Q(2) * C(3)
        comps = [compose_seq(g, f), compose_par(f, g), dagger_h(f),
                 # constants and noisy mixtures are valid by construction too
                 identity(s), discard(s), max_mixed(s), noise_state(s), cup(s), cap(s),
                 swap(Q(3), C(2)), ordered_process_channel(Q(2), C(2), Q(3)), noisy(f, 0.3), *samples]
        assert calls == []
        for c in comps:  # and each would pass validation
            ProcessTensor(c.input, c.output, c.choi)


class TestScalarTolerance:
    def test_rounding_clamps_and_sign_errors_raise(self):
        assert P.Scalar(-1e-13).value == 0.0
        with pytest.raises(ValueError, match="nonnegative"):
            P.Scalar(-1e-3)
        with pytest.raises(ValueError, match="nonnegative"):
            P.Scalar(-5.0)
        with pytest.raises(ValueError, match="nonnegative"):
            P.Scalar(float("nan"))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinities_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            P.Scalar(bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            P.Scalar(bad, Tolerances(zero_abs=1e-2))

    def test_tolerance_is_used_not_stored(self):
        assert "tol" not in vars(P.Scalar(-1e-3, Tolerances(zero_abs=1e-2)))
        assert "tol" not in [f.name for f in dataclasses.fields(P.Scalar)]

    def test_as_scalar_rejects_a_process_with_one_trivial_side(self):
        for f in (max_mixed(Q(2)), discard(Q(2))):
            with pytest.raises(ProcessTypeError, match="not a closed diagram"):
                as_scalar(f)

    def test_as_scalar_honours_callers_tolerances(self):
        # a closed value with a sign error, as a faulty trusted composite would carry
        closed = ProcessTensor._trusted(TRIVIAL, TRIVIAL, np.array([[-1e-3]]))
        with pytest.raises(ValueError, match="nonnegative"):
            as_scalar(closed)
        assert as_scalar(closed, Tolerances(zero_abs=1e-2)).value == 0.0
        tiny = ProcessTensor._trusted(TRIVIAL, TRIVIAL, np.array([[-1e-13]]))
        assert as_scalar(tiny).value == 0.0
        with pytest.raises(ValueError, match="nonnegative"):
            as_scalar(tiny, Tolerances(zero_abs=1e-14))
        assert P.Scalar(-1e-3, Tolerances(zero_abs=1e-2)).value == 0.0


# Input checks: each row calls a public function with an input it rejects, and names
# the exception and its message.
REJECTED = [
    (lambda: channel_from_kraus([np.eye(3)], Q(2), Q(2)), ProcessTypeError,
     "Kraus operator shape (3, 3), expected (2, 2)"),
    (lambda: apply(identity(Q(2)), np.eye(3)), ProcessTypeError, "operator shape (3, 3) does not match input dim 2"),
    # the output runs past the input it feeds, so no factor pair mismatches and the first extra one is named
    (lambda: compose_seq(identity(Q(2)), identity(Q(2) * Q(2))), ProcessTypeError,
     "cannot compose Process[Q(2) -> Q(2)] after Process[Q(2) * Q(2) -> Q(2) * Q(2)]: "
     "factor 1 mismatch (missing vs missing)"),
    (lambda: measurement_channel([np.eye(2)], Q(2), C(2)), ProcessTypeError,
     "1 POVM elements for outcome wire of size 2"),
    (lambda: classical_channel(np.eye(3), C(2), C(2)), ProcessTypeError, "kernel shape (3, 3), expected (2, 2)"),
    # systems
    (lambda: WireFactor("x", 2), ValueError, "unknown wire kind 'x'"),
    (lambda: WireFactor(QUANTUM, 0), ValueError, "wire dimension must be >= 1, got 0"),
    (lambda: WireFactor(QUANTUM, 2, "sideways"), ValueError, "unknown orientation 'sideways'"),
    (lambda: SystemType((2,)), TypeError, "SystemType factors must be WireFactor, got <class 'int'>"),
]

@pytest.mark.parametrize("call, exc, message", REJECTED)
def test_rejected_input_raises_its_message(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message

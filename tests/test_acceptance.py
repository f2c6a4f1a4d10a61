"""Acceptance gate: one test per criterion, at the stated tolerances.

The conftest hook prints one PASS/FAIL line per criterion after the run.
Criterion 3's quantum loop on Q(d) is d*d: the only rescaling of cup and cap
that keeps the snake equations of criterion 4 exact is (a*cup, cap/a), which
leaves the loop at d (ket half) times d (bra half). A loop of d would break
the snakes, so the test asserts d*d and that no exact-snake rescaling moves it.
"""

from pathlib import Path

import numpy as np
import pytest

from proctheory import diagram as D
from proctheory import groups as G
from proctheory import higher_order as HO
from proctheory import processes as P
from proctheory import theories as T
from proctheory.processes import (
    as_scalar,
    cap,
    compose_par,
    compose_seq,
    cup,
    dagger_h,
    discard,
    effect,
    identity,
    measurement_channel,
    noise_state,
    state,
    swap,
)
from proctheory.systems import C, DOWN, Q, SystemType, TRIVIAL

GOOD = Path(__file__).parent / "data" / "pd" / "good"
BAD = Path(__file__).parent / "data" / "pd" / "bad"


def test_criterion_01_born_rule_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        rho = P.random_density(rng, d)
        povm = P.random_povm(rng, d, d)
        got = np.diag(compose_seq(measurement_channel(povm, Q(d), C(d)), state(rho, Q(d))).choi).real
        oracle = np.array([np.trace(m @ rho).real for m in povm])
        worst = max(worst, float(np.max(np.abs(got - oracle))))
    assert worst <= 1e-10


def test_criterion_02_causality_equation():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        din, dout = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        e = P.random_cptp(rng, Q(din), Q(dout))
        lhs = compose_seq(discard(Q(dout)), e).choi
        worst = max(worst, float(np.max(np.abs(lhs - discard(Q(din)).choi))))
    assert worst <= 1e-9


def snake_residual(s, cup_, cap_):
    snake = compose_seq(compose_par(cap_, identity(s)), compose_par(identity(s), cup_))
    return float(np.max(np.abs(snake.choi - identity(s).choi)))


def test_criterion_03_loop_scalar():
    for n in (2, 3, 4):
        classical = as_scalar(compose_seq(cap(C(n)), cup(C(n)))).value
        assert classical == pytest.approx(n, abs=1e-12)
    for d in (2, 3, 4):
        s = Q(d)
        cup_, cap_ = cup(s), cap(s)
        quantum = as_scalar(compose_seq(cap_, cup_)).value
        # quantum wires are doubled (ket and bra), so the loop is d * d
        assert quantum == pytest.approx(d * d, abs=1e-12), (
            f"quantum loop on Q({d}) evaluates to {quantum}, expected {d * d}; "
            "see 'Loop values' in README.md"
        )
        # the only snake-preserving rescaling, (a*cup, cap/a), leaves the loop at d * d
        for alpha in (1 / d, 1 / 2, 3.0):
            cup_a = P.ProcessTensor(TRIVIAL, cup_.output, alpha * cup_.choi)
            cap_a = P.ProcessTensor(cap_.input, TRIVIAL, cap_.choi / alpha)
            assert snake_residual(s, cup_a, cap_a) <= 1e-12
            assert as_scalar(compose_seq(cap_a, cup_a)).value == pytest.approx(d * d, abs=1e-12)
        # a cup scaled by 1/d alone would close to d, but breaks the snake
        cup_d = P.ProcessTensor(TRIVIAL, cup_.output, cup_.choi / d)
        assert as_scalar(compose_seq(cap_, cup_d)).value == pytest.approx(d, abs=1e-12)
        assert snake_residual(s, cup_d, cap_) >= 1 - 1 / d - 1e-12


def test_criterion_04_snake_and_cap_symmetry():
    for make in (Q, C):
        for d in (2, 3, 4):
            s = make(d)
            ident = identity(s).choi
            lhs1 = compose_seq(compose_par(cap(s), identity(s)), compose_par(identity(s), cup(s)))
            lhs2 = compose_seq(compose_par(identity(s), cap(s)), compose_par(cup(s), identity(s)))
            assert np.max(np.abs(lhs1.choi - ident)) <= 1e-12
            assert np.max(np.abs(lhs2.choi - ident)) <= 1e-12
            assert np.max(np.abs(compose_seq(swap(s, s.dual()), cup(s)).choi - cup(s).choi)) <= 1e-12
            assert np.max(np.abs(compose_seq(cap(s), swap(s, s.dual())).choi - cap(s).choi)) <= 1e-12


def collapse_residual(d):
    s = Q(d)
    forced_cup = compose_par(noise_state(s), noise_state(s.dual()))
    forced_cap = dagger_h(forced_cup)
    snake = compose_seq(compose_par(forced_cap, identity(s)), compose_par(identity(s), forced_cup))
    return float(np.max(np.abs(snake.choi - identity(s).choi)))


def test_criterion_05_collapse_witness():
    assert collapse_residual(2) >= 0.4
    assert collapse_residual(1) == pytest.approx(0.0, abs=1e-15)


def test_criterion_06_unital_subtheory():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        f = P.random_mixture_of_unitaries(rng, Q(d))
        g = P.random_mixture_of_unitaries(rng, Q(d))
        assert T.membership(T.QPHYS_UNITAL, compose_seq(g, f)).ok  # closure
        fd = T.dagger_unital(f)
        assert T.membership(T.QPHYS_UNITAL, fd).ok  # image in theory
        worst = max(worst, float(np.max(np.abs(T.dagger_unital(fd).choi - f.choi))))
    assert worst <= 1e-9
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = P.random_bistochastic(rng, n)
        assert np.max(np.abs(k.sum(axis=0) - 1)) <= 1e-9
        assert np.max(np.abs(k.sum(axis=1) - 1)) <= 1e-9
        assert T.membership(T.QPHYS_UNITAL, P.classical_channel(k, C(n), C(n))).ok


def test_criterion_07_quotient_well_definedness():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        d1, d2, d3 = (int(rng.integers(2, 4)) for _ in range(3))
        f = P.random_cp(rng, Q(d1), Q(d2))
        g = P.random_cp(rng, Q(d2), Q(d3))
        r, s = rng.uniform(1e-6, 10.0), rng.uniform(1e-6, 10.0)
        rf = P.ProcessTensor(f.input, f.output, r * f.choi)
        sg = P.ProcessTensor(g.input, g.output, s * g.choi)
        a = T.canonical_rep(compose_seq(sg, rf)).canonical.choi
        b = T.canonical_rep(compose_seq(g, f)).canonical.choi
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-9


def test_criterion_08_bullet_equals_quotient():
    rng = np.random.default_rng(108)
    worst = 0.0
    for k in range(100):
        d1, d2, d3 = (int(rng.integers(2, 4)) for _ in range(3))
        make = P.random_cptp if k % 2 == 0 else P.random_cp
        f = T.canonical_rep(make(rng, Q(d1), Q(d2))).canonical
        g = T.canonical_rep(make(rng, Q(d2), Q(d3))).canonical
        lhs = T.bullet_compose(g, f).choi
        rhs = T.canonical_rep(compose_seq(g, f)).canonical.choi
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    for k in range(100):
        d = int(rng.integers(2, 4))
        if k % 5 == 0:  # forced zero branch
            e = effect(np.diag([0.0] * (d - 1) + [1.0]), Q(d))
            rho = state(np.diag([1.0] + [0.0] * (d - 1)), Q(d))
            h = T.canonical_rep(P.random_cp(rng, SystemType(), Q(d))).canonical
            lhs = T.bullet_compose(e, T.bullet_compose(identity(Q(d)), rho))
            rhs = T.bullet_compose(T.bullet_compose(e, identity(Q(d))), rho)
            assert P.is_zero(lhs) and P.is_zero(rhs)
        else:
            f = T.canonical_rep(P.random_cp(rng, Q(d), Q(d))).canonical
            g = T.canonical_rep(P.random_cp(rng, Q(d), Q(d))).canonical
            h = T.canonical_rep(P.random_cp(rng, Q(d), Q(d))).canonical
            lhs = T.bullet_compose(h, T.bullet_compose(g, f))
            rhs = T.bullet_compose(T.bullet_compose(h, g), f)
            worst = max(worst, float(np.max(np.abs(lhs.choi - rhs.choi))))
    assert worst <= 1e-9


def test_criterion_09_zero_lemma():
    rng = np.random.default_rng(109)
    for _ in range(100):
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        f = P.random_cp(rng, Q(d1), Q(d2))
        n = T.normalization_scalar(f).value
        maxabs = float(np.max(np.abs(f.choi)))
        assert (n <= 1e-12) == (maxabs <= 1e-12)
        assert n > 1e-12  # Wishart samples are almost surely nonzero
    for d in (2, 3):
        z = P.ProcessTensor(Q(d), Q(d), np.zeros((d * d, d * d)))
        assert T.normalization_scalar(z).value <= 1e-12
        assert float(np.max(np.abs(z.choi))) <= 1e-12


def test_criterion_10_qneut_determinism():
    rng = np.random.default_rng(110)
    for _ in range(50):
        d = int(rng.integers(2, 4))
        eps = float(rng.uniform(0.05, 1.0))
        closed = T.noisy(state(P.random_density(rng, d), Q(d)), eps)
        for _ in range(int(rng.integers(0, 3))):
            closed = compose_seq(T.noisy(P.random_cptp(rng, Q(d), Q(d)), eps), closed)
        closed = compose_seq(T.noisy(effect(P.random_density(rng, d), Q(d)), eps), closed)
        if rng.uniform() < 0.5:  # disconnected closed wiring in parallel
            closed = compose_par(closed, compose_seq(cap(Q(2)), cup(Q(2))))
        val = as_scalar(closed).value
        assert val > 0.0
        cls = T.canonical_rep(closed)
        assert np.max(np.abs(cls.canonical.choi - np.ones((1, 1)))) <= 1e-9


def test_criterion_11_qpart():
    rng = np.random.default_rng(111)
    # the classical signalling cap is rejected, with the direction named
    v = G.no_signalling(cap(C(2)))
    assert not v.ok and v.failed_directions() == ["causal->retro"]
    # products are accepted and the factors recovered
    worst = 0.0
    for _ in range(50):
        f_c = P.random_cptp(rng, Q(2), Q(2))
        f_r = dagger_h(P.random_cptp(rng, Q(2, DOWN), Q(2, DOWN)))
        prod = compose_par(f_c, f_r)
        vp, ns = T.membership(T.QPART, prod), G.no_signalling(prod)
        assert vp.ok
        worst = max(worst, float(np.max(np.abs(ns.f_c.choi - f_c.choi))))
        worst = max(worst, float(np.max(np.abs(ns.f_r.choi - f_r.choi))))
        # closure under sequential composition
        g_c = P.random_cptp(rng, Q(2), Q(2))
        g_r = dagger_h(P.random_cptp(rng, Q(2, DOWN), Q(2, DOWN)))
        assert T.membership(T.QPART, compose_seq(compose_par(g_c, g_r), prod)).ok
    assert worst <= 1e-9
    # PR box instance accepted
    kern = np.zeros((4, 4))
    for x in range(2):
        for b in range(2):
            for a in range(2):
                for y in range(2):
                    if a ^ b == x & y:
                        kern[a * 2 + y, x * 2 + b] = 0.5
    pr = P.classical_channel(kern, C(2) * C(2, DOWN), C(2) * C(2, DOWN))
    assert T.membership(T.QPART, pr).ok
    # all closed member diagrams give the scalar 1
    for _ in range(50):
        member = compose_par(
            P.random_cptp(rng, Q(2), Q(2)), dagger_h(P.random_cptp(rng, Q(2, DOWN), Q(2, DOWN)))
        )
        rho = compose_par(state(P.random_density(rng, 2), Q(2)), noise_state(Q(2, DOWN)))
        eff = compose_par(discard(Q(2)), effect(P.random_density(rng, 2), Q(2, DOWN)))
        val = as_scalar(compose_seq(eff, compose_seq(member, rho))).value
        assert val == pytest.approx(1.0, abs=1e-9)


def test_criterion_12_representation_layer():
    z2 = G.cyclic_group(2)
    rz = G.Representation(z2, Q(2), (np.eye(2), np.diag([1.0, -1.0])))
    assert G.validate_group(z2) == []
    assert G.validate_group(G.symmetric_group_s3()) == []
    assert G.validate_representation(rz) == []
    rs3 = G.s3_standard_representation()
    assert G.validate_representation(rs3) == []
    deph = P.channel_from_kraus(
        [np.eye(2) / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)], Q(2), Q(2)
    )
    assert G.is_intertwiner(deph, rz, rz)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    assert not G.is_intertwiner(P.channel_from_unitary(h, Q(2)), rz, rz)
    worst = 0.0
    for rep in (rz, rs3):
        paired = G.tensor_rep(rep, G.conjugate_rep(rep))
        c = cap(rep.system)
        for g in rep.group.elements():
            u = paired.unitary(g).conj()
            worst = max(worst, float(np.max(np.abs(u @ c.choi @ u.conj().T - c.choi))))
    assert worst <= 1e-10


def test_criterion_13_process_matrix_proposition():
    rng = np.random.default_rng(113)
    roles_in = ("past", "a-out", "b-out")
    roles_out = ("a-in", "b-in", "future")
    worst = 0.0
    for _ in range(20):
        dm = int(rng.integers(2, 4))
        g1 = P.random_cptp(rng, Q(2), Q(2) * Q(dm))
        g2 = P.random_cptp(rng, Q(2) * Q(dm), Q(2) * Q(dm))
        g3 = P.random_cptp(rng, Q(2) * Q(dm), Q(2))
        wch = HO.circuit_form_channel(g1, g2, g3)
        w = HO.realize_process_matrix(wch, roles_in, roles_out)
        sw = swap(Q(2), Q(2))
        worst = max(worst, float(np.max(np.abs(HO.apply_process_matrix(w, sw, sw).choi - wch.choi))))
    assert worst <= 1e-9
    wo = HO.realize_process_matrix(HO.ordered_process_channel(Q(2), Q(2), Q(2)), roles_in, roles_out)
    a = P.random_cptp(rng, Q(2), Q(2))
    b = P.random_cptp(rng, Q(2), Q(2))
    got = HO.apply_process_matrix(wo, a, b)
    assert np.max(np.abs(got.choi - compose_seq(b, a).choi)) <= 1e-9
    assert P.is_causal(got)


BAD_EXPECTATIONS = {
    "bad_token.pd": ("parse", 2, 16),
    "bad_duplicate.pd": ("parse", 2, 8),
    "bad_undefined.pd": ("parse", 3, 14),
    "bad_rule_i.pd": ("i", 7, 5),
    "bad_rule_ii.pd": ("ii", 4, 10),
    "bad_rule_iii.pd": ("iii", 8, 5),
    "bad_port_reuse.pd": ("structure", 10, 5),
}


def test_criterion_14_parser_corpus():
    good = sorted(GOOD.glob("*.pd"))
    assert len(good) >= 10
    for path in good:
        parsed = D.parse_file(path)
        env = D.build_env(parsed)
        assert parsed.diagrams, path
        for name, dg in parsed.diagrams.items():
            assert D.typecheck(dg, compact=True) == [], (path, name)
            D.evaluate(dg, env)
    bad = sorted(BAD.glob("*.pd"))
    assert len(bad) >= 5
    for path in bad:
        rule, line, col = BAD_EXPECTATIONS[path.name]
        if rule == "parse":
            with pytest.raises(D.ParseError) as exc:
                D.parse_file(path)
            assert (exc.value.line, exc.value.col) == (line, col), path
        else:
            parsed = D.parse_file(path)
            violations = [
                v
                for dg in parsed.diagrams.values()
                for v in D.typecheck(dg, compact=False)
            ]
            assert any(
                v.rule == rule and (v.line, v.col) == (line, col) for v in violations
            ), (path, [(v.rule, v.line, v.col) for v in violations])

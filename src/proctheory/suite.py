"""Randomized, seeded verification of the library's structural theorems.

Every check draws its samples from a generator seeded by (seed, check
index) and returns its worst-case residual over its trials; it passes when
that is within the check's bound. The same seed reproduces the residuals.
Reports render as one line-delimited record per check with fields
name, anchor, trials, residual, pass.

The checks cover: discard preservation and its consequences, the
time-reversed (noise) theory, the witness separating causality from
retrocausality, the collapse of causal time-neutral theories, snake and
symmetry equations for bent wires, loop scalars, the unital subtheory's
rescaled dagger, no-signalling closure for causal/retrocausal wires, the
scale quotient and its equivalence with renormalised composition, the zero
lemma, determinism of the noise-restricted theory, two-slot process-matrix
realization, and covariance of bent wires under group actions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups, higher_order, processes, theories
from .numerics import DEFAULT_TOL, Tolerances, max_abs
from .processes import (
    cap, compose_par, compose_seq, cup, dagger_h, discard, identity, max_mixed,
    noise_state, state, swap,
)
from .systems import C, DOWN, Q, SystemType, TRIVIAL

__all__ = ["CheckReport", "run_all", "format_report", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckReport:
    name: str
    anchor: str
    trials: int
    residual: float
    passed: bool
    seed: int
    tolerance: float


def format_report(r: CheckReport):
    return (
        f"name={r.name} anchor={r.anchor} trials={r.trials} "
        f"residual={r.residual!r} pass={'true' if r.passed else 'false'}"
    )


def _diff(a, b):
    return max_abs(np.asarray(a) - np.asarray(b))


def _rand_dim(rng, dims):
    return int(dims[rng.integers(len(dims))])


# --- check 1 ---------------------------------------------------------------

def _check_causality(rng, dims, trials, tol):
    res = 0.0
    for _ in range(trials):
        din, dout = _rand_dim(rng, dims), _rand_dim(rng, dims)
        e = processes.random_cptp(rng, Q(din), Q(dout))
        # discarding the outputs equals discarding the inputs
        res = max(res, _diff(compose_seq(discard(Q(dout)), e).choi, discard(Q(din)).choi))
    # discarding a composite is discarding the components
    for da in dims:
        for db in dims:
            lhs = discard(Q(da) * C(db)).choi
            rhs = compose_par(discard(Q(da)), discard(C(db))).choi
            res = max(res, _diff(lhs, rhs))
    # the unique scalar is the empty diagram
    res = max(res, abs(processes.as_scalar(discard(TRIVIAL)).value - 1.0))
    return res, trials


# --- check 2 ---------------------------------------------------------------

def _check_retrocausal(rng, dims, trials, tol):
    res = 0.0
    for _ in range(trials):
        din, dout = _rand_dim(rng, dims), _rand_dim(rng, dims)
        e = processes.random_cptp(rng, Q(din), Q(dout))
        r = dagger_h(e)  # a process of the time-reversed theory
        lhs = processes.apply(r, np.eye(r.din))
        res = max(res, _diff(lhs, np.eye(r.dout)))
    for da in dims:
        for db in dims:
            lhs = noise_state(Q(da) * Q(db)).choi
            rhs = compose_par(noise_state(Q(da)), noise_state(Q(db))).choi
            res = max(res, _diff(lhs, rhs))
    return res, trials


# --- check 3 ---------------------------------------------------------------

def _check_eternal_noise_witness(rng, dims, trials, tol):
    zero = state(np.diag([1.0, 0.0]), Q(2))
    one = state(np.diag([0.0, 1.0]), Q(2))
    res = abs(max_abs(zero.choi - one.choi) - 1.0)
    return res, 1


# --- check 4 ---------------------------------------------------------------

def _collapse_residual(d):
    s = Q(d)
    forced_cup = compose_par(noise_state(s), noise_state(SystemType(s.factors).dual()))
    forced_cap = dagger_h(forced_cup)
    snake = compose_seq(
        compose_par(forced_cap, identity(s)), compose_par(identity(s), forced_cup)
    )
    return _diff(snake.choi, identity(s).choi)


def _check_collapse_witness(rng, dims, trials, tol):
    res_d1 = _collapse_residual(1)
    shortfall = 0.0
    for d in dims:
        if d >= 2:
            shortfall = max(shortfall, max(0.0, 0.4 - _collapse_residual(d)))
    res = max(res_d1, shortfall)
    return res, len(list(dims)) + 1


# --- check 5 ---------------------------------------------------------------

def _check_snakes(rng, dims, trials, tol):
    res = 0.0
    for make in (Q, C):
        for d in dims:
            s = make(d)
            ident = identity(s).choi
            lhs1 = compose_seq(compose_par(cap(s), identity(s)), compose_par(identity(s), cup(s)))
            res = max(res, _diff(lhs1.choi, ident))
            lhs2 = compose_seq(compose_par(identity(s), cap(s)), compose_par(cup(s), identity(s)))
            res = max(res, _diff(lhs2.choi, ident))
            # cup symmetry and the derived cap symmetry
            res = max(res, _diff(compose_seq(swap(s, s.dual()), cup(s)).choi, cup(s).choi))
            res = max(res, _diff(compose_seq(cap(s), swap(s, s.dual())).choi, cap(s).choi))
    return res, 4 * 2 * len(list(dims))


# --- check 6 ---------------------------------------------------------------

def _check_loops(rng, dims, trials, tol):
    res = 0.0
    for d in dims:
        classical = processes.as_scalar(compose_seq(cap(C(d)), cup(C(d)))).value
        res = max(res, abs(classical - d))
        # quantum wires are doubled: the closed loop carries the squared dimension
        quantum = processes.as_scalar(compose_seq(cap(Q(d)), cup(Q(d)))).value
        res = max(res, abs(quantum - d * d))
    return res, 2 * len(list(dims))


# --- check 7 ---------------------------------------------------------------

def _check_unital_dagger(rng, dims, trials, tol):
    res = 0.0
    for _ in range(trials):
        d = _rand_dim(rng, dims)
        f = processes.random_mixture_of_unitaries(rng, Q(d))
        g = processes.random_mixture_of_unitaries(rng, Q(d))
        fd = theories.dagger_unital(f)
        if not theories.membership(theories.QPHYS_UNITAL, fd, tol).ok:
            return 1.0, trials
        res = max(res, _diff(theories.dagger_unital(fd).choi, f.choi))
        comp = compose_seq(g, f)
        if not theories.membership(theories.QPHYS_UNITAL, comp, tol).ok:
            return 1.0, trials
    res = max(res, _diff(theories.dagger_unital(discard(Q(2))).choi, max_mixed(Q(2)).choi))
    u = processes.random_unitary(rng, 3)
    res = max(
        res,
        _diff(
            theories.dagger_unital(processes.channel_from_unitary(u, Q(3))).choi,
            processes.channel_from_unitary(u.conj().T, Q(3)).choi,
        ),
    )
    # classical restriction: bistochastic kernels, row and column sums 1
    for _ in range(10):
        n = _rand_dim(rng, dims)
        k = processes.random_bistochastic(rng, n)
        res = max(res, _diff(k.sum(axis=0), np.ones(n)), _diff(k.sum(axis=1), np.ones(n)))
        ch = processes.classical_channel(k, C(n), C(n))
        if not theories.membership(theories.QPHYS_UNITAL, ch, tol).ok:
            return 1.0, trials
    return res, trials


# --- check 8 ---------------------------------------------------------------

def _random_member_pair(rng, dims):
    """A no-signalling member as a product of a causal and a retro part."""
    dc1, dc2 = _rand_dim(rng, dims), _rand_dim(rng, dims)
    dr1, dr2 = _rand_dim(rng, dims), _rand_dim(rng, dims)
    f_c = processes.random_cptp(rng, Q(dc1), Q(dc2))
    f_r = dagger_h(processes.random_cptp(rng, Q(dr2, DOWN), Q(dr1, DOWN)))
    return compose_par(f_c, f_r), f_c, f_r


def _check_dual_causal(rng, dims, trials, tol):
    res = 0.0
    n = min(trials, 50)
    for _ in range(n):
        f, f_c, f_r = _random_member_pair(rng, dims)
        v = groups.no_signalling(f, tol=tol)
        if not v.ok:
            return 1.0, n
        res = max(res, v.residual_causal_to_retro, v.residual_retro_to_causal)
        res = max(res, _diff(v.f_c.choi, f_c.choi), _diff(v.f_r.choi, f_r.choi))
        # sequential composite of members stays a member
        g_c = processes.random_cptp(rng, f_c.output, Q(_rand_dim(rng, dims)))
        g_r = dagger_h(processes.random_cptp(rng, Q(_rand_dim(rng, dims), DOWN),
                                             SystemType(f_r.output.factors)))
        g = compose_par(g_c, g_r)
        comp = compose_seq(g, f)
        v2 = groups.no_signalling(comp, tol=tol)
        if not v2.ok:
            return 1.0, n
        # closed member diagram: member state in, member effect out, scalar 1
        t_c = discard(g_c.output)
        e_r = processes.effect(processes.random_density(rng, g_r.dout), g_r.output)
        closing = compose_par(t_c, e_r)
        rho_c = state(processes.random_density(rng, f_c.din), f_c.input)
        rho_r = state(np.eye(f_r.din), f_r.input)
        opening = compose_par(rho_c, rho_r)
        scalar = processes.as_scalar(compose_seq(closing, compose_seq(comp, opening)))
        res = max(res, abs(scalar.value - 1.0))
    return res, n


# --- check 9 ---------------------------------------------------------------

def _check_quotient(rng, dims, trials, tol):
    res = 0.0
    for k in range(trials):
        d1, d2, d3 = (_rand_dim(rng, dims) for _ in range(3))
        make = processes.random_cptp if k % 2 == 0 else processes.random_cp
        f = make(rng, Q(d1), Q(d2))
        g = make(rng, Q(d2), Q(d3))
        r, s = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
        rf = processes.ProcessTensor(f.input, f.output, r * f.choi)
        sg = processes.ProcessTensor(g.input, g.output, s * g.choi)
        ca = theories.canonical_rep(compose_seq(sg, rf))
        cb = theories.canonical_rep(compose_seq(g, f))
        res = max(res, _diff(ca.canonical.choi, cb.canonical.choi))
        # composition of classes through arbitrary representatives
        cc = theories.quotient_compose(theories.canonical_rep(sg), theories.canonical_rep(rf))
        res = max(res, _diff(cc.canonical.choi, cb.canonical.choi))
        # the dagger descends to the quotient
        da = theories.canonical_rep(dagger_h(rf))
        db = theories.class_dagger(theories.canonical_rep(rf))
        res = max(res, _diff(da.canonical.choi, db.canonical.choi))
        # identity acts as the unit under renormalised composition, which
        # snaps any nonzero process back to its representative element
        fhat = theories.canonical_rep(rf).canonical
        res = max(res, _diff(theories.bullet_compose(identity(fhat.output), fhat).choi, fhat.choi))
        res = max(res, _diff(theories.bullet_compose(identity(rf.output), rf).choi, fhat.choi))
        if not theories.membership(theories.QCALC_BULLET, theories.bullet_compose(sg, rf), tol).ok:
            return 1.0, trials
    # cup and cap classes satisfy the snake at class level
    for d in dims:
        s_ = Q(d)
        snake = compose_seq(compose_par(cap(s_), identity(s_)), compose_par(identity(s_), cup(s_)))
        res = max(
            res,
            0.0
            if theories.class_equal(theories.canonical_rep(snake), theories.canonical_rep(identity(s_)))
            else 1.0,
        )
    return res, trials


# --- check 10 --------------------------------------------------------------

def _zero_pair(rng, d):
    """A composable pair whose composite is the zero process."""
    e = processes.effect(np.diag([0.0] * (d - 1) + [1.0]), Q(d))
    rho = state(np.diag([1.0] + [0.0] * (d - 1)), Q(d))
    return e, rho


def _check_bullet_equivalence(rng, dims, trials, tol):
    res = 0.0
    for k in range(trials):
        d1, d2, d3, d4 = (_rand_dim(rng, dims) for _ in range(4))
        # alternate trace-preserving and generic CP samples so the
        # renormalisation genuinely fires (N of a composite of canonical
        # CP maps is not 1 in general)
        make = processes.random_cptp if k % 2 == 0 else processes.random_cp
        f = make(rng, Q(d1), Q(d2))
        g = make(rng, Q(d2), Q(d3))
        h = make(rng, Q(d3), Q(d4))
        fh = theories.canonical_rep(f).canonical
        gh = theories.canonical_rep(g).canonical
        hh = theories.canonical_rep(h).canonical
        lhs = theories.bullet_compose(gh, fh)
        rhs = theories.canonical_rep(compose_seq(g, f)).canonical
        res = max(res, _diff(lhs.choi, rhs.choi))
        assoc_l = theories.bullet_compose(hh, theories.bullet_compose(gh, fh))
        assoc_r = theories.bullet_compose(theories.bullet_compose(hh, gh), fh)
        res = max(res, _diff(assoc_l.choi, assoc_r.choi))
    # associativity through forced zero branches
    for d in dims:
        if d < 2:
            continue
        e, rho = _zero_pair(rng, d)
        lhs = theories.bullet_compose(e, theories.bullet_compose(identity(Q(d)), rho))
        rhs = theories.bullet_compose(theories.bullet_compose(e, identity(Q(d))), rho)
        res = max(res, _diff(lhs.choi, rhs.choi))
        # a zero composite lands in the zero branch
        res = max(res, max_abs(theories.bullet_compose(e, rho).choi))
    return res, trials


# --- check 11 --------------------------------------------------------------

def _check_zero_lemma(rng, dims, trials, tol):
    res = 0.0
    for _ in range(trials):
        d1, d2 = _rand_dim(rng, dims), _rand_dim(rng, dims)
        f = processes.random_cptp(rng, Q(d1), Q(d2))
        n = theories.normalization_scalar(f).value
        if n <= 1e-12:  # a CPTP map is never zero
            return 1.0, trials
        # rank-deficient but nonzero
        g = state(np.diag([1.0] + [0.0] * (d1 - 1)), Q(d1))
        if theories.normalization_scalar(g).value <= 1e-12:
            return 1.0, trials
    for d in dims:
        z = processes.ProcessTensor(Q(d), Q(d), np.zeros((d * d, d * d)))
        res = max(res, theories.normalization_scalar(z).value, max_abs(z.choi))
    return res, trials


# --- check 12 --------------------------------------------------------------

def _check_noisy_determinism(rng, dims, trials, tol):
    res = 0.0
    n = min(trials, 50)
    for _ in range(n):
        d = _rand_dim(rng, dims)
        eps = float(rng.uniform(0.05, 0.9))
        length = int(rng.integers(1, 4))
        rho = theories.noisy(state(processes.random_density(rng, d), Q(d)), eps)
        chain = rho
        for _ in range(length):
            ch = theories.noisy(processes.random_cptp(rng, Q(d), Q(d)), eps)
            chain = compose_seq(ch, chain)
        eff = theories.noisy(processes.effect(processes.random_density(rng, d), Q(d)), eps)
        closed = compose_seq(eff, chain)
        # disconnected closed wiring in parallel: loops evaluate to positive numbers
        if rng.uniform() < 0.5:
            loop = compose_seq(cap(Q(2)), cup(Q(2)))
            closed = compose_par(closed, loop)
        val = processes.as_scalar(closed).value
        if val <= 0.0:
            return 1.0, n
        cls = theories.canonical_rep(closed)
        res = max(res, _diff(cls.canonical.choi, np.ones((1, 1))))
    return res, n


# --- check 13 --------------------------------------------------------------

def _check_process_matrix(rng, dims, trials, tol):
    res = 0.0
    n = min(trials, 20)
    roles_in = ("past", "a-out", "b-out")
    roles_out = ("a-in", "b-in", "future")
    for _ in range(n):
        d = 2
        dm = _rand_dim(rng, (2, 3))
        g1 = processes.random_cptp(rng, Q(d), Q(d) * Q(dm))
        g2 = processes.random_cptp(rng, Q(d) * Q(dm), Q(d) * Q(dm))
        g3 = processes.random_cptp(rng, Q(d) * Q(dm), Q(d))
        wch = higher_order.circuit_form_channel(g1, g2, g3)
        w = higher_order.realize_process_matrix(wch, roles_in, roles_out)
        sw = swap(Q(d), Q(d))
        back = higher_order.apply_process_matrix(w, sw, sw)
        res = max(res, _diff(back.choi, wch.choi))
        a = processes.random_cptp(rng, Q(d), Q(d))
        b = processes.random_cptp(rng, Q(d), Q(d))
        got = higher_order.apply_process_matrix(w, a, b)
        oracle = compose_seq(
            g3,
            compose_seq(
                compose_par(b, identity(Q(dm))),
                compose_seq(g2, compose_seq(compose_par(a, identity(Q(dm))), g1)),
            ),
        )
        res = max(res, _diff(got.choi, oracle.choi))
        if not processes.is_causal(got, tol):
            return 1.0, n
    # the causally ordered process matrix composes its arguments
    wo = higher_order.realize_process_matrix(
        higher_order.ordered_process_channel(Q(2), Q(2), Q(2)), roles_in, roles_out
    )
    a = processes.random_cptp(rng, Q(2), Q(2))
    b = processes.random_cptp(rng, Q(2), Q(2))
    res = max(res, _diff(higher_order.apply_process_matrix(wo, a, b).choi, compose_seq(b, a).choi))
    res = max(
        res,
        _diff(
            higher_order.apply_process_matrix(wo, identity(Q(2)), identity(Q(2))).choi,
            identity(Q(2)).choi,
        ),
    )
    return res, n


# --- check 14 --------------------------------------------------------------

def _check_cap_intertwiner(rng, dims, trials, tol):
    res = 0.0
    z2 = groups.cyclic_group(2)
    rz = groups.Representation(z2, Q(2), (np.eye(2), np.diag([1.0, -1.0])))
    rs3 = groups.s3_standard_representation()
    for rep in (rz, rs3):
        paired = groups.tensor_rep(rep, groups.conjugate_rep(rep))
        c = cap(rep.system)
        for g in rep.group.elements():
            u = np.kron(paired.unitary(g).conj(), np.eye(1))
            res = max(res, _diff(u @ c.choi @ u.conj().T, c.choi))
        # composition of intertwiners is an intertwiner
        deph = processes.channel_from_kraus(
            [np.eye(2) / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)], Q(2), Q(2)
        )
        if rep is rz:
            comp = compose_seq(deph, deph)
            if not groups.is_intertwiner(comp, rz, rz, tol):
                return 1.0, trials
    return res, 2


# name, anchor, pass bound on the worst residual, check
_ROWS = [
    ("causality-preservation", "discard-preservation", 1e-9, _check_causality),
    ("retrocausal-structure", "time-reversed-noise", 1e-9, _check_retrocausal),
    ("eternal-noise-witness", "causal-not-retrocausal", 1e-12, _check_eternal_noise_witness),
    ("causal-collapse-witness", "single-process-collapse", 1e-12, _check_collapse_witness),
    ("snake-equations", "bent-wire-identities", 1e-12, _check_snakes),
    ("loop-scalar", "loop-equals-carrier-dimension", 1e-12, _check_loops),
    ("unital-dagger", "unital-subtheory-time-symmetry", 1e-9, _check_unital_dagger),
    ("dual-causal-closure", "no-signalling-closure", 1e-9, _check_dual_causal),
    ("quotient-well-defined", "scale-quotient", 1e-9, _check_quotient),
    ("bullet-quotient-equivalence", "renormalised-composition", 1e-9, _check_bullet_equivalence),
    ("zero-lemma", "local-tomography-zero", 1e-12, _check_zero_lemma),
    ("noisy-determinism", "noise-restricted-determinism", 1e-9, _check_noisy_determinism),
    ("process-matrix-roundtrip", "two-slot-realization", 1e-9, _check_process_matrix),
    ("cap-intertwiner", "covariant-bent-wires", 1e-10, _check_cap_intertwiner),
]

# run_all reads _CHECKS, whose (name, anchor, check) rows callers may rewrap
_CHECKS = [(name, anchor, check) for name, anchor, _, check in _ROWS]
_BOUNDS = {name: bound for name, _, bound, _ in _ROWS}
CHECK_NAMES = list(_BOUNDS)


def run_all(seed=42, dims=(2, 3), trials=100, tol: Tolerances = DEFAULT_TOL):
    """Run all theorem checks; deterministic in (seed, dims, trials)."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"dims must be positive, got {dims}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    reports = []
    for idx, (name, anchor, fn) in enumerate(_CHECKS):
        rng = np.random.default_rng([seed, idx])
        residual, n = fn(rng, dims, trials, tol)
        bound = _BOUNDS[name]
        reports.append(CheckReport(name, anchor, n, float(residual), bool(residual <= bound), seed, bound))
    return reports

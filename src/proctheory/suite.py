"""Randomized, seeded verification of the library's structural theorems.

A check is a per-trial function ``trial(rng, dims, tol, k)``, returning the
residual of trial ``k``, and a fixed part run once after the trials; checks
3-6 and 14 have only a fixed part, which also counts its cases. One loop
runs every check's ``min(trials, cap)`` trials from one generator seeded by
(seed, check index). It keeps the worst residual, the first trial that
reached it and the generator state just before that trial, then folds in
the fixed part. A trial that finds a non-member returns 1.0 and the loop
goes on. A check passes when its residual is within its bound.

The same seed reproduces the residuals; ``TRIALS[name]`` replays a worst
trial from its state. Reports render as one line-delimited record per check
with fields name, anchor, trials, residual, pass.

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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import groups, higher_order, processes, theories
from .numerics import DEFAULT_TOL, Tolerances, max_abs
from .processes import (
    cap, compose_par, compose_seq, cup, dagger_h, discard, identity, max_mixed,
    noise_state, state, swap,
)
from .systems import C, DOWN, Q, SystemType, TRIVIAL

__all__ = ["CheckReport", "run_all", "format_report", "CHECK_NAMES", "TRIALS"]


@dataclass(frozen=True)
class CheckReport:
    name: str
    anchor: str
    trials: int
    residual: float
    passed: bool
    seed: int
    tolerance: float
    # the first trial with the worst residual, and the generator state just
    # before it; both None for a check without random trials
    worst_trial: int | None = None
    worst_state: dict | None = field(default=None, compare=False, repr=False)


def format_report(r: CheckReport):
    return (
        f"name={r.name} anchor={r.anchor} trials={r.trials} "
        f"residual={r.residual!r} pass={'true' if r.passed else 'false'}"
    )


@dataclass(frozen=True)
class _Check:
    """``trial`` on min(trials, cap) draws, then ``fixed``; alone, ``fixed`` returns (residual, cases).
    A report passes when the residual is at most ``bound``."""

    bound: float
    trial: Callable | None = None
    fixed: Callable | None = None
    cap: int | None = None

    def __call__(self, rng, dims, trials, tol):
        """(residual, trials, worst trial, generator state just before it, bound)."""
        if self.trial is None:
            return (*self.fixed(rng, dims, tol), None, None, self.bound)
        n = trials if self.cap is None else min(trials, self.cap)
        res, worst, worst_state = 0.0, None, None
        for k in range(n):
            before = rng.bit_generator.state
            r = self.trial(rng, dims, tol, k)
            if worst is None or r > res:
                res, worst, worst_state = r, k, before
        if self.fixed is not None:
            res = max(res, self.fixed(rng, dims, tol))
        return res, n, worst, worst_state, self.bound


def _diff(a, b):
    return max_abs(np.asarray(a) - np.asarray(b))


def _rand_dim(rng, dims):
    return int(dims[rng.integers(len(dims))])


def _causality_trial(rng, dims, tol, k):
    din, dout = _rand_dim(rng, dims), _rand_dim(rng, dims)
    e = processes.random_cptp(rng, Q(din), Q(dout))
    # discarding the outputs equals discarding the inputs
    return _diff(compose_seq(discard(Q(dout)), e).choi, discard(Q(din)).choi)


def _causality_fixed(rng, dims, tol):
    # discarding a composite is discarding the components
    pairs = [(Q(da), C(db)) for da in dims for db in dims]
    res = max(_diff(discard(a * b).choi, compose_par(discard(a), discard(b)).choi) for a, b in pairs)
    # the unique scalar is the empty diagram
    return max(res, abs(processes.as_scalar(discard(TRIVIAL), tol).value - 1.0))


def _retrocausal_trial(rng, dims, tol, k):
    din, dout = _rand_dim(rng, dims), _rand_dim(rng, dims)
    e = processes.random_cptp(rng, Q(din), Q(dout))
    r = dagger_h(e)  # a process of the time-reversed theory
    lhs = processes.apply(r, np.eye(r.din))
    return _diff(lhs, np.eye(r.dout))


def _retrocausal_fixed(rng, dims, tol):
    pairs = [(Q(da), Q(db)) for da in dims for db in dims]
    return max(_diff(noise_state(a * b).choi, compose_par(noise_state(a), noise_state(b)).choi)
               for a, b in pairs)


def _eternal_noise_witness(rng, dims, tol):
    zero = state(np.diag([1.0, 0.0]), Q(2), tol)
    one = state(np.diag([0.0, 1.0]), Q(2), tol)
    res = abs(max_abs(zero.choi - one.choi) - 1.0)
    return res, 1


def _collapse_residual(d):
    s = Q(d)
    forced_cup = compose_par(noise_state(s), noise_state(SystemType(s.factors).dual()))
    forced_cap = dagger_h(forced_cup)
    snake = compose_seq(
        compose_par(forced_cap, identity(s)), compose_par(identity(s), forced_cup)
    )
    return _diff(snake.choi, identity(s).choi)


def _collapse_witness(rng, dims, tol):
    shortfall = max((0.4 - _collapse_residual(d) for d in dims if d >= 2), default=0.0)
    return max(_collapse_residual(1), shortfall), 1 + sum(d >= 2 for d in dims)


def _snakes(rng, dims, tol):
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


def _loops(rng, dims, tol):
    res = 0.0
    for d in dims:
        classical = processes.as_scalar(compose_seq(cap(C(d)), cup(C(d))), tol).value
        res = max(res, abs(classical - d))
        # quantum wires are doubled: the closed loop carries the squared dimension
        quantum = processes.as_scalar(compose_seq(cap(Q(d)), cup(Q(d))), tol).value
        res = max(res, abs(quantum - d * d))
    return res, 2 * len(list(dims))


def _unital_dagger_trial(rng, dims, tol, k):
    d = _rand_dim(rng, dims)
    f = processes.random_mixture_of_unitaries(rng, Q(d))
    g = processes.random_mixture_of_unitaries(rng, Q(d))
    fd = theories.dagger_unital(f, tol)
    for member in (fd, compose_seq(g, f)):
        if not theories.membership(theories.QPHYS_UNITAL, member, tol).ok:
            return 1.0
    return _diff(theories.dagger_unital(fd, tol).choi, f.choi)


def _unital_dagger_fixed(rng, dims, tol):
    res = _diff(theories.dagger_unital(discard(Q(2)), tol).choi, max_mixed(Q(2)).choi)
    u = processes.random_unitary(rng, 3)
    lhs = theories.dagger_unital(processes.channel_from_unitary(u, Q(3)), tol).choi
    res = max(res, _diff(lhs, processes.channel_from_unitary(u.conj().T, Q(3)).choi))
    # classical restriction: bistochastic kernels, row and column sums 1
    for _ in range(10):
        n = _rand_dim(rng, dims)
        k = processes.random_bistochastic(rng, n)
        res = max(res, _diff(k.sum(axis=0), np.ones(n)), _diff(k.sum(axis=1), np.ones(n)))
        ch = processes.classical_channel(k, C(n), C(n), tol)
        if not theories.membership(theories.QPHYS_UNITAL, ch, tol).ok:
            return 1.0
    return res


def _random_member_pair(rng, dims):
    """A no-signalling member as a product of a causal and a retro part."""
    dc1, dc2 = _rand_dim(rng, dims), _rand_dim(rng, dims)
    dr1, dr2 = _rand_dim(rng, dims), _rand_dim(rng, dims)
    f_c = processes.random_cptp(rng, Q(dc1), Q(dc2))
    f_r = dagger_h(processes.random_cptp(rng, Q(dr2, DOWN), Q(dr1, DOWN)))
    return compose_par(f_c, f_r), f_c, f_r


def _dual_causal_trial(rng, dims, tol, k):
    f, f_c, f_r = _random_member_pair(rng, dims)
    v = groups.no_signalling(f, tol=tol)
    if not v.ok:
        return 1.0
    res = max(v.residual_causal_to_retro, v.residual_retro_to_causal)
    res = max(res, _diff(v.f_c.choi, f_c.choi), _diff(v.f_r.choi, f_r.choi))
    # sequential composite of members stays a member
    g_c = processes.random_cptp(rng, f_c.output, Q(_rand_dim(rng, dims)))
    g_r = dagger_h(processes.random_cptp(rng, Q(_rand_dim(rng, dims), DOWN),
                                         SystemType(f_r.output.factors)))
    g = compose_par(g_c, g_r)
    comp = compose_seq(g, f)
    if not groups.no_signalling(comp, tol=tol).ok:
        return 1.0
    # closed member diagram: member state in, member effect out, scalar 1
    t_c = discard(g_c.output)
    e_r = processes.effect(processes.random_density(rng, g_r.dout), g_r.output, tol)
    closing = compose_par(t_c, e_r)
    rho_c = state(processes.random_density(rng, f_c.din), f_c.input, tol)
    rho_r = state(np.eye(f_r.din), f_r.input, tol)
    opening = compose_par(rho_c, rho_r)
    scalar = processes.as_scalar(compose_seq(closing, compose_seq(comp, opening)), tol)
    return max(res, abs(scalar.value - 1.0))


def _quotient_trial(rng, dims, tol, k):
    d1, d2, d3 = (_rand_dim(rng, dims) for _ in range(3))
    make = processes.random_cptp if k % 2 == 0 else processes.random_cp
    f = make(rng, Q(d1), Q(d2))
    g = make(rng, Q(d2), Q(d3))
    r, s = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
    rf = processes.ProcessTensor._trusted(f.input, f.output, r * f.choi)
    sg = processes.ProcessTensor._trusted(g.input, g.output, s * g.choi)
    ca = theories.canonical_rep(compose_seq(sg, rf), tol)
    cb = theories.canonical_rep(compose_seq(g, f), tol)
    res = _diff(ca.canonical.choi, cb.canonical.choi)
    # composition of classes through arbitrary representatives
    cc = theories.quotient_compose(theories.canonical_rep(sg, tol), theories.canonical_rep(rf, tol), tol)
    res = max(res, _diff(cc.canonical.choi, cb.canonical.choi))
    # the dagger descends to the quotient
    da = theories.canonical_rep(dagger_h(rf), tol)
    db = theories.class_dagger(theories.canonical_rep(rf, tol), tol)
    res = max(res, _diff(da.canonical.choi, db.canonical.choi))
    # identity acts as the unit under renormalised composition, which
    # snaps any nonzero process back to its representative element
    fhat = theories.canonical_rep(rf, tol).canonical
    res = max(res, _diff(theories.bullet_compose(identity(fhat.output), fhat, tol).choi, fhat.choi))
    res = max(res, _diff(theories.bullet_compose(identity(rf.output), rf, tol).choi, fhat.choi))
    if not theories.membership(theories.QCALC_BULLET, theories.bullet_compose(sg, rf, tol), tol).ok:
        return 1.0
    return res


def _quotient_fixed(rng, dims, tol):
    # cup and cap classes satisfy the snake at class level
    for d in dims:
        s_ = Q(d)
        snake = compose_seq(compose_par(cap(s_), identity(s_)), compose_par(identity(s_), cup(s_)))
        if not theories.class_equal(theories.canonical_rep(snake, tol), theories.canonical_rep(identity(s_), tol),
                                    tol):
            return 1.0
    return 0.0


def _zero_pair(rng, d, tol):
    """A composable pair whose composite is the zero process."""
    e = processes.effect(np.diag([0.0] * (d - 1) + [1.0]), Q(d), tol)
    rho = state(np.diag([1.0] + [0.0] * (d - 1)), Q(d), tol)
    return e, rho


def _bullet_equivalence_trial(rng, dims, tol, k):
    d1, d2, d3, d4 = (_rand_dim(rng, dims) for _ in range(4))
    # alternate trace-preserving and generic CP samples so the
    # renormalisation genuinely fires (N of a composite of canonical
    # CP maps is not 1 in general)
    make = processes.random_cptp if k % 2 == 0 else processes.random_cp
    f = make(rng, Q(d1), Q(d2))
    g = make(rng, Q(d2), Q(d3))
    h = make(rng, Q(d3), Q(d4))
    fh = theories.canonical_rep(f, tol).canonical
    gh = theories.canonical_rep(g, tol).canonical
    hh = theories.canonical_rep(h, tol).canonical
    lhs = theories.bullet_compose(gh, fh, tol)
    rhs = theories.canonical_rep(compose_seq(g, f), tol).canonical
    assoc_l = theories.bullet_compose(hh, theories.bullet_compose(gh, fh, tol), tol)
    assoc_r = theories.bullet_compose(theories.bullet_compose(hh, gh, tol), fh, tol)
    return max(_diff(lhs.choi, rhs.choi), _diff(assoc_l.choi, assoc_r.choi))


def _bullet_equivalence_fixed(rng, dims, tol):
    res = 0.0
    # associativity through forced zero branches
    for d in sorted({max(d, 2) for d in dims}):
        e, rho = _zero_pair(rng, d, tol)
        lhs = theories.bullet_compose(e, theories.bullet_compose(identity(Q(d)), rho, tol), tol)
        rhs = theories.bullet_compose(theories.bullet_compose(e, identity(Q(d)), tol), rho, tol)
        res = max(res, _diff(lhs.choi, rhs.choi))
        # a zero composite lands in the zero branch
        res = max(res, max_abs(theories.bullet_compose(e, rho, tol).choi))
    return res


def _zero_lemma_trial(rng, dims, tol, k):
    d1, d2 = _rand_dim(rng, dims), _rand_dim(rng, dims)
    f = processes.random_cptp(rng, Q(d1), Q(d2))  # a CPTP map is never zero
    g = state(np.diag([1.0] + [0.0] * (d1 - 1)), Q(d1), tol)  # rank-deficient but nonzero
    for p in (f, g):
        if theories.normalization_scalar(p).value <= tol.zero_abs:
            return 1.0
    return 0.0


def _zero_lemma_fixed(rng, dims, tol):
    res = 0.0
    for d in dims:
        z = processes.ProcessTensor(Q(d), Q(d), np.zeros((d * d, d * d)), tol)
        res = max(res, theories.normalization_scalar(z).value, max_abs(z.choi))
    return res


def _noisy_determinism_trial(rng, dims, tol, k):
    d = _rand_dim(rng, dims)
    eps = float(rng.uniform(0.05, 0.9))
    length = int(rng.integers(1, 4))
    rho = theories.noisy(state(processes.random_density(rng, d), Q(d), tol), eps)
    chain = rho
    for _ in range(length):
        ch = theories.noisy(processes.random_cptp(rng, Q(d), Q(d)), eps)
        chain = compose_seq(ch, chain)
    eff = theories.noisy(processes.effect(processes.random_density(rng, d), Q(d), tol), eps)
    closed = compose_seq(eff, chain)
    # disconnected closed wiring in parallel: loops evaluate to positive numbers
    if rng.uniform() < 0.5:
        loop = compose_seq(cap(Q(2)), cup(Q(2)))
        closed = compose_par(closed, loop)
    if processes.as_scalar(closed, tol).value <= 0.0:
        return 1.0
    cls = theories.canonical_rep(closed, tol)
    return _diff(cls.canonical.choi, np.ones((1, 1)))


_ROLES_IN, _ROLES_OUT = ("past", "a-out", "b-out"), ("a-in", "b-in", "future")


def _process_matrix_trial(rng, dims, tol, k):
    d = 2
    dm = _rand_dim(rng, dims)
    g1 = processes.random_cptp(rng, Q(d), Q(d) * Q(dm))
    g2 = processes.random_cptp(rng, Q(d) * Q(dm), Q(d) * Q(dm))
    g3 = processes.random_cptp(rng, Q(d) * Q(dm), Q(d))
    wch = higher_order.circuit_form_channel(g1, g2, g3)
    w = higher_order.realize_process_matrix(wch, _ROLES_IN, _ROLES_OUT, tol)
    sw = swap(Q(d), Q(d))
    back = higher_order.apply_process_matrix(w, sw, sw)
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
    if not processes.is_causal(got, tol):
        return 1.0
    return max(_diff(back.choi, wch.choi), _diff(got.choi, oracle.choi))


def _process_matrix_fixed(rng, dims, tol):
    # the causally ordered process matrix composes its arguments
    wo = higher_order.realize_process_matrix(
        higher_order.ordered_process_channel(Q(2), Q(2), Q(2)), _ROLES_IN, _ROLES_OUT, tol
    )
    a = processes.random_cptp(rng, Q(2), Q(2))
    b = processes.random_cptp(rng, Q(2), Q(2))
    res = _diff(higher_order.apply_process_matrix(wo, a, b).choi, compose_seq(b, a).choi)
    ident = identity(Q(2))
    return max(res, _diff(higher_order.apply_process_matrix(wo, ident, ident).choi, ident.choi))


def _cap_intertwiner(rng, dims, tol):
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
    kraus = [np.eye(2) / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)]
    deph = processes.channel_from_kraus(kraus, Q(2), Q(2))
    return (res if groups.is_intertwiner(compose_seq(deph, deph), rz, rz, tol) else 1.0), 2


# checks 1-14: name, anchor, check with its pass bound on the worst residual; run_all reads
# only these rows, and callers may rewrap a row's check
_CHECKS = [
    ("causality-preservation", "discard-preservation", _Check(1e-9, _causality_trial, _causality_fixed)),
    ("retrocausal-structure", "time-reversed-noise", _Check(1e-9, _retrocausal_trial, _retrocausal_fixed)),
    ("eternal-noise-witness", "causal-not-retrocausal", _Check(1e-12, fixed=_eternal_noise_witness)),
    ("causal-collapse-witness", "single-process-collapse", _Check(1e-12, fixed=_collapse_witness)),
    ("snake-equations", "bent-wire-identities", _Check(1e-12, fixed=_snakes)),
    ("loop-scalar", "loop-equals-carrier-dimension", _Check(1e-12, fixed=_loops)),
    ("unital-dagger", "unital-subtheory-time-symmetry", _Check(1e-9, _unital_dagger_trial, _unital_dagger_fixed)),
    ("dual-causal-closure", "no-signalling-closure", _Check(1e-9, _dual_causal_trial, cap=50)),
    ("quotient-well-defined", "scale-quotient", _Check(1e-9, _quotient_trial, _quotient_fixed)),
    ("bullet-quotient-equivalence", "renormalised-composition",
     _Check(1e-9, _bullet_equivalence_trial, _bullet_equivalence_fixed)),
    ("zero-lemma", "local-tomography-zero", _Check(1e-12, _zero_lemma_trial, _zero_lemma_fixed)),
    ("noisy-determinism", "noise-restricted-determinism", _Check(1e-9, _noisy_determinism_trial, cap=50)),
    ("process-matrix-roundtrip", "two-slot-realization",
     _Check(1e-9, _process_matrix_trial, _process_matrix_fixed, cap=20)),
    ("cap-intertwiner", "covariant-bent-wires", _Check(1e-10, fixed=_cap_intertwiner)),
]
CHECK_NAMES = [name for name, _, _ in _CHECKS]
# name -> trial(rng, dims, tol, k), which replays a report's worst trial
TRIALS = {name: check.trial for name, _, check in _CHECKS if check.trial is not None}


def run_all(seed=42, dims=(2, 3), trials=100, tol: Tolerances = DEFAULT_TOL):
    """Run all theorem checks; deterministic in (seed, dims, trials)."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"dims must be positive, got {dims}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    reports = []
    for idx, (name, anchor, check) in enumerate(_CHECKS):
        rng = np.random.default_rng([seed, idx])
        residual, n, worst, worst_state, bound = check(rng, dims, trials, tol)
        reports.append(CheckReport(name, anchor, n, float(residual), bool(residual <= bound), seed, bound,
                                   worst, worst_state))
    return reports

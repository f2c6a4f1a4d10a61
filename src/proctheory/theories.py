"""Process theories over the Choi-operator processes, and constructions on them.

A theory is data: a name, whether its wires may bend (cups and caps), and
the laws its processes obey beyond complete positivity, each a named
predicate. The six rows are the physical theory of channels (discard
preserving), its unital subtheory with a rescaled dagger, the calculational
supertheory of all CP maps, the renormalised bullet theory (Oreshkov & Cerf,
Nature Physics 11, 853, 2015), the scalar quotient, and the noise-restricted
deterministic theory. ``membership`` runs a row's laws in order.

The normalisation functional N(f) = Tr[choi]/dim_in is the single positive
linear functional the bullet/quotient constructions hinge on: N(identity)=1,
N is multiplicative over parallel composition, and N(f)=0 exactly when f is
the zero process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import DEFAULT_TOL, Tolerances, mats_close, max_abs, min_eigenvalue_hermitian
from .processes import (
    ProcessTensor,
    Scalar,
    compose_seq,
    dagger_h,
    is_causal,
    is_zero,
    preserves_max_mixed,
)

__all__ = [
    "Theory",
    "THEORIES",
    "theory_by_name",
    "MembershipVerdict",
    "membership",
    "normalization_scalar",
    "bullet_compose",
    "ProcessClass",
    "canonical_rep",
    "class_equal",
    "quotient_compose",
    "class_dagger",
    "NoiseParameter",
    "noisy",
    "dagger_unital",
]


@dataclass(frozen=True)
class Theory:
    """``compact`` allows cups and caps; ``laws`` are ``(check name,
    predicate(f, tol))`` pairs that members obey beyond complete positivity."""

    name: str
    compact: bool
    laws: tuple = ()


def _is_representative(f: ProcessTensor, tol: Tolerances):
    """Bullet representatives are zero or normalised: N(f) = 1."""
    return is_zero(f, tol) or abs(normalization_scalar(f).value - 1.0) <= tol.eq_rel


def _is_strictly_positive(f: ProcessTensor, tol: Tolerances):
    """qneut processes have a positive definite Choi operator."""
    return min_eigenvalue_hermitian(f.choi, tol) > tol.psd_rel * max(1.0, max_abs(f.choi))


QPHYS = Theory("qphys", False, (("causal", is_causal),))
QPHYS_UNITAL = Theory("qphys-unital", False, (("causal", is_causal), ("unital", preserves_max_mixed)))
QCALC = Theory("qcalc", True)
QCALC_BULLET = Theory("qcalc-bullet", True, (("representative", _is_representative),))
QCALC_QUOTIENT = Theory("qcalc-quotient", True)
QNEUT = Theory("qneut", True, (("strictly-positive", _is_strictly_positive),))

THEORIES = {t.name: t for t in (QPHYS, QPHYS_UNITAL, QCALC, QCALC_BULLET, QCALC_QUOTIENT, QNEUT)}


def theory_by_name(name):
    try:
        return THEORIES[name.lower()]
    except KeyError:
        raise KeyError(f"unknown theory {name!r}; expected one of {sorted(THEORIES)}") from None


@dataclass
class MembershipVerdict:
    """Checks by name, in order; ``n_value`` is N(f), ``ns`` the qpart no-signalling verdict."""

    ok: bool
    theory: str
    checks: dict = field(default_factory=dict)
    reasons: list = field(default_factory=list)
    n_value: float | None = None
    ns: object = None

    def __str__(self):
        status = "member" if self.ok else "not a member"
        extra = f" (N={self.n_value:.6g})" if self.n_value is not None else ""
        why = f": failed {', '.join(self.reasons)}" if self.reasons else ""
        return f"{status} of {self.theory}{extra}{why}"


def membership(theory: Theory, f: ProcessTensor, tol: Tolerances = DEFAULT_TOL):
    """Evaluate the theory's laws, reporting failed checks by name."""
    # ProcessTensor construction enforces complete positivity
    checks = {"cp": True, **{name: law(f, tol) for name, law in theory.laws}}
    reasons = [name for name, ok in checks.items() if not ok]
    return MembershipVerdict(not reasons, theory.name, checks, reasons, normalization_scalar(f).value)


def normalization_scalar(f: ProcessTensor):
    """N(f) = Tr[choi]/dim_in: the probability weight left in f."""
    return Scalar(max(0.0, float(np.trace(f.choi).real)) / f.din)


def bullet_compose(g: ProcessTensor, f: ProcessTensor, tol: Tolerances = DEFAULT_TOL):
    """Renormalised sequential composition: (g o f)/N(g o f), or zero."""
    return canonical_rep(compose_seq(g, f), tol).canonical


@dataclass(frozen=True)
class ProcessClass:
    """An equivalence class of processes up to positive scale, by its canonical member.

    The canonical member is the zero process or is normalised so N = 1.
    """

    canonical: ProcessTensor

    def is_zero_class(self, tol: Tolerances = DEFAULT_TOL):
        return is_zero(self.canonical, tol)


def canonical_rep(f: ProcessTensor, tol: Tolerances = DEFAULT_TOL):
    n = normalization_scalar(f).value
    if n <= tol.zero_abs:
        return ProcessClass(ProcessTensor._trusted(f.input, f.output, np.zeros_like(f.choi)))
    return ProcessClass(ProcessTensor._trusted(f.input, f.output, f.choi / n))


def class_equal(a: ProcessClass, b: ProcessClass, tol: Tolerances = DEFAULT_TOL):
    ca, cb = a.canonical, b.canonical
    if not (ca.input.same_carrier(cb.input) and ca.output.same_carrier(cb.output)):
        return False
    return mats_close(ca.choi, cb.choi, tol)


def quotient_compose(a: ProcessClass, b: ProcessClass, tol: Tolerances = DEFAULT_TOL):
    """Compose classes through arbitrary representatives; well defined by construction."""
    return canonical_rep(compose_seq(a.canonical, b.canonical), tol)


def class_dagger(a: ProcessClass, tol: Tolerances = DEFAULT_TOL):
    """Hermitian adjoint descends to the quotient."""
    return canonical_rep(dagger_h(a.canonical), tol)


@dataclass(frozen=True)
class NoiseParameter:
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")


def noisy(f: ProcessTensor, eps):
    """Mix f with the depolariser: (1-eps) choi + eps (1 (x) 1)/dim_out.

    The depolariser term is the channel X -> Tr[X] 1/dim_out, so trace
    preservation survives the mixing. The result has a strictly positive
    definite Choi operator (by Weyl's inequality its least eigenvalue is at
    least eps/dim_out, as choi is PSD): it is valid by construction and never
    the zero process. Noisy processes absorb wiring processes.
    """
    if not isinstance(eps, NoiseParameter):
        eps = NoiseParameter(float(eps))
    e = eps.epsilon
    side = f.din * f.dout
    j = (1.0 - e) * f.choi + e * np.eye(side, dtype=complex) / f.dout
    return ProcessTensor._trusted(f.input, f.output, j)


def dagger_unital(f: ProcessTensor, tol: Tolerances = DEFAULT_TOL):
    """Dagger of the unital subtheory: Hermitian adjoint rescaled by dout/din."""
    verdict = membership(QPHYS_UNITAL, f, tol)
    if not verdict.ok:
        raise ValueError(f"dagger_unital precondition failed: {verdict}")
    g = dagger_h(f)
    return ProcessTensor._trusted(g.input, g.output, g.choi * (f.dout / f.din))

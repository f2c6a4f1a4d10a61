"""Processes as Choi operators on quantum/classical wire systems.

A process from system ``s_in`` to ``s_out`` is a completely positive map
stored as its Choi operator: a PSD matrix of side ``din * dout`` indexed by
``input (x) output``, with the defining action

    E(X) = Tr_in[ (X^T (x) 1_out) . choi ]

so that states are their own Choi matrices, effects are trace pairings, and
wiring two processes together contracts the matching ket and bra indices of
their Choi tensors. Classical wires are decohered quantum wires: every Choi
operator is diagonal in the classical indices (a checkable invariant that
all constructors and compositions preserve).

Validity is checked where data enters, by ``ProcessTensor(...)``. What is
positive by construction is built by the shape-only ``ProcessTensor._trusted``:
identity matrices, a decohered V V^dag (positive for every V: the constant,
Kraus and Wishart processes), and wirings, partial traces and nonnegative
rescalings of valid processes, such as the parts ``no_signalling`` extracts
(the link product of positive operators is positive).

Trace preservation is deliberately *not* part of the type, so the same
objects serve both the physical theory (CPTP maps) and the calculational
supertheory (arbitrary CP maps, cups, caps, supernormalised states). It is
a row of ``LAWS``, the one table of one-sided laws at the bottom of this
module, which the predicates, theory ``membership``, ``no_signalling`` and
the CLI's ``check`` all read.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    NotHermitianError,
    Tolerances,
    contract,
    dagger as mat_dagger,
    max_abs,
    mats_close,
    min_eigenvalue_hermitian,
    partial_trace,
    within,
)
from .systems import CLASSICAL, SystemType, TRIVIAL

__all__ = [
    "ProcessTensor",
    "Scalar",
    "ProcessTypeError",
    "apply",
    "as_scalar",
    "compose_seq",
    "compose_par",
    "discard",
    "max_mixed",
    "noise_state",
    "identity",
    "swap",
    "cup",
    "cap",
    "dagger_h",
    "state",
    "effect",
    "channel_from_unitary",
    "channel_from_kraus",
    "measurement_channel",
    "classical_channel",
    "LAWS",
    "obeys",
    "is_causal",
    "preserves_identity",
    "preserves_max_mixed",
    "is_zero",
    "random_cptp",
    "random_density",
    "random_povm",
    "random_unitary",
    "random_mixture_of_unitaries",
    "random_stochastic",
    "random_bistochastic",
]


class ProcessTypeError(TypeError):
    """System types of two processes do not line up for the attempted wiring."""


def _decohere(choi, s_in: SystemType, s_out: SystemType):
    """Zero every entry whose ket and bra indices differ on a classical factor."""
    factors = s_in.factors + s_out.factors
    if all(f.kind != CLASSICAL for f in factors):
        return choi
    key = np.zeros(1, dtype=int)  # each flat index's classical digits, mixed-radix
    for f in factors:
        digit = np.arange(f.dim) if f.kind == CLASSICAL else np.zeros(f.dim, dtype=int)
        key = (key[:, None] * f.dim + digit).ravel()
    return choi * (key[:, None] == key)


def _kraus_choi(kraus, s_in: SystemType, s_out: SystemType):
    """Decohered V V^dag for V = [vec(K_k^T)]_k: the Choi operator of X -> sum_k K_k X K_k^dag."""
    din, dout = s_in.total_dim, s_out.total_dim
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    for k in ks:
        if k.shape != (dout, din):
            raise ProcessTypeError(f"Kraus operator shape {k.shape}, expected {(dout, din)}")
    v = np.array(ks).reshape(len(ks), dout, din).transpose(2, 1, 0).reshape(din * dout, len(ks))
    return _decohere(v @ mat_dagger(v), s_in, s_out)


def _shaped(s_in: SystemType, s_out: SystemType, choi):
    choi = np.asarray(choi, dtype=complex)
    side = s_in.total_dim * s_out.total_dim
    if choi.shape != (side, side):
        raise ProcessTypeError(f"choi must be {side}x{side} for {s_in} -> {s_out}, got {choi.shape}")
    return choi


@dataclass(frozen=True)
class ProcessTensor:
    """A completely positive map between systems, as an input (x) output Choi matrix.

    ``tol`` is the slack of the validity check and is not stored.
    """

    input: SystemType
    output: SystemType
    choi: np.ndarray = field(repr=False)
    tol: InitVar[Tolerances] = DEFAULT_TOL

    def __post_init__(self, tol):
        choi = _shaped(self.input, self.output, self.choi)
        peak = max_abs(choi)
        if not peak < np.inf:  # NaN compares false too
            raise ValueError("choi operator has non-finite entries")
        try:
            lam = min_eigenvalue_hermitian(choi, tol)
        except NotHermitianError:
            raise ValueError("choi operator is not Hermitian") from None
        if not within(-lam, tol.psd_rel, peak):
            raise ValueError("choi operator is not PSD: map is not completely positive")
        if not within(max_abs(choi - _decohere(choi, self.input, self.output)), tol.zero_abs, peak):
            raise ValueError("choi operator violates classical decoherence")
        choi = choi.copy()
        choi.setflags(write=False)
        object.__setattr__(self, "choi", choi)

    @classmethod
    def _trusted(cls, input, output, choi):
        """A process that is valid by construction: only the shape is
        checked, and ``choi`` (a fresh array) is frozen in place of a copy."""
        choi = _shaped(input, output, choi)
        choi.setflags(write=False)
        f = object.__new__(cls)
        for name, value in (("input", input), ("output", output), ("choi", choi)):
            object.__setattr__(f, name, value)
        return f

    @property
    def din(self):
        return self.input.total_dim

    @property
    def dout(self):
        return self.output.total_dim

    def choi4(self):
        """Choi tensor with axes (in-ket, out-ket, in-bra, out-bra)."""
        return self.choi.reshape(self.din, self.dout, self.din, self.dout)

    def legs(self):
        """Choi tensor with one axis per factor: input then output kets, then bras."""
        dims = self.input.dims + self.output.dims
        return self.choi.reshape(dims + dims)

    def __str__(self):
        return f"Process[{self.input} -> {self.output}]"


@dataclass(frozen=True)
class Scalar:
    """A closed diagram's value: a nonnegative real.

    A value below zero by at most ``tol.zero_abs * max(1, |value|)`` is
    rounding and reads as 0; anything more negative is rejected, and so are
    NaN and the infinities. ``tol`` is not stored.
    """

    value: float
    tol: InitVar[Tolerances] = DEFAULT_TOL

    def __post_init__(self, tol):
        if not (abs(self.value) < np.inf and within(-self.value, tol.zero_abs, abs(self.value))):
            raise ValueError(f"scalar must be finite and nonnegative, got {self.value}")
        object.__setattr__(self, "value", max(0.0, float(self.value)))


def as_scalar(f: ProcessTensor, tol: Tolerances = DEFAULT_TOL):
    """Read a closed (trivial -> trivial) process as its scalar value."""
    if not (f.input.is_trivial() and f.output.is_trivial()):
        raise ProcessTypeError(f"{f} is not a closed diagram")
    z = complex(f.choi[0, 0])
    if not within(abs(z.imag), tol.eq_rel, abs(z)):
        raise ValueError(f"closed diagram evaluated to non-real scalar {z}")
    return Scalar(z.real, tol)


def apply(f: ProcessTensor, x):
    """Act on an operator: E(X) = Tr_in[(X^T (x) 1) choi]."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (f.din, f.din):
        raise ProcessTypeError(f"operator shape {x.shape} does not match input dim {f.din}")
    return contract(x, "aA", f.choi4(), "abAB", "bB")


def _first_mismatch(a: SystemType, b: SystemType):
    for k, (fa, fb) in enumerate(zip(a.factors, b.factors)):
        if not fa.same_carrier(fb):
            return k, fa, fb
    return len(min(a.factors, b.factors, key=len)), None, None


def compose_seq(g: ProcessTensor, f: ProcessTensor):
    """Sequential composition g after f (output of f wired into input of g)."""
    if not f.output.same_carrier(g.input):
        k, fa, fb = _first_mismatch(f.output, g.input)
        raise ProcessTypeError(
            f"cannot compose {g} after {f}: factor {k} mismatch "
            f"({fa if fa else 'missing'} vs {fb if fb else 'missing'})"
        )
    j = contract(f.choi4(), "abAB", g.choi4(), "bcBC", "acAC")
    side = f.din * g.dout
    return ProcessTensor._trusted(f.input, g.output, j.reshape(side, side))


def compose_par(f: ProcessTensor, g: ProcessTensor):
    """Parallel composition f (x) g (concatenated inputs and outputs)."""
    j = contract(f.choi4(), "abAB", g.choi4(), "cdCD", "acbdACBD")
    s_in = f.input * g.input
    s_out = f.output * g.output
    side = s_in.total_dim * s_out.total_dim
    return ProcessTensor._trusted(s_in, s_out, j.reshape(side, side))


def dagger_h(f: ProcessTensor):
    """Hermitian-adjoint dagger: Tr[Y^dag f(X)] = Tr[dagger_h(f)(Y)^dag X]."""
    j = f.choi4().transpose(1, 0, 3, 2).conj()
    side = f.din * f.dout
    return ProcessTensor._trusted(f.output, f.input, j.reshape(side, side))


# ---------------------------------------------------------------------------
# Generators


def discard(s: SystemType):
    """The unique trace/marginalisation effect: apply(discard, X) = Tr X."""
    return ProcessTensor._trusted(s, TRIVIAL, np.eye(s.total_dim, dtype=complex))


def max_mixed(s: SystemType):
    """Maximally mixed state 1/dim as a process from nothing."""
    d = s.total_dim
    return ProcessTensor._trusted(TRIVIAL, s, np.eye(d, dtype=complex) / d)


def noise_state(s: SystemType):
    """Supernormalised maximally mixed state 1 (trace = dim)."""
    return ProcessTensor._trusted(TRIVIAL, s, np.eye(s.total_dim, dtype=complex))


def identity(s: SystemType):
    return ProcessTensor._trusted(s, s, _kraus_choi([np.eye(s.total_dim)], s, s))


def cup(s: SystemType):
    """Bent wire from nothing to s (x) dual(s); Bell pair on quantum factors,
    perfectly correlated distribution on classical ones."""
    d = s.total_dim
    s_out = s * s.dual()
    return ProcessTensor._trusted(TRIVIAL, s_out, _kraus_choi([np.eye(d).reshape(d * d, 1)], TRIVIAL, s_out))


def cap(s: SystemType):
    """Adjoint of the cup: effect on s (x) dual(s)."""
    return dagger_h(cup(s))


def swap(a: SystemType, b: SystemType):
    """Wire crossing a (x) b -> b (x) a."""
    da, db = a.total_dim, b.total_dim
    u = np.eye(da * db).reshape(da, db, -1).transpose(1, 0, 2).reshape(da * db, -1)
    return ProcessTensor._trusted(a * b, b * a, _kraus_choi([u], a * b, b * a))


# ---------------------------------------------------------------------------
# Constructors from familiar data


def state(rho, s: SystemType, tol: Tolerances = DEFAULT_TOL):
    """Wrap a (not necessarily normalised) positive operator as a process from nothing."""
    return ProcessTensor(TRIVIAL, s, np.asarray(rho, dtype=complex), tol)


def effect(e, s: SystemType, tol: Tolerances = DEFAULT_TOL):
    """The functional X -> Tr[e X] as a process to nothing (choi = e^T)."""
    return ProcessTensor(s, TRIVIAL, np.asarray(e, dtype=complex).T, tol)


def channel_from_kraus(kraus, s_in: SystemType, s_out: SystemType):
    """Channel X -> sum_k K_k X K_k^dag; V V^dag is positive, so only finiteness is checked."""
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports these
        choi = _kraus_choi(kraus, s_in, s_out)
    if not max_abs(choi) < np.inf:  # NaN, infinite or overflowing Kraus entries
        raise ValueError("choi operator has non-finite entries")
    return ProcessTensor._trusted(s_in, s_out, choi)


def channel_from_unitary(u, s: SystemType):
    """Conjugation channel X -> U X U^dag."""
    return channel_from_kraus([u], s, s)


def measurement_channel(povm, s_in: SystemType, s_out: SystemType, tol: Tolerances = DEFAULT_TOL):
    """Destructive measurement: quantum input, classical outcome wire.

    ``povm`` lists positive operators indexed by the outcome; they need not
    sum to the identity (the CP supertheory allows that).
    """
    din, dout = s_in.total_dim, s_out.total_dim
    if len(povm) != dout:
        raise ProcessTypeError(f"{len(povm)} POVM elements for outcome wire of size {dout}")
    j4 = np.zeros((din, dout, din, dout), dtype=complex)
    for a, m in enumerate(povm):
        j4[:, a, :, a] = np.asarray(m, dtype=complex).T
    return ProcessTensor(s_in, s_out, j4.reshape(din * dout, din * dout), tol)


def classical_channel(kernel, s_in: SystemType, s_out: SystemType, tol: Tolerances = DEFAULT_TOL):
    """Channel on classical wires from a kernel with entries kernel[a, x] = weight of x -> a."""
    kernel = np.asarray(kernel, dtype=float)
    din, dout = s_in.total_dim, s_out.total_dim
    if kernel.shape != (dout, din):
        raise ProcessTypeError(f"kernel shape {kernel.shape}, expected {(dout, din)}")
    j4 = np.zeros((din, dout, din, dout), dtype=complex)
    for x in range(din):
        for a in range(dout):
            j4[x, a, x, a] = kernel[a, x]
    return ProcessTensor(s_in, s_out, j4.reshape(din * dout, din * dout), tol)


# ---------------------------------------------------------------------------
# One-sided laws and causality-type predicates

# law -> (the side it closes, the reference the closed value must equal, given the kept and closed dims)
LAWS = {"causal": ("out", lambda kept, closed: np.eye(kept)),
        "retrocausal": ("in", lambda kept, closed: np.eye(kept)),
        "unital": ("in", lambda kept, closed: closed / kept * np.eye(kept))}


def obeys(law, f, tol: Tolerances = DEFAULT_TOL):
    """Does ``f`` obey ``LAWS[law]``? ``f`` is a process, closed here by a partial trace, or
    the pair (value, closed dimension) of a diagram closed on the law's side."""
    side, reference = LAWS[law]
    value, closed = f if isinstance(f, tuple) else (
        partial_trace(f.choi, [f.din, f.dout], [side == "in"]), f.din if side == "in" else f.dout)
    return mats_close(value, reference(len(value), closed), tol)


def is_causal(f: ProcessTensor, tol: Tolerances = DEFAULT_TOL):
    """Discard-preservation (trace preservation): discard . f = discard."""
    return obeys("causal", f, tol)


def preserves_identity(f: ProcessTensor, tol: Tolerances = DEFAULT_TOL):
    """Retrocausality constraint: f(1_in) = 1_out."""
    return obeys("retrocausal", f, tol)


def preserves_max_mixed(f: ProcessTensor, tol: Tolerances = DEFAULT_TOL):
    """Unitality in the dimension-aware sense: f(1/din) = 1/dout."""
    return obeys("unital", f, tol)


def is_zero(f: ProcessTensor, tol: Tolerances = DEFAULT_TOL):
    return within(max_abs(f.choi), tol.zero_abs)


# ---------------------------------------------------------------------------
# Random in-class samples (test and theorem-suite oracles)


def _ginibre(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_unitary(rng, d):
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    # fix phases so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    g = _ginibre(rng, d, d)
    rho = g @ mat_dagger(g)
    return rho / np.trace(rho).real


def random_povm(rng, d, n_outcomes):
    ws = [_ginibre(rng, d, d) for _ in range(n_outcomes)]
    parts = [w @ mat_dagger(w) for w in ws]
    total = sum(parts)
    evals, evecs = np.linalg.eigh(total)
    inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(evals)) @ mat_dagger(evecs)
    return [inv_sqrt @ p @ inv_sqrt for p in parts]


def random_cptp(rng, s_in: SystemType, s_out: SystemType):
    """Random CPTP map via a Stinespring isometry, environment of dimension din."""
    din, dout = s_in.total_dim, s_out.total_dim
    g = _ginibre(rng, dout * din, din)
    q, _ = np.linalg.qr(g)  # isometry: q^dag q = 1_din
    kraus = q.reshape(dout, din, din).transpose(1, 0, 2)
    return channel_from_kraus(kraus, s_in, s_out)


def random_cp(rng, s_in: SystemType, s_out: SystemType):
    """Random completely positive map with no trace condition (Wishart Choi)."""
    din, dout = s_in.total_dim, s_out.total_dim
    g = _ginibre(rng, din * dout, din * dout)
    j = _decohere(g @ mat_dagger(g), s_in, s_out)
    return ProcessTensor._trusted(s_in, s_out, j / (din * dout))


def random_mixture_of_unitaries(rng, s: SystemType):
    """Random unital CPTP map: convex mixture of three unitary conjugations."""
    d = s.total_dim
    weights = rng.dirichlet(np.ones(3))
    kraus = [np.sqrt(w) * random_unitary(rng, d) for w in weights]
    return channel_from_kraus(kraus, s, s)


def random_stochastic(rng, n_in, n_out):
    """Column-stochastic kernel: kernel[a, x] with each column summing to 1."""
    k = rng.uniform(0.05, 1.0, size=(n_out, n_in))
    return k / k.sum(axis=0, keepdims=True)


def random_bistochastic(rng, n):
    """Convex mixture of four permutation matrices (Birkhoff sample)."""
    weights = rng.dirichlet(np.ones(4))
    m = np.zeros((n, n))
    for w in weights:
        m += w * np.eye(n)[rng.permutation(n)]
    return m

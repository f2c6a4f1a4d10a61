"""Dense complex-matrix kernel.

Everything downstream (processes, diagrams, theories) manipulates square
complex matrices; this module owns the handful of primitives they need:
tensor products, partial traces over named factors, the pairwise
contraction of labelled tensors, Hermitian eigenvalue bounds, the tolerance
record, and ``within``, the one rule that decides every approximate verdict.

Matrices are plain 2-D ``numpy`` arrays of ``complex128``. Sums and
contractions go through ``einsum``/BLAS with a fixed operand order, so
repeated runs of the same computation are bit-identical; comparisons
across runs still use the tolerances below.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "within",
    "DimensionMismatchError",
    "NotHermitianError",
    "dagger",
    "max_abs",
    "mats_close",
    "kron",
    "partial_trace",
    "factors_in_order",
    "contract",
    "min_eigenvalue_hermitian",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical slack used by every approximate test in the library.

    zero_abs: absolute threshold below which a value counts as zero.
    eq_rel:   relative threshold for equality of matrices and scalars.
    psd_rel:  relative threshold for positive-semidefiniteness tests.
    """

    zero_abs: float = 1e-12
    eq_rel: float = 1e-9
    psd_rel: float = 1e-9

    def __post_init__(self):
        for name in ("zero_abs", "eq_rel", "psd_rel"):
            if not getattr(self, name) >= 0:  # NaN too
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


DEFAULT_TOL = Tolerances()


def within(residual, rel, scale=0.0):
    """Is ``residual`` at most ``rel`` times the larger of ``scale`` and 1? NaN and inf never
    are: ``max(nan, 1.0)`` is nan, where ``max(1.0, nan)`` would be 1.0."""
    return residual <= rel * max(scale, 1.0) and residual < np.inf


class DimensionMismatchError(ValueError):
    """A matrix/factor dimension does not match its declared shape."""

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class NotHermitianError(ValueError):
    """Input required to be Hermitian was not; carries the asymmetry norm."""

    def __init__(self, asymmetry):
        super().__init__(f"matrix is not Hermitian: max |A - A^dagger| = {asymmetry:g}")
        self.asymmetry = asymmetry


def dagger(a):
    """Conjugate transpose."""
    return np.conjugate(np.asarray(a)).T


def max_abs(a):
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.abs(a).max())


def mats_close(a, b, tol: Tolerances = DEFAULT_TOL):
    """Entrywise closeness, relative to the larger of 1 and both operands."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    return within(max_abs(a - b), tol.eq_rel, max(max_abs(a), max_abs(b)))


def kron(a, b):
    """Tensor (Kronecker) product: entry ((i*rb+k),(j*cb+l)) = a[i,j]*b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(a, dims, keep):
    """Trace out all factors of a square matrix except those in ``keep``.

    ``dims`` lists the factor dimensions (their product must equal the side
    of ``a``); ``keep`` is an iterable of factor indices to retain, and the
    result's factors appear in increasing index order. Keeping every factor
    returns ``a`` unchanged; keeping none yields a 1x1 matrix holding the
    full trace.
    """
    a = np.asarray(a, dtype=complex)
    dims = [int(d) for d in dims]
    for pos, d in enumerate(dims):
        if d < 1:
            raise DimensionMismatchError(f"factor {pos} has nonpositive dimension {d}", factor=pos)
    side = prod(dims)
    if a.shape != (side, side):
        raise DimensionMismatchError(
            f"matrix side {a.shape} does not match factor dimensions {dims} (product {side})",
            factor=None,
        )
    keep = sorted(set(int(k) for k in keep))
    for k in keep:
        if k < 0 or k >= len(dims):
            raise DimensionMismatchError(f"keep index {k} out of range for {len(dims)} factors", factor=k)
    n = len(dims)
    bra = [n + i if i in keep else i for i in range(n)]  # a dropped factor's bra is its ket
    t = contract(a.reshape(dims + dims), list(range(n)) + bra, keep + [n + k for k in keep])
    kept_side = prod(dims[k] for k in keep)
    return t.reshape(kept_side, kept_side)


def factors_in_order(a, dims, order):
    """Move the tensor factors of a square matrix into increasing index order.

    ``a`` acts on factors ``order[0], order[1], ...`` (a permutation of
    ``range(len(dims))``) in that order; factor ``i`` has dimension ``dims[i]``.
    """
    n = len(order)
    inv = sorted(range(n), key=order.__getitem__)
    t = a.reshape([dims[i] for i in order] * 2)
    return t.transpose(inv + [n + k for k in inv]).reshape(a.shape)


# Loop size (product of the dims of all labels) up to which one ``np.einsum``
# call costs less than a transpose-reshape-matmul; measured at d = 2..8.
_EINSUM_MAX_LOOP = 512


def _sum_repeated(t, labels, other, out):
    """``t`` with each label it holds more than once cut to its diagonal, which is summed
    unless ``other`` or ``out`` holds the label too, and the labels left, each once."""
    if len(set(labels)) == len(labels):
        return t, labels
    kept = [l for l in dict.fromkeys(labels) if l in other or l in out or labels.count(l) == 1]
    return contract(t, labels, kept), kept


def contract(*operands):
    """``np.einsum(a, la, out)`` or ``np.einsum(a, la, b, lb, out)``, any hashable labels.

    Labels are renumbered on each call, so numpy's limit of 52 subscripts
    bounds the legs of one call, never a whole network. A pair whose loop exceeds
    ``_EINSUM_MAX_LOOP`` first sums each label one operand holds twice (a self-loop),
    and runs as one matrix product if it then keeps exactly its unshared labels.
    """
    *pairs, out = operands
    if len(pairs) == 4 and pairs[0].size * pairs[2].size > _EINSUM_MAX_LOOP:  # else no loop exceeds it
        a, la = _sum_repeated(pairs[0], list(pairs[1]), pairs[3], out)
        b, lb = _sum_repeated(pairs[2], list(pairs[3]), la, out)
        pairs = [a, la, b, lb]  # what was summed is not summed again below
        sa, sb = set(la), set(lb)
        dims = dict(zip(la, a.shape))
        plain = (len(set(out)) == len(out) and set(out) == sa ^ sb
                 and all(dims.setdefault(l, d) == d for l, d in zip(lb, b.shape)))
        if plain and prod(dims.values()) > _EINSUM_MAX_LOOP:
            shared = [l for l in la if l in sb]
            free = [l for l in la if l not in sb] + [l for l in lb if l not in sa]
            k = prod(dims[l] for l in shared)
            am = a.transpose([la.index(l) for l in free if l in sa] + [la.index(l) for l in shared])
            bm = b.transpose([lb.index(l) for l in shared] + [lb.index(l) for l in free if l in sb])
            t = am.reshape(-1, k) @ bm.reshape(k, -1)
            return t.reshape([dims[l] for l in free]).transpose([free.index(l) for l in out])
    local = {}
    args = []
    for k in range(0, len(pairs), 2):
        args += [pairs[k], [local.setdefault(l, len(local)) for l in pairs[k + 1]]]
    return np.einsum(*args, [local[l] for l in out])


def min_eigenvalue_hermitian(a, tol: Tolerances = DEFAULT_TOL):
    """Smallest eigenvalue of the Hermitian part of ``a``.

    Accuracy is that of the backend solver, psd_rel * ||a|| in the contract;
    raises NotHermitianError when ``a`` is not ``mats_close`` to its own
    adjoint, which a matrix holding NaN never is.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got {a.shape}")
    if not mats_close(a, dagger(a), tol):
        raise NotHermitianError(max_abs(a - dagger(a)))
    herm = (a + dagger(a)) / 2
    if herm.shape == (0, 0):
        raise DimensionMismatchError("empty matrix has no eigenvalues")
    return float(np.linalg.eigvalsh(herm)[0])

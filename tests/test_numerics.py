import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proctheory import numerics
from proctheory.numerics import (
    DimensionMismatchError,
    NotHermitianError,
    Tolerances,
    contract,
    factors_in_order,
    kron,
    min_eigenvalue_hermitian,
    partial_trace,
)


def kron_oracle(a, b):
    """Elementwise four-index definition of the tensor product."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def charpoly_eigs(a):
    """Eigenvalues via Faddeev-LeVerrier coefficients and companion roots."""
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.roots(coeffs)


def rand_complex(rng, r, c):
    return rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))


def test_kron_identities():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(kron(np.diag([1, 0]), np.diag([0, 1])), np.diag([0, 1, 0, 0]))


def test_kron_matches_elementwise_oracle():
    rng = np.random.default_rng(11)
    a, b = rand_complex(rng, 2, 2), rand_complex(rng, 2, 2)
    assert np.allclose(kron(a, b), kron_oracle(a, b))


def test_kron_associative_and_bilinear():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a, b, c = (rand_complex(rng, 2, 2) for _ in range(3))
        assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-9)
        s, t = rng.normal(), rng.normal()
        assert np.allclose(kron(s * a + t * b, c), s * kron(a, c) + t * kron(b, c), atol=1e-9)


def test_partial_trace_identity_and_noop():
    assert np.allclose(partial_trace(np.eye(4), [2, 2], keep={0}), 2 * np.eye(2))
    a = rand_complex(np.random.default_rng(0), 6, 6)
    assert np.allclose(partial_trace(a, [2, 3], keep={0, 1}), a)


def test_partial_trace_bell_projector():
    # explicit 4x4 computation: the reduced state of a Bell pair is maximally mixed
    bell = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            bell[i * 2 + i, j * 2 + j] = 0.5
    assert np.allclose(partial_trace(bell, [2, 2], keep={0}), np.eye(2) / 2)


def test_partial_trace_composes_to_full_trace():
    rng = np.random.default_rng(13)
    a = rand_complex(rng, 12, 12)
    t1 = partial_trace(a, [2, 3, 2], keep={1})
    assert np.allclose(partial_trace(t1, [3], keep=set()), np.trace(a))
    assert np.allclose(partial_trace(a, [2, 3, 2], keep=set()), np.trace(a))


def test_partial_trace_errors_name_offenders():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(5), [2, 2], keep={0})
    with pytest.raises(DimensionMismatchError) as exc:
        partial_trace(np.eye(4), [2, 2], keep={3})
    assert exc.value.factor == 3


def reference_partial_trace(a, dims, keep):
    """The former ``partial_trace``: one ``np.trace`` per dropped factor."""
    dims = [int(d) for d in dims]
    keep = sorted(set(keep))
    t = np.asarray(a, dtype=complex).reshape(dims + dims)
    for i in sorted((i for i in range(len(dims)) if i not in keep), reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    side = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(side, side)


@given(st.lists(st.integers(1, 3), min_size=0, max_size=5).flatmap(
    lambda dims: st.tuples(st.just(dims), st.sets(st.integers(0, max(len(dims) - 1, 0)),
                                                  max_size=len(dims)))))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_partial_trace_matches_reference(case):
    dims, keep = case
    side = int(np.prod(dims))
    a = rand_complex(np.random.default_rng(side + len(keep)), side, side)
    got, want = partial_trace(a, dims, keep), reference_partial_trace(a, dims, keep)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(a).sum()))


@given(st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_partial_trace_keep_all_roundtrip(da, db):
    rng = np.random.default_rng(da * 7 + db)
    a = rand_complex(rng, da * db, da * db)
    assert np.allclose(partial_trace(a, [da, db], keep={0, 1}), a)


def test_min_eigenvalue_simple():
    assert min_eigenvalue_hermitian(np.eye(2)) == pytest.approx(1.0)
    assert min_eigenvalue_hermitian(np.diag([3.0, -1.0])) == pytest.approx(-1.0)


def test_min_eigenvalue_matches_charpoly_oracle():
    rng = np.random.default_rng(14)
    g = rand_complex(rng, 4, 4)
    h = (g + g.conj().T) / 2
    got = min_eigenvalue_hermitian(h)
    want = min(charpoly_eigs(h).real)
    assert got == pytest.approx(want, abs=1e-8)


def test_min_eigenvalue_rejects_non_hermitian():
    with pytest.raises(NotHermitianError) as exc:
        min_eigenvalue_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert exc.value.asymmetry == pytest.approx(1.0)


def test_min_eigenvalue_of_kron_psd():
    rng = np.random.default_rng(15)
    for _ in range(10):
        ga, gb = rand_complex(rng, 2, 2), rand_complex(rng, 2, 2)
        a, b = ga @ ga.conj().T, gb @ gb.conj().T
        lhs = min_eigenvalue_hermitian(kron(a, b))
        ea = np.linalg.eigvalsh(a)
        eb = np.linalg.eigvalsh(b)
        want = min(x * y for x in ea for y in eb)
        assert lhs == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_tolerances_validate():
    t = Tolerances()
    assert t.zero_abs == 1e-12 and t.eq_rel == 1e-9 and t.psd_rel == 1e-9
    with pytest.raises(ValueError):
        Tolerances(zero_abs=-1.0)
    for name in ("zero_abs", "eq_rel", "psd_rel"):  # NaN would make every closeness test False
        with pytest.raises(ValueError, match=name):
            Tolerances(**{name: float("nan")})


# ---------------------------------------------------------------------------
# Pairwise contraction kernel, against np.einsum on the same labels


def close_rel(got, want, rel=1e-12):
    return np.max(np.abs(got - want), initial=0.0) <= rel * max(1.0, np.max(np.abs(want), initial=0.0))


@st.composite
def labelled_pairs(draw):
    """Two tensors over up to 8 labels of dim 1-4, and an output list.

    Each label sits on a, b or both; the output is mostly the unshared labels
    in a random order, else (einsum's other cases) any subset of the labels.
    """
    n = draw(st.integers(0, 8))
    dims = draw(st.lists(st.integers(1, 4) | st.integers(3, 4), min_size=n, max_size=n))
    where = draw(st.lists(st.sampled_from(["a", "b", "ab"]), min_size=n, max_size=n))
    la = draw(st.permutations([i for i in range(n) if "a" in where[i]]))
    lb = draw(st.permutations([i for i in range(n) if "b" in where[i]]))
    free = [i for i in range(n) if where[i] != "ab"]
    keep = draw(st.sampled_from(["free", "free", "free", "other"]))
    out = free if keep == "free" else draw(st.lists(st.sampled_from(range(n)), unique=True)) if n else []
    out = draw(st.permutations(out))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a = rand_complex(rng, 1, int(np.prod([dims[i] for i in la]))).reshape([dims[i] for i in la])
    b = rand_complex(rng, 1, int(np.prod([dims[i] for i in lb]))).reshape([dims[i] for i in lb])
    return a, list(la), b, list(lb), list(out)


@given(labelled_pairs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_contract_matches_einsum(case):
    a, la, b, lb, out = case
    want = np.einsum(a, la, b, lb, out)
    # labels of any hashable kind: renumbered per call
    name = {i: ("wire", i) for i in range(9)}
    got = contract(a, [name[i] for i in la], b, [name[i] for i in lb], [name[i] for i in out])
    assert got.shape == want.shape
    assert close_rel(got, want)


@pytest.mark.parametrize("d, by_einsum", [(2, True), (3, False), (4, False)])
def test_contract_dispatches_on_size(monkeypatch, d, by_einsum):
    """compose_seq's pattern: d = 2 loops over 2**6 = 64 entries, d = 3 over 729."""
    rng = np.random.default_rng(d)
    f, g = rand_complex(rng, d**2, d**2).reshape((d,) * 4), rand_complex(rng, d**2, d**2).reshape((d,) * 4)
    want = np.einsum("abAB,bcBC->acAC", f, g)
    calls = []
    real = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    got = contract(f, "abAB", g, "bcBC", "acAC")
    assert bool(calls) == by_einsum
    assert close_rel(got, want)
    # an outer product (no shared label) takes the same route
    calls.clear()
    got = contract(f, "abAB", g, "cdCD", "acbdACBD")
    assert bool(calls) == by_einsum
    assert close_rel(got, real("abAB,cdCD->acbdACBD", f, g))
    assert numerics._EINSUM_MAX_LOOP == 512


@pytest.mark.parametrize("d", [2, 4])
def test_contract_chain_beyond_52_labels(d):
    """A chain of 30 channel-shaped tensors uses 62 labels in all; each call sees 6."""
    rng = np.random.default_rng(16)
    links = [rand_complex(rng, d * d, d * d).reshape(d, d, d, d) / d for _ in range(30)]
    t, open_ = links[0], [0, 1, 100, 101]  # wire k: ket k, bra 100 + k
    for k, x in enumerate(links[1:], start=1):
        t = contract(t, open_, x, [k, k + 1, 100 + k, 101 + k], [0, k + 1, 100, 101 + k])
        open_ = [0, k + 1, 100, 101 + k]
    # oracle: T[a, b, A, B] is the matrix M[(a, A), (b, B)], and wiring is a matrix product
    as_matrix = lambda x: x.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    want = np.linalg.multi_dot([as_matrix(x) for x in links])
    assert close_rel(as_matrix(t), want)


def test_factors_in_order_matches_kron():
    rng = np.random.default_rng(17)
    a, b, c = rand_complex(rng, 2, 2), rand_complex(rng, 3, 3), rand_complex(rng, 4, 4)
    # kron(b, c, a) acts on factors (1, 2, 0); in order it is kron(a, b, c)
    moved = factors_in_order(kron(kron(b, c), a), [2, 3, 4], [1, 2, 0])
    assert close_rel(moved, kron(kron(a, b), c))

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proctheory import groups as G
from proctheory import numerics
from proctheory import processes as P
from proctheory import theories as T
from proctheory.numerics import (
    DimensionMismatchError,
    NotHermitianError,
    Tolerances,
    contract,
    factors_in_order,
    kron,
    mats_close,
    min_eigenvalue_hermitian,
    partial_trace,
    within,
)
from proctheory.systems import C, Q, TRIVIAL


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


def test_mats_close_of_different_shapes_is_false():
    assert mats_close(np.eye(2), np.eye(3)) is False


# Input checks: each row calls a public function with an input it rejects, and names
# the exception and its message.
REJECTED = [
    (lambda: partial_trace(np.eye(1), [1, 0], {0}), DimensionMismatchError, "factor 1 has nonpositive dimension 0"),
    (lambda: min_eigenvalue_hermitian(np.zeros((2, 3))), DimensionMismatchError, "expected square matrix, got (2, 3)"),
    (lambda: min_eigenvalue_hermitian(np.zeros((0, 0))), DimensionMismatchError, "empty matrix has no eigenvalues"),
]

@pytest.mark.parametrize("call, exc, message", REJECTED)
def test_rejected_input_raises_its_message(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


def test_tolerances_validate():
    t = Tolerances()
    assert t.zero_abs == 1e-12 and t.eq_rel == 1e-9 and t.psd_rel == 1e-9
    with pytest.raises(ValueError):
        Tolerances(zero_abs=-1.0)
    for name in ("zero_abs", "eq_rel", "psd_rel"):  # NaN would make every closeness test False
        with pytest.raises(ValueError, match=name):
            Tolerances(**{name: float("nan")})


def accepts(build, *args):
    try:
        build(*args)
    except ValueError:  # NotHermitianError too
        return False
    return True


def rep_violations(group, *action, tol=Tolerances()):
    return G.validate_representation(G.Representation(group, Q(2), (np.eye(2), *action)), tol)


BIG = 1e3  # the operands' norm: a bound relative to max(1, |x|) is 10**3 times its tolerance
ROOT_BIG = np.sqrt(BIG) * np.eye(2)
Z2 = G.cyclic_group(2)
# (site, verdict on x, x just inside the scaled bound, x just outside it). At the default
# tolerances eq_rel * 10**3 = psd_rel * 10**3 = 1e-6 and zero_abs * 10**3 = 1e-9. The scale of a
# scalar or of a near-unitary passes 1 only far from the ideal, so those two rows move the tolerance.
RELATIVE_SCALE_ROWS = [
    ("mats_close", lambda d: mats_close(BIG * np.eye(2), BIG * np.eye(2) + d * np.eye(2)[::-1]), 0.9e-6, 1.1e-6),
    ("min_eigenvalue_hermitian", lambda d: accepts(min_eigenvalue_hermitian, [[BIG, d], [0, BIG]]), 0.9e-6, 1.1e-6),
    ("ProcessTensor psd", lambda d: accepts(P.effect, np.diag([BIG, -d]), Q(2)), 0.9e-6, 1.1e-6),
    ("ProcessTensor decoherence", lambda d: accepts(P.effect, [[BIG, d], [d, 1]], C(2)), 0.9e-9, 1.1e-9),
    ("Scalar", lambda zero_abs: accepts(P.Scalar, -BIG, Tolerances(zero_abs=zero_abs)), 1.001, 0.999),
    ("as_scalar", lambda d: accepts(P.as_scalar, P.ProcessTensor(TRIVIAL, TRIVIAL, [[BIG + 1j * d]],
                                                                 Tolerances(eq_rel=1e-3))), 0.9e-6, 1.1e-6),
    ("qneut", lambda x: T.membership(T.QNEUT, P.effect(np.diag([BIG, x]), Q(2))).ok, 1.1e-6, 0.9e-6),
    ("validate_representation unitary", lambda eq_rel: "element 1 does not act unitarily"
     not in rep_violations(Z2, ROOT_BIG, tol=Tolerances(eq_rel=eq_rel)), 0.9991, 0.9989),
    ("validate_representation homomorphism", lambda d: "homomorphism fails at pair (1, 1)"
     not in rep_violations(G.cyclic_group(3), ROOT_BIG, np.diag([BIG + d, BIG])), 0.9e-6, 1.1e-6),
    ("is_intertwiner", lambda d: G.is_intertwiner(P.effect([[BIG, d], [d, 1]], Q(2)), G.Representation(
        Z2, Q(2), (np.eye(2), np.diag([1.0, -1.0]))), G.trivial_rep(Z2, TRIVIAL)), 0.45e-6, 0.55e-6),
]


@pytest.mark.parametrize("verdict, inside, outside", [row[1:] for row in RELATIVE_SCALE_ROWS],
                         ids=[row[0] for row in RELATIVE_SCALE_ROWS])
def test_tolerance_is_relative_to_operands_above_one(verdict, inside, outside):
    assert (verdict(inside), verdict(outside)) == (True, False)


# ---------------------------------------------------------------------------
# One rule, numerics.within, for every comparison with a tolerance


def test_within_is_non_strict_floors_the_scale_at_one_and_never_passes_nan():
    past = np.nextafter(1e-9, 1)
    assert (within(1e-9, 1e-9), within(past, 1e-9)) == (True, False)
    assert (within(1e-9, 1e-9, 0.5), within(past, 1e-9, 0.5)) == (True, False)
    assert (within(2e-9, 1e-9, 2.0), within(np.nextafter(2e-9, 1), 1e-9, 2.0)) == (True, False)
    assert (within(np.nan, 1e-9), within(0.0, 1e-9, np.nan), within(np.nan, np.inf)) == (False, False, False)


def test_a_nan_entry_passes_no_verdict():
    with pytest.raises(ValueError):
        min_eigenvalue_hermitian([[np.nan, 0], [0, 1]])
    rep = G.Representation(Z2, Q(2), (np.eye(2), [[np.nan, 0], [0, 1]]))
    pairs = [f"homomorphism fails at pair {p}" for p in ((0, 1), (1, 0), (1, 1))]
    assert G.validate_representation(rep) == ["element 1 does not act unitarily", *pairs]
    assert G.is_intertwiner(P.identity(Q(2)), rep, rep) is False


def test_an_infinite_residual_passes_no_verdict():
    assert (within(np.inf, 1e-9), within(np.inf, 1e-9, np.inf), within(np.inf, np.inf)) == (False, False, False)
    assert (within(1e300, np.inf), within(0.0, np.inf, np.inf)) == (True, True)  # a finite one still can
    assert mats_close([[np.inf]], [[0]]) is False
    assert mats_close([[1e300]], [[0]], Tolerances(eq_rel=np.inf)) is True
    # a trusted composite that overflowed: discarding its outputs leaves inf, never the discard
    overflowed = P.ProcessTensor._trusted(Q(2), Q(2), np.full((4, 4), np.inf))
    assert P.is_causal(overflowed) is False


def test_a_residual_exactly_at_the_bound_is_within_it():
    """``is_zero`` passes at its bound; ``qneut`` is strict, so a least eigenvalue there fails."""
    zero_at, zero_past = 1e-12, np.nextafter(1e-12, 1)
    assert (P.is_zero(P.state([[zero_at]], Q(1))), P.is_zero(P.state([[zero_past]], Q(1)))) == (True, False)
    qneut = lambda x: T.membership(T.QNEUT, P.effect(np.diag([1, x]), Q(2))).ok
    assert (qneut(1e-9), qneut(np.nextafter(1e-9, 1))) == (False, True)


TOLERANCE_FIELDS = {"zero_abs", "eq_rel", "psd_rel"}


@pytest.mark.parametrize("module", [numerics, P, T, G], ids=lambda m: m.__name__)
def test_tolerance_fields_reach_a_verdict_only_through_within(module):
    """No comparison reads a ``Tolerances`` field; each one read is an argument of ``within``."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    fields = lambda node: [n for n in ast.walk(node)
                           if isinstance(n, ast.Attribute) and n.attr in TOLERANCE_FIELDS]
    compared = [n.lineno for c in ast.walk(tree) if isinstance(c, ast.Compare) for n in fields(c)]
    passed = {id(a) for c in ast.walk(tree)
              if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "within" for a in c.args}
    assert (compared, [n.lineno for n in fields(tree) if id(n) not in passed]) == ([], [])


# ---------------------------------------------------------------------------
# Pairwise contraction kernel, against np.einsum on the same labels


def close_rel(got, want, rel=1e-12):
    return np.max(np.abs(got - want), initial=0.0) <= rel * max(1.0, np.max(np.abs(want), initial=0.0))


@st.composite
def labelled_pairs(draw):
    """Two tensors over up to 8 labels of dim 1-4, and an output list.

    Each label sits on a, b or both, and up to two of a's labels and one of
    b's sit there twice; the output is mostly the unshared labels in a random
    order, else (einsum's other cases) any subset of the labels.
    """
    n = draw(st.integers(0, 8))
    dims = draw(st.lists(st.integers(1, 4) | st.integers(3, 4), min_size=n, max_size=n))
    where = draw(st.lists(st.sampled_from(["a", "b", "ab"]), min_size=n, max_size=n))
    la = [i for i in range(n) if "a" in where[i]]
    lb = [i for i in range(n) if "b" in where[i]]
    # a label an operand holds twice: summed there (a self-loop), or a diagonal where the
    # other operand or the output holds it too
    la = draw(st.permutations(la + draw(st.lists(st.sampled_from(la), max_size=2, unique=True)) if la else []))
    lb = draw(st.permutations(lb + draw(st.lists(st.sampled_from(lb), max_size=1)) if lb else []))
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


@pytest.mark.parametrize("d, einsum_operands", [(2, [1, 2]), (3, [1])])
def test_contract_sums_a_self_loop_before_the_pair(monkeypatch, d, einsum_operands):
    """compose_seq's pattern with a self-loop on the first operand (x and X twice): the loop is
    summed inside that operand first, so the pair runs as one matrix product at d = 3 (729
    entries) and as one more einsum at d = 2 (64), never as one einsum over all 12 labels."""
    rng = np.random.default_rng(d)
    f = rand_complex(rng, d**4, d**4).reshape((d,) * 8)
    g = rand_complex(rng, d**2, d**2).reshape((d,) * 4)
    want = np.einsum("axbxAXBX,bcBC->acAC", f, g)
    calls = []
    real = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args, **kw: calls.append(len(args) // 2) or real(*args, **kw))
    got = contract(f, "axbxAXBX", g, "bcBC", "acAC")
    assert calls == einsum_operands
    assert close_rel(got, want)


def test_contract_keeps_a_repeated_label_the_other_operand_and_output_hold():
    """x sits twice on f and once on g and in the output, so einsum takes f's diagonal in x and
    sums nothing over it: summing it inside f would leave a pair that looks plain."""
    rng = np.random.default_rng(18)
    f = rand_complex(rng, 3**3, 3**3).reshape((3,) * 6)
    g = rand_complex(rng, 3**2, 3**2).reshape((3,) * 4)
    got = contract(f, "axbxAB", g, "bBxc", "aAxc")
    assert close_rel(got, np.einsum("axbxAB,bBxc->aAxc", f, g))


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

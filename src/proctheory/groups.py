"""Finite groups, unitary representations, intertwiners, and the
no-signalling membership test for processes over causal and retrocausal wires.

Groups are explicit Cayley tables (every axiom is checked by exhaustive
scan), representations assign a unitary on the quantum factors of a system
to each group element (classical factors always transform trivially), and
the conjugate representation acts entrywise-conjugated on the
orientation-flipped system.

A boundary factor oriented up is causal (forward in time) and one oriented
down (``dual``) is retrocausal; the orientation is the only record of time
direction. A process is no-signalling when discarding its causal outputs
disconnects it from the causal inputs, and symmetrically when noise-feeding
its retrocausal inputs disconnects the retrocausal outputs. The two
directions, and the intertwiner, are the laws of the particle/antiparticle
row ``qpart`` of ``theories.THEORIES``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .diagram import ENTRY, read_entries
from .numerics import (
    DEFAULT_TOL, Tolerances, dagger as mat_dagger, factors_in_order, max_abs, partial_trace, within,
)
from .processes import ProcessTensor, obeys
from .systems import CLASSICAL, DOWN, QUANTUM, Q, SystemType

__all__ = [
    "FiniteGroup",
    "validate_group",
    "cyclic_group",
    "permutation_group",
    "symmetric_group_s3",
    "Representation",
    "validate_representation",
    "trivial_rep",
    "tensor_rep",
    "conjugate_rep",
    "is_intertwiner",
    "NoSignallingVerdict",
    "no_signalling_part",
    "no_signalling",
    "load_representation",
    "parse_representation",
]


# ---------------------------------------------------------------------------
# Groups

@dataclass(frozen=True)
class FiniteGroup:
    order: int
    table: np.ndarray = field(repr=False)  # table[i, j] = index of g_i * g_j
    identity: int = 0

    def __post_init__(self):
        table = np.asarray(self.table, dtype=int)
        if table.shape != (self.order, self.order):
            raise ValueError(f"Cayley table must be {self.order}x{self.order}, got {table.shape}")
        table = table.copy()
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def mul(self, a, b):
        return int(self.table[a, b])

    def inverse(self, a):
        hits = np.nonzero(self.table[a] == self.identity)[0]
        if len(hits) == 0:
            raise ValueError(f"element {a} has no inverse")
        return int(hits[0])

    def elements(self):
        return range(self.order)


def validate_group(g: FiniteGroup):
    """Exhaustively check the group axioms; returns a list of violations."""
    bad = []
    n = g.order
    if not 0 <= g.identity < n:
        return [f"identity element {g.identity} out of range"]
    if not ((0 <= g.table) & (g.table < n)).all():
        return ["table entries out of range"]
    for a in range(n):
        if g.table[g.identity, a] != a or g.table[a, g.identity] != a:
            bad.append(f"identity law fails at element {a}")
    for a in range(n):
        if g.identity not in g.table[a]:
            bad.append(f"element {a} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if g.table[g.table[a, b], c] != g.table[a, g.table[b, c]]:
                    bad.append(f"associativity fails at triple ({a}, {b}, {c})")
    return bad


def cyclic_group(n):
    table = np.fromfunction(lambda i, j: (i + j) % n, (n, n), dtype=int)
    return FiniteGroup(n, table, 0)


def permutation_group(perms):
    """Group generated by an explicit, composition-closed list of permutations.

    ``perms[k]`` maps position i to perms[k][i]; perms[0] must be the
    identity permutation and the list must be closed under composition.
    """
    perms = [tuple(p) for p in perms]
    index = {p: k for k, p in enumerate(perms)}
    n = len(perms)
    table = np.zeros((n, n), dtype=int)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            comp = tuple(pa[pb[i]] for i in range(len(pa)))  # a after b
            if comp not in index:
                raise ValueError(f"permutation list not closed: {pa} after {pb} = {comp}")
            table[a, b] = index[comp]
    return FiniteGroup(n, table, index[tuple(range(len(perms[0])))])


S3_PERMS = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]


def symmetric_group_s3():
    """S3 via composition of the six permutations of three points."""
    return permutation_group(S3_PERMS)


def s3_standard_representation():
    """The 2-dimensional standard representation of S3 on a qubit.

    Built by restricting the permutation matrices to the plane orthogonal
    to (1,1,1), so the homomorphism property is inherited exactly.
    """
    group = symmetric_group_s3()
    basis = np.array(
        [
            [1 / np.sqrt(2), 1 / np.sqrt(6)],
            [-1 / np.sqrt(2), 1 / np.sqrt(6)],
            [0.0, -2 / np.sqrt(6)],
        ]
    )
    mats = []
    for p in S3_PERMS:
        m = np.zeros((3, 3))
        for i in range(3):
            m[p[i], i] = 1.0
        mats.append(basis.T @ m @ basis)
    return Representation(group, Q(2), tuple(np.asarray(m, dtype=complex) for m in mats))


# ---------------------------------------------------------------------------
# Representations

@dataclass(frozen=True)
class Representation:
    group: FiniteGroup
    system: SystemType
    action: tuple = field(repr=False)  # unitary on the quantum factors, per element

    def __post_init__(self):
        action = tuple(np.array(u, dtype=complex) for u in self.action)  # own copies, frozen below
        if len(action) != self.group.order:
            raise ValueError(f"need {self.group.order} unitaries, got {len(action)}")
        dq = self.quantum_dim
        for k, u in enumerate(action):
            if u.shape != (dq, dq):
                raise ValueError(f"unitary for element {k} has shape {u.shape}, expected {(dq, dq)}")
            u.setflags(write=False)
        object.__setattr__(self, "action", action)

    @property
    def quantum_dim(self):
        return _quantum_dim(self.system)

    def unitary(self, g):
        """Unitary on the full system (classical factors act as identity)."""
        facs = self.system.factors
        order = [i for i, f in enumerate(facs) if f.kind == QUANTUM]
        order += [i for i, f in enumerate(facs) if f.kind == CLASSICAL]
        eye = np.eye(self.system.total_dim // self.quantum_dim)
        return factors_in_order(np.kron(self.action[g], eye), [f.dim for f in facs], order)


def validate_representation(r: Representation, tol: Tolerances = DEFAULT_TOL):
    """Check homomorphism, unit, and unitarity; returns violations."""
    bad = []
    g = r.group
    dq = r.quantum_dim
    eye = np.eye(dq)
    if not within(max_abs(r.action[g.identity] - eye), tol.eq_rel):
        bad.append("identity element does not act as the identity")
    for a in g.elements():
        u = r.action[a]
        if not within(max_abs(u @ mat_dagger(u) - eye), tol.eq_rel, max_abs(u) ** 2):
            bad.append(f"element {a} does not act unitarily")
    for a in g.elements():
        for b in g.elements():
            lhs = r.action[a] @ r.action[b]
            rhs = r.action[g.mul(a, b)]
            if not within(max_abs(lhs - rhs), tol.eq_rel, max_abs(lhs)):
                bad.append(f"homomorphism fails at pair ({a}, {b})")
    return bad


def _quantum_dim(system: SystemType):
    return prod(f.dim for f in system.factors if f.kind == QUANTUM)


def trivial_rep(group: FiniteGroup, system: SystemType):
    dq = _quantum_dim(system)
    return Representation(group, system, tuple(np.eye(dq, dtype=complex) for _ in group.elements()))


def tensor_rep(a: Representation, b: Representation):
    """Representation of the composite system, acting factor-wise."""
    if a.group is not b.group and not np.array_equal(a.group.table, b.group.table):
        raise ValueError("cannot tensor representations of different groups")
    action = tuple(np.kron(a.action[g], b.action[g]) for g in a.group.elements())
    return Representation(a.group, a.system * b.system, action)


def conjugate_rep(a: Representation):
    """Entrywise-conjugate action on the orientation-flipped system."""
    return Representation(a.group, a.system.dual(), tuple(u.conj() for u in a.action))


def is_intertwiner(
    f: ProcessTensor, rep_in: Representation, rep_out: Representation, tol: Tolerances = DEFAULT_TOL
):
    """Covariance: f . Ad_{U_in(g)} = Ad_{U_out(g)} . f for every group element.

    Equivalently the Choi operator is invariant under conjugation by
    conj(U_in(g)) (x) U_out(g). Both must represent one group: one Cayley table.
    """
    if not rep_in.system.same_carrier(f.input):
        raise ValueError(f"input representation lives on {rep_in.system}, process input is {f.input}")
    if not rep_out.system.same_carrier(f.output):
        raise ValueError(f"output representation lives on {rep_out.system}, process output is {f.output}")
    if rep_in.group is not rep_out.group and not np.array_equal(rep_in.group.table, rep_out.group.table):
        raise ValueError("rep_in and rep_out represent different groups")
    for g in rep_in.group.elements():
        u = np.kron(rep_in.unitary(g).conj(), rep_out.unitary(g))
        moved = u @ f.choi @ mat_dagger(u)
        if not within(max_abs(moved - f.choi), tol.eq_rel, max_abs(f.choi)):
            return False
    return True


# ---------------------------------------------------------------------------
# No-signalling: boundary factors oriented up are causal, down retrocausal

@dataclass
class NoSignallingVerdict:
    ok: bool
    causal_to_retro: bool
    retro_to_causal: bool
    residual_causal_to_retro: float
    residual_retro_to_causal: float
    f_c: ProcessTensor | None = None
    f_r: ProcessTensor | None = None
    notes: list = field(default_factory=list)

    def failed_directions(self):
        out = []
        if not self.causal_to_retro:
            out.append("causal->retro")
        if not self.retro_to_causal:
            out.append("retro->causal")
        return out


def _matches_identity_product(choi, dims, eye_positions):
    """Does choi factor as 1 on eye_positions (x) residue/dim elsewhere?

    Returns (residual, residue as a matrix on the kept positions).
    """
    kept = [i for i in range(len(dims)) if i not in eye_positions]
    d_eyes = prod(dims[p] for p in eye_positions)
    residue = partial_trace(choi, dims, kept) / d_eyes
    expected = factors_in_order(np.kron(np.eye(d_eyes), residue), dims, list(eye_positions) + kept)
    return max_abs(choi - expected) / max(1.0, max_abs(choi)), residue


def _sub_system(s: SystemType, retro):
    return SystemType(tuple(fac for fac in s.factors if (fac.orientation == DOWN) == retro))


def no_signalling_part(f: ProcessTensor, law, tol: Tolerances = DEFAULT_TOL):
    """One no-signalling direction, named by the law its extracted part must obey.

    ``retrocausal`` (causal->retro): trace out the causal outputs, require the rest to be
    1 on the causal inputs tensored with a residue, and read the residue as the retro part.
    ``causal`` (retro->causal): the same with the retro inputs traced and 1 on the retro
    outputs. The part, a partial trace of ``f``, is a process by construction: built
    unchecked. On a purely causal (retrocausal) boundary the ``causal`` (``retrocausal``)
    direction traces nothing and judges ``f`` itself by its law.

    Returns (ok, residual, the part when ok else None, a note when the part breaks ``law``).
    """
    retro = law == "retrocausal"
    factors, n_in = f.input.factors + f.output.factors, len(f.input.factors)
    dims = [fac.dim for fac in factors]
    other = [i for i, fac in enumerate(factors) if (fac.orientation == DOWN) != retro]
    traced = [i for i in other if (i >= n_in) == retro]
    eyes = [i for i in other if (i >= n_in) != retro]
    keep = [i for i in range(len(dims)) if i not in traced]
    g = partial_trace(f.choi, dims, keep)
    res, mat = _matches_identity_product(g, [dims[i] for i in keep], [keep.index(i) for i in eyes])
    part = ProcessTensor._trusted(_sub_system(f.input, retro), _sub_system(f.output, retro), mat)
    if not obeys(law, part, tol):
        return False, res, None, ("extracted retro part does not preserve the noise state" if retro
                                  else "extracted causal part is not trace preserving")
    ok = within(res, tol.eq_rel)
    return ok, res, part if ok else None, None


def no_signalling(f: ProcessTensor, tol: Tolerances = DEFAULT_TOL):
    """Check both no-signalling directions, extracting the factored marginals.

    Each boundary factor oriented up is causal, each oriented down retrocausal.
    Causal->retro: discarding all causal outputs must leave discarded causal
    inputs tensored with a retrocausal process F_r on the retro wires.
    Retro->causal: feeding noise into all retro inputs must leave a causal
    process F_c on the causal wires tensored with noise on the retro outputs.
    """
    ok_cr, res_cr, fr, note_cr = no_signalling_part(f, "retrocausal", tol)
    ok_rc, res_rc, fc, note_rc = no_signalling_part(f, "causal", tol)
    notes = [note for note in (note_cr, note_rc) if note]
    return NoSignallingVerdict(ok_cr and ok_rc, ok_cr, ok_rc, res_cr, res_rc, fc, fr, notes)


# ---------------------------------------------------------------------------
# Plain-text group/representation files

def _matrix_entry(tok):
    """One entry in the ``.pd`` entry syntax (``a``, ``bi`` or ``a+bi``), finite."""
    if ENTRY.fullmatch(tok) is None:
        raise ValueError(f"bad matrix entry {tok!r}")
    (value,) = read_entries(tok)
    if not np.isfinite(value):
        raise ValueError(f"matrix entry {tok} is not finite")
    return value


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(tok, field):
    """An integer field: an optional sign, then ASCII digits only, at most 18
    of them so that every value fits numpy's default integer."""
    if not _INTEGER.fullmatch(tok):
        raise ValueError(f"{field} must be an integer, got {tok!r}")
    if len(tok.lstrip("+-")) > 18:
        raise ValueError(f"{field} {tok} is too large")
    return int(tok)


def parse_representation(text):
    """Parse the table format: order and identity, Cayley rows, matrix side,
    then per-element row-major complex entries in the ``.pd`` entry syntax."""
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(tokens):
            raise ValueError("representation file ended early")
        out = tokens[pos : pos + n]
        pos += n
        return out

    order, identity = take(2)
    order, identity = _integer(order, "group order"), _integer(identity, "identity element")
    if order < 1:
        raise ValueError(f"group order must be >= 1, got {order}")
    table = np.array([[_integer(x, "Cayley table entry") for x in take(order)] for _ in range(order)])
    group = FiniteGroup(order, table, identity)
    side = _integer(take(1)[0], "matrix side")
    if side < 1:
        raise ValueError(f"matrix side must be >= 1, got {side}")
    mats = []
    for _ in range(order):
        entries = [_matrix_entry(tok) for tok in take(side * side)]
        mats.append(np.array(entries, dtype=complex).reshape(side, side))
    if pos != len(tokens):
        raise ValueError(f"{len(tokens) - pos} unexpected trailing tokens in representation file")
    return group, mats


def load_representation(path):
    """Load a (group, matrices) file as a Representation on a quantum system
    of the matrix side. A table that is not a group, or matrices that are not
    a unitary representation of it, raise ``ValueError`` naming the first
    violation."""
    with open(path, "r", encoding="utf-8") as fh:
        group, mats = parse_representation(fh.read())
    bad = validate_group(group)
    if bad:
        raise ValueError(f"not a group: {bad[0]}")
    rep = Representation(group, Q(mats[0].shape[0]), tuple(mats))
    bad = validate_representation(rep)
    if bad:
        raise ValueError(f"not a unitary representation: {bad[0]}")
    return rep

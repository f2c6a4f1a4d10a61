"""Hand-written expected outcomes for the committed `tests/data/pd` corpus.

Written from the `.pd` sources and the Choi convention documented in the
package (input (x) output, ``J = sum_ij |i><j| (x) E(|i><j|)``, classical
factors decohered), not from running the program.
"""

from __future__ import annotations

import itertools

import numpy as np

from gen import IDENTITY_CHOI_Q2


def wiring_choi(in_dims, perm, classical):
    """Choi operator of the channel that routes input factor ``perm[k]`` to output factor ``k``.

    ``classical`` flags the classical input factors; entries whose ket and
    bra differ on a classical factor are zero (decoherence).
    """
    side = int(np.prod(in_dims))
    out_dims = [in_dims[p] for p in perm]
    basis = list(itertools.product(*[range(d) for d in in_dims]))
    j = np.zeros((side * side, side * side), dtype=complex)
    for x, y in itertools.product(basis, repeat=2):
        if any(c and x[k] != y[k] for k, c in enumerate(classical)):
            continue
        ix = np.ravel_multi_index(x, in_dims)
        iy = np.ravel_multi_index(y, in_dims)
        ox = np.ravel_multi_index([x[p] for p in perm], out_dims)
        oy = np.ravel_multi_index([y[p] for p in perm], out_dims)
        j[ix * side + ox, iy * side + oy] = 1.0
    return j


def _bell_state():
    m = np.zeros((4, 4), dtype=complex)
    m[np.ix_([0, 3], [0, 3])] = 0.5
    return m


# file -> diagrams printed by `eval` in file order: (name, "in -> out" or None
# for a scalar, expected Choi matrix or scalar value)
GOOD_EVAL = {
    "bell_state.pd": [("Bell", "I -> Q(2) * Q(2)", _bell_state())],
    "born_rule.pd": [("Born", "I -> C(2)", np.diag([0.75, 0.25]))],
    "classical_post.pd": [("Readout", "C(2) -> C(2)", np.diag([0.9, 0.1, 0.2, 0.8]))],
    "complex_entries.pd": [("Rotate", "I -> Q(2)", np.full((2, 2), 0.5))],
    "dephasing_unital.pd": [("Deph", "Q(2) -> Q(2)", np.diag([1.0, 0, 0, 1.0]))],
    "discard_marginal.pd": [("Marginal", "I -> C(2)", np.diag([0.5, 0.5]))],
    "identity_boxes.pd": [
        ("Plain", "Q(2) * C(3) -> Q(2) * C(3)", wiring_choi([2, 3], [0, 1], [False, True]))
    ],
    "loop_classical.pd": [("LoopC", None, 3.0)],
    # d**2, not d: exact snake equations force the quantum loop value
    "loop_qubit.pd": [("Loop", None, 4.0)],
    "maxmix_noise.pd": [
        ("Mixed", "I -> Q(3)", np.eye(3) / 3),
        ("Noise", "I -> Q(3)", np.eye(3)),
    ],
    "snake.pd": [("Snake", "Q(2) -> Q(2)", IDENTITY_CHOI_Q2)],
    "state_effect_pairing.pd": [("Pairing", None, 0.5)],
    "swap_routing.pd": [
        ("Cross", "Q(2) * C(2) -> C(2) * Q(2)", wiring_choi([2, 2], [1, 0], [False, True]))
    ],
}

# file -> the `check` directives it holds, each of which must print `pass`
GOOD_CHECKS = {
    "bell_state.pd": ["causal Bell in qphys"],
    "born_rule.pd": ["causal Born in qphys", "member Born in qcalc-bullet"],
    "classical_post.pd": ["causal Readout in qphys"],
    "complex_entries.pd": ["causal Rotate in qphys", "member Rotate in qcalc-bullet"],
    "dephasing_unital.pd": [
        "causal Deph in qphys", "unital Deph in qphys-unital", "member Deph in qphys-unital",
    ],
    "discard_marginal.pd": ["causal Marginal in qphys"],
    "identity_boxes.pd": [
        "causal Plain in qphys", "retrocausal Plain in qcalc", "unital Plain in qphys-unital",
    ],
    "loop_classical.pd": [],
    "loop_qubit.pd": ["member Loop in qcalc"],
    "maxmix_noise.pd": [
        "causal Mixed in qphys", "retrocausal Noise in qcalc", "member Noise in qcalc",
    ],
    "snake.pd": ["causal Snake in qcalc", "retrocausal Snake in qcalc"],
    "state_effect_pairing.pd": ["member Pairing in qcalc"],
    "swap_routing.pd": ["causal Cross in qphys", "unital Cross in qphys-unital"],
}

# file -> (exit code of `eval --theory qphys`, rule of the first diagnostic);
# the rule is the one the file name announces
BAD_EVAL = {
    "bad_duplicate.pd": (2, "parse"),
    "bad_port_reuse.pd": (1, "structure"),
    "bad_rule_i.pd": (1, "i"),
    "bad_rule_ii.pd": (1, "ii"),
    "bad_rule_iii.pd": (1, "iii"),
    "bad_token.pd": (2, "parse"),
    "bad_undefined.pd": (2, "parse"),
}

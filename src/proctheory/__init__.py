"""Finite-dimensional quantum theory as a family of process theories.

Processes are completely positive maps on quantum/classical wire systems
stored as Choi operators; diagrams wire them together and evaluate by
tensor contraction. On top of the channel calculus the package builds the
time-symmetric constructions: the unital subtheory with its rescaled
dagger, the scale quotient and its renormalised-composition presentation,
the noise-restricted deterministic theory, group representations with
causal/retrocausal (particle/antiparticle) wires, and two-slot process
matrices. A seeded theorem suite verifies the structural facts numerically.
"""

from .numerics import Tolerances, DEFAULT_TOL
from .systems import C, Q, SystemType, TRIVIAL, WireFactor
from .processes import (
    ProcessTensor,
    Scalar,
    apply,
    as_scalar,
    cap,
    compose_par,
    compose_seq,
    cup,
    dagger_h,
    discard,
    effect,
    identity,
    is_causal,
    is_zero,
    max_mixed,
    noise_state,
    preserves_identity,
    preserves_max_mixed,
    state,
    swap,
)
from .theories import (
    NoiseParameter,
    ProcessClass,
    THEORIES,
    Theory,
    bullet_compose,
    canonical_rep,
    class_equal,
    dagger_unital,
    membership,
    noisy,
    normalization_scalar,
    quotient_compose,
    theory_by_name,
)
from .groups import (
    FiniteGroup,
    Representation,
    conjugate_rep,
    cyclic_group,
    is_intertwiner,
    no_signalling,
    symmetric_group_s3,
    tensor_rep,
    trivial_rep,
    validate_group,
    validate_representation,
)
from .higher_order import (
    HigherOrderMap,
    apply_process_matrix,
    bend,
    realize_process_matrix,
)
from .diagram import evaluate, parse, parse_file, plan, typecheck
from .suite import CheckReport, run_all

__version__ = "0.1.0"

# A toy model of particles and antiparticles: group representations on
# forward wires, conjugate representations on backward wires, and
# no-signalling between the two time directions.

import numpy as np

from proctheory.groups import (
    Representation, conjugate_rep, cyclic_group, is_intertwiner,
    no_signalling, s3_standard_representation,
    symmetric_group_s3, tensor_rep, trivial_rep, validate_group,
    validate_representation,
)
from proctheory.processes import (
    cap, channel_from_kraus, channel_from_unitary, classical_channel,
    compose_par, cup, dagger_h, random_cptp, random_unitary,
)
from proctheory.systems import C, DOWN, Q, SystemType
from proctheory.theories import QPART, membership

rng = np.random.default_rng(3)

# -- groups as explicit multiplication tables ----------------------------------

z2 = cyclic_group(2)
s3 = symmetric_group_s3()
print("group axioms (Z2, S3):", validate_group(z2) == [], validate_group(s3) == [])

# -- unitary representations ----------------------------------------------------

Z = np.diag([1.0, -1.0])
sign = Representation(z2, Q(2), (np.eye(2), Z))
standard = s3_standard_representation()
print("representations valid: ", validate_representation(sign) == [],
      validate_representation(standard) == [])

# the conjugate representation acts on the flipped wire
conj = conjugate_rep(sign)
print("conjugate lives on a down wire:", conj.system.factors[0].orientation == DOWN)

# -- intertwiners: processes that respect the symmetry ---------------------------

dephase = channel_from_kraus([np.eye(2) / np.sqrt(2), Z / np.sqrt(2)], Q(2), Q(2))
hadamard = channel_from_unitary(np.array([[1, 1], [1, -1]]) / np.sqrt(2), Q(2))
print("dephasing intertwines Z2:", is_intertwiner(dephase, sign, sign))
print("hadamard does not:       ", is_intertwiner(hadamard, sign, sign))

# bent wires intertwine the paired representation with the trivial one
paired = tensor_rep(standard, conjugate_rep(standard))
print("cap is an intertwiner:   ",
      is_intertwiner(cap(Q(2)), paired, trivial_rep(s3, SystemType())))

# -- no-signalling between causal and retrocausal wires --------------------------

# a product of a forward channel and a backward channel is fine,
# and both factors are recovered from the marginals
forward = random_cptp(rng, Q(2), Q(2))
backward = dagger_h(random_cptp(rng, Q(2, DOWN), Q(2, DOWN)))
verdict = no_signalling(compose_par(forward, backward))
print("product process passes:  ", verdict.ok)
print("factors recovered:       ",
      np.allclose(verdict.f_c.choi, forward.choi), np.allclose(verdict.f_r.choi, backward.choi))

# the classical cap sends information from the causal to the retro wire
print("classical cap fails:     ", no_signalling(cap(C(2))).failed_directions())
# and the cup the other way
print("classical cup fails:     ", no_signalling(cup(C(2))).failed_directions())

# correlation without signalling: a PR box split across the two directions
kern = np.zeros((4, 4))
for x in range(2):
    for b in range(2):
        for a in range(2):
            for y in range(2):
                if a ^ b == x & y:
                    kern[a * 2 + y, x * 2 + b] = 0.5
pr = classical_channel(kern, C(2) * C(2, DOWN), C(2) * C(2, DOWN))
print("PR box is a member:      ", membership(QPART, pr).ok)

# membership = completely positive + intertwiner + no-signalling both ways
u = channel_from_unitary(random_unitary(rng, 2), Q(2))
print("unitary channel member:  ", membership(QPART, u).ok)
print("bare cup is not:         ", membership(QPART, cup(Q(2))).reasons)

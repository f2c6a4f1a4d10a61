"""System types: ordered lists of oriented quantum/classical wire factors.

A wire factor is either a quantum system of some Hilbert-space dimension or
a classical system of some set size, together with an orientation flag
(up = forward in time, down = its time-reversed dual). Orientation is pure
metadata at the numerical level: it only acquires meaning for conjugate
representations and no-signalling, where a factor oriented up is causal and
one oriented down is retrocausal.

>>> s = Q(2) * C(3)
>>> s.total_dim
6
>>> s.dual().factors[0].orientation
'down'
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

QUANTUM = "quantum"
CLASSICAL = "classical"
UP = "up"
DOWN = "down"

__all__ = ["WireFactor", "SystemType", "Q", "C", "QUANTUM", "CLASSICAL", "UP", "DOWN"]


@dataclass(frozen=True)
class WireFactor:
    kind: str  # QUANTUM or CLASSICAL
    dim: int
    orientation: str = UP

    def __post_init__(self):
        if self.kind not in (QUANTUM, CLASSICAL):
            raise ValueError(f"unknown wire kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"wire dimension must be >= 1, got {self.dim}")
        if self.orientation not in (UP, DOWN):
            raise ValueError(f"unknown orientation {self.orientation!r}")

    def dual(self):
        return WireFactor(self.kind, self.dim, DOWN if self.orientation == UP else UP)

    def same_carrier(self, other):
        """Kind and dimension agree (orientation ignored)."""
        return self.kind == other.kind and self.dim == other.dim

    def __str__(self):
        base = f"Q({self.dim})" if self.kind == QUANTUM else f"C({self.dim})"
        return base if self.orientation == UP else f"dual({base})"


@dataclass(frozen=True)
class SystemType:
    factors: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if not isinstance(f, WireFactor):
                raise TypeError(f"SystemType factors must be WireFactor, got {type(f)}")
        # not a field: equality, hashing and repr read the factors alone
        object.__setattr__(self, "total_dim", prod(f.dim for f in self.factors))

    @property
    def dims(self):
        return [f.dim for f in self.factors]

    def __len__(self):
        return len(self.factors)

    def __mul__(self, other):
        """Parallel composition of system types (concatenation)."""
        return SystemType(self.factors + other.factors)

    def dual(self):
        return SystemType(tuple(f.dual() for f in self.factors))

    def is_trivial(self):
        return len(self.factors) == 0

    def same_carrier(self, other):
        return len(self.factors) == len(other.factors) and all(
            a.same_carrier(b) for a, b in zip(self.factors, other.factors)
        )

    def __str__(self):
        if not self.factors:
            return "I"
        return " * ".join(str(f) for f in self.factors)


TRIVIAL = SystemType()


def Q(dim, orientation=UP):
    """Single quantum wire of the given dimension."""
    return SystemType((WireFactor(QUANTUM, dim, orientation),))


def C(size, orientation=UP):
    """Single classical wire of the given set size."""
    return SystemType((WireFactor(CLASSICAL, size, orientation),))

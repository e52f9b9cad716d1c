"""Slot types of spin-tensor components.

A spin-tensor of type (alpha,beta|nu,gamma|m,n) carries alpha
contravariant and beta covariant spinor indices, nu/gamma barred spinor
indices and m/n tangent indices.  Its components are one dense array,
carried beside its TensorSignature, whose trailing axes hold the slots
in the canonical order ORDER of the six (family, variance) blocks

    (contravariant spinor, covariant spinor,
     contravariant barred, covariant barred,
     contravariant tangent, covariant tangent);

any leading axes are batch axes, one value per point or frame.
transform_components and covariant_components read a signature's slots
to act on each axis with the matrix of its family.  Every index,
spinor or tangent, runs from 0.
"""

from __future__ import annotations

from dataclasses import dataclass

TANGENT_DIM = 4

SPINOR = "spinor"
BARRED = "barred"
TANGENT = "tangent"

# the six (family, is_contravariant) blocks in canonical storage order,
# and the TensorSignature count field that sizes each
ORDER = (
    (SPINOR, True),
    (SPINOR, False),
    (BARRED, True),
    (BARRED, False),
    (TANGENT, True),
    (TANGENT, False),
)
COUNT_FIELDS = ("alpha", "beta", "nu", "gamma", "m", "n")


@dataclass(frozen=True)
class TensorSignature:
    """Type (alpha,beta|nu,gamma|m,n) of a spin-tensor."""

    alpha: int = 0
    beta: int = 0
    nu: int = 0
    gamma: int = 0
    m: int = 0
    n: int = 0
    spinor_dim: int = 2

    def __post_init__(self):
        for count in (self.alpha, self.beta, self.nu, self.gamma, self.m, self.n):
            if count < 0:
                raise ValueError("index counts must be non-negative")
        if self.spinor_dim not in (2, 4):
            raise ValueError("spinor_dim must be 2 or 4")

    @property
    def slots(self):
        """Canonical tuple of (family, is_contravariant) per axis."""
        slots = ()
        for block, name in zip(ORDER, COUNT_FIELDS):
            slots += (block,) * getattr(self, name)
        return slots

    @property
    def shape(self):
        dims = []
        for family, _ in self.slots:
            dims.append(TANGENT_DIM if family == TANGENT else self.spinor_dim)
        return tuple(dims)

    @property
    def rank(self):
        return self.alpha + self.beta + self.nu + self.gamma + self.m + self.n

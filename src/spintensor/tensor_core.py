"""Multi-index spin-tensor component containers and index arithmetic.

A spin-tensor of type (alpha,beta|nu,gamma|m,n) carries alpha
contravariant and beta covariant spinor indices, nu/gamma barred spinor
indices and m/n tangent indices.  Components are stored densely in the
canonical axis order ORDER of the six (family, variance) blocks

    (contravariant spinor, covariant spinor,
     contravariant barred, covariant barred,
     contravariant tangent, covariant tangent).

Every operation that moves slots (tau, outer, contract, raise_lower)
lists the slots its raw result carries and stably sorts its axes by
ORDER; the signature is read off the same list.

Spinor indices run 1..spinor_dim in the public accessors (0-based in
storage), tangent indices run 0..3 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def with_slots(self, slots):
        """The signature, of the same spinor_dim, that holds slots (in any order)."""
        counts = {name: slots.count(block) for block, name in zip(ORDER, COUNT_FIELDS)}
        return TensorSignature(**counts, spinor_dim=self.spinor_dim)


@dataclass(frozen=True)
class SpinTensorValue:
    """Dense complex component array of one spin-tensor at one point.

    The components may carry leading batch axes, one value per point,
    before the slot axes; the index arithmetic below acts on the slot
    axes of every batch entry alike (slot positions count from the
    first slot axis).
    """

    signature: TensorSignature
    components: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=complex)
        rank = self.signature.rank
        if arr.ndim < rank or arr.shape[arr.ndim - rank:] != self.signature.shape:
            raise ValueError(
                f"component shape {arr.shape} does not match "
                f"signature shape {self.signature.shape}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "components", arr)

    def entry(self, *indices):
        """Component accessor: spinor indices 1-based, tangent 0-based."""
        slots = self.signature.slots
        if len(indices) != len(slots):
            raise ValueError(f"expected {len(slots)} indices, got {len(indices)}")
        raw = []
        for idx, (family, _) in zip(indices, slots):
            raw.append(idx if family == TANGENT else idx - 1)
        return complex(self.components[tuple(raw)])

    def __eq__(self, other):
        if not isinstance(other, SpinTensorValue):
            return NotImplemented
        return self.signature == other.signature and np.array_equal(
            self.components, other.components
        )


@dataclass(frozen=True)
class MetricMatrices:
    """Metric data used for raising/lowering all three index families."""

    g_lower: np.ndarray
    g_upper: np.ndarray
    d_lower: np.ndarray
    d_upper: np.ndarray
    dbar_lower: np.ndarray
    dbar_upper: np.ndarray

    def __post_init__(self):
        for name in ("g_lower", "g_upper", "d_lower", "d_upper", "dbar_lower", "dbar_upper"):
            arr = np.asarray(getattr(self, name))
            arr = arr.astype(float if name.startswith("g") else complex)
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.max(np.abs(self.g_upper @ self.g_lower - np.eye(TANGENT_DIM))) > 1e-12:
            raise ValueError("g_upper is not the inverse of g_lower")
        for low, up in ((self.d_lower, self.d_upper), (self.dbar_lower, self.dbar_upper)):
            if np.max(np.abs(low @ up - np.eye(low.shape[0]))) > 1e-12:
                raise ValueError("spin-metric upper is not the inverse of lower")
        if not np.allclose(self.dbar_lower, np.conj(self.d_lower), atol=1e-12):
            raise ValueError("dbar_lower must be the conjugate of d_lower")

    @property
    def spinor_dim(self):
        return self.d_lower.shape[0]


def _batch_ndim(x: SpinTensorValue):
    return x.components.ndim - x.signature.rank


def _canonical(sig: TensorSignature, slots, components) -> SpinTensorValue:
    """The value whose trailing axes carry slots, in that order, with
    those axes stably sorted into canonical block order (ORDER); the
    leading batch axes stay in place."""
    lead = np.ndim(components) - len(slots)
    perm = sorted(range(len(slots)), key=lambda axis: ORDER.index(slots[axis]))
    axes = list(range(lead)) + [lead + axis for axis in perm]
    return SpinTensorValue(sig.with_slots(slots), np.transpose(components, axes))


def tau(x: SpinTensorValue) -> SpinTensorValue:
    """Semilinear involution exchanging barred and unbarred spinor blocks.

    The result of type (nu,gamma|alpha,beta|m,n) takes its unbarred
    components from the conjugated barred components of the argument and
    vice versa; tangent slots are untouched.
    """
    swap = {SPINOR: BARRED, BARRED: SPINOR, TANGENT: TANGENT}
    slots = [(swap[family], up) for family, up in x.signature.slots]
    return _canonical(x.signature, slots, np.conj(x.components))


def outer(x: SpinTensorValue, y: SpinTensorValue) -> SpinTensorValue:
    """Tensor product, re-sorted into canonical slot order.

    Within each (family, variance) block the slots of x precede those
    of y.  Batch axes broadcast.
    """
    sx, sy = x.signature, y.signature
    if sx.spinor_dim != sy.spinor_dim:
        raise ValueError("spinor dimensions differ")
    # x's slots, then y's: x gains trailing unit axes, y leading ones
    # after its batch
    xs = x.components.reshape(x.components.shape + (1,) * sy.rank)
    ys = y.components.reshape(y.components.shape[:_batch_ndim(y)] + (1,) * sx.rank + sy.shape)
    return _canonical(sx, sx.slots + sy.slots, xs * ys)


def contract(x: SpinTensorValue, slot_a: int, slot_b: int) -> SpinTensorValue:
    """Sum a contravariant slot against a covariant slot of the same family.

    Slots are 0-based axis positions in the canonical storage order.
    """
    slots = x.signature.slots
    fam_a, up_a = slots[slot_a]
    fam_b, up_b = slots[slot_b]
    if fam_a != fam_b:
        raise ValueError(f"cannot contract {fam_a} slot with {fam_b} slot")
    if not (up_a and not up_b):
        raise ValueError("slot_a must be contravariant and slot_b covariant")
    rest = [block for axis, block in enumerate(slots) if axis not in (slot_a, slot_b)]
    lead = _batch_ndim(x)
    traced = np.trace(x.components, axis1=lead + slot_a, axis2=lead + slot_b)
    return _canonical(x.signature, rest, traced)


def _family_metric(metrics: MetricMatrices, family, direction):
    table = {
        (TANGENT, "raise"): metrics.g_upper,
        (TANGENT, "lower"): metrics.g_lower,
        (SPINOR, "raise"): metrics.d_upper,
        (SPINOR, "lower"): metrics.d_lower,
        (BARRED, "raise"): metrics.dbar_upper,
        (BARRED, "lower"): metrics.dbar_lower,
    }
    return table[(family, direction)]


def raise_lower(
    x: SpinTensorValue, slot: int, metrics: MetricMatrices, direction: str
) -> SpinTensorValue:
    """Raise or lower one slot with the metric of its index family.

    The contraction rule is new_j = sum_i X_i M[i, j] with M the upper
    metric for raising and the lower metric for lowering; with the
    convention sum_q d_{iq} d^{qj} = delta_i^j this makes raise after
    lower the identity.  The moved slot lands at the end of its
    destination block.
    """
    if direction not in ("raise", "lower"):
        raise ValueError("direction must be 'raise' or 'lower'")
    slots = x.signature.slots
    family, up = slots[slot]
    if direction == "raise" and up:
        raise ValueError("slot is already contravariant")
    if direction == "lower" and not up:
        raise ValueError("slot is already covariant")
    if family != TANGENT and x.signature.spinor_dim != metrics.spinor_dim:
        raise ValueError("metric spinor dimension mismatch")
    metric = _family_metric(metrics, family, direction)
    moved = np.tensordot(x.components, metric, axes=([_batch_ndim(x) + slot], [0]))
    # tensordot leaves the new index last, so the stable sort puts it
    # at the end of its block
    return _canonical(x.signature, slots[:slot] + slots[slot + 1:] + ((family, not up),), moved)

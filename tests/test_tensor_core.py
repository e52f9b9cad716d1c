import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintensor.tensor_core import (
    MetricMatrices,
    SpinTensorValue,
    TensorSignature,
    contract,
    outer,
    raise_lower,
    tau,
)

RNG = np.random.default_rng(11)

D_LOWER = np.array([[0, 1], [-1, 0]], dtype=complex)
CANONICAL_METRICS = MetricMatrices(
    g_lower=np.diag([1.0, -1.0, -1.0, -1.0]),
    g_upper=np.diag([1.0, -1.0, -1.0, -1.0]),
    d_lower=D_LOWER,
    d_upper=np.linalg.inv(D_LOWER),
    dbar_lower=np.conj(D_LOWER),
    dbar_upper=np.linalg.inv(np.conj(D_LOWER)),
)


def random_value(sig, seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(sig.shape) + 1j * rng.standard_normal(sig.shape)
    return SpinTensorValue(sig, arr)


signatures = st.builds(
    TensorSignature,
    alpha=st.integers(0, 2),
    beta=st.integers(0, 2),
    nu=st.integers(0, 1),
    gamma=st.integers(0, 1),
    m=st.integers(0, 1),
    n=st.integers(0, 1),
)


def test_signature_shape_and_slots():
    sig = TensorSignature(alpha=1, beta=2, nu=1, m=1, n=1)
    assert sig.shape == (2, 2, 2, 2, 4, 4)
    assert sig.rank == 6
    assert sig.slots[0] == ("spinor", True)
    assert sig.slots[-1] == ("tangent", False)


def test_signature_rejects_bad_counts():
    with pytest.raises(ValueError):
        TensorSignature(alpha=-1)
    with pytest.raises(ValueError):
        TensorSignature(spinor_dim=3)


def test_entry_uses_one_based_spinor_indices():
    sig = TensorSignature(alpha=1, n=1)
    arr = np.arange(8, dtype=complex).reshape(2, 4)
    value = SpinTensorValue(sig, arr)
    assert value.entry(1, 0) == 0
    assert value.entry(2, 3) == 7


def test_components_are_immutable():
    value = random_value(TensorSignature(alpha=1), 0)
    with pytest.raises(ValueError):
        value.components[0] = 0.0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        SpinTensorValue(TensorSignature(alpha=1), np.zeros((3,)))


@settings(max_examples=40, deadline=None)
@given(sig=signatures, seed=st.integers(0, 2**32 - 1))
def test_tau_is_an_involution(sig, seed):
    value = random_value(sig, seed)
    back = tau(tau(value))
    assert back.signature == value.signature
    assert np.array_equal(back.components, value.components)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tau_is_semilinear(seed):
    sig = TensorSignature(alpha=1, gamma=1, n=1)
    value = random_value(sig, seed)
    scale = 0.7 - 1.3j
    scaled = SpinTensorValue(sig, scale * value.components)
    assert np.allclose(
        tau(scaled).components, np.conj(scale) * tau(value).components
    )


def test_tau_swaps_blocks():
    sig = TensorSignature(alpha=1, nu=1)
    value = random_value(sig, 5)
    swapped = tau(value)
    assert swapped.signature == TensorSignature(alpha=1, nu=1)
    assert np.array_equal(swapped.components, np.conj(value.components.T))


def test_outer_orders_blocks_canonically():
    x = random_value(TensorSignature(alpha=1), 1)
    y = random_value(TensorSignature(beta=1), 2)
    prod = outer(x, y)
    assert prod.signature == TensorSignature(alpha=1, beta=1)
    expected = np.tensordot(x.components, y.components, axes=0)
    assert np.array_equal(prod.components, expected)


def test_contract_is_the_trace():
    x = random_value(TensorSignature(alpha=1, beta=1), 3)
    traced = contract(x, 0, 1)
    assert traced.signature == TensorSignature()
    assert np.isclose(complex(traced.components), np.trace(x.components))


def test_contract_rejects_family_mixes():
    x = random_value(TensorSignature(alpha=1, n=1), 4)
    with pytest.raises(ValueError):
        contract(x, 0, 1)


def test_contract_requires_contra_then_co():
    x = random_value(TensorSignature(alpha=1, beta=1), 4)
    with pytest.raises(ValueError):
        contract(x, 1, 0)


@settings(max_examples=40, deadline=None)
@given(sig=signatures, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_raise_after_lower_round_trips(sig, seed, data):
    value = random_value(sig, seed)
    up_slots = [i for i, (_, up) in enumerate(sig.slots) if up]
    if not up_slots:
        return
    slot = data.draw(st.sampled_from(up_slots))
    family = sig.slots[slot][0]
    lowered = raise_lower(value, slot, CANONICAL_METRICS, "lower")
    # the lowered slot is the last of its block
    dest = max(k for k, block in enumerate(lowered.signature.slots) if block == (family, False))
    restored = raise_lower(lowered, dest, CANONICAL_METRICS, "raise")
    assert restored.signature == value.signature
    # round trip may permute slots within a block; compare sorted blocks
    if sig.slots.count((family, True)) == 1:
        assert np.allclose(restored.components, value.components, atol=1e-12)


def test_raise_lower_direction_validation():
    value = random_value(TensorSignature(alpha=1), 6)
    with pytest.raises(ValueError):
        raise_lower(value, 0, CANONICAL_METRICS, "raise")
    with pytest.raises(ValueError):
        raise_lower(value, 0, CANONICAL_METRICS, "sideways")


def test_metric_matrices_invariants():
    with pytest.raises(ValueError):
        MetricMatrices(
            g_lower=np.eye(4),
            g_upper=2 * np.eye(4),
            d_lower=np.array([[0, 1], [-1, 0]]),
            d_upper=np.array([[0, -1], [1, 0]]),
            dbar_lower=np.array([[0, 1], [-1, 0]]),
            dbar_upper=np.array([[0, -1], [1, 0]]),
        )


def test_spinor_metric_convention():
    # sum_q d_iq d^qj = delta_i^j
    prod = CANONICAL_METRICS.d_lower @ CANONICAL_METRICS.d_upper
    assert np.array_equal(prod, np.eye(2))


def batch_of(sig, seeds):
    """A value with one leading batch axis, one random value per seed."""
    return SpinTensorValue(sig, np.stack([random_value(sig, seed).components for seed in seeds]))


def test_slot_operations_act_on_each_batch_entry():
    # tau, outer, contract and raise_lower move slot axes only: on a
    # batch they give each entry's own result
    sig = TensorSignature(alpha=1, beta=1, gamma=1, n=1)
    x = batch_of(sig, [7, 8, 9])
    y = batch_of(TensorSignature(nu=1, m=1), [10, 11, 12])
    cases = {
        "tau": (lambda v, _: tau(v)),
        "outer": outer,
        "contract": (lambda v, _: contract(v, 0, 1)),
        "lower": (lambda v, _: raise_lower(v, 0, CANONICAL_METRICS, "lower")),
    }
    for label, operation in cases.items():
        batch = operation(x, y)
        for k in range(3):
            alone = operation(SpinTensorValue(sig, x.components[k]),
                              SpinTensorValue(y.signature, y.components[k]))
            assert batch.signature == alone.signature, label
            assert np.array_equal(batch.components[k], alone.components), label

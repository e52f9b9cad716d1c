import pytest

from spintensor.tensor_core import TensorSignature


def test_signature_rank_and_slots():
    sig = TensorSignature(alpha=1, beta=2, nu=1, m=1, n=1)
    assert sig.rank == 6
    assert sig.slots[0] == ("spinor", True)
    assert sig.slots[-1] == ("tangent", False)


def test_signature_rejects_bad_counts():
    with pytest.raises(ValueError):
        TensorSignature(alpha=-1)
    with pytest.raises(ValueError):
        TensorSignature(spinor_dim=3)

"""cli.dump_json against json.dumps(indent=2, sort_keys=True, allow_nan=False)
on the same value with every array written as its nested list."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spintensor import cli
from spintensor.scenarios import bundled_scenario_names


def as_lists(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    return value


def reference(value):
    return json.dumps(as_lists(value), indent=2, sort_keys=True, allow_nan=False)


def outcome(encode, value):
    """("text", the encoding) or ("raises", the exception type)."""
    try:
        return "text", encode(value)
    except (TypeError, ValueError) as exc:
        return "raises", type(exc)


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e-7, 0.1, 123456789.0)
NON_FINITE = (math.nan, math.inf, -math.inf)


def floats(finite=True):
    values = EDGE_FLOATS if finite else EDGE_FLOATS + NON_FINITE
    return st.one_of(st.sampled_from(values), st.floats(allow_nan=not finite,
                                                        allow_infinity=not finite))


def arrays(finite=True):
    shapes = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)
    return hnp.arrays(np.float64, shapes, elements=floats(finite))


def documents(finite=True):
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), floats(finite), st.text(), arrays(finite)
    )
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.tuples(inner, inner),
            st.dictionaries(st.text(), inner, max_size=4),
        ),
        max_leaves=12,
    )


@settings(max_examples=400, deadline=None)
@given(documents())
def test_writer_equals_json_dumps(value):
    assert cli.dump_json(value) == reference(value)


@settings(max_examples=400, deadline=None)
@given(documents(finite=False))
def test_writer_raises_where_json_dumps_raises(value):
    assert outcome(cli.dump_json, value) == outcome(reference, value)


@pytest.mark.parametrize(
    "shape", [(), (0,), (0, 3), (2, 0), (2, 0, 3), (2, 3, 0), (1,), (3, 1, 2)], ids=str)
@pytest.mark.parametrize("nest", [lambda a: a, lambda a: {"x": [a, {"y": a}]}],
                         ids=["top", "nested"])
def test_array_shapes_at_every_depth(shape, nest):
    values = np.arange(math.prod(shape), dtype=float).reshape(shape) - 1.5
    value = nest(values)
    assert cli.dump_json(value) == reference(value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": [{}, []]},
    {"été → \U0001d11e": "\x00\x1f\t\n\"\\  ", "": "\ud800"},
    [-0.0, 5e-324, 1.7976931348623157e308, 1e16, np.float64(-0.0), True, False, None, -(2**70)],
    np.array([[-0.0, 5e-324], [1.7976931348623157e308, 1e16]]),
    np.zeros((2, 3, 4))[:, 1, ::2],
    np.complex128(1 + 2j).real,
])
def test_edge_values(value):
    assert cli.dump_json(value) == reference(value)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("where", [
    lambda x: x,
    lambda x: [1.0, {"a": x}],
    lambda x: np.array([[0.0, 1.0], [2.0, x]]),
    lambda x: {"a": [np.zeros(3)], "b": np.full((2, 0), x), "c": np.array(x)},
], ids=["scalar", "in-list", "in-array", "in-0d-array"])
def test_non_finite_values_raise_value_error(bad, where):
    value = where(bad)
    with pytest.raises(ValueError):
        reference(value)
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.dump_json(value)


@pytest.mark.parametrize("value", [
    np.zeros(3, dtype=complex), np.zeros(3, dtype=int), np.zeros(3, dtype=np.float32),
    {1: "a"}, {"a": {2.0}}, [object()], np.int64(1),
])
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        cli.dump_json(value)


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_reports_equal_json_dumps(monkeypatch, name, subcommand):
    seen = []
    to_json = cli.ResidualReport.to_json
    monkeypatch.setattr(cli.ResidualReport, "to_json",
                        lambda self: seen.append(self) or to_json(self))
    cli.run(subcommand, spec_path=name, stream=io.StringIO())
    (report,) = seen
    text = report.to_json()
    plain = report.to_dict()
    plain["timestamp"] = json.loads(text)["timestamp"]
    assert text == reference(plain) + "\n"
    for table in report.tables.values():
        assert all(isinstance(entry["tangent"], np.ndarray) for entry in table)

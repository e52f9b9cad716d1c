import contextlib
import io
import json
import math

import pytest
from importlib import resources
from hypothesis import given, settings, strategies as st

from spintensor.cli import (
    REPORT_SCHEMA,
    SUBCOMMANDS,
    ResidualReport,
    build_parser,
    main,
    run,
)
from spintensor import scenarios
from spintensor.scenarios import bundled_scenario_names


def run_captured(subcommand, **kwargs):
    stream = io.StringIO()
    code = run(subcommand, stream=stream, **kwargs)
    return code, stream.getvalue()


def strip_timestamp(payload):
    data = json.loads(payload)
    data.pop("timestamp")
    return data


def bundled_spec(name):
    return json.loads((resources.files("spintensor") / "scenarios" / f"{name}.json").read_text())


def diag(*cells):
    return [[cells[i] if i == j else "0" for j in range(4)] for i in range(4)]


def test_verify_identities_passes_without_a_spec():
    code, payload = run_captured("verify-identities")
    assert code == 0
    data = json.loads(payload)
    assert data["schema"] == REPORT_SCHEMA
    assert data["overall_pass"] is True
    assert all(entry["passed"] for entry in data["checks"].values())
    assert all(entry["max_residual"] == 0.0 for entry in data["checks"].values())


def test_all_on_flat_passes_with_zero_connection():
    code, payload = run_captured("all", spec_path="flat")
    assert code == 0
    data = json.loads(payload)
    tables = data["tables"]["chiral-connection"]
    assert len(tables) == 5
    flat_gamma = tables[0]["tangent"]
    assert max(abs(v) for row in flat_gamma for col in row for v in col) < 1e-12


def test_all_on_diag_scale_emits_oracle_column():
    code, payload = run_captured("all", spec_path="diag-scale")
    assert code == 0
    data = json.loads(payload)
    entry = data["tables"]["chiral-connection"][0]
    assert "tangent-oracle" in entry
    assert data["checks"]["chiral-tangent-oracle"]["passed"]


def test_concordance_and_covariance_subcommands():
    for sub in ("concordance", "covariance"):
        code, payload = run_captured(sub, spec_path="diag-scale")
        assert code == 0, sub
        assert json.loads(payload)["overall_pass"] is True


def test_missing_spec_is_exit_2():
    code, _ = run_captured("concordance")
    assert code == 2


def test_unreadable_spec_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_captured("concordance", spec_path=str(bad))
    assert code == 2


def test_unknown_subcommand_is_exit_2():
    code, _ = run_captured("frobnicate")
    assert code == 2


def test_numerical_failure_is_exit_1():
    # shrink tolerances below rounding until real finite residuals fail
    code, payload = run_captured(
        "concordance", spec_path="seeded-deformation", tol_scale=1e-12
    )
    assert code == 1
    assert json.loads(payload)["overall_pass"] is False


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_all_is_the_union_of_the_four_subcommands(name):
    _, payload = run_captured("all", spec_path=name)
    whole = json.loads(payload)
    checks, tables = {}, {}
    for sub in ("verify-identities", "build-connection", "concordance", "covariance"):
        _, part = run_captured(sub, spec_path=name)
        part = json.loads(part)
        assert not set(part["checks"]) & set(checks), sub
        checks.update(part["checks"])
        tables.update(part.get("tables", {}))
    assert whole["checks"] == checks
    assert whole.get("tables", {}) == tables


def test_reports_are_deterministic_modulo_timestamp():
    _, first = run_captured("all", spec_path="diag-scale", seed=2)
    _, second = run_captured("all", spec_path="diag-scale", seed=2)
    assert strip_timestamp(first) == strip_timestamp(second)


def test_text_format_lists_checks():
    code, payload = run_captured("concordance", spec_path="flat", fmt="text")
    assert code == 0
    assert "PASS" in payload
    assert "overall: PASS" in payload


def test_out_flag_writes_the_report(tmp_path):
    target = tmp_path / "report.json"
    code = run("concordance", spec_path="flat", out=str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert data["overall_pass"] is True


def test_report_invariant_overall_iff_every_check():
    report = ResidualReport(name="x", subcommand="y")
    report.record("a", 0.0, 1e-9, 1)
    assert report.overall_pass
    report.record("b", 1.0, 1e-9, 1)
    assert not report.overall_pass
    assert report.failing() == ["b"]


def test_non_finite_residuals_never_pass():
    report = ResidualReport(name="x", subcommand="y")
    report.record("x", math.nan, 1e-6, 1)
    report.record("y", math.inf, math.inf, 1)
    assert report.failing() == ["x", "y"]
    assert not report.overall_pass


def strict_json(payload):
    """Parse JSON that must contain no NaN or Infinity literal."""
    def reject(literal):
        raise AssertionError(f"non-strict JSON literal {literal}")

    return json.loads(payload, parse_constant=reject)


def test_non_finite_residuals_are_written_as_null():
    report = ResidualReport(name="x", subcommand="y")
    report.record("nan", math.nan, 1e-6, 1)
    report.record("inf", math.inf, 1e-6, 1)
    report.record("fine", 1e-9, 1e-6, 1)
    checks = strict_json(report.to_json())["checks"]
    for name in ("nan", "inf"):
        assert checks[name]["max_residual"] is None and checks[name]["passed"] is False
    assert checks["fine"] == {
        "max_residual": 1e-9, "tolerance": 1e-6, "passed": True, "points_evaluated": 1
    }
    assert "FAIL  inf" in report.to_text()


def test_a_tolerance_scaled_past_the_float_range_is_exit_2(capsys, tmp_path):
    spec = bundled_spec("flat")
    spec["tolerances"] = {"concordance": 1e300}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, payload = run_captured("concordance", spec_path=str(path), tol_scale=1e300)
    err = capsys.readouterr().err
    assert code == 2 and payload == ""
    assert err.startswith("bad input:") and len(err.strip().splitlines()) == 1
    # a finite scaled tolerance gives a strict report
    code, payload = run_captured("concordance", spec_path=str(path), tol_scale=1e8)
    assert code == 0 and strict_json(payload)["checks"]["chiral-nabla-metric"]["tolerance"] == 1e308


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "flags, env, spec_overrides",
    [
        (["--fd-step", "0"], {}, {}),
        (["--fd-step", "nan"], {}, {}),
        (["--fd-step", "-1"], {}, {}),
        (["--fd-step", "abc"], {}, {}),
        ([], {"SPINTENSOR_FD_STEP": "0"}, {}),
        ([], {"SPINTENSOR_FD_STEP": "nan"}, {}),
        ([], {"SPINTENSOR_FD_STEP": "abc"}, {}),
        ([], {"SPINTENSOR_SEED": "abc"}, {}),
        (["--seed", "1.5"], {}, {}),
        ([], {"SPINTENSOR_TOL_SCALE": "nan"}, {}),
        ([], {"SPINTENSOR_FORMAT": "xml"}, {}),
        ([], {}, {"fd_step": "x"}),
        ([], {}, {"seed": "abc"}),
        ([], {}, {"deform": {"seed": "abc"}}),
        ([], {}, {"deform": {"scale": "abc"}}),
        ([], {}, {"deform": {"scale": math.nan}}),
        ([], {}, {"deform": {"seed": -1}}),
        ([], {}, {"deform": {"tangent": "yes"}}),
        ([], {}, {"deform": {"sede": 7}}),
        ([], {}, {"seed": -1}),
        (["--seed", "-1"], {}, {}),
        ([], {}, {"tolerances": {"concordance": "x"}}),
        ([], {}, {"tolerances": {"concordance": -1}}),
        ([], {}, {"tolerances": {"covariance": math.inf}}),
        ([], {}, {"tolerances": {"concordence": 1e-6}}),
        ([], {}, {"tolerances": {"identity": 1e-12}}),
        ([], {}, {"sample_points": [["a", 0, 0, 0]]}),
        ([], {}, {"sample_points": [[math.nan, 0, 0, 0]]}),
    ],
)
def test_bad_flags_overrides_and_spec_numbers_are_exit_2(
    flags, env, spec_overrides, monkeypatch, capsys, tmp_path
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    spec = bundled_spec("ortho-tetrad")
    spec.update(spec_overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = exit_code(["all", "--spec", str(path), "--out", str(tmp_path / "r.json"), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "metric",
    [
        diag("1", "1", "-1", "-1"),  # signature (+,+,-,-)
        diag("sqrt(x0-1)", "-1", "-1", "-1"),  # sqrt of a negative value
        diag("exp(exp(100*x0))", "-1", "-1", "-1"),  # overflow
        diag("-1", "1", "-1", "-1"),  # right signature, no time-first factor
    ],
)
def test_scenario_construction_failures_name_field_and_point(metric, capsys, tmp_path):
    spec = bundled_spec("diag-scale")
    spec["metric"] = metric
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, payload = run_captured("concordance", spec_path=str(path))
    err = capsys.readouterr().err
    assert code == 2 and payload == ""
    assert len(err.strip().splitlines()) == 1
    assert "at (0.5, 0.2, -0.3, 0.1): " in err and "metric" in err


@pytest.mark.parametrize(
    "name, point",
    [
        # 1 + x0 = 1e-16: the metric is nearly degenerate and the
        # conjugate-coefficient check of the chiral builder trips
        ("diag-scale", [-0.9999999999999999, 0.0, 0.0, 0.0]),
        # far from the origin the covariance check's own seeded frame
        # change turns singular on a valid scenario
        ("flat", [300.0, 0.0, 0.0, 0.0]),
        # and the seeded deformation makes the metric numerically singular
        ("seeded-deformation", [0.75, -630.8125, 0.0, 0.0]),
    ],
)
def test_failed_consistency_checks_are_numerical_failures(name, point, capsys, tmp_path):
    spec = bundled_spec(name)
    spec["sample_points"] = [point]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _ = run_captured("covariance", spec_path=str(path))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("numerical failure:") and len(err.strip().splitlines()) == 1


# --- the failing-spec catalog: exact stderr line and exit code ----------

GOOD = [[0.5, 0.2, -0.3, 0.1], [0.1, -0.4, 0.2, 0.3]]


def with_metric(name, **cells):
    """A bundled spec with the metric cells gIJ replaced."""
    spec = bundled_spec(name)
    metric = spec["metric"]
    if metric == "minkowski":
        metric = diag("1", "-1", "-1", "-1")
    for cell, text in cells.items():
        metric[int(cell[1])][int(cell[2])] = text
    spec["metric"] = metric
    return spec


def with_changes(name, **changes):
    return {**bundled_spec(name), **changes}


def ortho_tetrad_with_frame_row_0(*row):
    spec = bundled_spec("ortho-tetrad")
    spec["frame"][0] = list(row)
    return spec


def both(code, line=""):
    """The same exit code and stderr line under concordance and covariance."""
    return {"concordance": (code, line), "covariance": (code, line)}


def bad_metric(point, error):
    return both(2, f"bad input: metric at {point}: {error}\n")


CATALOG = [
    pytest.param(with_metric("diag-scale", g00="sqrt(x0)"), GOOD + [[-0.2, 0, 0, 0]],
                 bad_metric("(-0.2, 0.0, 0.0, 0.0)", "sqrt(-0.2): math domain error"),
                 id="negative-sqrt"),
    pytest.param(with_metric("diag-scale", g00="1/x0"), GOOD + [[0, 0, 0, 0]],
                 bad_metric("(0.0, 0.0, 0.0, 0.0)", "division by zero"), id="division-by-zero"),
    pytest.param(with_metric("diag-scale", g00="exp(x0)"), GOOD + [[800, 0, 0, 0]],
                 bad_metric("(800.0, 0.0, 0.0, 0.0)", "exp(800.0): math range error"),
                 id="exp-overflow"),
    pytest.param(with_metric("diag-scale", g00="10^x0"), GOOD + [[400, 0, 0, 0]],
                 bad_metric("(400.0, 0.0, 0.0, 0.0)", "(34, 'Numerical result out of range')"),
                 id="power-overflow"),
    pytest.param(with_metric("diag-scale", g00="(x0)^0.5"), GOOD + [[-0.5, 0, 0, 0]],
                 bad_metric("(-0.5, 0.0, 0.0, 0.0)", "non-real power"), id="non-real-power"),
    pytest.param(with_metric("diag-scale", g00="x0^(-1)"), GOOD + [[0, 0, 0, 0]],
                 bad_metric("(0.0, 0.0, 0.0, 0.0)", "0.0 cannot be raised to a negative power"),
                 id="zero-to-a-negative-power"),
    pytest.param(with_metric("diag-scale", g01="x1"), GOOD,
                 bad_metric("(0.5, 0.2, -0.3, 0.1)", "not symmetric"), id="asymmetric"),
    pytest.param(with_metric("diag-scale", g00="-1"), GOOD,
                 bad_metric("(0.5, 0.2, -0.3, 0.1)", "signature is not (+,-,-,-)"),
                 id="signature"),
    pytest.param(with_changes("diag-scale", metric=diag("1", "1", "-1", "-1")), GOOD,
                 bad_metric("(0.5, 0.2, -0.3, 0.1)", "signature is not (+,-,-,-)"),
                 id="signature-two-positive"),
    pytest.param(with_changes("diag-scale", metric=diag("sqrt(x0-1)", "-1", "-1", "-1")), GOOD,
                 bad_metric("(0.5, 0.2, -0.3, 0.1)", "sqrt(-0.5): math domain error"),
                 id="negative-sqrt-first-point"),
    pytest.param(with_changes("diag-scale", metric=diag("exp(exp(100*x0))", "-1", "-1", "-1")),
                 GOOD,
                 bad_metric("(0.5, 0.2, -0.3, 0.1)", "exp(5.184705528587072e+21): math range error"),
                 id="nested-exp-overflow"),
    pytest.param(with_changes("diag-scale", metric=diag("-1", "1", "-1", "-1")), GOOD,
                 bad_metric("(0.5, 0.2, -0.3, 0.1)",
                            "metric does not admit a time-first orthonormal factor"),
                 id="no-time-first-factor"),
    pytest.param(ortho_tetrad_with_frame_row_0("x0", "0", "0", "0"), GOOD + [[0, 0.5, 0, 0]],
                 both(2, "bad input: frame at (0.0, 0.5, 0.0, 0.0): "
                         "frame is singular at (0.0, 0.5, 0.0, 0.0)\n"),
                 id="singular-frame"),
    pytest.param(with_metric("seeded-deformation", g00="sqrt(x0+1)"), GOOD + [[-2, 0, 0, 0]],
                 bad_metric("(-2.0, 0.0, 0.0, 0.0)", "sqrt(-1.0): math domain error"),
                 id="seeded-deformation-negative-sqrt"),
    # the covariance check's own seeded transition is singular far out
    pytest.param(bundled_spec("flat"), GOOD + [[300, 0, 0, 0]],
                 {"concordance": (0, ""),
                  "covariance": (1, "numerical failure: seeded deformation 1: frame at "
                                    "(300.0, 0.0, 0.0, 0.0): frame is singular at "
                                    "(300.0, 0.0, 0.0, 0.0)\n")},
                 id="far-seeded-transition"),
    # the spec's own transition overflows in its matrix exponential
    pytest.param(with_changes("diag-scale", seed=2, deform={"scale": 328}), [[0, 0, 0, 0]],
                 both(2, "bad input: frame at (0.0, 0.0, 0.0, 0.0): "
                         "frame is singular at (0.0, 0.0, 0.0, 0.0)\n"),
                 id="overflowing-transition"),
    pytest.param(with_metric("diag-scale", g01="x2/x0", g10="x2/x0"), GOOD + [[1e-200, 0, 1, 0]],
                 bad_metric("(1e-200, 0.0, 1.0, 0.0)",
                            "metric does not admit a time-first orthonormal factor"),
                 id="overflowing-orthonormal-factor"),
    # finite cells whose frame components U^T g U overflow
    pytest.param({**ortho_tetrad_with_frame_row_0("1e200", "0", "0", "0"),
                  "metric": diag("1e200", "-1", "-1", "-1")}, GOOD,
                 bad_metric("(0.5, 0.2, -0.3, 0.1)", "not finite"), id="overflowing-frame-metric"),
    pytest.param(with_metric("diag-scale", g00="x0*1e308"), GOOD + [[10, 0, 0, 0]],
                 bad_metric("(10.0, 0.0, 0.0, 0.0)", "overflow in '*'"), id="product-overflow"),
    pytest.param(with_metric("diag-scale", g00="1+x0/1e-300"), GOOD + [[1e10, 0, 0, 0]],
                 bad_metric("(10000000000.0, 0.0, 0.0, 0.0)", "overflow in '/'"),
                 id="quotient-overflow"),
    # a constant cell has zero partials, even where its derivative
    # formula would divide by zero
    pytest.param(with_metric("diag-scale", g01="sqrt(0)", g10="sqrt(0)"), GOOD, both(0),
                 id="constant-sqrt-0"),
    pytest.param(with_metric("diag-scale", g11="-1-sqrt(x0)"), GOOD + [[0, 0, 0, 0]],
                 bad_metric("(0.0, 0.0, 0.0, 0.0)", "partial derivative: division by zero"),
                 id="failing-partial"),
]


@pytest.mark.parametrize("subcommand", ["concordance", "covariance"])
@pytest.mark.parametrize("spec, points, expected", CATALOG)
def test_failing_spec_catalog(spec, points, expected, subcommand, capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, "sample_points": points}))
    code, _ = run_captured(subcommand, spec_path=str(path))
    assert (code, capsys.readouterr().err) == expected[subcommand]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS[1:])
def test_an_overflowing_connection_is_one_numerical_failure_line(subcommand, capsys, tmp_path):
    # g00 = x0 at x0 = 1e-271 is a valid metric whose connection overflows
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**with_metric("diag-scale", g00="x0"),
                                "sample_points": [[1e-271, 0.0, 0.0, 0.0]]}))
    code, _ = run_captured(subcommand, spec_path=str(path))
    assert code == 1 and len(capsys.readouterr().err.splitlines()) == 1


def test_run_rejects_an_out_of_range_fd_step(capsys):
    """And every other bad value of run()'s seed, fd_step, tol_scale and
    fmt arguments: exit 2 with one line each."""
    bad = [
        {"fd_step": 0.0}, {"fd_step": math.nan}, {"fd_step": -1.0}, {"fd_step": "x"},
        {"seed": 1.5}, {"seed": "3"}, {"seed": -1},
        {"tol_scale": "1"}, {"tol_scale": -1.0}, {"tol_scale": 0.0}, {"tol_scale": math.inf},
        {"fmt": "xml"},
    ]
    for kwargs in bad:
        code, payload = run_captured("covariance", spec_path="flat", **kwargs)
        assert code == 2 and payload == "", kwargs
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == len(bad)
    assert all(line.startswith("bad input: ") for line in err)


def test_a_seeded_deformation_report_makes_at_most_22_expm_calls(monkeypatch):
    # each table of a deformed mode evaluates its transition once: two
    # at construction, build-connection and concordance, and in the
    # covariance stage the base table plus one per seed offset
    calls = []
    expm = scenarios.expm

    def counted(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(scenarios, "expm", counted)
    code, _ = run_captured("all", spec_path="seeded-deformation")
    assert code == 0
    assert len(calls) <= 22


def test_argparse_wiring(tmp_path):
    target = tmp_path / "r.json"
    code = main(["concordance", "--spec", "flat", "--out", str(target), "--format", "json"])
    assert code == 0
    assert json.loads(target.read_text())["subcommand"] == "concordance"


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("SPINTENSOR_SPEC", "flat")
    monkeypatch.setenv("SPINTENSOR_FORMAT", "text")
    parser = build_parser()
    args = parser.parse_args(["concordance"])
    assert args.spec == "flat"
    assert args.format == "text"


# --- fuzzing the exit-code contract ------------------------------------

_JUNK = st.one_of(
    st.integers(-2, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
)

# cells of the scenario DSL: coordinates and literals under the binary
# operators and the functions of the grammar
_DSL = st.recursive(
    st.sampled_from(["x0", "x1", "x2", "x3", "0", "1", "2.5", "-1", "1e3"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"
        ),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "cosh", "sinh", "-"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
    ),
    max_leaves=4,
)


@st.composite
def mutated_specs(draw):
    """A bundled spec with mutated deform, tolerances, points and metric
    cells; now and then one section carries a malformed value."""
    spec = bundled_spec(draw(st.sampled_from(bundled_scenario_names())))
    if draw(st.booleans()):
        spec["deform"] = draw(st.dictionaries(
            st.sampled_from(["seed", "scale", "tangent"]),
            st.one_of(st.integers(0, 9), st.floats(0.01, 3.0), st.booleans()),
            max_size=3,
        ))
    if draw(st.booleans()):
        spec["tolerances"] = draw(st.dictionaries(
            st.sampled_from(["concordance", "covariance"]), st.floats(1e-18, 1.0), max_size=2
        ))
    coordinate = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e3, 1e3))
    spec["sample_points"] = draw(st.lists(
        st.lists(coordinate, min_size=4, max_size=4), min_size=1, max_size=2
    ))
    if draw(st.booleans()):
        metric = spec["metric"]
        if metric == "minkowski":
            metric = diag("1", "-1", "-1", "-1")
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        metric[i][j] = metric[j][i] = draw(_DSL)
        spec["metric"] = metric
    if draw(st.integers(0, 3)) == 0:
        section = draw(st.sampled_from(["deform", "tolerances", "sample_points"]))
        if section == "sample_points":
            spec[section] = [[draw(_JUNK), 0, 0, 0]]
        else:
            key = draw(st.sampled_from(["seed", "scale", "tangent", "concordance", "identity"]))
            spec[section] = {key: draw(_JUNK)}
    return spec


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(subcommand=st.sampled_from(SUBCOMMANDS), spec=mutated_specs())
def test_mutated_specs_never_raise(fuzz_dir, subcommand, spec):
    """Every exit code of the contract, with one stderr line for 1 and 2
    and none for 0."""
    path = fuzz_dir / "spec.json"
    path.write_text(json.dumps(spec))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_captured(subcommand, spec_path=str(path))
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) == (0 if code == 0 else 1), err.getvalue()

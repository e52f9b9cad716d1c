import collections
import contextlib
import dataclasses
import io
import json
import math
import re

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
from spintensor import chiral, cli, dirac, frames, scenarios
from spintensor.chiral import ChiralScenario
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


@pytest.mark.parametrize("spec", [
    {"name": "flat", "sample_points": [[0.1, 0.2, 0.3, 0.4]] * 10**4},
    ["flat"],
    3,
    b"flat",
], ids=["dict", "list", "int", "bytes"])
def test_a_spec_of_another_type_is_one_line_naming_the_type(spec, capsys):
    code, _ = run_captured("concordance", spec_path=spec)
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("bad input: spec must be a bundled scenario name, a path or a ScenarioSpec, "
                   f"not {type(spec).__name__}\n")


POINT = [[0.1, 0.2, 0.3, 0.4]]


@pytest.mark.parametrize("subcommand, make", [
    ("all", lambda: scenarios.ScenarioSpec(name="x", sample_points=POINT)),
    ("all", lambda: scenarios.ScenarioSpec(name="x", mode="both", metric="minkowski",
                                           sample_points=POINT)),
    ("covariance", lambda: dataclasses.replace(scenarios.bundled_scenario("diag-scale"),
                                               tolerances={"concordance": 1e-6})),
], ids=["defaults", "explicit-mode-and-metric", "replaced-tolerances"])
def test_a_spec_made_in_code_runs(subcommand, make, capsys):
    code, payload = run_captured(subcommand, spec_path=make())
    assert (code, capsys.readouterr().err) == (0, "")
    assert json.loads(payload)["overall_pass"] is True


@pytest.mark.parametrize("fields", [{"name": "x"}, {"name": "x", "mode": "both",
                                                    "metric": "minkowski"}])
def test_a_spec_made_in_code_is_checked_when_it_is_made(fields):
    with pytest.raises(scenarios.SpecError,
                       match="^spec needs a non-empty 'sample_points' list$"):
        scenarios.ScenarioSpec(**fields)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_a_spec_built_in_code_reports_the_loaded_specs_bytes(name):
    data = bundled_spec(name)
    del data["schema"]
    specs = (scenarios.bundled_scenario(name), scenarios.ScenarioSpec(**data))
    loaded, direct = (run_captured("all", spec_path=spec)[1] for spec in specs)
    timestamp = re.compile(r'"timestamp": "[^"]*"')
    assert timestamp.sub("", direct) == timestamp.sub("", loaded)


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


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_connection_tables_write_exact_zeros_unsigned(name):
    # a report's bytes must not depend on the sign its terms leave on
    # an exact zero
    def numbers(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):
            for item in value:
                yield from numbers(item)
        else:
            yield value

    code, payload = run_captured("build-connection", spec_path=name)
    assert code == 0
    tables = json.loads(payload)["tables"]
    assert tables
    for label, entries in tables.items():
        zeros = [x for x in numbers(entries) if x == 0.0]
        assert zeros, label
        assert all(math.copysign(1.0, x) > 0 for x in zeros), label
    assert all(line.strip() not in ("-0.0", "-0.0,") for line in payload.splitlines())


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


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_unwritable_out_is_exit_2(where, capsys, tmp_path):
    target = tmp_path / "missing" / "r.json" if where == "missing-directory" else tmp_path
    code, payload = run_captured("verify-identities", out=str(target))
    err = capsys.readouterr().err
    assert (code, payload) == (2, "")
    assert err.startswith("bad input: cannot write report: ") and err.count("\n") == 1
    assert str(target) in err


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
        ("seeded-deformation", [0.75, -630.5, 0.0, 0.0]),
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
                 both(2, "bad input: frame at (0.0, 0.5, 0.0, 0.0): frame is singular\n"),
                 id="singular-frame"),
    pytest.param(with_metric("seeded-deformation", g00="sqrt(x0+1)"), GOOD + [[-2, 0, 0, 0]],
                 bad_metric("(-2.0, 0.0, 0.0, 0.0)", "sqrt(-1.0): math domain error"),
                 id="seeded-deformation-negative-sqrt"),
    # the covariance check's own seeded transition is singular far out
    pytest.param(bundled_spec("flat"), GOOD + [[300, 0, 0, 0]],
                 {"concordance": (0, ""),
                  "covariance": (1, "numerical failure: seeded deformation 1: frame at "
                                    "(300.0, 0.0, 0.0, 0.0): frame is singular\n")},
                 id="far-seeded-transition"),
    # two seed offsets fail the same check at different points: the
    # first offset is named, at its own failing point, although the
    # second one fails at an earlier point
    pytest.param(with_changes("flat", seed=1), GOOD + [[0, -150, 0, 0], [0, 100, 0, 0]],
                 {"concordance": (0, ""),
                  "covariance": (1, "numerical failure: seeded deformation 1: frame at "
                                    "(0.0, 100.0, 0.0, 0.0): frame is singular\n")},
                 id="two-failing-seed-offsets"),
    # seed offset 0 fails a later check (the moved metric's signature)
    # at the point where offset 1's transition is singular: the earlier
    # check is named
    pytest.param({**with_metric("diag-scale", g00="1e12"), "seed": 0},
                 GOOD + [[0, 100, 0, 0]],
                 {"concordance": (0, ""),
                  "covariance": (1, "numerical failure: seeded deformation 1: frame at "
                                    "(0.0, 100.0, 0.0, 0.0): frame is singular\n")},
                 id="earlier-check-of-a-later-seed-offset"),
    # the spec's own transition overflows in its matrix exponential
    pytest.param(with_changes("diag-scale", seed=2, deform={"scale": 328}), [[0, 0, 0, 0]],
                 both(2, "bad input: frame at (0.0, 0.0, 0.0, 0.0): frame is singular\n"),
                 id="overflowing-transition"),
    # the one check of the spec's Ss also guards a Dirac-only run,
    # whose table lifts Ss without checking it again
    pytest.param(with_changes("diag-scale", seed=2, deform={"scale": 328}, mode="dirac"),
                 [[0, 0, 0, 0]],
                 both(2, "bad input: frame at (0.0, 0.0, 0.0, 0.0): frame is singular\n"),
                 id="overflowing-transition-dirac-only"),
    # the metric's partials overflow before its orthonormal factor is checked
    pytest.param(with_metric("diag-scale", g01="x2/x0", g10="x2/x0"), GOOD + [[1e-200, 0, 1, 0]],
                 bad_metric("(1e-200, 0.0, 1.0, 0.0)", "partial derivative: overflow in '/'"),
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
    # finite cells whose frame bracket is not finite: the concordance
    # residuals fail, and so does the seeded frame change (its frame
    # metric diag(1.2e20, -1, -1, -1), once moved, loses its signature
    # to rounding)
    pytest.param(with_changes("diag-scale", seed=0, metric=diag("1e-300", "-1", "-1", "-1"),
                              frame=diag("1e160*exp(x0)", "1", "1", "1")),
                 [[0.1, 0.2, 0.3, 0.4]],
                 {"concordance": (1, "failed checks: chiral-nabla-metric, chiral-nabla-spin-metric, "
                                     "chiral-nabla-conjugate-spin-metric, chiral-nabla-mixed-symbols, "
                                     "chiral-metric-trace, chiral-symbol-sandwich, dirac-nabla-metric, "
                                     "dirac-nabla-spin-metric, dirac-nabla-conjugate-spin-metric, "
                                     "dirac-nabla-gamma-symbols, dirac-nabla-chirality, "
                                     "dirac-nabla-pairing, dirac-chirality-involution-derivative\n"),
                  "covariance": (1, "numerical failure: seeded deformation 0: metric at "
                                    "(0.1, 0.2, 0.3, 0.4): signature is not (+,-,-,-)\n")},
                 id="non-finite-frame-bracket"),
    # a large valid metric: the symmetry check scales with |g|, so the
    # rounding of a seeded frame change passes it
    pytest.param(with_metric("diag-scale", g00="1e8"), GOOD, both(0), id="large-metric"),
    # ill-conditioned enough that the moved connection itself loses A's
    # reality to rounding (in seed offsets 2, 3 and 4; the first is named)
    pytest.param(with_metric("diag-scale", g00="1e12"), GOOD,
                 {"concordance": (0, ""),
                  "covariance": (1, "numerical failure: seeded deformation 2: Abar is not the "
                                    "conjugate of A at (0.5, 0.2, -0.3, 0.1)\n")},
                 id="ill-conditioned-metric"),
    # a moved metric that passes its checks but is exactly singular to
    # LAPACK: seed 152 far from the origin, where det g rounds to 0
    pytest.param({**with_metric("diag-scale", g00="1e12"), "seed": 152}, GOOD + [[0, 30, 0, 0]],
                 {"concordance": (0, ""),
                  "covariance": (1, "numerical failure: seeded deformation 152: metric at "
                                    "(0.0, 30.0, 0.0, 0.0): not invertible\n")},
                 id="singular-moved-metric"),
    # cells nested too deep to evaluate within Python's recursion limit
    # are rejected when the spec loads (expressions.MAX_DEPTH)
    pytest.param(with_metric("diag-scale", g11="-1+0*(" + "+".join(["x0"] * 600) + ")"), GOOD,
                 both(2, "bad input: bad expression in spec: expression is nested more than "
                         "200 levels deep\n"),
                 id="deep-sum"),
    pytest.param(with_metric("diag-scale", g00="*".join(["(1+x0)"] * 350)), GOOD,
                 both(2, "bad input: bad expression in spec: expression is nested more than "
                         "200 levels deep\n"),
                 id="deep-product"),
    pytest.param(with_metric("diag-scale", g00="-" * 2000 + "x0"), GOOD,
                 both(2, "bad input: bad expression in spec: expression is nested more than "
                         "200 levels deep at position 200\n"),
                 id="deep-unary-minus"),
    pytest.param(with_metric("diag-scale", g00=True), GOOD,
                 both(2, "bad input: metric entries must be finite numbers or expression "
                         "strings\n"),
                 id="boolean-cell"),
    pytest.param(with_metric("diag-scale", g00=None), GOOD,
                 both(2, "bad input: metric entries must be finite numbers or expression "
                         "strings\n"),
                 id="null-cell"),
]


@pytest.mark.parametrize("subcommand", ["concordance", "covariance"])
@pytest.mark.parametrize("spec, points, expected", CATALOG)
def test_failing_spec_catalog(spec, points, expected, subcommand, capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, "sample_points": points}))
    code, _ = run_captured(subcommand, spec_path=str(path))
    assert (code, capsys.readouterr().err) == expected[subcommand]


@pytest.mark.parametrize("subcommand", ["concordance", "covariance"])
@pytest.mark.parametrize("content, expected", [
    pytest.param(b'\xff\xfe{"a":1}', "bad input: spec is not UTF-8 text: 'utf-8' codec can't "
                 "decode byte 0xff in position 0: invalid start byte\n", id="not-utf-8"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000,
                 "bad input: spec is not valid JSON: maximum recursion depth exceeded while "
                 "decoding a JSON array from a unicode string\n", id="deeply-nested-arrays"),
    pytest.param(b"[1, 2]", "bad input: spec must be a JSON object\n", id="not-an-object"),
])
def test_unreadable_spec_bytes(content, expected, subcommand, capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    code, _ = run_captured(subcommand, spec_path=str(path))
    assert (code, capsys.readouterr().err) == (2, expected)


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


def test_a_seeded_deformation_report_makes_at_most_4_expm_calls(monkeypatch):
    # the spec's transition (a tangent and a spinor expm) is evaluated
    # once per run, in the tangent half both modes' tables read;
    # covariance adds one stacked transition for its three seed offsets
    calls = []
    expm = scenarios.expm

    def counted(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(scenarios, "expm", counted)
    code, _ = run_captured("all", spec_path="seeded-deformation")
    assert code == 0
    assert len(calls) <= 4


@pytest.mark.parametrize("subcommand, determinants", [("concordance", 4), ("all", 7)])
def test_a_seeded_deformation_checks_each_frame_once(subcommand, determinants, monkeypatch):
    # the frame, the spec's S and Ss and the moved frame U S, once per
    # run for both modes (the Dirac lift of Ss is not checked again);
    # covariance adds its stacked S and Ss and their moved frame
    calls = []
    check_points = frames.check_points

    def counted(bad, points, message, *args, **kwargs):
        if message == "frame is singular":  # check_frame's, however it is imported
            calls.append(bad.shape)
        return check_points(bad, points, message, *args, **kwargs)

    monkeypatch.setattr(frames, "check_points", counted)
    code, _ = run_captured(subcommand, spec_path="seeded-deformation")
    assert code == 0
    assert len(calls) == determinants


@pytest.fixture
def counted_work(monkeypatch):
    """Counts table evaluations by scenario class and connection builds
    by mode, however a stage reaches the builders."""
    counts = collections.Counter()
    jets = ChiralScenario.jets

    def counted_jets(self, *args, **kwargs):
        counts[type(self).__name__] += 1
        return jets(self, *args, **kwargs)

    monkeypatch.setattr(ChiralScenario, "jets", counted_jets)
    for mode, name in (("chiral", "build_chiral_metric_connection"),
                       ("dirac", "build_dirac_metric_connection")):
        def counted_build(*args, _mode=mode, _build=getattr(cli, name), **kwargs):
            counts[_mode] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted_build)
        monkeypatch.setitem(cli.MODES, mode, (cli.MODES[mode][0], counted_build))
    return counts


@pytest.mark.parametrize("name", ["seeded-deformation", "diag-scale"])
def test_all_evaluates_each_table_and_builds_each_connection_once(name, counted_work):
    # per mode: one table, which also checks the scenario, shared by
    # every stage; covariance builds the moved chiral connections of its
    # three seed offsets as one batch besides the held ones
    code, _ = run_captured("all", spec_path=name)
    assert code == 0
    assert counted_work == {"ChiralScenario": 1, "DiracScenario": 1, "chiral": 2, "dirac": 1}


def test_build_connection_evaluates_the_oracle_once(monkeypatch):
    # the run's tangent half, which both modes' tables read, evaluates
    # the metric and its partials (2 expression grids; the coordinate
    # frame is constant); the oracle, built once for both modes,
    # evaluates the metric at the points and at 8 steps from them (9)
    calls = []
    values_at = frames.values_at

    def counted(*args):
        calls.append(1)
        return values_at(*args)

    monkeypatch.setattr(frames, "values_at", counted)
    code, _ = run_captured("build-connection", spec_path="diag-scale")
    assert code == 0
    assert len(calls) == 11


@pytest.mark.parametrize("mode", ["both", "chiral", "dirac"])
def test_concordance_computes_the_tangent_part_once_per_run(mode, monkeypatch):
    # nabla g reads only the tangent half and Gamma, which both modes
    # share: one computation per run
    calls = []
    tangent_concordance = cli.tangent_concordance

    def counted(jets, conn):
        calls.append(True)
        return tangent_concordance(jets, conn)

    monkeypatch.setattr(cli, "tangent_concordance", counted)
    spec = bundled_spec("ortho-tetrad")
    spec["mode"] = mode
    code, payload = run_captured("concordance", spec_path=scenarios.load_scenario_spec(spec))
    assert code == 0 and calls == [True]
    checks = json.loads(payload)["checks"]
    if mode == "both":
        assert checks["chiral-nabla-metric"] == checks["dirac-nabla-metric"]


@pytest.mark.parametrize("name, subcommand, calls", [
    ("diag-scale", "concordance", 1),
    ("ortho-tetrad", "concordance", 1),
    ("seeded-deformation", "concordance", 1),
    ("diag-scale", "all", 2),
    ("seeded-deformation", "all", 2),
])
def test_tangent_coefficients_are_computed_once_per_built_table(name, subcommand, calls,
                                                                monkeypatch):
    # once for the run's tangent half, which both builders read (never
    # for the undeformed base of a deformed table), and once for the
    # batch of covariance's 3 moved connections; each run of
    # metric_tangent_connection computes the frame's structural
    # constants once, which counts it however a builder reaches it
    counts = collections.Counter()
    for target in ("metric_tangent_connection", "structural_constants"):
        def counted(*args, _target=target, _function=getattr(chiral, target)):
            counts[_target] += 1
            return _function(*args)

        monkeypatch.setattr(chiral, target, counted)
    code, _ = run_captured(subcommand, spec_path=name)
    assert code == 0
    assert counts == {"metric_tangent_connection": calls, "structural_constants": calls}


def test_a_run_parses_nothing_and_evaluates_each_grid_once(monkeypatch):
    # the loaded spec holds its parsed fields, and the run's tangent
    # half evaluates the frame and the metric grids once for both
    # modes, each as values and then partials
    spec = scenarios.bundled_scenario("ortho-tetrad")
    calls = []
    values_at = frames.values_at
    from_expressions = frames.MatrixField.from_expressions.__func__

    def counted(cells, points):
        calls.append(len(cells))
        return values_at(cells, points)

    def counted_parse(cls, grid):
        calls.append("parse")
        return from_expressions(cls, grid)

    monkeypatch.setattr(frames, "values_at", counted)
    monkeypatch.setattr(frames.MatrixField, "from_expressions", classmethod(counted_parse))
    code, _ = run_captured("concordance", spec_path=spec)
    assert code == 0
    assert calls == [16, 64, 16, 64]


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_both_tables_of_a_run_hold_one_tangent_half(name):
    ctx = cli.Run(report=ResidualReport(name, "concordance"),
                  spec=scenarios.bundled_scenario(name))
    _, chiral_jets, _ = ctx.mode("chiral")
    _, dirac_jets, _ = ctx.mode("dirac")
    for label in ("frame", "g"):
        assert chiral_jets[label] is dirac_jets[label]
        assert chiral_jets[label][0] is dirac_jets[label][0]
    # and the same g^-1 and tangent coefficients, the run's tangent half's
    for label in ("ginv", "Gamma"):
        assert chiral_jets[label] is dirac_jets[label] is ctx.tangent[label]


@pytest.mark.parametrize("mode", ["chiral", "dirac"])
@pytest.mark.parametrize("name", bundled_scenario_names())
def test_a_one_mode_run_is_bit_equal_to_its_half_of_a_both_run(name, mode, tmp_path):
    # a mode's table reads the tangent half that the run's first table
    # evaluated: alone, the mode evaluates it itself, with the same
    # operations (for Dirac, the lift of the held chiral transition)
    paths = {}
    for key in ("both", mode):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps({**bundled_spec(name), "mode": key}))

    def half(path, subcommand):
        code, payload = run_captured(subcommand, spec_path=str(path))
        assert code == 0
        report = strip_timestamp(payload)
        return json.dumps(
            {part: {key: value for key, value in report.get(part, {}).items()
                    if key.startswith(mode + "-")} for part in ("checks", "tables")},
            sort_keys=True,
        )

    for subcommand in ("concordance", "build-connection"):
        alone = half(paths[mode], subcommand)
        assert alone == half(paths["both"], subcommand)
        assert mode + "-" in alone


def test_verify_identities_builds_and_checks_each_table_once(monkeypatch):
    # the chiral suite once; the tables of the identity, P, T and PT
    # frames as one stack from one transform_table of the canonical
    # Dirac table, and the Dirac suite once over that stack
    counts = collections.Counter()

    def counting(module, name):
        function = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return function(*args)

        for owner in (module, cli):
            monkeypatch.setattr(owner, name, counted)

    counting(chiral, "verify_chiral_identities")
    counting(dirac, "verify_dirac_identities")
    counting(dirac, "transform_table")
    code, _ = run_captured("verify-identities")
    assert code == 0
    assert counts == {"verify_chiral_identities": 1, "verify_dirac_identities": 1,
                      "transform_table": 1}


def test_a_corrupted_canonical_table_fails_its_checks(monkeypatch, capsys):
    # a same-chirality gamma entry breaks the chirality split: the suite
    # records what it measured and the run fails with exit 1, no traceback
    def corrupted():
        table = dirac.canonical_dirac_constants()
        gamma = table["gamma"].copy()
        gamma[0, 1, 0] = 1.0
        return {**table, "gamma": gamma}

    monkeypatch.setattr(cli, "canonical_dirac_constants", corrupted)
    code, payload = run_captured("verify-identities")
    err = capsys.readouterr().err
    assert code == 1
    assert json.loads(payload)["checks"]["dirac-chirality-split-suite"]["max_residual"] == 1.0
    failed = [line for line in err.splitlines() if line.startswith("failed checks: ")]
    assert len(failed) == 1
    assert "dirac-chirality-split-suite" in failed[0].split(": ", 1)[1].split(", ")
    assert "dirac-chiral-embedding-suite" not in failed[0]


def test_a_spec_with_torsion_has_no_tangent_oracle(capsys, tmp_path):
    # the raw Christoffel oracle is torsion-free: it would disagree with
    # the connection of a valid torsion, so such a spec gets none
    torsion = [[["0"] * 4 for _ in range(4)] for _ in range(4)]
    torsion[0][0][1], torsion[0][1][0] = "0.1*x1", "-0.1*x1"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**bundled_spec("diag-scale"), "torsion": torsion}))
    code, payload = run_captured("build-connection", spec_path=str(path))
    assert (code, capsys.readouterr().err) == (0, "")
    data = json.loads(payload)
    assert not any("tangent-oracle" in check for check in data["checks"])
    for table in data["tables"].values():
        assert not any("tangent-oracle" in entry for entry in table)


def test_an_oracle_step_outside_the_metric_domain_is_a_numerical_failure(capsys, tmp_path):
    # valid at the sample point, but the oracle's step x0 - fd_step leaves
    # the domain of the square root
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**with_metric("diag-scale", g00="1+sqrt(x0-0.49995)"),
                                "sample_points": [[0.5, 0.2, -0.3, 0.1]]}))
    code, _ = run_captured("concordance", spec_path=str(path))
    assert (code, capsys.readouterr().err) == (0, "")
    code, payload = run_captured("build-connection", spec_path=str(path))
    assert (code, payload) == (1, "")
    assert capsys.readouterr().err == (
        "numerical failure: tangent-oracle at (0.5, 0.2, -0.3, 0.1): "
        "sqrt(-4.999999999999449e-05): math domain error\n"
    )


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

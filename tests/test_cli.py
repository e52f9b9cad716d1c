import io
import json
import math

import pytest
from importlib import resources

from spintensor.cli import (
    REPORT_SCHEMA,
    ResidualReport,
    build_parser,
    main,
    parse_expression,
    run,
)


def run_captured(subcommand, **kwargs):
    stream = io.StringIO()
    code = run(subcommand, stream=stream, **kwargs)
    return code, stream.getvalue()


def strip_timestamp(payload):
    data = json.loads(payload)
    data.pop("timestamp")
    return data


def test_parse_expression_is_a_scalar_field():
    field = parse_expression("1+x0")
    assert field((0.5, 0, 0, 0)) == 1.5
    value, d = field.jet((0.5, 0, 0, 0))
    assert value.shape == () and d.shape == (4,)
    assert abs(d[0] - 1.0) < 1e-12


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
    ],
)
def test_bad_flags_overrides_and_spec_numbers_are_exit_2(
    flags, env, spec_overrides, monkeypatch, capsys, tmp_path
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    spec = json.loads(
        (resources.files("spintensor") / "scenarios" / "ortho-tetrad.json").read_text()
    )
    spec.update(spec_overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = exit_code(["all", "--spec", str(path), "--out", str(tmp_path / "r.json"), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_run_rejects_an_out_of_range_fd_step(capsys):
    for step in (0.0, math.nan, -1.0):
        code, _ = run_captured("build-connection", spec_path="diag-scale", fd_step=step)
        assert code == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 3


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

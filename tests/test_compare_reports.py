"""tools/compare_reports.py: moved values are listed, changed results exit 1."""

import copy
import importlib.util
import io
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
compare_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_reports)

REPORT = {
    "checks": {
        "dirac-nabla-pairing": {"max_residual": 1e-16, "passed": True,
                                "points_evaluated": 5, "tolerance": 1e-6},
        "chiral-nabla-metric": {"max_residual": 0.0, "passed": True,
                                "points_evaluated": 5, "tolerance": 1e-6},
    },
    "name": "flat",
    "overall_pass": True,
    "tables": {"dirac-connection": [{"point": [0.5, 0.2, -0.3, 0.1],
                                     "spinor": {"re": [[0.25, 0.0]], "im": [[0.0, 0.0]]}}]},
}


def write(directory, report, exit_text="json exit 0\ntext exit 0\n"):
    directory.mkdir()
    (directory / "r.json").write_text(json.dumps(report), encoding="utf-8")
    (directory / "r.txt").write_text(json.dumps(report["checks"]), encoding="utf-8")
    (directory / "r.exit").write_text(exit_text, encoding="utf-8")
    return directory


def compare(tmp_path, new, **kwargs):
    out = io.StringIO()
    code = compare_reports.compare(write(tmp_path / "old", REPORT),
                                   write(tmp_path / "new", new, **kwargs), out)
    return code, out.getvalue()


def test_identical_directories_exit_0(tmp_path):
    code, text = compare(tmp_path, REPORT)
    assert code == 0
    assert "0 of 3 files differ" in text


def test_moved_values_are_listed_with_their_largest_delta(tmp_path):
    new = copy.deepcopy(REPORT)
    new["checks"]["dirac-nabla-pairing"]["max_residual"] = 3e-16
    new["tables"]["dirac-connection"][0]["spinor"]["re"][0][1] = 1e-16
    code, text = compare(tmp_path, new)
    assert code == 0
    assert "record dirac-nabla-pairing: 1e-16 -> 3e-16  |delta| 2e-16" in text
    assert "table dirac-connection: 1 of 8 numbers moved, largest |delta| 1e-16" in text
    assert "chiral-nabla-metric" not in text


@pytest.mark.parametrize("change", ["passed", "check-set", "layout", "exit"])
def test_changed_results_exit_1(tmp_path, change):
    new, kwargs = copy.deepcopy(REPORT), {}
    if change == "passed":
        new["checks"]["dirac-nabla-pairing"]["passed"] = False
    elif change == "check-set":
        del new["checks"]["chiral-nabla-metric"]
    elif change == "layout":
        new["tables"]["dirac-connection"][0]["spinor"]["re"][0].append(0.0)
    else:
        kwargs["exit_text"] = "json exit 1\ntext exit 1\n"
    code, text = compare(tmp_path, new, **kwargs)
    assert code == 1
    assert "the results of a run changed" in text

"""tools/outputs.py --compare on small hand-made output trees; no vekua-lab
command is run."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("outputs_tool",
                                               os.path.join(ROOT, "tools", "outputs.py"))
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)

REPORT = {"passed": True, "rows": [{"interior_error": 2.0}],
          "provenance": {"config_hash": "52d4767b47afdf66"}}
CSV = "case,level,residual\nlinear,10,2.0\n"


def _tree(root, report, csv):
    root.mkdir()
    (root / "report.json").write_text(json.dumps(report, indent=2))
    (root / "errors.csv").write_text(csv)
    return str(root)


def _compare(tmp_path, capsys, report=REPORT, csv=CSV):
    """Exit status and printed lines of --compare between the reference tree
    and one holding `report` and `csv`."""
    parent = _tree(tmp_path / "parent", REPORT, CSV)
    change = _tree(tmp_path / "change", report, csv)
    status = outputs.main(["--compare", parent, change])
    return status, capsys.readouterr().out.splitlines()


def test_compare_of_identical_trees_prints_nothing(tmp_path, capsys):
    assert _compare(tmp_path, capsys) == (0, [])


def test_compare_reports_a_numeric_move_without_flagging_it(tmp_path, capsys):
    report = {**REPORT, "rows": [{"interior_error": 2.0 * (1.0 + 1e-9)}]}
    status, lines = _compare(tmp_path, capsys, report=report)
    assert status == 0
    assert lines == ["report.json: largest move 1.00e-09 relative (at rows.0.interior_error), "
                     "2.00e-09 absolute"]


@pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
def test_compare_flags_a_finite_value_that_became_infinite(tmp_path, capsys, bad):
    # the relative move |a - b| / max(|a|, |b|) of 2.0 and inf is NaN, which
    # recorded no place and read as "no numeric move"
    report = {**REPORT, "rows": [{"interior_error": bad}]}
    status, lines = _compare(tmp_path, capsys, report=report, csv=CSV.replace("2.0", str(bad)))
    assert status == 1
    assert lines == ["errors.csv: no numeric move; 1 other change(s): 1:2",
                     "report.json: no numeric move; 1 other change(s): rows.0.interior_error"]


def test_compare_names_a_changed_config_hash(tmp_path, capsys):
    report = {**REPORT, "provenance": {"config_hash": "b378d89b836ff8b2"}}
    status, lines = _compare(tmp_path, capsys, report=report)
    assert status == 1
    assert lines == ["report.json: no numeric move; 1 other change(s): provenance.config_hash"]

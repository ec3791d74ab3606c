"""tools/outputs.py --compare on small hand-made output trees, and a
listing refused without the package; no vekua-lab command is run."""

import importlib.util
import json
import os
import subprocess
import sys

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


def test_compare_takes_a_field_that_is_nan_in_both_trees_as_unchanged(tmp_path, capsys):
    # json.load gives two NaN floats, and NaN != NaN: the field read as an
    # other change whenever its file differed elsewhere
    parent = _tree(tmp_path / "parent", {"x": float("nan"), "y": 1.0}, CSV)
    change = _tree(tmp_path / "change", {"x": float("nan"), "y": 2.0}, CSV)
    assert outputs.main(["--compare", parent, change]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "report.json: largest move 5.00e-01 relative (at y), 1.00e+00 absolute"]


def test_compare_scales_a_move_by_the_largest_magnitude_in_its_file(tmp_path, capsys):
    # a rounding zero that changes beside O(1) entries (as in dtn_matrix.csv)
    # read 1.0-1.97 relative to itself; relative to the file's largest
    # magnitude it reads as the rounding move it is
    matrix = "i,j,value\n0,0,2.0\n0,1,{}\n1,0,-8e-15\n1,1,-1.5\n"
    parent = _tree(tmp_path / "parent", REPORT, matrix.format("-8e-15"))
    change = _tree(tmp_path / "change", REPORT, matrix.format("2e-15"))
    assert outputs.main(["--compare", parent, change]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "errors.csv: largest move 5.00e-15 relative (at 2:2), 1.00e-14 absolute"]


def test_compare_scales_a_move_by_its_own_field_not_by_integer_metadata(tmp_path, capsys):
    # a report's `level` of 32 set the whole file's scale, so a 2.66e-14 move
    # of a 7.26 field read 8.3e-16 relative; each field path (list indices
    # dropped) and each CSV column now has its own scale
    report = {"passed": True, "level": 32, "rows": [{"dtn_gap": 7.26}, {"dtn_gap": 1.5}]}
    moved = {**report, "rows": [{"dtn_gap": 7.26 + 2.66e-14}, {"dtn_gap": 1.5}]}
    csv = "level,i,dtn_gap\n32,0,{}\n32,1,1.5\n"
    parent = _tree(tmp_path / "parent", report, csv.format(7.26))
    change = _tree(tmp_path / "change", moved, csv.format(7.26 + 2.66e-14))
    assert outputs.main(["--compare", parent, change]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "errors.csv: largest move 3.67e-15 relative (at 1:2), 2.66e-14 absolute",
        "report.json: largest move 3.67e-15 relative (at rows.0.dtn_gap), 2.66e-14 absolute"]


def test_listing_without_the_package_exits_2_and_prints_no_listing(tmp_path):
    # with PYTHONPATH unset the tool printed a traceback and an empty
    # listing, and two empty listings diff as identical
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "outputs.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and "PYTHONPATH" in done.stderr

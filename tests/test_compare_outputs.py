import importlib.util
import json
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)
differences = compare_outputs.differences


CSV = "refinement,max_error\nspatial,0.5\n"


def make_tree(root: Path, timing=0.25, csv=CSV, phi=(1.0, 2.0, 3.0)):
    """A small output tree of the kinds the script compares."""
    (root / "examples" / "mms").mkdir(parents=True)
    (root / "solves").mkdir()
    (root / "examples" / "mms" / "mms_convergence.csv").write_text(csv)
    (root / "examples" / "mms" / "manifest.json").write_text(json.dumps(
        {"config": {"mms": "builtin"}, "timings_s": {"mms": timing},
         "outputs": ["mms_convergence.csv"]}, indent=2) + "\n")
    np.savez(root / "solves" / "dara_00.npz", phi=np.array(phi),
             steps=np.ones((2, 8)))
    return root


class TestFirstDifference:
    def test_identical_trees(self, tmp_path):
        assert differences(make_tree(tmp_path / "a"),
                           make_tree(tmp_path / "b")) == []

    def test_one_changed_byte(self, tmp_path):
        found = differences(
            make_tree(tmp_path / "a"),
            make_tree(tmp_path / "b", csv=CSV.replace("0.5", "0.6")))
        assert found == ["examples/mms/mms_convergence.csv: bytes differ "
                         "at offset 31 (line 2)"]

    def test_only_timings_changed(self, tmp_path):
        assert differences(make_tree(tmp_path / "a"),
                           make_tree(tmp_path / "b", timing=9.0)) == []

    def test_array_bits_compared(self, tmp_path):
        # -0.0 == 0.0, but the bits differ
        found = differences(make_tree(tmp_path / "a", phi=(0.0, 1.0)),
                            make_tree(tmp_path / "b", phi=(-0.0, 1.0)))
        assert found == ["solves/dara_00.npz: array 'phi' differs at flat "
                         "index 0: 0.0 != -0.0"]

    def test_missing_file(self, tmp_path):
        change = make_tree(tmp_path / "b")
        (change / "solves" / "dara_00.npz").unlink()
        found = differences(make_tree(tmp_path / "a"), change)
        assert found == ["solves/dara_00.npz: only in the parent outputs"]

    def test_every_changed_file_is_named(self, tmp_path):
        # a changed CSV and a changed array, and a file on one side only:
        # each is named, in name order, not just the first
        change = make_tree(tmp_path / "b", csv=CSV.replace("0.5", "0.6"),
                           phi=(1.0, 2.0, 4.0))
        (change / "examples" / "extra.csv").write_text(CSV)
        found = differences(make_tree(tmp_path / "a"), change)
        assert found == [
            "examples/extra.csv: only in the change outputs",
            "examples/mms/mms_convergence.csv: bytes differ at offset 31 "
            "(line 2)",
            "solves/dara_00.npz: array 'phi' differs at flat index 2: 3.0 "
            "!= 4.0"]


class TestMain:
    def test_prints_each_difference(self, tmp_path, monkeypatch, capsys):
        # each side's outputs come from make_tree instead of a checkout
        def side(root, out):
            if root.name == "parent":
                make_tree(out)
            else:
                make_tree(out, csv=CSV.replace("0.5", "0.6"), timing=9.0,
                          phi=(1.0, 2.0, 4.0))
        monkeypatch.setattr(compare_outputs, "run_side", side)
        assert compare_outputs.main([str(tmp_path / "parent"),
                                     str(tmp_path / "change")]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "examples/mms/mms_convergence.csv: bytes differ at offset 31 "
            "(line 2)",
            "solves/dara_00.npz: array 'phi' differs at flat index 2: 3.0 "
            "!= 4.0",
            "outputs differ: 2 of 3 files"]

    def test_identical_outputs_exit_zero(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setattr(compare_outputs, "run_side",
                            lambda root, out: make_tree(out))
        assert compare_outputs.main([str(tmp_path / "parent"),
                                     str(tmp_path / "change")]) == 0
        assert capsys.readouterr().out == "outputs identical: 3 files\n"

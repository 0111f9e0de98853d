import importlib.util
import json
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)
first_difference = compare_outputs.first_difference


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
        assert first_difference(make_tree(tmp_path / "a"),
                                make_tree(tmp_path / "b")) is None

    def test_one_changed_byte(self, tmp_path):
        problem = first_difference(
            make_tree(tmp_path / "a"),
            make_tree(tmp_path / "b", csv=CSV.replace("0.5", "0.6")))
        assert problem == ("examples/mms/mms_convergence.csv: bytes differ "
                           "at offset 31 (line 2)")

    def test_only_timings_changed(self, tmp_path):
        assert first_difference(make_tree(tmp_path / "a"),
                                make_tree(tmp_path / "b", timing=9.0)) is None

    def test_array_bits_compared(self, tmp_path):
        # -0.0 == 0.0, but the bits differ
        problem = first_difference(make_tree(tmp_path / "a", phi=(0.0, 1.0)),
                                   make_tree(tmp_path / "b", phi=(-0.0, 1.0)))
        assert problem == ("solves/dara_00.npz: array 'phi' differs at flat "
                           "index 0: 0.0 != -0.0")

    def test_missing_file(self, tmp_path):
        change = make_tree(tmp_path / "b")
        (change / "solves" / "dara_00.npz").unlink()
        problem = first_difference(make_tree(tmp_path / "a"), change)
        assert problem == "solves/dara_00.npz: only in the parent outputs"

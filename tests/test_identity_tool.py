"""Tests of the identity battery (``tools/identity.py``, loaded by path): its difference report and its trees.

The digest decides whether a family is identical; ``largest_difference``
only says how far a differing family moved, so it must see every part of a
number and must not let a rounding-level entry decide the ratio alone.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SPEC = importlib.util.spec_from_file_location("identity", Path(__file__).parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(identity)


def test_an_imaginary_part_difference_is_reported():
    rel, key = identity.largest_difference({"z": np.array([1.0 + 1e-3j, 2.0])}, {"z": np.array([1.0 + 2e-3j, 2.0])})
    assert key == "z" and rel > 0


def test_a_rounding_level_entry_is_scaled_by_its_item():
    # an error estimate of 5.6e-17 against 1.1e-16 beside a value of 0.1
    rel, key = identity.largest_difference({"F": np.array([0.1, 5.6e-17])}, {"F": np.array([0.1, 1.1e-16])})
    assert key == "F" and 0 < rel <= 1e-15


# A stand-in battery: it dumps which tool ran and for which tree, as the real one dumps its families.
FAKE_TOOL = """import pickle, sys
args = sys.argv
with open(args[args.index("--dump") + 1], "wb") as fh:
    pickle.dump({"tool": __file__, "tree": args[args.index("--collect") + 1]}, fh)
"""


def test_each_tree_is_collected_by_its_own_tool(tmp_path):
    # internal call shapes may change between commits, so a tree's outputs come from that tree's own battery
    trees = [tmp_path / "ours", tmp_path / "parent"]
    for tree in trees:
        (tree / "tools").mkdir(parents=True)
        (tree / "tools" / "identity.py").write_text(FAKE_TOOL)
    for tree, (families, _) in zip(trees, identity.run_trees(trees)):
        assert families == {"tool": str(tree / "tools" / "identity.py"), "tree": str(tree)}
    (trees[1] / "tools" / "identity.py").unlink()  # a tree without a battery is refused, not run by another's
    with pytest.raises(SystemExit, match="no tools/identity.py"):
        identity.run_trees(trees)

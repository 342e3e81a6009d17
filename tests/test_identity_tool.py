"""Tests of the identity battery's difference report (``tools/identity.py``, loaded by path).

The digest decides whether a family is identical; ``largest_difference``
only says how far a differing family moved, so it must see every part of a
number and must not let a rounding-level entry decide the ratio alone.
"""

import importlib.util
from pathlib import Path

import numpy as np

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

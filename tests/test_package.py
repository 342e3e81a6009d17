"""Package-level tests: what ``import homsr`` loads.

``import homsr`` dominates the set-up time and peak memory of the short
CLI runs, so the heavy scipy subpackages the library does not use must
stay unloaded.  The check runs in a fresh interpreter, because the test
session itself imports scipy.integrate and scipy.stats for its oracles.
"""

import os
import subprocess
import sys

import homsr


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    # the fresh interpreter imports the same homsr as this session
    src = os.path.dirname(os.path.dirname(os.path.abspath(homsr.__file__)))
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import homsr; "
        "print(','.join(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.stats') if m in sys.modules))"
    )
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == ""

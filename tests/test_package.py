"""Package-level tests: what ``import homsr`` loads and exports.

``homsr`` republishes the ``__all__`` of its four modules by star import,
so those lists must not overlap: a later module would silently shadow an
earlier module's name.

``import homsr`` dominates the set-up time and peak memory of the short
CLI runs, so the heavy scipy subpackages the library does not use must
stay unloaded.  The check runs in a fresh interpreter, because the test
session itself imports scipy.integrate and scipy.stats for its oracles.
"""

import os
import subprocess
import sys

import homsr
from homsr import coincidence, estimation, fisher, optics

MODULES = (optics, coincidence, fisher, estimation)


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    # the fresh interpreter imports the same homsr as this session
    src = os.path.dirname(os.path.dirname(os.path.abspath(homsr.__file__)))
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import homsr; "
        "print(','.join(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.stats') if m in sys.modules))"
    )
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == ""


def test_module_exports_are_disjoint():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_republishes_each_module_export():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(homsr, name) is getattr(module, name), f"{module.__name__}.{name}"

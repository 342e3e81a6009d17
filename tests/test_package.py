"""Package-level tests: what ``import homsr`` loads and exports.

``homsr`` republishes the ``__all__`` of its four modules by star import,
so those lists must not overlap: a later module would silently shadow an
earlier module's name.

``import homsr`` dominates the set-up time and peak memory of the short
CLI runs, so the heavy scipy subpackages the library does not use must
stay unloaded: scipy.integrate, scipy.stats and scipy.optimize (the fit's
bounded Brent search is the package's own).  They must stay unloaded after
a fit and a ``homsr estimate`` run too, not only after the import.  The
checks run in a fresh interpreter, because the test session itself imports
those subpackages for its oracles.
"""

import os
import subprocess
import sys

import homsr
from homsr import coincidence, estimation, fisher, optics

MODULES = (optics, coincidence, fisher, estimation)
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.stats")


def heavy_loaded_after(code):
    """The heavy scipy subpackages loaded after ``code`` runs in a fresh interpreter on this session's homsr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(homsr.__file__)))
    probe = f"import sys; sys.path.insert(0, {src!r}); import homsr\n{code}\n"
    probe += f"print('loaded:' + ','.join(m for m in {HEAVY!r} if m in sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return loaded.stdout.splitlines()[-1].removeprefix("loaded:")


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    assert heavy_loaded_after("") == ""


def test_a_fit_and_an_estimate_run_leave_heavy_scipy_subpackages_unloaded(tmp_path):
    # the smallest run the CLI takes: two trials
    code = f"""
import numpy as np
from homsr.cli import main
psf = homsr.PsfModel()
record = homsr.FrameSampler(homsr.SourceScene(1.0, 1.5), psf, l_cap=6).sample_record(np.random.default_rng(5), 300)
assert homsr.mle_separation(record, psf, 1.5, l_cap=6, compute_crb=False).optimizer_success
assert main(["estimate", "--frames", "300", "--trials", "2", "--l-cap", "6", "--out", {str(tmp_path / "e.csv")!r}]) == 0
"""
    assert heavy_loaded_after(code) == ""


def test_module_exports_are_disjoint():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_republishes_each_module_export():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(homsr, name) is getattr(module, name), f"{module.__name__}.{name}"

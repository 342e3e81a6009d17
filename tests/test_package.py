"""Package-level tests: what ``import homsr`` loads and exports.

``homsr`` republishes the ``__all__`` of its four modules by star import,
so those lists must not overlap: a later module would silently shadow an
earlier module's name.

homsr runs on numpy and the standard library alone: no module under
``src/homsr`` imports scipy, at any depth, and ``pyproject.toml`` lists
numpy as the only run-time dependency (scipy is in the ``test`` extra).  So
no scipy module may be loaded at run time: not after the import, not after
a fit and a ``homsr estimate`` run (the fit's bounded Brent search is the
package's own), not after a ``homsr fi-curve`` run (the lattice's inverse
normal CDF is the package's own) and not after ``di_baseline_fisher`` (its
normal CDF is ``math.erfc``'s).  The load checks run in a fresh
interpreter, because the test session itself imports scipy for its
oracles.  The ``test`` extra lists every other module a test file imports,
so ``pip install -e ".[test]"`` is enough to collect every test.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import homsr
from homsr import coincidence, estimation, fisher, optics

MODULES = (optics, coincidence, fisher, estimation)


def scipy_loaded_after(code):
    """The scipy modules loaded after ``code`` runs in a fresh interpreter on this session's homsr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(homsr.__file__)))
    probe = f"import sys; sys.path.insert(0, {src!r}); import homsr\n{code}\n"
    probe += "print('loaded:' + ','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return loaded.stdout.splitlines()[-1].removeprefix("loaded:")


def test_import_loads_no_scipy():
    assert scipy_loaded_after("") == ""


def test_a_fit_and_an_estimate_run_load_no_scipy(tmp_path):
    # the smallest run the CLI takes: two trials
    code = f"""
import numpy as np
from homsr.cli import main
psf = homsr.PsfModel()
record = homsr.FrameSampler(homsr.SourceScene(1.0, 1.5), psf, l_cap=6).sample_record(np.random.default_rng(5), 300)
assert homsr.mle_separation(record, psf, 1.5, l_cap=6, compute_crb=False).optimizer_success
assert main(["estimate", "--frames", "300", "--trials", "2", "--l-cap", "6", "--out", {str(tmp_path / "e.csv")!r}]) == 0
"""
    assert scipy_loaded_after(code) == ""


def test_a_fi_curve_run_loads_no_scipy(tmp_path):
    # one point of the lattice path: orders 3..l_max on one rank-1 lattice
    code = f"""
from homsr.cli import main
assert main(["fi-curve", "--s-grid", "1", "--out", {str(tmp_path / "f.csv")!r}]) == 0
"""
    assert scipy_loaded_after(code) == ""


def test_a_direct_imaging_baseline_loads_no_scipy():
    code = "assert homsr.di_baseline_fisher(homsr.SourceScene(1.0, 1.5), homsr.PsfModel(), 0.1, 400) > 0"
    assert scipy_loaded_after(code) == ""


def test_no_module_imports_scipy():
    # every import statement, function bodies included, not only those a run happens to reach
    for path in Path(homsr.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            names += [node.module] if isinstance(node, ast.ImportFrom) and not node.level else []
            assert not [n for n in names if n.split(".")[0] == "scipy"], f"{path.name}:{node.lineno}"


def project_table():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on; requires-python is 3.10
    return tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]


def distribution_names(requirements):
    return [re.match(r"[\w.-]+", requirement).group() for requirement in requirements]


def test_numpy_is_the_only_runtime_dependency():
    assert distribution_names(project_table()["dependencies"]) == ["numpy"]


def test_the_test_extra_installs_every_module_the_tests_import():
    # so that `pip install -e ".[test]"` collects every test file: the import statements at any depth and the
    # names given to importorskip, outside the standard library, are homsr, its dependencies or the test extra
    project = project_table()
    installed = {"homsr", *distribution_names(project["dependencies"] + project["optional-dependencies"]["test"])}
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            names += [node.module] if isinstance(node, ast.ImportFrom) and not node.level else []
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip":
                names.append(node.args[0].value)
            for top in {name.split(".")[0] for name in names} - set(sys.stdlib_module_names):
                assert top in installed, f"{path.name}:{node.lineno} imports {top}"


def test_module_exports_are_disjoint():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_republishes_each_module_export():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(homsr, name) is getattr(module, name), f"{module.__name__}.{name}"

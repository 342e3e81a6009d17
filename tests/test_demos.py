"""Each script under ``demos/`` runs to its end with every warning an error.

A demo calls the public API the way a reader would, so a renamed or changed
public name shows here.  Each runs as ``python -W error demos/<name>.py`` in
a fresh working directory, with ``src`` first on ``PYTHONPATH``, and must exit
0, print its closing line and write no file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


LAST_LINES = {
    "coincidence_landscapes": "L = 4:  X=0: 0.2461  X=1: 0.2500  X=2: 0.0079  X=3: 0.2500  X=4: 0.2461",
    "estimation_experiment": "per-frame Fisher information of the measurement.",
    "fisher_information_tour": "sources are separated by a few PSF widths.",
}


@pytest.mark.parametrize("demo", LAST_LINES)
def test_demo_runs_clean(demo, tmp_path):
    path = os.pathsep.join([str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / f"{demo}.py")], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == LAST_LINES[demo]
    assert list(tmp_path.iterdir()) == []

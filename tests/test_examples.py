"""The docstring examples and the forward-model demo run as documented."""

import doctest
import os
import pathlib
import subprocess
import sys

import snapslam.geometry

DEMO = pathlib.Path(__file__).resolve().parent.parent / "demos" / "01_forward_model.py"


def test_geometry_docstring_examples_pass():
    result = doctest.testmod(snapslam.geometry)
    assert result.attempted >= 2 and result.failed == 0


def test_forward_model_demo_closes_exactly():
    src = str(pathlib.Path(snapslam.geometry.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, str(DEMO)], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert "worst mismatch 0.000e+00 (m / rad)" in run.stdout

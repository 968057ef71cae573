"""CLI outputs on the demo room against frozen expected outputs.

``tests/golden/`` holds what ``snapslam solve`` (every mode) and
``snapslam sweep`` wrote for ``demos/room.scene`` at the positions of
``demos/positions.txt``, simulated with seed 0 at ``max_bounces`` 1 and 2.
Each test re-runs the CLI in-process on a freshly simulated dataset and
compares row by row: ids, failure flags, hypotheses, inlier and outlier
sets, detection decisions and landmark source paths exactly, every float to
a relative 1e-9. Regenerate with
``PYTHONPATH=src python tests/test_golden.py`` only when an output is meant
to change, and say so in the change log.
"""

import csv
import sys
from pathlib import Path

import pytest

from snapslam import read_jsonl
from snapslam.cli import main
from snapslam.evaluation import MODES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
BOUNCES = (1, 2)


def _simulate(bounces, out_dir):
    data = out_dir / f"room_b{bounces}.jsonl"
    assert main(["simulate", "--scene", str(ROOT / "demos" / "room.scene"),
                 "--positions", str(ROOT / "demos" / "positions.txt"),
                 "--seed", "0", "--max_bounces", str(bounces),
                 "--out", str(data)]) == 0
    return data


def _solve(data, mode, out):
    assert main(["solve", "--data", str(data), "--mode", mode, "--out", str(out)]) == 0


def _sweep(data, out):
    assert main(["sweep", "--data", str(data), "--out", str(out)]) == 0


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _assert_same(got, want, where):
    """Exact on everything but floats, which match to a relative 1e-9."""
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert got == pytest.approx(want, rel=1e-9), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


@pytest.fixture(scope="module", params=BOUNCES, ids=lambda b: f"bounces{b}")
def dataset(request, tmp_path_factory):
    return request.param, _simulate(request.param, tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("mode", MODES)
def test_solve_matches_golden(dataset, mode, tmp_path):
    bounces, data = dataset
    out = tmp_path / "solve.jsonl"
    _solve(data, mode, out)
    want = read_jsonl(GOLDEN / f"room_b{bounces}_{mode}.jsonl")
    got = read_jsonl(out)
    assert [r["id"] for r in got] == [r["id"] for r in want]
    for g, w in zip(got, want):
        _assert_same(g, w, f"{mode}:{w['id']}")


def test_sweep_matches_golden(dataset, tmp_path):
    bounces, data = dataset
    out = tmp_path / "sweep.csv"
    _sweep(data, out)
    want = _read_csv(GOLDEN / f"room_b{bounces}_sweep.csv")
    got = _read_csv(out)
    assert got[0] == want[0] and len(got) == len(want)
    for i, (g, w) in enumerate(zip(got[1:], want[1:])):
        _assert_same([float(v) for v in g], [float(v) for v in w], f"sweep[{i}]")


def regenerate(out_dir=GOLDEN):
    """Rewrite every golden file from the current code."""
    out_dir.mkdir(exist_ok=True)
    for bounces in BOUNCES:
        data = _simulate(bounces, out_dir)
        for mode in MODES:
            _solve(data, mode, out_dir / f"room_b{bounces}_{mode}.jsonl")
        _sweep(data, out_dir / f"room_b{bounces}_sweep.csv")
        data.unlink()


if __name__ == "__main__":
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)

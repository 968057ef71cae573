"""CLI outputs on the demo room against frozen expected outputs.

``tests/golden/`` holds what ``snapslam solve`` (every mode) and
``snapslam sweep`` wrote for ``demos/room.scene`` at the positions of
``demos/positions.txt``, simulated with seed 0 at ``max_bounces`` 1 and 2.
Each test re-runs the CLI in-process on a freshly simulated dataset and
compares row by row: ids, failure flags, hypotheses, inlier and outlier
sets, detection decisions and landmark source paths exactly, every float to
a relative 1e-9. ``golden/datasets.sha256`` pins the simulated datasets
themselves, byte for byte, so a simulator change shows apart from a solver
change; at ``max_bounces`` 3, ``snapslam simulate``'s default, it pins the
dataset alone, with no solve goldens. The solve outputs are also written byte for byte the same under
other OpenBLAS core types and without NumPy's AVX2 and AVX-512 loops, each
in a subprocess. Regenerate with
``PYTHONPATH=src python tests/test_golden.py`` only when an output is meant
to change, and say so in the change log.

To see what a change moves, regenerate into another directory DIR and
compare:

    PYTHONPATH=src python tests/test_golden.py DIR
    PYTHONPATH=src python tests/test_golden.py --diff DIR

``--diff`` first says whether each simulated dataset's digest matches.
For every golden file, it then lists the rows whose structural fields
differ (id, failure flag, hypothesis, inlier and outlier sets, detection
decision, landmark source paths) and the largest change of each float
field: the distance a point moved, in metres for positions, and the
absolute change of a scalar. The exit status is 1 when a structural field
differs. ``diff(got_dir, want_dir)`` compares any two directories of
solve and sweep outputs with the same file names.
"""

import argparse
import csv
import hashlib
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from snapslam import read_jsonl, write_jsonl
from snapslam.cli import main
from snapslam.evaluation import MODES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
BOUNCES = (1, 2)
DIGEST_ONLY = (3,)
"""Depths whose simulated dataset is pinned by its digest alone."""
DIGESTS = "datasets.sha256"


def _simulate(bounces, out_dir):
    data = out_dir / f"room_b{bounces}.jsonl"
    assert main(["simulate", "--scene", str(ROOT / "demos" / "room.scene"),
                 "--positions", str(ROOT / "demos" / "positions.txt"),
                 "--seed", "0", "--max_bounces", str(bounces),
                 "--out", str(data)]) == 0
    return data


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(directory):
    """{dataset file name: sha256} as ``sha256sum`` lists it in DIGESTS."""
    path = directory / DIGESTS
    if not path.exists():
        return {}
    return {name: digest for digest, name in
            (line.split() for line in path.read_text().splitlines())}


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


def test_simulated_dataset_matches_its_digest(dataset):
    _, data = dataset
    assert _sha256(data) == _digests(GOLDEN)[data.name]


@pytest.mark.parametrize("bounces", DIGEST_ONLY)
def test_deeper_simulated_dataset_matches_its_digest(bounces, tmp_path):
    data = _simulate(bounces, tmp_path)
    assert _sha256(data) == _digests(GOLDEN)[data.name]


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


_MACHINE_SETTINGS = (
    {},
    {"OPENBLAS_CORETYPE": "Sandybridge"},
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"},
)
"""Settings that make this machine run the kernels of another: OpenBLAS's
older core types, and NumPy without its AVX2 and AVX-512 loops. NumPy
ignores a feature name the CPU lacks, so each setting runs anywhere."""


_SOLVE_MODES = """
import sys
from snapslam.cli import main
data, config, *pairs = sys.argv[1:]
for mode, out in zip(pairs[::2], pairs[1::2]):
    if main(["solve", "--data", data, "--mode", mode, "--config", config, "--out", out]):
        sys.exit(f"solve --mode {mode} failed")
"""
"""``snapslam solve`` in several modes in one interpreter: ``python -c``
with the dataset, the config file, then a mode and its output path for
each solve."""


def test_solve_writes_the_same_bytes_under_other_blas_and_simd_kernels(tmp_path):
    # OpenBLAS picks its kernels by CPU and NumPy its SIMD loops by CPU
    # features; a solve writes the same bytes whichever it runs on, so the
    # digests do not depend on them. What this cannot vary is the C
    # library's libm, whose trig may round differently on another machine.
    # Both libraries choose their kernels when they load, so each setting
    # takes one interpreter, which solves in every mode.
    data = _simulate(2, tmp_path)
    config = tmp_path / "empty.cfg"
    config.write_text("")
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = str(ROOT / "src")
    runs = []
    for k, setting in enumerate(_MACHINE_SETTINGS):
        outs = {mode: tmp_path / f"{mode}_{k}.jsonl"
                for mode in ("robust_mixed", "robust_h1", "benchmark")}
        pairs = [str(item) for mode_out in outs.items() for item in mode_out]
        proc = subprocess.run([sys.executable, "-c", _SOLVE_MODES, str(data), str(config),
                               *pairs], capture_output=True, text=True, timeout=360,
                              env={**env, **setting})
        assert proc.returncode == 0, (setting, proc.stderr)
        runs.append([out.read_bytes() for out in outs.values()])
    for setting, run in zip(_MACHINE_SETTINGS[1:], runs[1:]):
        assert run == runs[0], setting


def _structure(row):
    """The fields of a solution row that a rounding-level change leaves alone."""
    detection = row.get("detection")
    return (row["id"], row["failed"], row.get("hypothesis"), row.get("inliers"),
            row.get("outliers"), detection and detection["decided"],
            [lm["source_path"] for lm in row.get("landmarks", [])])


def _floats(value, field=""):
    """(field, value) of every float and every [x, y] point of a row.

    List positions are left out of the field name, so every landmark's
    position is one field.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _floats(item, f"{field}.{key}" if field else key)
    elif isinstance(value, list):
        if len(value) == 2 and all(isinstance(item, float) for item in value):
            yield field, value
        else:
            for item in value:
                yield from _floats(item, field)
    elif isinstance(value, float):
        yield field, value


def _change(got, want):
    if isinstance(want, list):
        return math.hypot(got[0] - want[0], got[1] - want[1])
    return 0.0 if got == want else abs(got - want)


def _rows(path):
    if path.suffix == ".jsonl":
        return read_jsonl(path)
    header, *body = _read_csv(path)
    return [{"id": i, "failed": False, **{k: float(v) for k, v in zip(header, line)}}
            for i, line in enumerate(body)]


def diff(got_dir, want_dir=GOLDEN):
    """Print how each output of ``got_dir`` differs from ``want_dir``'s.

    First, for each dataset digest ``want_dir`` records, whether ``got_dir``
    records the same one. Returns the number of rows whose structural fields
    differ, counting a missing file or a different row count as one; a
    dataset digest is reported, not counted.
    """
    got_digests, want_digests = _digests(got_dir), _digests(want_dir)
    for name, want_digest in want_digests.items():
        got_digest = got_digests.get(name)
        state = ("missing" if got_digest is None
                 else "same" if got_digest == want_digest
                 else f"differs: {got_digest[:12]}, want {want_digest[:12]}")
        print(f"simulated {name}: {state}")
    broken = 0
    for want_path in sorted(want_dir.glob("*.csv")) + sorted(want_dir.glob("*.jsonl")):
        got_path = got_dir / want_path.name
        if not got_path.exists():
            print(f"{want_path.name}: missing")
            broken += 1
            continue
        got, want = _rows(got_path), _rows(want_path)
        largest, moved, bad = {}, 0, []
        if len(got) != len(want):
            bad.append(f"{len(got)} rows, want {len(want)}")
        for g, w in zip(got, want):
            floats_g, floats_w = list(_floats(g)), list(_floats(w))
            if (_structure(g) != _structure(w)
                    or [f for f, _ in floats_g] != [f for f, _ in floats_w]):
                bad.append(f"row {w['id']}: {_structure(g)} != {_structure(w)}")
                continue
            changes = [(field, _change(a, b)) for (field, a), (_, b) in zip(floats_g, floats_w)]
            moved += any(c for _, c in changes)
            for field, c in changes:
                largest[field] = max(largest.get(field, 0.0), c)
        broken += len(bad)
        print(f"{want_path.name}: {len(bad)} structural differences, "
              f"{moved} of {len(want)} rows moved")
        for line in bad:
            print(f"  {line}")
        for field, c in largest.items():
            print(f"  {field:24s} {c:.3g}")
    return broken


def test_diff_lists_structural_changes_and_the_largest_float_change(tmp_path, capsys):
    for path in GOLDEN.iterdir():
        shutil.copy(path, tmp_path / path.name)
    name = "room_b2_robust_mixed.jsonl"
    rows = read_jsonl(GOLDEN / name)
    rows[0]["ue"]["pos"][1] += 0.5
    rows[0]["cost"] *= 2.0
    rows[2]["outliers"] = rows[2]["outliers"] + [99]
    write_jsonl(rows, tmp_path / name)
    digests = _digests(GOLDEN)
    (tmp_path / DIGESTS).write_text(f"{digests['room_b1.jsonl']}  room_b1.jsonl\n"
                                    f"{'0' * 64}  room_b2.jsonl\n")
    assert diff(tmp_path) == 1
    out = capsys.readouterr().out
    assert out.startswith("simulated room_b1.jsonl: same\n"
                          "simulated room_b2.jsonl: differs: 000000000000, want "
                          f"{digests['room_b2.jsonl'][:12]}\n")
    assert out.count(" 0 structural differences, 0 of ") == 9
    report = out[out.index(name):]
    assert report.startswith(f"{name}: 1 structural differences, 1 of 4 rows moved")
    assert f"row {rows[2]['id']}: " in report
    assert "  ue.pos                   0.5\n" in report
    assert f"  cost                     {rows[0]['cost'] / 2.0:.3g}\n" in report
    (tmp_path / name).unlink()
    assert diff(tmp_path) == 1 and f"{name}: missing" in capsys.readouterr().out


def regenerate(out_dir=GOLDEN):
    """Rewrite every golden file, and the dataset digests, from the current code."""
    out_dir.mkdir(exist_ok=True)
    digests = []
    for bounces in BOUNCES + DIGEST_ONLY:
        data = _simulate(bounces, out_dir)
        if bounces in BOUNCES:
            for mode in MODES:
                _solve(data, mode, out_dir / f"room_b{bounces}_{mode}.jsonl")
            _sweep(data, out_dir / f"room_b{bounces}_sweep.csv")
        digests.append(f"{_sha256(data)}  {data.name}\n")
        data.unlink()
    (out_dir / DIGESTS).write_text("".join(digests))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate or compare the golden files.")
    parser.add_argument("out", nargs="?", type=Path, default=GOLDEN,
                        help="directory to regenerate into (default: tests/golden)")
    parser.add_argument("--diff", type=Path, metavar="DIR",
                        help="compare DIR with tests/golden instead of regenerating")
    args = parser.parse_args()
    if args.diff is not None:
        sys.exit(1 if diff(args.diff) else 0)
    regenerate(args.out)

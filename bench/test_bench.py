"""Tests of the benchmark's own machinery: ``python3 -m pytest bench``."""

import math

import pytest

import harness
import snapslam
import tracing
from workloads import FIELD_MIX, Workload, field_corpus, make_corpus


@pytest.mark.parametrize("scene", ["room", "field"])
def test_same_seed_gives_byte_identical_dataset(tmp_path, scene):
    small = Workload("small", scene, "robust_h1", snapshots=6, check=1)

    def dataset(seed, name):
        path = tmp_path / name
        snapslam.write_dataset(make_corpus(small, harness.ROOT, seed), path)
        return path.read_bytes()

    first = dataset(5, "a.jsonl")
    assert dataset(5, "b.jsonl") == first
    assert dataset(6, "c.jsonl") != first


def test_field_path_counts_follow_the_fixed_mix():
    counts = [len(s.paths) for s in field_corpus(18, seed=4)]
    expected = [n + m for n, m in FIELD_MIX] * 2
    assert counts == expected
    assert [len(s.paths) for s in field_corpus(18, seed=5)] == expected


def test_gmean_fastest_leaves_out_the_slowest_quarter():
    assert harness.gmean_fastest([4.0]) == pytest.approx(4.0)
    assert harness.gmean_fastest([1.0, 4.0, 16.0]) == pytest.approx(4.0)     # 3 samples: all kept
    samples = [2.0] * 6 + [8.0] * 6 + [3000.0] * 4      # 16 samples: the top 4 go
    assert harness.gmean_fastest(samples) == pytest.approx(4.0)


def test_no_tail_percentile_without_ten_samples_beyond():
    assert harness.tail_percentile([]) is None
    assert harness.tail_percentile(list(range(12))) is None
    assert harness.tail_percentile(list(range(91))) is None     # 9 beyond 81.0
    assert harness.tail_percentile(list(range(92))) == pytest.approx(81.9)
    assert harness.tail_percentile([1.0] * 500) is None         # ties: none beyond


def _span(name, start, end, parent=-1, info=None, snap=0):
    span = tracing.Span(name, start, end, parent=parent, snap=snap, phase="solve")
    span.info = info
    return span


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [_span("root", 0.0, 10.0),
             _span("a", 1.0, 4.0, parent=0),
             _span("b", 3.0, 6.0, parent=0),         # overlaps a: union is 1..6
             _span("c", 2.0, 3.0, parent=1),         # grandchild: only a loses it
             _span("d", 8.0, 12.0, parent=0)]        # clipped to the root's end
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_layer_metrics_count_cells_and_self_time_on_a_span_tree():
    spans = [_span("evaluation.solve_snapshot", 0.0, 4.0),
             _span("robust.robust_solve.nlos", 0.5, 3.5, parent=0),
             _span("robust.enumerate_combinations", 0.5, 0.6, parent=1, info=715),
             _span("estimator.orientation_grid", 0.6, 0.7, parent=1, info=361),
             _span("estimator.landmark_refine", 3.0, 3.5, parent=1, info=(4, True)),
             _span("robust.robust_solve.nlos", 5.0, 6.0, snap=1)]   # no children
    metrics, _ = harness.layer_metrics(spans, traced_wall=8.0,
                                       untraced_wall=7.0, check_count=1)
    assert metrics["robust.cells.nlos"][0] == 715 * 361
    assert metrics["robust.robust_solve.nlos.calls"][0] == 2
    assert metrics["robust.robust_solve.nlos.self_s_total"][0] == pytest.approx(3.3)
    assert metrics["robust.nlos.self_share_of_wall"][0] == pytest.approx(3.3 / 8.0)
    assert metrics["evaluation.solve_snapshot.self_ms_p50"][0] == pytest.approx(1e3)
    assert metrics["trace_overhead_frac"][0] == pytest.approx(1.0 / 7.0)


def _callables():
    return {(m.__name__, name): value for m in tracing._package_modules()
            for name, value in vars(m).items() if callable(value)}


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _callables()
    snapshots = field_corpus(1, seed=3)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        # wrapped where the callers look them up, not only where defined
        assert snapslam.detector.robust_solve is not before[("snapslam.robust", "robust_solve")]
        assert snapslam.robust.landmark_refine is not before[("snapslam.estimator",
                                                              "landmark_refine")]
        harness.solve_pass(snapshots, "robust_h1", tmp_path, tracer=tracer)
    traced = len(tracer.spans)
    assert traced > 0
    assert _callables() == before
    harness.solve_pass(snapshots, "robust_h1", tmp_path)
    assert len(tracer.spans) == traced


def test_output_check_rejects_a_tampered_row(tmp_path):
    workload = Workload("small", "field", "robust_h1", snapshots=1, check=1)
    # the benchmark solves what it read back from the dataset file, as the CLI does
    snapshots, _ = harness.setup(workload, seed=3, work=tmp_path)
    run = harness.solve_pass(snapshots, workload.mode, tmp_path)
    assert harness.check_outputs(snapshots, run, workload, tmp_path) == []
    run.rows[0]["cost"] = math.inf
    problems = harness.check_outputs(snapshots, run, workload, tmp_path)
    assert any("cost" in p for p in problems)
    assert any("differ from what snapslam solve writes" in p for p in problems)

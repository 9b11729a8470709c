"""Each benchmark check passes on a right output and fails on a wrong one.

Run with ``python -m pytest perfbench/tests``.
"""

import math
import os

import numpy as np
import pytest

from perfbench import checks

PRESENT_45x3 = [{0, 1, 2}] * 45


def test_expected_counts_from_presence():
    # Starts 0, 16, 32; the start at 32 reaches neither tracking horizon.
    assert checks.expected_tracks(PRESENT_45x3) == {16: 6, 24: 6}
    # Learning windows end at 10, 26, 42; only the first reaches L=30.
    assert checks.expected_trials([{0, 1}] * 45) == {5: 4, 15: 4, 30: 2}
    assert checks.filter_frames(PRESENT_45x3, "track") == 24 + 24 + 12
    assert checks.filter_frames(PRESENT_45x3, "predict") == 30


def test_expected_counts_follow_absent_agents():
    present = [{0, 1, 2}] * 45
    present[16] = {0, 1}
    # Agent 2 misses the start at 16 and the N=16 outcome of the start at 0.
    assert checks.expected_tracks(present) == {16: 4, 24: 5}


def test_track_rows():
    good = {16: (5, 0, 1, 6), 24: (4, 1, 1, 6)}
    assert checks.check_track_rows(good, {16: 6, 24: 6}) == []
    assert checks.check_track_rows({16: (5, 0, 0, 6), 24: good[24]}, {16: 6, 24: 6})
    assert checks.check_track_rows({16: (5, 0, 0, 5), 24: good[24]}, {16: 6, 24: 6})
    assert checks.check_track_rows({16: good[16]}, {16: 6, 24: 6})
    assert checks.check_track_rows({16: (7, -1, 0, 6), 24: good[24]}, {16: 6, 24: 6})


def test_outcomes_follow_distance_rule():
    assert checks.check_outcomes([("success", 0.1), ("id_switch", 0.5), ("lost", 0.51)]) == []
    assert checks.check_outcomes([("lost", 0.3)])
    assert checks.check_outcomes([("success", 0.7)])
    assert checks.check_outcomes([("maybe", 0.1)])
    assert checks.check_outcomes([("success", math.nan)])


def test_prediction_rows():
    expected = {5: 4, 15: 4, 30: 2}
    good = {5: (0.2, 4), 15: (0.5, 4), 30: (0.9, 2)}
    assert checks.check_prediction_rows(good, expected) == []
    assert checks.check_prediction_rows({**good, 30: (0.9, 3)}, expected)
    assert checks.check_prediction_rows({**good, 15: (math.nan, 4)}, expected)
    assert checks.check_prediction_rows({5: good[5], 15: good[15]}, expected)


def test_report_csv_parsing():
    text = ("dataset,model,filter,N,st,ids,lost,n_tracks\n"
            "corridor-3-5,rvo+,hpf,16,2,1,3,6\n")
    assert checks.parse_report_csv(text, "N", ("st", "ids", "lost", "n_tracks")) == \
        {16: (2, 1, 3, 6)}
    with pytest.raises(ValueError):
        checks.parse_report_csv("dataset,N\n", "N", ("st",))


def _frames():
    return [(0, [(0, np.array([0.1, 0.2])), (1, np.array([1.0 / 3.0, -2.0]))]),
            (1, [(0, np.array([0.3, 0.2])), (1, np.array([0.7, -1.5]))])]


def _csv(frames, dt=0.4):
    lines = [f"# dt = {dt!r}", "# name = test", "frame,id,x,y"]
    lines += [f"{t},{a},{float(p[0])!r},{float(p[1])!r}" for t, entries in frames for a, p in entries]
    return "\n".join(lines) + "\n"


def test_roundtrip_is_exact():
    meta, rows = checks.parse_canonical_csv(_csv(_frames()))
    assert checks.check_roundtrip(meta, rows, 0.4, _frames()) == []
    off = _frames()
    off[0][1][1] = (1, np.array([np.nextafter(1.0 / 3.0, 1.0), -2.0]))
    assert checks.check_roundtrip(*checks.parse_canonical_csv(_csv(off)), 0.4, _frames())
    assert checks.check_roundtrip(*checks.parse_canonical_csv(_csv(_frames()[:1])), 0.4,
                                  _frames())
    assert checks.check_roundtrip(*checks.parse_canonical_csv(_csv(_frames(), dt=0.5)), 0.4,
                                  _frames())


def test_separation():
    rng = np.random.default_rng(0)
    positions = rng.uniform(-5, 5, (6, 4, 2))
    brute = min(float(np.linalg.norm(positions[t, i] - positions[t, j]))
                for t in range(6) for i in range(4) for j in range(4) if i != j)
    assert checks.min_separation(positions) == pytest.approx(brute, abs=1e-12)
    apart = np.array([[[0.0, 0.0], [0.4, 0.0]]])
    assert checks.check_separation(apart, 0.4) == []
    assert checks.check_separation(np.array([[[0.0, 0.0], [0.39, 0.0]]]), 0.4)


def test_speeds():
    assert checks.check_speeds(np.array([[2.5, 0.0], [0.0, -1.0]]), 2.5) == []
    assert checks.check_speeds(np.array([[2.0, 1.6]]), 2.5)


def test_orderings_fail_only_on_a_clear_reversal():
    rng = np.random.default_rng(1)
    lin = 1.2 + rng.normal(0, 0.3, 20)
    rvo = lin - 0.3 + rng.normal(0, 0.05, 20)
    hpf = rvo - 0.05 + rng.normal(0, 0.05, 20)
    assert checks.check_prediction_ordering(lin, rvo, hpf) == []
    assert checks.check_prediction_ordering(lin, rvo, rvo + 0.01 * rng.normal(0, 1, 20)) == []
    assert checks.check_prediction_ordering(lin, rvo, rvo + 0.5)
    assert checks.check_prediction_ordering(rvo, lin, hpf)
    assert checks.check_tracking_ordering([8, 9, 7, 10], [10, 11, 9, 10]) == []
    assert checks.check_tracking_ordering([10, 11, 9, 12, 10], [6, 7, 5, 8, 6])


def test_tracer_counts_and_catches_a_missed_wrapper():
    from crowdtrack import bench, corrupt, make_scenario
    from crowdtrack.filters import HpfConfig
    from perfbench import tracing

    scenario = make_scenario("corridor", 3, seed=0, steps=20)
    trace = corrupt(scenario, 0.3, (), seed=0)
    cfg = bench.ProtocolConfig(hpf=HpfConfig(2, (0.91, 0.09), 20), track_steps=4,
                               tracking_horizons=(4,))
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        tracer.begin_op("0:hpf", "hpf")
        bench.run_tracking_protocol(scenario, trace, "rvo+", "hpf", cfg, seed=0)
        tracer.end_op()
        assert tracing.consistency_failures(tracer) == []
        metrics = tracing.layer_metrics(tracer, 1)
        assert metrics["motion.transitions_per_agent_frame.hpf"][0] == 3.0
        assert metrics["filters.hpf_step.calls"][0] == 3 * 2 * 4
        # A call path the tracer does not see breaks the step-count identity.
        bench.hpf_step = bench.hpf_step.__wrapped__
        bench.run_tracking_protocol(scenario, trace, "rvo+", "hpf", cfg, seed=0)
        assert tracing.consistency_failures(tracer)
    finally:
        tracing.uninstall(restore)
    assert "traced" not in bench.run_tracking_protocol.__code__.co_name


def test_lin_kernel_calls_are_flagged():
    from perfbench import tracing

    tracer = tracing.Tracer()
    assert tracing.consistency_failures(tracer) == []
    tracer.kind_counts[("lin", "kernels.rvo_velocity_batch.calls")] = 1
    assert tracing.consistency_failures(tracer)


def test_readme_simulate_check_catches_a_changed_file(tmp_path):
    from perfbench import workloads

    workload = workloads.ReadmeCli(str(tmp_path))
    inputs = workload.build(0)
    try:
        assert workload.operation("simulate", inputs) == 0
        failures, _, _, _ = workload.check("simulate", inputs, 0)
        assert failures == []
        path = os.path.join(inputs["out"], "circle", "trajectories.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        frame, agent_id, x, y = lines[-1].split(",")
        lines[-1] = f"{frame},{agent_id},{float(x) + 1e-9!r},{y}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        failures, _, _, _ = workload.check("simulate", inputs, 0)
        assert failures
        assert workload.check("simulate", inputs, 2)[0]
    finally:
        workload.cleanup(inputs)


def test_prediction_round_passes_its_checks():
    from perfbench import workloads

    workload = workloads.PredictCrossing()
    inputs = workload.build(0)
    report = workload.operation("lin", inputs)
    failures, frames, quality, _ = workload.check("lin", inputs, report)
    assert failures == [] and frames == 30 and np.isfinite(quality["lin_L30"])
    report.rows[0].n_trials += 1
    assert workload.check("lin", inputs, report)[0]

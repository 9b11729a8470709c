import hashlib

import numpy as np
import pytest

from crowdtrack import (BodySpec, HpfConfig, NoiseSpec, RvoParams, Scenario,
                        classify_track, corrupt, crowd_step, make_scenario,
                        parse_trajectories, run_prediction_protocol,
                        run_tracking_protocol, sweep)
from crowdtrack.bench import JointTracker, NoEligibleTrials, ProtocolConfig, configure
from crowdtrack.data import Frame


def linear_scenario(n_frames=50, speed=1.3, lanes=(0.0,), dt=0.4):
    frames = []
    for t in range(n_frames):
        entries = [(i, np.array([speed * dt * t, lane]))
                   for i, lane in enumerate(lanes)]
        frames.append(Frame(t, entries))
    return Scenario(dt=dt, frames=frames, name="linear")


class TestClassifyTrack:
    def test_partition_fixture(self):
        # Six hand-built tracks: two successes, two losses, two id switches.
        own = np.array([0.0, 0.0])
        near_other = [np.array([0.35, 0.0])]
        far_other = [np.array([5.0, 5.0])]
        cases = [
            (np.array([0.10, 0.0]), far_other, "success"),
            (np.array([0.0, 0.45]), far_other, "success"),
            (np.array([0.8, 0.0]), far_other, "lost"),
            (np.array([3.0, 4.0]), near_other, "lost"),
            (np.array([0.30, 0.0]), near_other, "id_switch"),
            (np.array([0.40, 0.0]), [np.array([0.45, 0.0])], "id_switch"),
        ]
        for estimate, others, expected in cases:
            kind, dist = classify_track(estimate, own, others)
            assert kind == expected, (estimate, expected, kind)
            assert dist == pytest.approx(float(np.linalg.norm(estimate - own)))

    def test_exactly_one_outcome_per_track(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            estimate = rng.uniform(-1, 1, 2)
            own = rng.uniform(-1, 1, 2)
            others = [rng.uniform(-1, 1, 2) for _ in range(3)]
            kind, _ = classify_track(estimate, own, others)
            assert kind in ("success", "lost", "id_switch")

    def test_tie_with_other_truth_counts_as_success(self):
        own = np.array([0.0, 0.0])
        other = np.array([0.4, 0.0])
        kind, _ = classify_track(np.array([0.2, 0.0]), own, [other])
        assert kind == "success"


class TestPredictionProtocol:
    def test_lin_zero_noise_on_linear_trajectory_is_exact(self):
        scenario = linear_scenario()
        cfg = ProtocolConfig(noise=NoiseSpec(0.0, 0.0, 0.0),
                             hpf=HpfConfig(order_k=1, pi=(1.0,), particles_m=30))
        report = run_prediction_protocol(scenario, "lin", "pf", cfg, seed=0)
        for row in report.rows:
            assert row.n_trials > 0
            assert row.mean_error_m < 1e-9

    def test_hpf_k1_and_pf_reports_identical(self):
        scenario = make_scenario("crossing", 2, seed=4)
        base = ProtocolConfig(hpf=HpfConfig(order_k=1, pi=(1.0,), particles_m=60))
        r_pf = run_prediction_protocol(scenario, "rvo+", "pf", base, seed=7)
        r_hpf = run_prediction_protocol(scenario, "rvo+", "hpf", base, seed=7)
        for a, b in zip(r_pf.rows, r_hpf.rows):
            assert a.n_trials == b.n_trials
            assert a.mean_error_m == b.mean_error_m

    def test_no_eligible_trials(self):
        scenario = linear_scenario(n_frames=5)
        with pytest.raises(NoEligibleTrials):
            run_prediction_protocol(scenario, "lin", "pf", ProtocolConfig(), seed=0)

    def test_report_csv_layout(self, tmp_path):
        scenario = linear_scenario()
        cfg = ProtocolConfig(noise=NoiseSpec(0.0, 0.0, 0.0),
                             hpf=HpfConfig(order_k=1, pi=(1.0,), particles_m=20))
        report = run_prediction_protocol(scenario, "lin", "pf", cfg, seed=0)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dataset,model,filter,L,mean_error_m,n_trials"
        assert len(lines) == 4

    def test_occlusion_at_a_first_fix_skips_the_whole_start(self):
        # Two walkers, 50 frames: starts 0, 16 and 32 reach horizons (5, 15, 30),
        # (5, 15) and (5).  An agent occluded at t0 or t0 + 1 has no first fix,
        # so that start runs no trial for any agent.
        scenario = linear_scenario(lanes=(0.0, 1.0))
        cfg = ProtocolConfig(noise=NoiseSpec(0.0, 0.0, 0.0),
                             hpf=HpfConfig(order_k=1, pi=(1.0,), particles_m=20))

        def trials(occlusions):
            trace = corrupt(scenario, 0.0, occlusions, seed=0)
            report = run_prediction_protocol(scenario, "lin", "pf", cfg, seed=0, trace=trace)
            return [r.n_trials for r in report.rows]

        assert trials(()) == [6, 4, 2]
        assert trials([(1, 17, 1)]) == [4, 2, 2]
        assert trials([(0, 32, 1)]) == [4, 4, 2]
        assert trials([(0, 5, 3)]) == [6, 4, 2]  # inside the learning window: no skip


class TestTrackingProtocol:
    def test_clean_trace_all_success(self):
        scenario = make_scenario("corridor", 2, seed=2)
        trace = corrupt(scenario, 0.0, (), seed=0)
        cfg = ProtocolConfig(hpf=HpfConfig(order_k=1, pi=(1.0,), particles_m=80),
                             noise=NoiseSpec(0.02, 0.05, 0.02))
        report = run_tracking_protocol(scenario, trace, "rvo+", "pf", cfg, seed=1)
        st, ids, lost = report.counts()
        assert st > 0
        assert ids == 0 and lost == 0

    def test_swapped_identities_become_id_switches(self):
        # Two parallel walkers 0.4 m apart whose observation streams swap
        # mid-trial: the trackers follow the swapped streams, so every
        # evaluated track ends within 0.5 m of its own truth but closer to
        # the other's.
        scenario = linear_scenario(n_frames=30, lanes=(0.0, 0.4), speed=0.5)
        swap_from = 8
        trace = []
        for k, frame in enumerate(scenario.frames):
            positions = dict(frame.entries)
            obs = {}
            for agent_id in positions:
                source = agent_id if k < swap_from else 1 - agent_id
                obs[agent_id] = positions[source].copy()
            trace.append(obs)
        cfg = ProtocolConfig(hpf=HpfConfig(order_k=1, pi=(1.0,), particles_m=200),
                             noise=NoiseSpec(0.05, 0.1, 0.05), sigma_obs=0.15,
                             tracking_horizons=(16, 24))
        report = run_tracking_protocol(scenario, trace, "lin", "pf", cfg, seed=3)
        st, ids, lost = report.counts()
        # One trial (t0=0), two agents, two horizons: four id switches.
        assert ids == 4
        assert st == 0 and lost == 0

    def test_outcome_partition_totals(self):
        scenario = make_scenario("corridor", 3, seed=5)
        trace = corrupt(scenario, 0.15, [(1, 12, 2)], seed=6)
        cfg = ProtocolConfig(hpf=HpfConfig(order_k=2, pi=(0.91, 0.09), particles_m=60))
        report = run_tracking_protocol(scenario, trace, "rvo+", "hpf", cfg, seed=7)
        st, ids, lost = report.counts()
        assert st + ids + lost == len(report.outcomes)
        assert len(report.outcomes) > 0

    def test_start_without_an_agent_at_t0_and_t0_plus_1_tracks_nothing(self, tmp_path):
        # One walker in a 65-frame csv-fixy file without frame 17: start 16 has
        # no agent present at both 16 and 17, so only starts 0, 32 and 48 yield
        # outcomes (48 reaches horizon 16 only).
        path = tmp_path / "gap.csv"
        path.write_text("frame,id,x,y\n" + "".join(f"{t},0,{0.4 * t!r},0.0\n"
                                                    for t in range(65) if t != 17))
        scenario = parse_trajectories(path)
        trace = corrupt(scenario, 0.0, (), seed=0)
        cfg = ProtocolConfig(hpf=HpfConfig(order_k=1, pi=(1.0,), particles_m=20))
        report = run_tracking_protocol(scenario, trace, "lin", "pf", cfg, seed=0)
        assert [(o.start, o.horizon) for o in report.outcomes] == [
            (0, 16), (0, 24), (32, 16), (32, 24), (48, 16)]

    def test_no_reachable_horizon(self):
        scenario = make_scenario("corridor", 2, seed=5, steps=5)
        trace = corrupt(scenario, 0.0, (), seed=0)
        cfg = ProtocolConfig(hpf=HpfConfig(order_k=1, pi=(1.0,), particles_m=20))
        with pytest.raises(NoEligibleTrials):
            run_tracking_protocol(scenario, trace, "lin", "pf", cfg, seed=0)


def ragged_scenario():
    """45 frames; agent 2 enters at frame 5 and leaves after frame 30."""
    frames = []
    for t in range(45):
        entries = [(0, np.array([0.5 * t, 0.0])), (1, np.array([20.0 - 0.45 * t, 0.5]))]
        if 5 <= t <= 30:
            entries.append((2, np.array([8.0, -6.0 + 0.5 * t])))
        frames.append(Frame(t, entries))
    return Scenario(dt=0.4, frames=frames, name="ragged")


def digest_report(digest, report):
    """Feed a tracking report's outcomes or a prediction report's rows to ``digest``."""
    for o in getattr(report, "outcomes", []):
        digest.update(f"{o.agent_id},{o.start},{o.horizon},{o.kind},{o.distance!r}\n".encode())
    for r in getattr(report, "rows", []):
        digest.update(f"{r.horizon},{r.mean_error_m!r},{r.n_trials}\n".encode())


def reports_digest():
    """SHA-256 of RVO+ PF and HPF tracking outcomes and prediction rows (without a
    trace and with the noisy one) on corridor-3 and the ragged scenario."""
    cfg = ProtocolConfig(hpf=HpfConfig(2, (0.91, 0.09), 60), sigma_obs=0.15)
    digest = hashlib.sha256()
    for scenario in (make_scenario("corridor", 3, seed=0), ragged_scenario()):
        trace = corrupt(scenario, 0.3, [(0, 6, 2)], seed=1)
        for kind in ("pf", "hpf"):
            digest_report(digest, run_tracking_protocol(scenario, trace, "rvo+", kind, cfg, seed=2))
            for observed in (None, trace):
                digest_report(digest, run_prediction_protocol(scenario, "rvo+", kind, cfg,
                                                              seed=3, trace=observed))
    return digest.hexdigest()


def other_reports_digest():
    """SHA-256 of LIN-PF and RVO-PF (no desired-velocity diffusion) prediction rows
    on a noisy crossing, and of K=3 HPF tracking outcomes on corridor-3."""
    digest = hashlib.sha256()
    crossing = make_scenario("crossing", 2, seed=4, body=BodySpec(radius=0.3))
    trace = corrupt(crossing, 0.1, (), seed=4)
    cfg = ProtocolConfig(hpf=HpfConfig(1, (1.0,), 80), body=BodySpec(radius=0.3))
    for model in ("lin", "rvo"):
        digest_report(digest, run_prediction_protocol(crossing, model, "pf", cfg, seed=5,
                                                      trace=trace))
    corridor = make_scenario("corridor", 3, seed=0)
    trace = corrupt(corridor, 0.3, [(1, 10, 3)], seed=6)
    cfg = ProtocolConfig(hpf=HpfConfig(3, (0.8, 0.15, 0.05), 60), sigma_obs=0.15)
    digest_report(digest, run_tracking_protocol(corridor, trace, "rvo+", "hpf", cfg, seed=7))
    return digest.hexdigest()


def circle_reports_digest():
    """SHA-256 of RVO+ HPF prediction rows on the README's circle-8 at 48 particles:
    a dense crowd whose kernel calls have neighbours out of range for every particle,
    and rows whose constraints are jointly infeasible."""
    digest = hashlib.sha256()
    cfg = ProtocolConfig(hpf=HpfConfig(2, (0.91, 0.09), 48))
    digest_report(digest, run_prediction_protocol(make_scenario("circle", 8, seed=3), "rvo+",
                                                  "hpf", cfg, seed=0))
    return digest.hexdigest()


class TestReports:
    # SHA-256 of reports_digest(), other_reports_digest() and circle_reports_digest().
    # A refactor of the protocols' numeric path must reproduce every report bit for
    # bit, not just closely.
    REPORT_PIN = "c7537412396d5fb0d290fafa3e2083e041ca5ad51b999df18dd670a92a1768f0"
    OTHER_REPORT_PIN = "446b69b49a9482e227f1d85ab5ceb1596276f37fa80ad940b80dc92aaf19deab"
    CIRCLE_REPORT_PIN = "0e050798728970cf9cdba2b176fb7725610e7789d61b6a2aeaa12988ffe902d7"

    def test_reports_are_bitwise_pinned(self):
        assert reports_digest() == self.REPORT_PIN

    def test_lin_plain_rvo_and_third_order_reports_are_bitwise_pinned(self):
        assert other_reports_digest() == self.OTHER_REPORT_PIN

    def test_dense_circle_reports_are_bitwise_pinned(self):
        assert circle_reports_digest() == self.CIRCLE_REPORT_PIN


def test_protocols_step_at_the_scenarios_dt():
    # The scenario is the run's clock: rvo.dt only sets a generated scenario's step.
    scenario = make_scenario("crossing", 2, 1, dt=0.2)
    trace = corrupt(scenario, 0.1, (), seed=1)
    reports = [(run_prediction_protocol(scenario, "rvo+", "hpf", cfg, seed=0).rows,
                run_tracking_protocol(scenario, trace, "rvo+", "hpf", cfg, seed=0).outcomes)
               for cfg in (ProtocolConfig(), ProtocolConfig(params=RvoParams(dt=0.2)))]
    assert reports[0] == reports[1]


def four_walkers(model, body=BodySpec()):
    """A tracker over two crossing head-on pairs, at its initial means."""
    fixes = {0: ([-3.0, 0.1], [1.2, 0.0]), 1: ([3.0, -0.1], [-1.2, 0.0]),
             2: ([0.2, -3.0], [0.0, 1.2]), 3: ([-0.2, 3.0], [0.0, -1.2])}
    cfg = ProtocolConfig(hpf=HpfConfig(particles_m=50), body=body)
    return JointTracker(fixes, model, "hpf", cfg, 0.4, np.random.default_rng(0),
                        init_spread=(0.05, 0.1))


def rollout_digest(tracker, steps):
    predicted = tracker.rollout_means(steps)
    positions = np.array([[p[i] for i in tracker.ids] for p in predicted])
    return hashlib.sha256(positions.tobytes()).hexdigest()


class TestRolloutMeans:
    # SHA-256 of 30 open-loop steps at the default body.  A refactor of the
    # rollout's numeric path must reproduce them bit for bit, not just closely.
    PINS = {"rvo+": "c30a422471f1cc4c1b4e8dd5cf38805d3a0c94a7404765421e0da2ab67783cac",
            "lin": "ed894ad6b87fbc28620dd51fb8cee4381d43f8ffacc0e51b9633636146737edf"}

    @pytest.mark.parametrize("model", ["rvo+", "lin"])
    def test_rollout_is_bitwise_pinned(self, model):
        assert rollout_digest(four_walkers(model), 30) == self.PINS[model]

    def test_neighbours_share_the_body_radius(self):
        body = BodySpec(radius=0.3)
        tracker = four_walkers("rvo+", body)
        for history in tracker.histories:
            assert np.array_equal(history.context(1).neighbor_radii, np.full(3, 0.3))
        current = tracker.means
        for predicted in tracker.rollout_means(10):
            current = crowd_step(current, np.full(4, 0.3), np.full(4, body.max_speed),
                                 tracker.params)
            for i, agent_id in enumerate(tracker.ids):
                assert np.array_equal(predicted[agent_id], current[i, 0:2])


class TestSweep:
    def test_singleton_grid_returns_that_config(self):
        scenario = linear_scenario()
        cfg = ProtocolConfig(noise=NoiseSpec(0.0, 0.0, 0.0),
                             hpf=HpfConfig(order_k=1, pi=(1.0,), particles_m=20))
        result = sweep({"noise.sigma_velocity": [0.0]}, [scenario],
                       "mean_error", cfg, model="lin", filter_kind="pf", seed=0)
        assert result.best == {"noise.sigma_velocity": 0.0}
        assert len(result.rows) == 1

    def test_planted_zero_error_config_wins(self):
        scenario = linear_scenario()
        cfg = ProtocolConfig(noise=NoiseSpec(0.0, 0.0, 0.0),
                             hpf=HpfConfig(order_k=1, pi=(1.0,), particles_m=20))
        result = sweep({"noise.sigma_velocity": [0.3, 0.0, 0.1]}, [scenario],
                       "mean_error", cfg, model="lin", filter_kind="pf", seed=0)
        assert result.best == {"noise.sigma_velocity": 0.0}
        assert result.best_score < 1e-9

    def test_planted_st_grid_picks_the_combination_that_can_track(self):
        # No track ends within 1e-9 m of its truth, so that threshold scores no
        # success; the sweep must pick the other one, listed second.
        scenario = make_scenario("corridor", 2, seed=2, steps=30)
        trace = corrupt(scenario, 0.05, (), seed=0)
        cfg = ProtocolConfig(hpf=HpfConfig(order_k=1, pi=(1.0,), particles_m=40))
        result = sweep({"bench.threshold": [1e-9, 0.5]}, [scenario], "st", cfg,
                       model="rvo+", filter_kind="pf", seed=1, traces=[trace])
        report = run_tracking_protocol(scenario, trace, "rvo+", "pf",
                                       configure(cfg, {"bench.threshold": 0.5}), seed=1)
        st, _, _ = report.counts()
        assert st > 0
        assert result.rows == [({"bench.threshold": 1e-9}, 0.0),
                               ({"bench.threshold": 0.5}, -float(st))]
        assert result.best == {"bench.threshold": 0.5}

    def test_more_observation_noise_never_helps_tracking(self):
        # Averaged over 100 seeds, raising the observation noise must not
        # reduce the mean final tracking distance beyond Monte Carlo error.
        cfg = ProtocolConfig(hpf=HpfConfig(order_k=1, pi=(1.0,), particles_m=80),
                             tracking_horizons=(16,))
        dists = {0.05: [], 0.3: []}
        for seed in range(100):
            scenario = make_scenario("corridor", 2, seed=seed, steps=20)
            for sigma in dists:
                trace = corrupt(scenario, sigma, (), seed=seed)
                report = run_tracking_protocol(
                    scenario, trace, "rvo+", "pf",
                    ProtocolConfig(hpf=cfg.hpf, sigma_obs=max(sigma, 0.05),
                                   tracking_horizons=(16,)),
                    seed=3000 + seed)
                dists[sigma].extend(o.distance for o in report.outcomes)
        low = np.array(dists[0.05])
        high = np.array(dists[0.3])
        se = np.sqrt(low.var(ddof=1) / len(low) + high.var(ddof=1) / len(high))
        assert high.mean() >= low.mean() - se

    def test_matched_likelihood_width_wins(self):
        # Observations carry 0.3 m noise; the matched width must beat a
        # grossly overconfident one on averaged prediction error.
        trace_noise = 0.3
        scenarios = []
        traces = []
        for seed in range(20):
            s = make_scenario("corridor", 2, seed=seed, steps=30)
            scenarios.append(s)
            traces.append(corrupt(s, trace_noise, (), seed=seed))
        cfg = ProtocolConfig(hpf=HpfConfig(order_k=1, pi=(1.0,), particles_m=80),
                             prediction_horizons=(5, 15))
        result = sweep({"obs.sigma": [0.02, 0.3]}, scenarios, "mean_error",
                       cfg, model="lin", filter_kind="pf", seed=0, traces=traces)
        assert result.best == {"obs.sigma": 0.3}

"""Acceptance suite: one test per release criterion, one printed verdict each.

Every tolerance is pinned here; the random seeds are fixed so each criterion
is a deterministic computation.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the verdict lines.
"""

import os
import time

import numpy as np
import pytest

from crowdtrack import (BodySpec, CrowdContext, GaussianPositionLikelihood,
                        HpfConfig, NoiseSpec, ParticleSet, RvoParams,
                        classify_track, corrupt, crowd_step, hpf_step, kernels,
                        make_scenario, parse_trajectories, pf_step,
                        run_prediction_protocol, run_tracking_protocol)
from crowdtrack.bench import ProtocolConfig
from crowdtrack.filters import FilterHistory

from helpers import kalman_filter_lin, project_oracle, random_lp_instance


def verdict(n, ok, detail):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_lp_oracle_equivalence():
    """500 seeded instances match the dense projection oracle within 1e-6."""
    rng = np.random.default_rng(2024)
    instances = [random_lp_instance(rng) for _ in range(500)]
    kernel_args = [(points.tolist(), normals.tolist(), max_speed, float(v_desire[0]),
                    float(v_desire[1])) for points, normals, max_speed, v_desire in instances]
    kernels.solve_velocity_kernel(*kernel_args[0])  # warm up

    start = time.perf_counter()
    solutions = [kernels.solve_velocity_kernel(*args) for args in kernel_args]
    elapsed = time.perf_counter() - start

    worst = 0.0
    n_feasible = 0
    for (points, normals, max_speed, v_desire), (feasible, vx, vy) in zip(instances, solutions):
        oracle = project_oracle(points, normals, max_speed, v_desire)
        if feasible:
            assert oracle is not None
            worst = max(worst, float(np.linalg.norm(np.array([vx, vy]) - oracle)))
            n_feasible += 1
        elif oracle is not None:
            margins = [float((oracle - p) @ n) for p, n in zip(points, normals)]
            assert min(margins) <= 1e-9
    verdict(1, worst < 1e-6 and elapsed < 5.0,
            f"max deviation {worst:.2e} m/s over 500 instances "
            f"({n_feasible} feasible), solver time {elapsed:.2f} s < 5 s")


def test_criterion_2_reciprocal_avoidance():
    """Three fixed scenarios, 200 steps at dt=0.1, no pair closer than r_i+r_j."""
    params = RvoParams(time_horizon_tau=2.0, dt=0.1, neighbor_radius=10.0)

    def build(kind):
        """State rows [p, v, v_desired], radii and speed limits of one scenario."""
        if kind == "head_on":
            radius = 0.4
            rows = [[-3.0, 0.0, 1.3, 0.0, 1.3, 0.0], [3.0, 0.0, -1.3, 0.0, -1.3, 0.0]]
        elif kind == "circle":
            radius = 0.25
            rows = []
            rng = np.random.default_rng(5)
            for k in range(8):
                ang = 2 * np.pi * k / 8 + rng.uniform(-0.05, 0.05)
                r = 5.0 + rng.uniform(-0.3, 0.3)
                pos = r * np.array([np.cos(ang), np.sin(ang)])
                goal = -5.0 * np.array([np.cos(ang), np.sin(ang)])
                to_goal = goal - pos
                desire = to_goal / np.linalg.norm(to_goal) * 1.3
                rows.append(np.concatenate([pos, np.zeros(2), desire]))
        else:  # 4-agent crossing
            radius = 0.25
            rng = np.random.default_rng(3)
            rows = []
            for i in range(4):
                lane = (i // 2) * 0.8 + rng.uniform(-0.25, 0.25)
                stag = rng.uniform(0.0, 0.5)
                if i % 2 == 0:
                    pos, direction = np.array([-6.0 - stag, lane]), np.array([1.3, 0.0])
                else:
                    pos, direction = np.array([lane, -6.0 - stag]), np.array([0.0, 1.3])
                rows.append(np.concatenate([pos, direction, direction]))
        return np.array(rows), np.full(len(rows), radius), np.full(len(rows), 2.0)

    # Warm-up outside the timed window.
    crowd_step(*build("head_on"), params)

    start = time.perf_counter()
    worst_margin = np.inf
    for kind in ("head_on", "circle", "crossing"):
        rows, radii, max_speeds = build(kind)
        for _ in range(200):
            rows = crowd_step(rows, radii, max_speeds, params)
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    gap = float(np.linalg.norm(rows[i, 0:2] - rows[j, 0:2]))
                    margin = gap - (radii[i] + radii[j])
                    worst_margin = min(worst_margin, margin)
    elapsed = time.perf_counter() - start
    verdict(2, worst_margin >= -1e-6 and elapsed < 1.0,
            f"worst separation margin {worst_margin:+.2e} m, "
            f"runtime {elapsed:.2f} s < 1 s")


def test_criterion_3_hpf_degeneracy():
    """hpf_step with K=1 is bitwise identical to pf_step over 100 steps."""
    dt = 0.4
    m = 150
    noise = NoiseSpec(0.05, 0.1, 0.05)
    obs_model = GaussianPositionLikelihood(0.1)
    ctx = CrowdContext(others=(), params=RvoParams(dt=dt))
    cfg = HpfConfig(order_k=1, pi=(1.0,), particles_m=m)

    init_rng = np.random.default_rng(11)
    states = init_rng.standard_normal((m, 6)) * 0.2
    prior_a = ParticleSet(states.copy(), np.full(m, 1.0 / m))
    prior_b = ParticleSet(states.copy(), np.full(m, 1.0 / m))
    history = FilterHistory(1)
    history.push(prior_a, ctx)

    rng_a = np.random.default_rng(77)
    rng_b = np.random.default_rng(77)
    obs_rng = np.random.default_rng(13)
    identical = True
    for t in range(100):
        obs = obs_rng.uniform(-0.5, 0.5, 2) + np.array([0.01 * t, 0.0])
        out_a, lambdas = hpf_step(history, ctx, obs, obs_model, cfg, "rvo",
                                  noise, rng_a)
        out_b = pf_step(prior_b, ctx, obs, obs_model, "rvo", noise, rng_b)
        if not (np.array_equal(out_a.states, out_b.states)
                and np.array_equal(out_a.weights, out_b.weights)
                and lambdas.shape == (1,)):
            identical = False
            break
        history.push(out_a, ctx)
        prior_b = out_b
    verdict(3, identical, "bitwise identical particle sets over 100 steps")


def test_criterion_4_lambda_override_threshold():
    """pi = (0.91, 0.09): a 2-step likelihood factor > 10.2 flips lambda."""
    dt = 0.4
    sigma = 0.1
    state_old = np.array([[0.0, 0.0, 1.0, 0.0, 1.0, 0.0]])
    state_new = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    ctx = CrowdContext(others=(), params=RvoParams(dt=dt))
    history = FilterHistory(2)
    history.push(ParticleSet(state_old, np.array([1.0]), 0), ctx)
    history.push(ParticleSet(state_new, np.array([1.0]), 1), ctx)
    # Deterministic predictions: 1-step stays at x=1.0, 2-step reaches x=0.8.
    pred1, pred2 = 1.0, 0.8
    cfg = HpfConfig(order_k=2, pi=(0.91, 0.09), particles_m=1)
    noise = NoiseSpec(0.0, 0.0, 0.0)
    obs_model = GaussianPositionLikelihood(sigma)

    def lambdas_for_factor(factor):
        # Observation position with an exact 2-step/1-step likelihood ratio.
        y = (pred1**2 - pred2**2 - 2.0 * sigma**2 * np.log(factor)) \
            / (2.0 * (pred1 - pred2))
        _, lam = hpf_step(history, ctx, np.array([y, 0.0]), obs_model, cfg,
                          "lin", noise, np.random.default_rng(0))
        return lam

    lam_hi = lambdas_for_factor(10.2)
    lam_lo = lambdas_for_factor(10.0)
    ok = lam_hi[1] > lam_hi[0] and lam_lo[0] > lam_lo[1]
    verdict(4, ok,
            f"factor 10.2: lambda={np.round(lam_hi, 4)} (2-step wins); "
            f"factor 10.0: lambda={np.round(lam_lo, 4)} (1-step wins)")


def test_criterion_5_kalman_oracle():
    """LIN reduction vs exact Kalman filter: M=5000, 50 steps."""
    dt = 0.4
    noise = NoiseSpec(0.05, 0.08, 0.05)
    sigma_obs = 0.1
    m0 = np.array([0.0, 0.0, 1.0, 0.2, 1.0, 0.2])
    p0 = np.full(6, 0.1)
    steps, m_particles = 50, 5000
    ctx = CrowdContext(others=(), params=RvoParams(dt=dt))
    obs_model = GaussianPositionLikelihood(sigma_obs)

    dev_runs, var_runs = [], []
    for seed in (7, 23, 42):
        rng = np.random.default_rng(seed)
        truth = m0.copy()
        observations = []
        for _ in range(steps):
            nxt = truth.copy()
            nxt[0:2] += truth[2:4] * dt
            truth = nxt + rng.standard_normal(6) * noise.block_scales()
            observations.append(truth[0:2] + rng.standard_normal(2) * sigma_obs)
        kf_means, kf_covs = kalman_filter_lin(observations, dt, noise.block_scales(),
                                              sigma_obs, m0, np.diag(p0**2))
        states = m0 + rng.standard_normal((m_particles, 6)) * p0
        pset = ParticleSet(states, np.full(m_particles, 1.0 / m_particles))
        devs, var_mis = [], []
        for t in range(steps):
            pset = pf_step(pset, ctx, observations[t], obs_model, "lin", noise, rng)
            pf_mean = pset.weights @ pset.states
            pf_var = pset.states.var(axis=0)
            kf_std = np.sqrt(np.diag(kf_covs[t]))
            # The identifiable linear-Gaussian block is position+velocity;
            # the desired-velocity spectator is checked loosely below.
            devs.append(np.abs(pf_mean - kf_means[t])[:4] / kf_std[:4])
            var_mis.append(np.abs(pf_var[:4] / np.diag(kf_covs[t])[:4] - 1.0))
            spectator = np.abs(pf_mean - kf_means[t])[4:6] / kf_std[4:6]
            assert np.all(spectator < 1.0)
        dev_runs.append(np.mean(devs))
        var_runs.append(np.mean(var_mis))
    mean_dev = float(np.mean(dev_runs))
    mean_var = float(np.mean(var_runs))
    verdict(5, mean_dev <= 0.05 and mean_var <= 0.10,
            f"mean |pf - kf| = {mean_dev:.4f} of kf std (<= 0.05), "
            f"mean variance mismatch {mean_var:.4f} (<= 0.10)")


# Harness shared by criterion 6 and the optional dataset check.
_C6_BODY = BodySpec(radius=0.3, max_speed=2.5)
_C6_NOISE = NoiseSpec(0.05, 0.1, 0.05)


def _c6_config(order_k):
    pi = (1.0,) if order_k == 1 else (0.91, 0.09)
    return ProtocolConfig(hpf=HpfConfig(order_k, pi, 400), noise=_C6_NOISE,
                          sigma_obs=0.1, body=_C6_BODY)


def test_criterion_6_prediction_ordering():
    """HPF(RVO+) <= RVO+ <= LIN at L=30 on 50 seeded noisy crossings."""
    start = time.perf_counter()
    errs = {"lin": [], "rvo+": [], "hpf": []}
    for seed in range(50):
        scenario = make_scenario("crossing", 2, seed=seed, body=_C6_BODY)
        trace = corrupt(scenario, 0.1, (), seed=seed)
        for label, model, fk, cfg in (("lin", "lin", "pf", _c6_config(1)),
                                      ("rvo+", "rvo+", "pf", _c6_config(1)),
                                      ("hpf", "rvo+", "hpf", _c6_config(2))):
            report = run_prediction_protocol(scenario, model, fk, cfg,
                                             seed=1000 + seed, trace=trace)
            errs[label].append(report.cell(30).mean_error_m)
    elapsed = time.perf_counter() - start

    lin = np.array(errs["lin"])
    rvo = np.array(errs["rvo+"])
    hpf = np.array(errs["hpf"])
    gap_lr = lin - rvo
    gap_rh = rvo - hpf
    se_lr = gap_lr.std(ddof=1) / np.sqrt(len(gap_lr))
    se_rh = gap_rh.std(ddof=1) / np.sqrt(len(gap_rh))
    ok = (hpf.mean() <= rvo.mean() <= lin.mean()
          and gap_lr.mean() > se_lr and gap_rh.mean() > se_rh
          and elapsed < 120.0)
    verdict(6, ok,
            f"L=30 means: LIN {lin.mean():.3f} > RVO+ {rvo.mean():.3f} > "
            f"HPF {hpf.mean():.3f} m; gaps {gap_lr.mean():.3f}>{se_lr:.3f} (SE), "
            f"{gap_rh.mean():.3f}>{se_rh:.3f} (SE); runtime {elapsed:.0f} s < 120 s")


ZARA01 = os.environ.get("CROWDTRACK_ZARA01", "")


@pytest.mark.skipif(not ZARA01, reason="set CROWDTRACK_ZARA01 to a zara01 obsmat/csv file")
def test_criterion_6_dataset_reference_values():
    """With a zara01-format file: errors within +-30% of the reference table."""
    fmt = "obsmat" if ZARA01.endswith(".txt") else "csv-fixy"
    scenario = parse_trajectories(ZARA01, fmt=fmt)
    reference = {  # L -> (LIN, RVO+, HPF(RVO+)) mean error, meters
        5: (0.35, 0.31, 0.25),
        15: (0.69, 0.61, 0.52),
        30: (0.78, 0.69, 0.60),
    }
    got = {}
    for label, model, fk, cfg in (("lin", "lin", "pf", _c6_config(1)),
                                  ("rvo+", "rvo+", "pf", _c6_config(1)),
                                  ("hpf", "rvo+", "hpf", _c6_config(2))):
        report = run_prediction_protocol(scenario, model, fk, cfg, seed=0)
        got[label] = {h: report.cell(h).mean_error_m for h in (5, 15, 30)}
    ok = True
    for horizon, (_, ref_rvo, ref_hpf) in reference.items():
        for label, ref in (("rvo+", ref_rvo), ("hpf", ref_hpf)):
            if abs(got[label][horizon] - ref) > 0.30 * ref:
                ok = False
        if not got["hpf"][horizon] <= got["rvo+"][horizon] <= got["lin"][horizon]:
            ok = False
    verdict("6-dataset", ok, f"measured {got}")


def test_criterion_7_occlusion_robustness():
    """100 seeded occlusion trials: HPF ST >= PF ST and HPF IDS <= PF IDS."""
    noise = NoiseSpec(0.05, 0.1, 0.05)
    cfg_pf = ProtocolConfig(hpf=HpfConfig(1, (1.0,), 200), noise=noise, sigma_obs=0.15)
    cfg_hpf = ProtocolConfig(hpf=HpfConfig(2, (0.91, 0.09), 200), noise=noise, sigma_obs=0.15)
    totals = {"pf": [0, 0, 0], "hpf": [0, 0, 0]}
    for seed in range(100):
        scenario = make_scenario("corridor", 3, seed=seed)
        occl_rng = np.random.default_rng(seed + 5000)
        occlusions = [(agent, int(occl_rng.integers(3, scenario.n_frames - 4)), 2)
                      for agent in range(3)]
        trace = corrupt(scenario, 0.3, occlusions, seed=seed)
        for fk, cfg in (("pf", cfg_pf), ("hpf", cfg_hpf)):
            report = run_tracking_protocol(scenario, trace, "rvo+", fk, cfg,
                                           seed=2000 + seed)
            st, ids, lost = report.counts()
            totals[fk][0] += st
            totals[fk][1] += ids
            totals[fk][2] += lost
    pf_st, pf_ids, pf_lost = totals["pf"]
    h_st, h_ids, h_lost = totals["hpf"]
    ok = h_st >= pf_st and h_ids <= pf_ids
    verdict(7, ok,
            f"ST: HPF {h_st} >= PF {pf_st}; IDS: HPF {h_ids} <= PF {pf_ids} "
            f"(lost {h_lost} vs {pf_lost}; 2-frame occlusions, 100 seeds)")


def test_criterion_8_metric_classifier():
    """Six hand-built tracks classify exactly per the 0.5 m rules."""
    own = np.array([0.0, 0.0])
    near = [np.array([0.35, 0.0])]
    far = [np.array([5.0, 5.0])]
    fixture = [
        (np.array([0.10, 0.00]), far, "success"),
        (np.array([0.00, 0.45]), far, "success"),
        (np.array([0.80, 0.00]), far, "lost"),
        (np.array([3.00, 4.00]), near, "lost"),
        (np.array([0.30, 0.00]), near, "id_switch"),
        (np.array([0.40, 0.00]), [np.array([0.45, 0.0])], "id_switch"),
    ]
    results = [classify_track(est, own, others)[0] for est, others, _ in fixture]
    expected = [kind for _, _, kind in fixture]
    verdict(8, results == expected,
            f"classified {results} == constructed {expected}")

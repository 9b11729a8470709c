import hashlib

import numpy as np
import pytest

from crowdtrack import (CrowdContext, GaussianPositionLikelihood, HpfConfig,
                        NoiseSpec, ParticleSet, RvoParams, hpf_step, kernels,
                        pf_step, resample)
from crowdtrack.bench import JointTracker, ProtocolConfig
from crowdtrack.filters import (FilterHistory, InsufficientHistory,
                                mixture_update, predict_blocks)

from helpers import hpf_predict_j, kalman_filter_lin, mixture_update_per_block, transition

DT = 0.4


def empty_ctx():
    return CrowdContext(others=(), params=RvoParams(dt=DT))


def uniform_set(states):
    states = np.atleast_2d(np.asarray(states, dtype=float))
    m = states.shape[0]
    return ParticleSet(states, np.full(m, 1.0 / m))


def cloud(rng, m, pos=(0.0, 0.0), vel=(1.0, 0.0), spread=0.3):
    states = np.empty((m, 6))
    states[:, 0:2] = np.asarray(pos) + rng.standard_normal((m, 2)) * spread
    states[:, 2:4] = np.asarray(vel) + rng.standard_normal((m, 2)) * 0.1
    states[:, 4:6] = states[:, 2:4]
    return uniform_set(states)


class TestResample:
    def test_all_mass_on_one_particle(self):
        states = np.arange(30, dtype=float).reshape(5, 6)
        w = np.zeros(5)
        w[2] = 1.0
        out = resample(ParticleSet(states, w), 5, np.random.default_rng(0))
        assert np.all(out.states == states[2])
        assert np.allclose(out.weights, 0.2)

    def test_uniform_weights_keep_exactly_one_copy_each(self):
        rng = np.random.default_rng(1)
        states = rng.standard_normal((8, 6))
        out = resample(uniform_set(states), 8, rng)
        # Systematic resampling with uniform weights is a permutation-free identity.
        assert np.array_equal(np.sort(out.states, axis=0), np.sort(states, axis=0))
        for row in states:
            assert np.any(np.all(out.states == row, axis=1))

    def test_expected_multiplicity_unbiased(self):
        rng = np.random.default_rng(2)
        m = 10
        w = rng.random(m)
        w /= w.sum()
        states = np.arange(m, dtype=float)[:, None] * np.ones((1, 6))
        pooled = ParticleSet(states, w)
        trials = 10000
        counts = np.zeros((trials, m))
        for t in range(trials):
            out = resample(pooled, m, rng)
            ids = out.states[:, 0].astype(int)
            counts[t] = np.bincount(ids, minlength=m)
        mean_counts = counts.mean(axis=0)
        se = counts.std(axis=0) / np.sqrt(trials) + 1e-12
        assert np.all(np.abs(mean_counts - m * w) <= 3.0 * se + 1e-9)

    def test_requires_normalized_input(self):
        states = np.zeros((3, 6))
        with pytest.raises(ValueError):
            resample(ParticleSet(states, np.array([0.5, 0.2, 0.2])), 3,
                     np.random.default_rng(0))


class TestPfStep:
    def test_flat_likelihood_keeps_propagated_prior_mean(self):
        rng = np.random.default_rng(4)
        prior = cloud(rng, 10000)
        noise = NoiseSpec(0.02, 0.02, 0.02)
        obs_model = GaussianPositionLikelihood(0.1)
        post = pf_step(prior, empty_ctx(), None, obs_model, "lin", noise, DT,
                       np.random.default_rng(5))
        propagated = transition("lin", prior.states, empty_ctx(),
                                noise, DT, np.random.default_rng(6))
        got = post.weights @ post.states
        want = propagated.mean(axis=0)
        scale = noise.block_scales() + prior.states.std(axis=0)
        assert np.all(np.abs(got - want) < 4.0 * scale / np.sqrt(10000))

    def test_sharp_likelihood_pulls_mean_to_observation(self):
        rng = np.random.default_rng(7)
        m = 10000
        sigma_obs = 0.05
        target = np.array([0.3, -0.2])
        states = np.zeros((m, 6))
        states[:, 0:2] = target + rng.standard_normal((m, 2)) * sigma_obs
        prior = uniform_set(states)
        post = pf_step(prior, empty_ctx(), target,
                       GaussianPositionLikelihood(sigma_obs), "lin",
                       NoiseSpec(0.0, 0.0, 0.0), DT, rng)
        mean_pos = (post.weights @ post.states)[0:2]
        assert np.all(np.abs(mean_pos - target) < 3.0 * sigma_obs / np.sqrt(m))

    def test_underflow_falls_back_to_prediction(self):
        rng = np.random.default_rng(8)
        prior = cloud(rng, 200)
        # An observation hundreds of sigma away underflows every weight.
        post = pf_step(prior, empty_ctx(), np.array([1e4, 1e4]),
                       GaussianPositionLikelihood(0.1), "lin",
                       NoiseSpec(0.01, 0.01, 0.01), DT, rng)
        assert post.flagged
        assert post.size == prior.size
        assert abs(post.weights.sum() - 1.0) < 1e-9

    def test_kalman_oracle_smoke(self):
        rng = np.random.default_rng(9)
        dt = DT
        noise = NoiseSpec(0.05, 0.08, 0.05)
        sigma_obs = 0.1
        m0 = np.array([0.0, 0.0, 1.0, 0.2, 1.0, 0.2])
        p0_scales = np.array([0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        steps = 20
        truth = m0.copy()
        obs = []
        for _ in range(steps):
            F_step = truth.copy()
            F_step[0:2] += truth[2:4] * dt
            truth = F_step + rng.standard_normal(6) * noise.block_scales()
            obs.append(truth[0:2] + rng.standard_normal(2) * sigma_obs)
        kf_means, kf_covs = kalman_filter_lin(obs, dt, noise.block_scales(),
                                              sigma_obs, m0, np.diag(p0_scales**2))
        m = 4000
        states = m0 + rng.standard_normal((m, 6)) * p0_scales
        pset = uniform_set(states)
        obs_model = GaussianPositionLikelihood(sigma_obs)
        devs = []
        for t in range(steps):
            pset = pf_step(pset, empty_ctx(), obs[t], obs_model, "lin", noise, dt, rng)
            pf_mean = pset.weights @ pset.states
            kf_std = np.sqrt(np.diag(kf_covs[t]))
            devs.append(np.abs(pf_mean - kf_means[t]) / kf_std)
        assert float(np.mean(devs)) < 0.10


class TestHpfPredictJ:
    """The HPF's j-step predictions, `predict_blocks`."""

    def test_j1_matches_plain_propagation(self):
        rng_a = np.random.default_rng(10)
        rng_b = np.random.default_rng(10)
        prior = cloud(np.random.default_rng(11), 50)
        history = FilterHistory(2)
        history.push(prior, empty_ctx())
        noise = NoiseSpec()
        out = predict_blocks(history, 1, "lin", noise, DT, rng_a)[0]
        direct = transition("lin", prior.states, empty_ctx(), noise, DT, rng_b)
        assert np.array_equal(out, direct)

    def test_two_euler_steps_without_noise(self):
        state = np.array([[0.0, 0.0, 1.0, 0.0, 1.0, 0.0]])
        history = FilterHistory(2)
        history.push(uniform_set(state), empty_ctx())
        history.push(uniform_set(state), empty_ctx())
        out = predict_blocks(history, 2, "lin", NoiseSpec(0, 0, 0), DT,
                             np.random.default_rng(0))[1]
        assert np.allclose(out[0, 0:2], [0.8, 0.0])

    def test_rvo_two_step_matches_manual_rollout(self):
        rng = np.random.default_rng(12)
        other_then = [2.0, -2.0, 0.0, 1.0, 0.0, 1.0]
        other_now = [2.0, -1.6, 0.0, 1.0, 0.0, 1.0]
        params = RvoParams(time_horizon_tau=2.0, dt=DT)
        ctx_then = CrowdContext(others=[other_then], params=params)
        ctx_now = CrowdContext(others=[other_now], params=params)
        prior = cloud(np.random.default_rng(13), 40)
        history = FilterHistory(2)
        history.push(prior, ctx_then)
        history.push(uniform_set(np.zeros((40, 6))), ctx_now)
        noise = NoiseSpec(0.01, 0.01, 0.01)
        out = predict_blocks(history, 2, "rvo", noise, DT, np.random.default_rng(14))[1]
        rng_manual = np.random.default_rng(14)
        rng_manual.standard_normal((40, 6))  # block 1's normals come first
        step1 = transition("rvo", prior.states, ctx_then, noise, DT, rng_manual)
        step2 = transition("rvo", step1, ctx_now, noise, DT, rng_manual)
        assert np.array_equal(out, step2)

    def test_insufficient_history(self):
        history = FilterHistory(3)
        history.push(cloud(np.random.default_rng(15), 10), empty_ctx())
        with pytest.raises(InsufficientHistory):
            predict_blocks(history, 2, "lin", NoiseSpec(), DT, np.random.default_rng(0))


def crowd_contexts(rng, k, params):
    """k contexts of two neighbours close enough to bend the RVO velocities."""
    return [CrowdContext(others=[[1.0, 0.3 * t, -1.0, 0.0, -1.0, 0.0],
                                 [0.6, -0.8 + 0.1 * t, 0.0, 1.0, 0.0, 1.0]]
                         + rng.normal(0.0, 0.05, (2, 6)), params=params)
            for t in range(k)]


def filled_tracker(k, model, m=24, frames=4):
    """A K-th order JointTracker on three walkers, stepped a few frames."""
    fixes = {0: ([0.0, 0.0], [1.0, 0.0]), 1: ([2.0, 0.3], [-1.0, 0.0]),
             2: ([1.0, -1.0], [0.0, 1.0])}
    pi = (1.0,) if k == 1 else (0.8, 0.2) if k == 2 else (0.7, 0.2, 0.1)
    tracker = JointTracker(fixes, model, "hpf", ProtocolConfig(hpf=HpfConfig(k, pi, m)), DT,
                           np.random.default_rng(5), init_spread=(0.05, 0.1))
    for t in range(frames):
        tracker.step({i: np.asarray(p) + 0.4 * (t + 1) * np.asarray(v)
                      for i, (p, v) in fixes.items()})
    return tracker


def assert_blocks_match_oracle(history, k, model, dt, seed):
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = predict_blocks(history, k, model, NoiseSpec(), dt, rng_new)
    want = [hpf_predict_j(history, j, model, NoiseSpec(), dt, rng_old) for j in range(1, k + 1)]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert rng_new.random() == rng_old.random()  # the same number of normals drawn


@pytest.mark.parametrize("model", ["rvo", "lin"])
@pytest.mark.parametrize("k", [1, 2, 3])
class TestPredictBlocksMatchesPerBlockLoop:
    """Bitwise equal to propagating each block from scratch, hop by hop."""

    def test_hand_pushed_history(self, k, model):
        rng = np.random.default_rng(30 + k)
        history = FilterHistory(k)
        for t, ctx in enumerate(crowd_contexts(rng, k, RvoParams(dt=DT))):
            history.push(cloud(rng, 20, pos=(0.4 * t, 0.0)), ctx)
        assert_blocks_match_oracle(history, k, model, DT, seed=40)
        assert_blocks_match_oracle(history, k, model, DT, seed=41)  # now from the memos

    def test_history_filled_by_tracker_frames(self, k, model):
        tracker = filled_tracker(k, model)
        for seed, history in enumerate(tracker.histories):
            assert len(history) == k
            assert_blocks_match_oracle(history, k, model, DT, seed)
            # Memos are kept for the entries the next step reads again, and only those.
            kept = [(model, DT) in history._entry(j)[2] for j in range(1, k + 1)]
            assert kept == [j < k for j in range(1, k + 1)]

    def test_restepped_history_recomputes_its_memo(self, k, model):
        other_model = "lin" if model == "rvo" else "rvo"
        history = filled_tracker(k, model).histories[0]
        assert_blocks_match_oracle(history, k, other_model, DT, seed=50)
        assert_blocks_match_oracle(history, k, model, 0.25, seed=51)
        assert_blocks_match_oracle(history, k, model, DT, seed=52)


@pytest.mark.parametrize("k, rows_per_call", [(1, 1), (2, 2)])
def test_full_history_step_makes_one_kernel_call_per_agent(monkeypatch, k, rows_per_call):
    tracker = filled_tracker(k, "rvo", m=24, frames=k)
    calls = []
    original = kernels.rvo_velocity_batch

    def counted(states, *args):
        calls.append(states.shape[0])
        return original(states, *args)

    monkeypatch.setattr(kernels, "rvo_velocity_batch", counted)
    tracker.step({})
    assert calls == [rows_per_call * 24] * len(tracker.ids)


class TestHpfStep:
    def _history(self, rng, m=60, k=2):
        history = FilterHistory(k)
        history.push(cloud(rng, m, pos=(0.0, 0.0)), empty_ctx())
        if k > 1:
            history.push(cloud(rng, m, pos=(0.4, 0.0)), empty_ctx())
        return history

    def test_k1_bitwise_equals_pf(self):
        prior = cloud(np.random.default_rng(16), 80)
        noise = NoiseSpec()
        obs_model = GaussianPositionLikelihood(0.1)
        obs = np.array([0.45, 0.05])
        history = FilterHistory(1)
        history.push(prior, empty_ctx())
        cfg = HpfConfig(order_k=1, pi=(1.0,), particles_m=80)
        out_h, lambdas = hpf_step(history, history.context(1), obs, obs_model, cfg,
                                  "lin", noise, DT, np.random.default_rng(17))
        out_p = pf_step(prior, empty_ctx(), obs, obs_model, "lin", noise, DT,
                        np.random.default_rng(17))
        assert np.array_equal(out_h.states, out_p.states)
        assert np.array_equal(out_h.weights, out_p.weights)
        assert np.allclose(lambdas, [1.0])

    def test_lambdas_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(18)
        history = self._history(rng)
        cfg = HpfConfig(order_k=2, pi=(0.91, 0.09), particles_m=60)
        _, lambdas = hpf_step(history, history.context(1), np.array([0.8, 0.0]),
                              GaussianPositionLikelihood(0.1), cfg, "lin",
                              NoiseSpec(), DT, rng)
        assert abs(lambdas.sum() - 1.0) < 1e-12
        assert np.all(lambdas >= 0.0)

    def test_pooled_set_has_k_times_m_particles(self):
        rng = np.random.default_rng(19)
        history = self._history(rng, m=35)
        cfg = HpfConfig(order_k=2, pi=(0.91, 0.09), particles_m=35)
        pooled_states, pooled_w, lambdas, _, _ = mixture_update(
            history, np.array([0.8, 0.0]),
            GaussianPositionLikelihood(0.1), cfg, "lin", NoiseSpec(), DT, rng)
        assert pooled_states.shape == (70, 6)
        assert abs(pooled_w.sum() - 1.0) < 1e-9

    def test_startup_truncates_order(self):
        rng = np.random.default_rng(20)
        history = FilterHistory(2)
        history.push(cloud(rng, 30), empty_ctx())
        cfg = HpfConfig(order_k=2, pi=(0.91, 0.09), particles_m=30)
        out, lambdas = hpf_step(history, history.context(1), np.array([0.4, 0.0]),
                                GaussianPositionLikelihood(0.1), cfg, "lin",
                                NoiseSpec(), DT, rng)
        assert lambdas.shape == (1,)
        assert abs(lambdas[0] - 1.0) < 1e-12
        assert out.size == 30

    def test_lambda_scores_scale_linearly_with_block_likelihood(self):
        class BlockScaledLikelihood:
            """Adds log(c) to every particle of one block, keyed by call order."""

            def __init__(self, base, block, log_c):
                self.base = base
                self.block = block
                self.log_c = log_c
                self.calls = 0

            def log_likelihood(self, obs, states):
                out = self.base.log_likelihood(obs, states)
                if self.calls == self.block:
                    out = out + self.log_c
                self.calls += 1
                return out

        rng_state = np.random.default_rng(21)
        base = GaussianPositionLikelihood(0.1)
        obs = np.array([0.5, 0.1])
        cfg = HpfConfig(order_k=2, pi=(0.91, 0.09), particles_m=40)
        noise = NoiseSpec()
        log_c = np.log(3.7)

        history1 = self._history(np.random.default_rng(22), m=40)
        _, _, _, scores_base, _ = mixture_update(
            history1, obs, base, cfg, "lin", noise, DT,
            np.random.default_rng(23))
        history2 = self._history(np.random.default_rng(22), m=40)
        scaled = BlockScaledLikelihood(base, block=1, log_c=log_c)
        _, _, _, scores_scaled, _ = mixture_update(
            history2, obs, scaled, cfg, "lin", noise, DT,
            np.random.default_rng(23))
        assert abs((scores_scaled[1] - scores_base[1]) - log_c) < 1e-12
        assert abs(scores_scaled[0] - scores_base[0]) < 1e-12

    def test_pi_ratio_sets_override_threshold(self):
        # Two single-particle blocks, deterministic propagation: lambda_2
        # wins exactly when the 2-step likelihood exceeds pi_1/pi_2 times
        # the 1-step likelihood.
        sigma = 0.1
        state_old = np.array([[0.0, 0.0, 1.0, 0.0, 1.0, 0.0]])
        state_new = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])  # 1-step stays at 1.0
        history = FilterHistory(2)
        history.push(uniform_set(state_old), empty_ctx())
        history.push(uniform_set(state_new), empty_ctx())
        # 2-step prediction from the old state: 0.0 + 2 * 1.0 * 0.4 = 0.8.
        cfg = HpfConfig(order_k=2, pi=(0.91, 0.09), particles_m=1)
        noise = NoiseSpec(0.0, 0.0, 0.0)
        obs_model = GaussianPositionLikelihood(sigma)
        ratio_needed = 0.91 / 0.09

        def lambdas_for(obs_x):
            _, lam = hpf_step(history, history.context(1), np.array([obs_x, 0.0]),
                              obs_model, cfg, "lin", noise, DT,
                              np.random.default_rng(0))
            return lam

        # Choose observation positions giving a 2-step/1-step likelihood
        # ratio just beyond / just below the threshold.
        pred1, pred2 = 1.0, 0.8

        def obs_for_factor(factor):
            # Solve (y-pred1)^2 - (y-pred2)^2 = 2 s^2 ln(factor) for y.
            return (pred1**2 - pred2**2 - 2.0 * sigma**2 * np.log(factor)) \
                / (2.0 * (pred1 - pred2))

        lam_hi = lambdas_for(obs_for_factor(ratio_needed * 1.05))
        lam_lo = lambdas_for(obs_for_factor(ratio_needed * 0.95))
        assert lam_hi[1] > lam_hi[0]
        assert lam_lo[0] > lam_lo[1]

    def test_hand_enumerated_tiny_instance(self):
        # M=3, K=2, one spatial axis, zero process noise: every quantity is
        # reproducible with elementary arithmetic.
        dt = DT
        sigma = 0.2
        p2 = np.array([0.0, 0.1, -0.1])
        v2 = np.array([1.0, 0.9, 1.1])
        w2 = np.array([0.5, 0.3, 0.2])
        p1 = np.array([0.42, 0.38, 0.40])
        v1 = np.array([1.0, 1.0, 1.0])
        w1 = np.array([0.2, 0.5, 0.3])

        def mk(ps, vs, ws):
            states = np.zeros((3, 6))
            states[:, 0] = ps
            states[:, 2] = vs
            states[:, 4] = vs
            return ParticleSet(states, ws)

        history = FilterHistory(2)
        history.push(mk(p2, v2, w2), empty_ctx())
        history.push(mk(p1, v1, w1), empty_ctx())
        y = 0.81
        pi = (0.91, 0.09)
        cfg = HpfConfig(order_k=2, pi=pi, particles_m=3)
        noise = NoiseSpec(0.0, 0.0, 0.0)
        obs_model = GaussianPositionLikelihood(sigma)

        pooled_states, pooled_w, lambdas, _, _ = mixture_update(
            history, np.array([y, 0.0]), obs_model, cfg, "lin",
            noise, dt, np.random.default_rng(0))

        pred1 = p1 + v1 * dt
        pred2 = p2 + 2.0 * v2 * dt
        lik1 = np.exp(-0.5 * (y - pred1) ** 2 / sigma**2) / (2 * np.pi * sigma**2)
        lik2 = np.exp(-0.5 * (y - pred2) ** 2 / sigma**2) / (2 * np.pi * sigma**2)
        wj1 = w1 * lik1
        wj2 = w2 * lik2
        lam1 = pi[0] * wj1.sum()
        lam2 = pi[1] * wj2.sum()
        lam = np.array([lam1, lam2]) / (lam1 + lam2)
        expect_w = np.concatenate([lam[0] * wj1 / wj1.sum(), lam[1] * wj2 / wj2.sum()])

        assert np.allclose(pooled_states[0:3, 0], pred1, atol=1e-12)
        assert np.allclose(pooled_states[3:6, 0], pred2, atol=1e-12)
        assert np.allclose(lambdas, lam, atol=1e-12)
        assert np.allclose(pooled_w, expect_w, atol=1e-12)

    def test_all_blocks_underflow_reverts_to_prediction(self):
        rng = np.random.default_rng(24)
        history = self._history(rng, m=30)
        cfg = HpfConfig(order_k=2, pi=(0.91, 0.09), particles_m=30)
        out, lambdas = hpf_step(history, history.context(1), np.array([1e5, 1e5]),
                                GaussianPositionLikelihood(0.05), cfg, "lin",
                                NoiseSpec(), DT, rng)
        assert out.flagged
        assert np.allclose(lambdas, [0.91, 0.09])
        assert out.size == 30

    # SHA-256 of the posterior states and lambdas of a step in which every block's
    # likelihood underflows, from unequal prior weights with zeros among them.
    FLAGGED_PIN = "1766c614d6322d98f66f4d0a6e5e55cb059f2d2a7854013254792ee7f6f93425"

    def test_flagged_step_is_bitwise_pinned(self):
        rng = np.random.default_rng(27)
        history = FilterHistory(2)
        for t in range(2):
            pset = cloud(rng, 40, pos=(0.4 * t, 0.0))
            weights = rng.random(40) * (rng.random(40) < 0.7)
            history.push(ParticleSet(pset.states, weights / weights.sum()), empty_ctx())
        cfg = HpfConfig(order_k=2, pi=(0.91, 0.09), particles_m=40)
        out, lambdas = hpf_step(history, history.context(1), np.array([1e5, 1e5]),
                                GaussianPositionLikelihood(0.05), cfg, "lin",
                                NoiseSpec(), DT, rng)
        assert out.flagged
        digest = hashlib.sha256(out.states.tobytes() + out.weights.tobytes()
                                + lambdas.tobytes()).hexdigest()
        assert digest == self.FLAGGED_PIN

    def test_pushed_flags_do_not_change_the_step(self):
        steps = []
        for flags in ((False, False), (True, True), (False, True)):
            rng = np.random.default_rng(26)
            history = FilterHistory(2)
            for flagged in flags:
                pset = cloud(rng, 30)
                history.push(ParticleSet(pset.states, pset.weights, flagged), empty_ctx())
            cfg = HpfConfig(order_k=2, pi=(0.91, 0.09), particles_m=30)
            out, lambdas = hpf_step(history, history.context(1), np.array([0.4, 0.0]),
                                    GaussianPositionLikelihood(0.1), cfg, "lin",
                                    NoiseSpec(), DT, rng)
            steps.append((out.states.tobytes(), out.weights.tobytes(), lambdas.tobytes()))
        assert steps[0] == steps[1] == steps[2]

    def test_ctx_must_be_the_newest_stored_context(self):
        history = self._history(np.random.default_rng(25), m=10)
        cfg = HpfConfig(order_k=2, pi=(0.91, 0.09), particles_m=10)
        # An equal-valued copy is rejected too: propagation reads the stored contexts.
        for ctx in (empty_ctx(), history.context(2)):
            with pytest.raises(ValueError, match="ctx"):
                hpf_step(history, ctx, np.array([0.4, 0.0]), GaussianPositionLikelihood(0.1),
                         cfg, "lin", NoiseSpec(), DT, np.random.default_rng(0))


class ScriptedLikelihood:
    """Returns prescribed log-likelihood blocks in call order, whatever the states."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.calls = 0

    def log_likelihood(self, obs, states):
        out = self.blocks[self.calls]
        self.calls += 1
        return out


LOGLIK_KINDS = ("plain", "underflow", "neg_inf", "pos_inf", "nan", "all_neg_inf")


def mixture_case(seed, k, m, kinds):
    """A K-entry history (weights with zeros; one all-zero block now and then) and
    one scripted log-likelihood block per kind."""
    rng = np.random.default_rng(seed)
    history = FilterHistory(k)
    for t in range(k):
        pset = cloud(rng, m, pos=(0.4 * t, 0.0))
        weights = rng.random(m) * (rng.random(m) < 0.75)
        if rng.random() < 0.15:
            weights[:] = 0.0
        elif weights.sum() > 0.0:
            weights /= weights.sum()
        history.push(ParticleSet(pset.states, weights), empty_ctx())
    blocks = []
    for kind in kinds:
        loglik = rng.normal(-3.0, 20.0, m)
        if kind == "underflow":
            loglik -= 1000.0
        elif kind == "all_neg_inf":
            loglik[:] = -np.inf
        elif kind != "plain":
            hit = rng.random(m) < 0.3
            hit[rng.integers(m)] = True
            loglik[hit] = {"neg_inf": -np.inf, "pos_inf": np.inf, "nan": np.nan}[kind]
        blocks.append(loglik)
    return history, ScriptedLikelihood(blocks)


def same_bits(a, b):
    """Bitwise equal arrays, any NaN counted equal to any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("m", [1, 7, 8, 9, 128, 129, 400])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_mixture_update_equals_the_per_block_oracle(k, m):
    # M spans numpy's pairwise-summation edges (blocks of 8, then 128); the blocks
    # hold zero prior weights and -inf, +inf and NaN log-likelihoods.
    pi = {1: (1.0,), 2: (0.91, 0.09), 3: (0.7, 0.2, 0.1)}[k]
    cfg = HpfConfig(order_k=k, pi=pi, particles_m=m)
    picker = np.random.default_rng(100 * k + m)
    for trial in range(8):
        kinds = (["underflow"] * k if trial == 0 else ["plain"] * k if trial == 1
                 else [LOGLIK_KINDS[i] for i in picker.integers(len(LOGLIK_KINDS), size=k)])
        seed = 1000 * k + 10 * m + trial
        got, want = [update(history, None, likelihood, cfg, "lin", NoiseSpec(), DT,
                            np.random.default_rng(seed))
                     for update, (history, likelihood) in (
                         (mixture_update, mixture_case(seed, k, m, kinds)),
                         (mixture_update_per_block, mixture_case(seed, k, m, kinds)))]
        assert got[4] == want[4], kinds
        if trial == 0:
            assert got[4]
        for a, b in zip(got[:4], want[:4]):
            assert same_bits(a, b), kinds


class TestConfigValidation:
    def test_pi_must_sum_to_one(self):
        with pytest.raises(ValueError):
            HpfConfig(order_k=2, pi=(0.8, 0.1), particles_m=10)

    def test_pi_length_must_match_order(self):
        with pytest.raises(ValueError):
            HpfConfig(order_k=3, pi=(0.9, 0.1), particles_m=10)

    def test_negative_pi_rejected(self):
        with pytest.raises(ValueError):
            HpfConfig(order_k=2, pi=(1.5, -0.5), particles_m=10)


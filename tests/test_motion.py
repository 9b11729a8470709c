import hashlib

import numpy as np
import pytest

from crowdtrack import (BodySpec, CrowdContext, NoiseSpec, RvoParams,
                        crowd_step, resolve_model)
from crowdtrack.kernels import build_halfplanes
from crowdtrack.motion import MODELS, predict_mean_batch, sample_transition_batch

from helpers import analytic_min_separation, transition


def state(p, v, d=None):
    """State row [px, py, vx, vy, des_x, des_y]."""
    d = v if d is None else d
    return np.concatenate([np.asarray(p, float), np.asarray(v, float), np.asarray(d, float)])


def predict(model, s, ctx):
    return predict_mean_batch(model, s[None, :], ctx, 0.4)[0]


def empty_ctx(**kw):
    return CrowdContext(others=(), **kw)


class TestResolveModel:
    def test_plus_suffix_marks_adaptive(self):
        assert resolve_model("rvo+") == ("rvo", True)
        assert resolve_model("rvo") == ("rvo", False)
        assert resolve_model("lin") == ("lin", False)

    def test_external_models_unavailable(self):
        for name in ("lta", "attr+", "attrg"):
            with pytest.raises(ValueError):
                resolve_model(name)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            resolve_model("social-force")

    @pytest.mark.parametrize("name, base", [("lin+", "lin"), ("LIN", "lin"), ("rvo+", "rvo")])
    def test_prediction_takes_only_resolved_ids(self, name, base):
        # A user-facing name resolves to a base id; the prediction itself
        # rejects the unresolved name instead of running another model.
        assert resolve_model(name)[0] == base and base in MODELS
        with pytest.raises(ValueError):
            predict(name, state([0, 0], [1, 0], d=[0, 1]), empty_ctx())


class TestPredictMean:
    def test_lin_extrapolates(self):
        out = predict("lin", state([0, 0], [1, 0]), empty_ctx())
        assert np.allclose(out[0:2], [0.4, 0.0])
        assert np.allclose(out[2:4], [1.0, 0.0])
        assert np.allclose(out[4:6], [1.0, 0.0])

    def test_rvo_without_neighbors_adopts_desired(self):
        s = state([0, 0], [0.2, 0.0], d=[1.0, 0.5])
        out = predict("rvo", s, empty_ctx())
        assert np.allclose(out[2:4], [1.0, 0.5])
        assert np.allclose(out[0:2], np.array([1.0, 0.5]) * 0.4)
        assert np.allclose(out[4:6], s[4:6])

    def test_rvo_crossing_matches_direct_geometry_call(self):
        me = state([0, 0], [1.0, 0.0], d=[1.0, 0.0])
        other = state([2.0, -2.0], [0.0, 1.0])
        params = RvoParams(time_horizon_tau=2.0, dt=0.4)
        body = BodySpec(radius=0.3, max_speed=2.0)
        ctx = CrowdContext(others=[other], params=params, self_body=body)
        out = predict("rvo", me, ctx)
        expect = crowd_step(np.array([me, other]), [body.radius] * 2, [body.max_speed] * 2,
                            params)[0, 2:4]
        assert np.allclose(out[2:4], expect, atol=1e-12)
        assert not np.allclose(out[2:4], me[4:6])


class TestSampleTransition:
    def test_zero_noise_equals_mean(self):
        rng = np.random.default_rng(0)
        s = state([0.5, -1.0], [0.9, 0.2])
        noise = NoiseSpec(0.0, 0.0, 0.0)
        out = transition("lin", s[None, :], empty_ctx(), noise, 0.4, rng)[0]
        assert np.array_equal(out, predict("lin", s, empty_ctx()))

    def test_noise_moments(self):
        rng = np.random.default_rng(1)
        noise = NoiseSpec(0.05, 0.1, 0.05)
        s = state([0.0, 0.0], [1.0, 0.0])
        n = 100000
        states = np.tile(s, (n, 1))
        out = transition("lin", states, empty_ctx(), noise, 0.4, rng)
        mean = predict("lin", s, empty_ctx())
        scales = noise.block_scales()
        emp_mean = out.mean(axis=0)
        emp_std = out.std(axis=0)
        assert np.all(np.abs(emp_mean - mean) < 3.0 * scales / np.sqrt(n))
        assert np.all(np.abs(emp_std - scales) < 0.02 * scales)

    def test_fixed_seed_reproducible(self):
        states = state([0, 0], [1, 0])[None, :]
        noise = NoiseSpec()
        a = transition("lin", states, empty_ctx(), noise, 0.4, np.random.default_rng(42))
        b = transition("lin", states, empty_ctx(), noise, 0.4, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_speed_cap_enforced(self):
        rng = np.random.default_rng(2)
        s = state([0, 0], [2.5, 0])
        noise = NoiseSpec(0.0, 5.0, 5.0)
        states = np.tile(s, (2000, 1))
        out = transition("lin", states, empty_ctx(), noise, 0.4, rng)
        speeds = np.linalg.norm(out[:, 2:4], axis=1)
        desired = np.linalg.norm(out[:, 4:6], axis=1)
        assert np.all(speeds <= 3.0 + 1e-12)
        assert np.all(desired <= 3.0 + 1e-12)


def cap_edge_rows():
    """Velocity rows around `SPEED_CAP`: squared norms (x * x + y * y, rounded) one
    ulp below 9, exactly 9 and one ulp above it, twice, then rows well off the cap."""
    rows = []
    for target in (np.nextafter(9.0, 0.0), 9.0, np.nextafter(9.0, 10.0)):
        rows.append(next([x, y] for x in (2.0, 2.5, 1.0, 0.5)
                         for y in near(np.sqrt(target - x * x), 8)
                         if x * x + y * y == target))
    rows += [[-y, -x] for x, y in rows]
    rows += [[0.0, -3.5], [10.0, 5.0], [-4.0, 7.0], [2.9, 0.8]]
    return np.array(rows)


def near(value, steps):
    """``value`` and the ``steps`` floats on either side of it."""
    out = [value]
    for _ in range(steps):
        out = [np.nextafter(out[0], -np.inf)] + out + [np.nextafter(out[-1], np.inf)]
    return out


class TestTransitionSpeedCap:
    # SHA-256 of sample_transition_batch's output on the rows below, with and
    # without noise: the clamp must keep every bit of every case.
    PIN = "ea5957e31a55a66485475a7166591ac54b42e07fb52a0cc664ec5b20c1ff64ee"

    def test_clamp_is_bitwise_pinned(self):
        edge = cap_edge_rows()
        assert [x * x + y * y - 9.0 for x, y in edge[:3]] == [-2.0 ** -49, 0.0, 2.0 ** -49]
        n = edge.shape[0]
        means = np.zeros((n * n, 6))
        means[:, 2:4] = np.repeat(edge, n, axis=0)  # every speed with every desired speed
        means[:, 4:6] = np.tile(edge, (n, 1))
        exact = sample_transition_batch(means, np.zeros_like(means), NoiseSpec(0.0, 0.0, 0.0))
        rng = np.random.default_rng(3)
        noisy_means = rng.normal(0.0, 2.0, (500, 6))
        noisy = sample_transition_batch(noisy_means, rng.standard_normal((500, 6)),
                                        NoiseSpec(0.05, 1.0, 1.0))
        below = np.array([x * x + y * y <= 9.0 for x, y in means[:, 2:4]])
        assert np.array_equal(exact[below, 2:4], means[below, 2:4])
        assert np.all(np.hypot(exact[:, 2], exact[:, 3]) <= 3.0 + 1e-15)
        digest = hashlib.sha256(exact.tobytes() + noisy.tobytes()).hexdigest()
        assert digest == self.PIN

    def test_clamp_scales_speeds_whose_square_overflows(self):
        means = np.zeros((1, 6))
        means[0, 2:6] = [2.5e200, 0.0, 1e155, 1e155]
        with np.errstate(over="ignore"):
            out = sample_transition_batch(means, np.zeros_like(means), NoiseSpec(0.0, 0.0, 0.0))
        assert np.allclose(out[0, 2:6], [3.0, 0.0, 1.5 * 2 ** 0.5, 1.5 * 2 ** 0.5], rtol=1e-15)


class TestRvoDelegatedInvariant:
    def test_mean_velocity_satisfies_neighbor_halfplanes(self):
        rng = np.random.default_rng(9)
        params = RvoParams(time_horizon_tau=2.0, dt=0.4)
        body = BodySpec(radius=0.25, max_speed=2.0)
        for _ in range(30):
            me = state(rng.uniform(-2, 2, 2), rng.uniform(-1, 1, 2),
                       d=rng.uniform(-1, 1, 2))
            other_pos = me[0:2] + rng.uniform(1.0, 4.0) * _unit(rng)
            other = state(other_pos, rng.uniform(-1, 1, 2))
            ctx = CrowdContext(others=[other], params=params, self_body=body)
            out = predict("rvo", me, ctx)
            point, normal = build_halfplanes(*me[0:4].tolist(), body.radius, [other[0:2].tolist()],
                                             [other[2:4].tolist()], [body.radius],
                                             params.time_horizon_tau, params.dt,
                                             params.neighbor_radius)
            assert len(point) == 1
            point, normal = np.array(point), np.array(normal)
            # The plane's permitted side is collision-free next to its
            # anchor v + u/2, where the relative velocity reaches the cone.
            rel_pos = other[0:2] - me[0:2]
            boundary = 2.0 * point[0] - me[2:4] - other[2:4]
            assert (analytic_min_separation(rel_pos, params.time_horizon_tau,
                                            boundary + 1e-6 * normal[0])
                    >= 2 * body.radius - 1e-12)
            assert (out[2:4] - point[0]) @ normal[0] >= -1e-9


def _unit(rng):
    ang = rng.uniform(0, 2 * np.pi)
    return np.array([np.cos(ang), np.sin(ang)])


class TestContextValidation:
    def test_rows_and_radii_shapes_checked(self):
        ctx = CrowdContext(others=[state([1, 2], [3, 4]), state([5, 6], [7, 8])])
        assert np.array_equal(ctx.neighbor_positions, [[1, 2], [5, 6]])
        assert np.array_equal(ctx.neighbor_velocities, [[3, 4], [7, 8]])
        assert np.array_equal(ctx.neighbor_radii, [0.2, 0.2])
        with pytest.raises(ValueError):
            CrowdContext(others=np.zeros((2, 4)))

import numpy as np
import pytest

from crowdtrack import (AgentBody, BodySpec, CrowdContext, NoiseSpec,
                        RvoParams, resolve_model, rvo_step)
from crowdtrack.kernels import build_halfplanes
from crowdtrack.motion import MODELS, predict_mean_batch

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
        agents = [AgentBody(me[0:2], me[2:4], body.radius, body.max_speed),
                  AgentBody(other[0:2], other[2:4], body.radius, body.max_speed)]
        expect = rvo_step(0, agents, me[4:6], params)
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
            point, normal = np.empty((1, 2)), np.empty((1, 2))
            assert build_halfplanes(*me[0:4], body.radius, other[None, 0:2], other[None, 2:4],
                                    np.array([body.radius]), params.time_horizon_tau,
                                    params.dt, params.neighbor_radius, point, normal) == 1
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

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdtrack import RvoParams, crowd_step, kernels
from crowdtrack.data import make_scenario
from crowdtrack.rvo import DOMAINS
from helpers import crowd_step_oracle


PARAMS = RvoParams(time_horizon_tau=2.0, dt=0.1, neighbor_radius=10.0)


def rotate(v, theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def lone_step(position, desired, dt, max_speed=2.5):
    """One `crowd_step` of a single agent: no neighbours, so it takes its clamped desire."""
    row = np.concatenate([position, [0.0, 0.0], desired])[None, :]
    params = RvoParams(time_horizon_tau=2.0, dt=dt, neighbor_radius=10.0)
    return crowd_step(row, [0.2], [max_speed], params)[0]


class TestAdvance:
    def test_zero_velocity_keeps_position(self):
        out = lone_step([1.0, 2.0], [0.0, 0.0], 0.4)
        assert np.array_equal(out[0:2], [1.0, 2.0])
        assert np.array_equal(out[2:4], [0.0, 0.0])

    def test_displacement_arithmetic(self):
        out = lone_step([0.0, 0.0], [1.0, 2.0], 0.4)
        assert np.allclose(out[0:2], [0.4, 0.8])
        assert np.array_equal(out[4:6], [1.0, 2.0])
        # A desire beyond the speed limit is clamped onto it first.
        out = lone_step([0.0, 0.0], [3.0, 4.0], 0.4, max_speed=1.0)
        assert np.allclose(out[2:4], [0.6, 0.8], atol=1e-12)
        assert np.allclose(out[0:2], [0.24, 0.32], atol=1e-12)

    def test_two_half_steps_equal_one_full_step(self):
        v = np.array([0.7, -1.1])
        half = lone_step([0.3, -0.2], v, 0.2)
        twice = lone_step(half[0:2], v, 0.2)
        once = lone_step([0.3, -0.2], v, 0.4)
        assert np.allclose(twice[0:2], once[0:2], atol=1e-15)


def velocities(rows, radii, max_speeds):
    """New velocities of one `crowd_step` of the state rows."""
    return crowd_step(rows, radii, max_speeds, PARAMS)[:, 2:4]


class TestRvoStep:
    def test_single_agent_clamps_desired(self):
        v = velocities([[0.0, 0.0, 0.0, 0.0, 3.0, 4.0]], [0.2], [1.0])[0]
        assert np.allclose(v, [0.6, 0.8], atol=1e-12)
        v2 = velocities([[0.0, 0.0, 0.0, 0.0, 0.3, 0.1]], [0.2], [1.0])[0]
        assert np.allclose(v2, [0.3, 0.1])

    def test_head_on_pair_symmetric_and_collision_free(self):
        rows = np.array([[-2.0, 0.0, 1.0, 0.0, 1.0, 0.0], [2.0, 0.0, -1.0, 0.0, -1.0, 0.0]])
        va, vb = velocities(rows, [0.4, 0.4], [2.0, 2.0])
        # The pair maps to itself under point reflection, so the velocities
        # mirror exactly and both must deviate laterally.
        assert np.allclose(va, -vb, atol=1e-12)
        assert abs(va[1]) > 1e-3

        min_dist = np.inf
        for _ in range(100):
            rows = crowd_step(rows, [0.4, 0.4], [2.0, 2.0], PARAMS)
            gap = np.linalg.norm(rows[0, 0:2] - rows[1, 0:2])
            min_dist = min(min_dist, gap)
        assert min_dist >= 0.8 - 1e-6

    def test_four_agent_exchange_collision_free(self):
        # The classic antipodal exchange; tiny angular offsets keep it off
        # the exactly-symmetric deadlock manifold.
        radius = 0.25
        angles = [np.pi / 2 * k + 0.01 * (k + 1) for k in range(4)]
        rows = np.zeros((4, 6))
        rows[:, 0:2] = [3.0 * np.array([np.cos(a), np.sin(a)]) for a in angles]
        goals = -rows[:, 0:2]
        min_dist = np.inf
        for _ in range(100):
            for row, goal in zip(rows, goals):
                to_goal = goal - row[0:2]
                d = np.linalg.norm(to_goal)
                row[4:6] = to_goal / d * min(1.0, d / PARAMS.dt) if d > 1e-9 else np.zeros(2)
            rows = crowd_step(rows, [radius] * 4, [1.5] * 4, PARAMS)
            for i in range(4):
                for j in range(i + 1, 4):
                    gap = np.linalg.norm(rows[i, 0:2] - rows[j, 0:2])
                    min_dist = min(min_dist, gap)
        assert min_dist >= 2 * radius - 1e-6

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pos = rng.uniform(-3, 3, (3, 2))
            vel = rng.uniform(-1, 1, (3, 2))
            if min(np.linalg.norm(pos[0] - pos[1]), np.linalg.norm(pos[0] - pos[2]),
                   np.linalg.norm(pos[1] - pos[2])) < 0.9:
                continue
            desire = np.vstack([rng.uniform(-1, 1, 2), vel[1:]])
            v = velocities(np.hstack([pos, vel, desire]), [0.3] * 3, [2.5] * 3)[0]
            theta = rng.uniform(0, 2 * np.pi)
            rotated = [[rotate(a[i], theta) for a in (pos, vel, desire)] for i in range(3)]
            v_r = velocities(np.reshape(rotated, (3, 6)), [0.3] * 3, [2.5] * 3)[0]
            assert np.allclose(v_r, rotate(v, theta), atol=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        pos = rng.uniform(-3, 3, (3, 2))
        vel = rng.uniform(-1, 1, (3, 2))
        desire = np.vstack([[0.8, -0.3], vel[1:]])
        v = velocities(np.hstack([pos, vel, desire]), [0.25] * 3, [2.5] * 3)[0]
        shift = np.array([12.3, -7.7])
        v_t = velocities(np.hstack([pos + shift, vel, desire]), [0.25] * 3, [2.5] * 3)[0]
        assert np.allclose(v_t, v, atol=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        pos = rng.uniform(-3, 3, (4, 2))
        vel = rng.uniform(-1, 1, (4, 2))
        rows = np.hstack([pos, vel, vel])
        rows[0, 4:6] = [1.0, 0.0]
        v1 = velocities(rows, [0.2] * 4, [2.5] * 4)
        v2 = velocities(rows, [0.2] * 4, [2.5] * 4)
        assert np.array_equal(v1, v2)

    def test_overlapping_agents_separate(self):
        # Tracking noise can put two hypotheses inside each other; the step
        # must produce a velocity that separates them within dt.
        rows = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.3, 0.0, 0.0, 0.0, 0.0, 0.0]])
        stepped = crowd_step(rows, [0.4, 0.4], [2.0, 2.0], PARAMS)
        gap_now = np.linalg.norm(rows[1, 0:2] - rows[0, 0:2])
        gap_next = np.linalg.norm(stepped[1, 0:2] - stepped[0, 0:2])
        assert gap_next > gap_now

    def test_neighbor_radius_cull(self):
        rows = [[0.0, 0.0, 1.0, 0.0, 1.5, 0.0], [50.0, 0.0, -1.0, 0.0, -1.0, 0.0]]
        v = velocities(rows, [0.2, 0.2], [2.0, 2.0])[0]
        assert np.allclose(v, [1.5, 0.0])

    def test_crowd_step_keeps_its_input_and_stays_mirrored(self):
        rows = np.array([[-2.0, 0.0, 1.0, 0.0, 1.0, 0.0], [2.0, 0.0, -1.0, 0.0, -1.0, 0.0]])
        before = rows.copy()
        stepped = crowd_step(rows, [0.4, 0.4], [2.0, 2.0], PARAMS)
        assert np.array_equal(rows, before)
        assert np.array_equal(stepped[:, 4:6], before[:, 4:6])
        for _ in range(40):
            rows = crowd_step(rows, [0.4, 0.4], [2.0, 2.0], PARAMS)
            assert np.array_equal(rows[0], -rows[1])
        assert abs(rows[0, 1]) > 1e-3

    def test_body_limits_must_be_finite(self):
        row = [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]
        with pytest.raises(ValueError):
            crowd_step(row, [np.inf], [2.5], PARAMS)
        with pytest.raises(ValueError):
            crowd_step(row, [0.2], [np.inf], PARAMS)
        # Below about 1e-162 m/s the kernel's squared speed underflows, and this
        # body's desired velocity [2e-170, 0] came back unclamped.
        with pytest.raises(ValueError, match="^max_speed must"):
            crowd_step([[0.0, 0.0, 0.0, 0.0, 2e-170, 0.0]], [0.2], [1.5e-170], PARAMS)

    @pytest.mark.parametrize("bad", [-0.2, 0.0, np.inf, np.nan])
    @pytest.mark.parametrize("field", ["radius", "max_speed"])
    def test_crowd_step_checks_every_rows_body(self, field, bad):
        rows = np.array([[-1.0, 0.0, 1.0, 0.0, 1.0, 0.0], [1.0, 0.0, -1.0, 0.0, -1.0, 0.0]])
        body = {"radius": [0.2, 0.2], "max_speed": [1.5, 1.5]}
        body[field][1] = bad
        with pytest.raises(ValueError, match=f"^{field} must"):
            crowd_step(rows, body["radius"], body["max_speed"], PARAMS)

    def test_radius_is_at_most_max_radius(self):
        # At 1e200 m the squared radius sum overflows, outside the kernel's input domain.
        rows = np.array([[-1.0, 0.0, 1.0, 0.0, 1.0, 0.0], [1.0, 0.0, -1.0, 0.0, -1.0, 0.0]])
        with pytest.raises(ValueError, match="^radius must"):
            crowd_step(rows, [0.2, 1e200], [1.5, 1.5], PARAMS)
        max_radius = DOMAINS["radius"][1]
        stepped = crowd_step(rows, [max_radius, max_radius], [1.5, 1.5], PARAMS)
        assert np.isfinite(stepped).all()

    def test_negative_bodies_are_rejected(self):
        # Negative radii and speed limits used to return velocities (0.5 m/s here).
        rows = np.array([[-1.0, 0.0, 0.5, 0.0, 0.5, 0.0], [1.0, 0.0, -0.5, 0.0, -0.5, 0.0]])
        with pytest.raises(ValueError, match="^radius must"):
            crowd_step(rows, [-0.2, -0.2], [-1.5, -1.5], PARAMS)

    def test_speed_limit_at_the_floor_is_enforced(self):
        # A floor low enough for the squared speed to underflow fails here.
        floor = DOMAINS["max_speed"][0]
        row = [[0.0, 0.0, 0.0, 0.0, 2 * floor, 0.0]]
        velocity = velocities(row, [floor], [floor])[0]
        assert np.hypot(*velocity) <= floor * (1.0 + 1e-12)  # norm would underflow

    @pytest.mark.parametrize("field", ["dt", "time_horizon_tau"])
    def test_clock_is_in_its_closed_range(self, field):
        # At tau = 1e300, x / tau squared to 0 and avoidance was silently dropped.
        low, high, _ = DOMAINS[field]
        for ok in (low, high):
            assert getattr(RvoParams(**{field: ok}), field) == ok
        for bad in (0.0, np.nextafter(low, 0.0), np.nextafter(high, np.inf),
                    1e300, np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^{field} must be in"):
                RvoParams(**{field: bad})

    def test_crowd_step_checks_its_shapes(self):
        # One radius and one speed limit per row: a row without a body is an error.
        rows = np.zeros((2, 6))
        with pytest.raises(ValueError, match="^states must have shape"):
            crowd_step(rows, [0.2], [2.5, 2.5], PARAMS)
        with pytest.raises(ValueError, match="^states must have shape"):
            crowd_step(rows, [0.2, 0.2], [2.5, 2.5, 2.5], PARAMS)
        with pytest.raises(ValueError, match="^states must have shape"):
            crowd_step(rows[:, :4], [0.2, 0.2], [2.5, 2.5], PARAMS)
        # A nan row came back nan, and the other agent walked on as if alone.
        with pytest.raises(ValueError, match="^states must be finite"):
            crowd_step([[np.nan, 0.0, 1.0, 0.0, 1.0, 0.0], [1.0, 0.0, -1.0, 0.0, -1.0, 0.0]],
                       [0.2, 0.2], [2.5, 2.5], PARAMS)


# SHA-256 of the velocities below, computed with the scalar kernels. A
# refactor of the kernel must reproduce them bit for bit, not just closely.
KERNEL_PIN = "d0d89e57da8b199cf0d94e20fa099cdc1ff2a443d25f1e6a52b15564f9c75330"


def test_rvo_velocity_batch_is_bitwise_pinned():
    rng = np.random.default_rng(8)
    # Rows [px, py, vx, vy, des_x, des_y]; many positions overlap a neighbour.
    states = np.column_stack([rng.uniform(-1.5, 1.5, (300, 2)), rng.uniform(-1, 1, (300, 2)),
                              rng.uniform(-1.5, 1.5, (300, 2))])
    # A duplicated neighbour (parallel constraints), head-on pairs from both
    # sides, and one neighbour beyond the 5 m cutoff.
    nbr_pos = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [20.0, 20.0]])
    nbr_vel = np.array([[-1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [0.0, 0.0]])
    nbr_rad = np.full(6, 0.3)
    args = (0.25, 1.5, nbr_pos, nbr_vel, nbr_rad, 2.0, 0.4, 5.0)
    out = np.empty((300, 2))
    kernels.rvo_velocity_batch(states, *args, out)

    gaps = np.linalg.norm(states[:, None, :2] - nbr_pos[None], axis=2)
    assert np.any(gaps < 0.25 + 0.3)
    feasible = [kernels.rvo_velocity(*row, *args)[0] for row in states]
    assert 0 < feasible.count(False) < len(feasible)  # some rows take the lp3 fallback
    assert hashlib.sha256(out.tobytes()).hexdigest() == KERNEL_PIN


@st.composite
def crowds(draw):
    """A crowd of 1-9 state rows, their radii and speed limits, and RvoParams.

    Positions, velocities and desires lie on a grid of 1/8 and the radii and
    tau are powers of two or sums of two, so exact cases happen.  Each row
    after the first may sit on top of an earlier row, or 1/8 m from it, which
    overlaps any two radii.  Positions spread over 6 m, so a cutoff of 1 or 3 m
    leaves some neighbours out of range.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 9))
    pos = rng.integers(-24, 25, (n, 2)) / 8.0
    for i in range(1, n):
        j, how = rng.integers(0, i), rng.integers(0, 4)  # free twice, coincident, overlapping
        if how == 2:
            pos[i] = pos[j]
        elif how == 3:
            pos[i] = pos[j] + [0.125, 0.0]
    states = np.column_stack([pos, rng.integers(-12, 13, (n, 2)) / 8.0,
                              rng.integers(-16, 17, (n, 2)) / 8.0])
    radii = rng.choice([0.125, 0.25, 0.375], n)
    max_speeds = rng.choice([0.5, 1.5, 2.5], n)
    params = RvoParams(time_horizon_tau=draw(st.sampled_from([0.5, 2.0])),
                       dt=draw(st.sampled_from([0.1, 0.25, 0.4])),
                       neighbor_radius=draw(st.sampled_from([1.0, 3.0, math.inf])))
    return states, radii, max_speeds, params


@settings(max_examples=300)
@given(crowd=crowds())
def test_crowd_step_equals_its_batch_kernel_loop_and_keeps_speed_limits(crowd):
    """`crowd_step` gives the bits of one `rvo_velocity_batch` call per row on
    masked neighbour arrays, and every new velocity is within its row's speed
    limit up to rounding (the generator's and rollout's rows, which no traced
    benchmark run checks)."""
    states, radii, max_speeds, params = crowd
    out = crowd_step(states, radii, max_speeds, params)
    expected = crowd_step_oracle(states, radii, max_speeds, params)
    assert out.shape == expected.shape
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
    speeds = np.hypot(out[:, 2], out[:, 3])
    assert np.all(speeds <= max_speeds * (1.0 + 1e-12))


def test_crowd_step_keeps_signed_zeros_of_its_batch_kernel_loop():
    """`crowd_step` mirrors a pair's cone for its second agent; a mirrored 0.0
    would be -0.0 where the agent's own cone gives 0.0.  Crowds whose
    coordinates and velocities are signed zeros and a few exact values, with
    coincident positions and equal velocities, match the per-row oracle bit for
    bit at three cutoffs."""
    rng = np.random.default_rng(27)
    values = np.array([0.0, -0.0, 0.3, -0.3, 0.5, -0.5, 1.0, 2.0])
    for cutoff in (1.0, 10.0, math.inf):
        params = RvoParams(time_horizon_tau=2.0, dt=0.4, neighbor_radius=cutoff)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            states = rng.choice(values, (n, 6))
            for i in range(1, n):
                j, how = rng.integers(0, i), rng.integers(0, 3)
                if how == 0:
                    states[i, 0:2] = states[j, 0:2]  # coincident
                elif how == 1:
                    states[i, 2:4] = states[j, 2:4]  # equal velocities
            radii = rng.choice([0.1, 0.2, 0.3], n)
            max_speeds = np.full(n, 1.5)
            out = crowd_step(states, radii, max_speeds, params)
            expected = crowd_step_oracle(states, radii, max_speeds, params)
            assert np.array_equal(out.view(np.uint64), expected.view(np.uint64)), states


def test_crowd_step_builds_each_pairs_cone_once(monkeypatch):
    """One `vo_closest_boundary` call per unordered in-range pair: the README
    circle at frame 10 with a 3 m cutoff, whose pairs are apart and have no zero
    component.  Per-agent cones would make two calls per pair."""
    scenario = make_scenario("circle", 8, 3)
    now, before = (np.array([pos for _, pos in scenario.frames[k].entries]) for k in (10, 9))
    states = np.column_stack([now, (now - before) / scenario.dt, -now])
    params = RvoParams(dt=0.1, neighbor_radius=3.0)
    gaps = np.linalg.norm(now[:, None] - now[None], axis=2)[np.triu_indices(8, 1)]
    assert np.all(gaps > 2 * 0.2)  # no overlap
    in_range = int(np.count_nonzero(gaps <= params.neighbor_radius))
    assert 0 < in_range < 28
    calls = []
    cone = kernels.vo_closest_boundary
    monkeypatch.setattr(kernels, "vo_closest_boundary", lambda *a: calls.append(a) or cone(*a))
    crowd_step(states, np.full(8, 0.2), np.full(8, 1.5), params)
    assert len(calls) == in_range

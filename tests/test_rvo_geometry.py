"""Cone geometry of the kernels the program runs, against independent oracles.

A relative velocity collides within the horizon iff the closed-form
separation `helpers.analytic_min_separation` is below the combined radius;
that helper is itself checked against dense time sampling below.
"""

import numpy as np

from crowdtrack.kernels import build_halfplanes, vo_closest_boundary

from helpers import (analytic_min_separation, grid_project_boundary,
                     time_sampling_contains)


def collides(rel_pos, r_sum, tau, rel_vel):
    return analytic_min_separation(rel_pos, tau, rel_vel) < r_sum


def cone_u(rel_pos, r_sum, tau, rel_vel):
    """(u, n) of `vo_closest_boundary` as 2-vectors."""
    ux, uy, nx, ny = vo_closest_boundary(rel_pos[0], rel_pos[1], r_sum, tau,
                                         rel_vel[0], rel_vel[1])
    return np.array([ux, uy]), np.array([nx, ny])


def assert_normal_points_out(rel_pos, r_sum, tau, q, n, eps=1e-6):
    """Stepping from the boundary point q along +n leaves the cone, along -n enters it."""
    out_sep = analytic_min_separation(rel_pos, tau, q + eps * n)
    in_sep = analytic_min_separation(rel_pos, tau, q - eps * n)
    assert out_sep >= r_sum - 1e-12
    assert in_sep < r_sum


def halfplane(pa, va, ra, pb, vb, rb, tau):
    """Agent a's permitted half-plane against b from `build_halfplanes`: (point, normal)."""
    pa, va, pb, vb = (np.asarray(v, float).tolist() for v in (pa, va, pb, vb))
    points, normals = build_halfplanes(*pa, *va, ra, [pb], [vb], [rb], tau, 0.4, np.inf)
    assert len(points) == 1
    return np.array(points[0]), np.array(normals[0])


class TestVoContains:
    def test_too_slow_within_horizon(self):
        assert not collides([5.0, 0.0], 0.6, 2.0, [1.0, 0.0])

    def test_head_on_ray_through_disc(self):
        assert collides([5.0, 0.0], 0.6, 2.0, [3.0, 0.0])

    def test_agrees_with_time_sampling_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(1000):
            rel_pos = rng.uniform(-6, 6, 2)
            r_sum = rng.uniform(0.2, 1.0)
            if np.linalg.norm(rel_pos) <= r_sum + 1e-6:
                continue
            tau = rng.uniform(0.5, 4.0)
            rel_vel = rng.uniform(-4, 4, 2)
            # Skip boundary cases the dense oracle cannot decide.
            if abs(analytic_min_separation(rel_pos, tau, rel_vel) - r_sum) < 1e-3:
                continue
            got = collides(rel_pos, r_sum, tau, rel_vel)
            want = time_sampling_contains(rel_pos, r_sum, tau, rel_vel)
            assert got == want, (rel_pos, r_sum, tau, rel_vel)
            checked += 1
        assert checked > 800

    def test_zero_relative_velocity_no_collision(self):
        assert not collides([2.0, 0.0], 0.6, 5.0, [0.0, 0.0])


class TestComputeU:
    def test_on_boundary_gives_zero_u(self):
        # Relative velocities exactly on the truncation arc and on each leg.
        rel_pos, r_sum, tau = np.array([4.0, 0.0]), 1.0, 2.0
        sin_half = r_sum / np.linalg.norm(rel_pos)
        cos_half = np.sqrt(1.0 - sin_half**2)
        on_arc = np.array([(4.0 - 1.0) / tau, 0.0])
        on_left_leg = 3.0 * np.array([cos_half, sin_half])
        on_right_leg = 3.0 * np.array([cos_half, -sin_half])
        for q in (on_arc, on_left_leg, on_right_leg):
            u, n = cone_u(rel_pos, r_sum, tau, q)
            assert np.linalg.norm(u) < 1e-12
            assert abs(np.linalg.norm(n) - 1.0) < 1e-12
            assert_normal_points_out(rel_pos, r_sum, tau, q + u, n)

    def test_matches_boundary_grid_search(self):
        rel_pos, rel_vel = np.array([4.0, 0.0]), np.array([2.0, 0.0])
        u, n = cone_u(rel_pos, 1.0, 2.0, rel_vel)
        _, grid_dist = grid_project_boundary(rel_pos, 1.0, 2.0, rel_vel)
        assert abs(np.linalg.norm(u) - grid_dist) < 6e-4
        assert_normal_points_out(rel_pos, 1.0, 2.0, rel_vel + u, n)

    def test_random_instances_match_grid_search(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            rel_pos = rng.uniform(-5, 5, 2)
            r_sum = rng.uniform(0.3, 1.2)
            if np.linalg.norm(rel_pos) < r_sum + 0.1:
                continue
            tau = rng.uniform(0.8, 3.0)
            rel_vel = rng.uniform(-3, 3, 2)
            u, n = cone_u(rel_pos, r_sum, tau, rel_vel)
            _, grid_dist = grid_project_boundary(rel_pos, r_sum, tau, rel_vel)
            assert abs(np.linalg.norm(u) - grid_dist) < 6e-4
            assert abs(np.linalg.norm(n) - 1.0) < 1e-12
            assert_normal_points_out(rel_pos, r_sum, tau, rel_vel + u, n)

    def test_normal_points_out_of_the_cone(self):
        rng = np.random.default_rng(13)
        tested = 0
        for _ in range(60):
            rel_pos = rng.uniform(-5, 5, 2)
            r_sum = rng.uniform(0.3, 1.0)
            if np.linalg.norm(rel_pos) < r_sum + 0.1:
                continue
            tau = rng.uniform(0.8, 3.0)
            rel_vel = rng.uniform(-3, 3, 2)
            u, n = cone_u(rel_pos, r_sum, tau, rel_vel)
            assert_normal_points_out(rel_pos, r_sum, tau, rel_vel + u, n)
            tested += 1
        assert tested > 40

    def test_reflection_symmetry(self):
        # a at (0.3, 0.7) moving (1.2, 0.4); b at (3.0, 1.5) moving (-0.2, 0.1).
        rel_pos = np.array([2.7, 0.8])
        flip = np.array([1.0, -1.0])
        # The first relative velocity projects onto the arc, the second onto
        # a leg, whose mirror image is the other leg.
        for rel_vel in (np.array([1.4, 0.3]), np.array([1.4, 1.2])):
            u, n = cone_u(rel_pos, 0.7, 1.7, rel_vel)
            u_m, n_m = cone_u(rel_pos * flip, 0.7, 1.7, rel_vel * flip)
            assert np.allclose(u_m, u * flip, atol=1e-12)
            assert np.allclose(n_m, n * flip, atol=1e-12)


class TestPermittedHalfplane:
    def test_boundary_case_passes_through_velocity(self):
        # a's velocity puts the relative velocity on the truncation arc, then
        # on the left leg; the plane passes through it, and the permitted
        # side next to it does not collide.
        rel_pos, r_sum, tau = np.array([4.0, 0.0]), 1.0, 2.0
        sin_half = r_sum / np.linalg.norm(rel_pos)
        on_left_leg = 3.0 * np.array([np.sqrt(1.0 - sin_half**2), sin_half])
        for velocity in (np.array([(4.0 - 1.0) / tau, 0.0]), on_left_leg):
            point, normal = halfplane([0.0, 0.0], velocity, 0.5, rel_pos, [0.0, 0.0], 0.5, tau)
            assert np.allclose(point, velocity, atol=1e-12)
            assert not collides(rel_pos, r_sum, tau, velocity + 1e-6 * normal)

    def test_head_on_pair_mirror_halfplanes(self):
        pa, va, pb, vb = [-2.0, 0.0], [1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]
        point_a, normal_a = halfplane(pa, va, 0.4, pb, vb, 0.4, 2.0)
        point_b, normal_b = halfplane(pb, vb, 0.4, pa, va, 0.4, 2.0)
        # The pair is symmetric under point reflection, so the half-planes
        # are exact mirror images of each other through the origin.
        assert np.allclose(point_a, -point_b, atol=1e-9)
        assert np.allclose(normal_a, -normal_b, atol=1e-9)
        # Each permits the same magnitude of lateral deviation.
        lateral = np.array([0.0, 0.5]) * np.sign(normal_a[1] or 1.0)
        assert (np.asarray(va) + lateral - point_a) @ normal_a >= 0
        # Both stepping into their permitted sides avoids the collision.
        rel_vel = (point_a + 0.1 * normal_a) - (point_b + 0.1 * normal_b)
        assert not collides(np.subtract(pb, pa), 0.8, 2.0, rel_vel)

    def test_reciprocal_avoidance_monte_carlo(self):
        rng = np.random.default_rng(3)
        pairs = 0
        while pairs < 12:
            pa = rng.uniform(-3, 3, 2)
            pb = rng.uniform(-3, 3, 2)
            ra, rb = rng.uniform(0.2, 0.5, 2)
            if np.linalg.norm(pb - pa) < ra + rb + 0.05:
                continue
            va = rng.uniform(-1.5, 1.5, 2)
            vb = rng.uniform(-1.5, 1.5, 2)
            tau = rng.uniform(1.0, 3.0)
            assert_reciprocal_avoidance(rng, pa, va, ra, pb, vb, rb, tau)
            pairs += 1
        # The random pairs project onto the arc or the right leg; these two
        # relative velocities, left and right of the cone, onto each leg.
        for va in ([2.5, 1.0], [2.5, -1.0]):
            assert_reciprocal_avoidance(rng, np.zeros(2), np.array(va), 0.3,
                                        np.array([3.0, 0.0]), np.zeros(2), 0.3, 2.0)


def assert_reciprocal_avoidance(rng, pa, va, ra, pb, vb, rb, tau):
    """10^4 velocity pairs sampled from both permitted sides never collide."""
    point_a, normal_a = halfplane(pa, va, ra, pb, vb, rb, tau)
    point_b, normal_b = halfplane(pb, vb, rb, pa, va, ra, tau)
    d_a = np.array([normal_a[1], -normal_a[0]])
    d_b = np.array([normal_b[1], -normal_b[0]])
    alphas = rng.uniform(1e-9, 2.0, (10000, 2))
    betas = rng.uniform(-2.0, 2.0, (10000, 2))
    va_new = point_a + alphas[:, :1] * normal_a + betas[:, :1] * d_a
    vb_new = point_b + alphas[:, 1:] * normal_b + betas[:, 1:] * d_b
    rel = va_new - vb_new
    rel_pos = pb - pa
    r_sum = ra + rb
    for k in range(rel.shape[0]):
        assert analytic_min_separation(rel_pos, tau, rel[k]) >= r_sum - 1e-9

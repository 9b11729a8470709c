import numpy as np
import pytest

from crowdtrack import HalfPlane, solve_velocity

from helpers import feasible_mask, max_violation, random_lp_instance


def make_halfplanes(points, normals):
    return [HalfPlane(p, n) for p, n in zip(points, normals)]


class TestUnconstrained:
    def test_desired_within_disc(self):
        sol = solve_velocity([], 2.0, [1.0, 0.5])
        assert sol.feasible
        assert np.allclose(sol.velocity, [1.0, 0.5])

    def test_desired_beyond_disc_is_clamped(self):
        sol = solve_velocity([], 1.0, [3.0, 4.0])
        assert sol.feasible
        assert np.allclose(sol.velocity, [0.6, 0.8], atol=1e-12)

    def test_max_speed_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_velocity([], 0.0, [1.0, 0.0])
        with pytest.raises(ValueError):
            solve_velocity([], np.inf, [1.0, 0.0])
        with pytest.raises(ValueError):
            solve_velocity([], 1.5e-170, [2e-170, 0.0])  # below MIN_MAX_SPEED


class TestOracleAgreement:
    def test_seeded_instances_reach_both_outcomes(self):
        # Acceptance criterion 1 checks these 500 instances against the
        # oracle; this only checks that they exercise both solver outcomes.
        rng = np.random.default_rng(2024)
        feasible = []
        for _ in range(500):
            points, normals, max_speed, v_desire = random_lp_instance(rng)
            sol = solve_velocity(make_halfplanes(points, normals), max_speed, v_desire)
            feasible.append(sol.feasible)
        assert sum(feasible) >= 300
        assert feasible.count(False) >= 10

    def test_feasible_solutions_satisfy_all_constraints(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            points, normals, max_speed, v_desire = random_lp_instance(rng)
            sol = solve_velocity(make_halfplanes(points, normals), max_speed, v_desire)
            if not sol.feasible:
                continue
            assert np.linalg.norm(sol.velocity) <= max_speed + 1e-9
            for p, n in zip(points, normals):
                assert float((sol.velocity - p) @ n) >= -1e-9

    def test_no_dense_sample_beats_the_solution(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 20:
            points, normals, max_speed, v_desire = random_lp_instance(rng)
            sol = solve_velocity(make_halfplanes(points, normals), max_speed, v_desire)
            if not sol.feasible:
                continue
            radii = max_speed * np.sqrt(rng.random(10000))
            angles = rng.uniform(0, 2 * np.pi, 10000)
            cands = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
            ok = feasible_mask(cands, points, normals, max_speed)
            if not np.any(ok):
                done += 1
                continue
            best = np.min(np.linalg.norm(cands[ok] - v_desire[None, :], axis=1))
            assert np.linalg.norm(sol.velocity - v_desire) <= best + 1e-6
            done += 1


class TestInfeasibleFallback:
    def _disjoint_band(self, margin):
        # y >= margin and y <= -margin: empty for margin > 0.
        return [HalfPlane([0.0, margin], [0.0, 1.0]),
                HalfPlane([0.0, -margin], [0.0, -1.0])]

    def test_disjoint_halfplanes_flagged(self):
        sol = solve_velocity(self._disjoint_band(0.5), 2.0, [0.0, 0.0])
        assert not sol.feasible
        assert np.linalg.norm(sol.velocity) <= 2.0 + 1e-9

    def test_fallback_minimizes_worst_violation(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 25:
            points, normals, max_speed, v_desire = random_lp_instance(rng)
            sol = solve_velocity(make_halfplanes(points, normals), max_speed, v_desire)
            if sol.feasible:
                continue
            radii = max_speed * np.sqrt(rng.random(40000))
            angles = rng.uniform(0, 2 * np.pi, 40000)
            cands = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
            sampled_best = max_violation(cands, points, normals, max_speed).min()
            got = max_violation(sol.velocity, points, normals, max_speed)[0]
            assert got <= sampled_best + 2e-3
            assert np.linalg.norm(sol.velocity) <= max_speed + 1e-9
            checked += 1

    def test_symmetric_band_fallback_is_midline(self):
        sol = solve_velocity(self._disjoint_band(0.5), 2.0, [1.0, 0.3])
        assert not sol.feasible
        # Equal violation of both planes happens exactly on y = 0.
        assert abs(sol.velocity[1]) < 1e-9


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(31)
        points, normals, max_speed, v_desire = random_lp_instance(rng)
        hps = make_halfplanes(points, normals)
        a = solve_velocity(hps, max_speed, v_desire)
        b = solve_velocity(hps, max_speed, v_desire)
        assert a.feasible == b.feasible
        assert np.array_equal(a.velocity, b.velocity)

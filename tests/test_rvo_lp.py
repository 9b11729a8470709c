import numpy as np

from crowdtrack import kernels

from helpers import feasible_mask, max_violation, random_lp_instance


def solve(points, normals, max_speed, v_desire):
    """`kernels.solve_velocity_kernel` on (n, 2) arrays: (feasible, velocity (2,))."""
    feasible, vx, vy = kernels.solve_velocity_kernel(
        np.asarray(points, dtype=np.float64).tolist(), np.asarray(normals, dtype=np.float64).tolist(),
        float(max_speed), float(v_desire[0]), float(v_desire[1]))
    return feasible, np.array([vx, vy])


class TestUnconstrained:
    def test_desired_within_disc(self):
        feasible, velocity = solve([], [], 2.0, [1.0, 0.5])
        assert feasible
        assert np.allclose(velocity, [1.0, 0.5])

    def test_desired_beyond_disc_is_clamped(self):
        feasible, velocity = solve([], [], 1.0, [3.0, 4.0])
        assert feasible
        assert np.allclose(velocity, [0.6, 0.8], atol=1e-12)


class TestOracleAgreement:
    def test_seeded_instances_reach_both_outcomes(self):
        # Acceptance criterion 1 checks these 500 instances against the
        # oracle; this only checks that they exercise both solver outcomes.
        rng = np.random.default_rng(2024)
        outcomes = []
        for _ in range(500):
            points, normals, max_speed, v_desire = random_lp_instance(rng)
            outcomes.append(solve(points, normals, max_speed, v_desire)[0])
        assert sum(outcomes) >= 300
        assert outcomes.count(False) >= 10

    def test_feasible_solutions_satisfy_all_constraints(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            points, normals, max_speed, v_desire = random_lp_instance(rng)
            feasible, velocity = solve(points, normals, max_speed, v_desire)
            if not feasible:
                continue
            assert np.linalg.norm(velocity) <= max_speed + 1e-9
            for p, n in zip(points, normals):
                assert float((velocity - p) @ n) >= -1e-9

    def test_no_dense_sample_beats_the_solution(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 20:
            points, normals, max_speed, v_desire = random_lp_instance(rng)
            feasible, velocity = solve(points, normals, max_speed, v_desire)
            if not feasible:
                continue
            radii = max_speed * np.sqrt(rng.random(10000))
            angles = rng.uniform(0, 2 * np.pi, 10000)
            cands = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
            ok = feasible_mask(cands, points, normals, max_speed)
            if not np.any(ok):
                done += 1
                continue
            best = np.min(np.linalg.norm(cands[ok] - v_desire[None, :], axis=1))
            assert np.linalg.norm(velocity - v_desire) <= best + 1e-6
            done += 1


class TestInfeasibleFallback:
    def _disjoint_band(self, margin):
        # y >= margin and y <= -margin: empty for margin > 0.
        return [[0.0, margin], [0.0, -margin]], [[0.0, 1.0], [0.0, -1.0]]

    def test_disjoint_halfplanes_flagged(self):
        feasible, velocity = solve(*self._disjoint_band(0.5), 2.0, [0.0, 0.0])
        assert not feasible
        assert np.linalg.norm(velocity) <= 2.0 + 1e-9

    def test_fallback_minimizes_worst_violation(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 25:
            points, normals, max_speed, v_desire = random_lp_instance(rng)
            feasible, velocity = solve(points, normals, max_speed, v_desire)
            if feasible:
                continue
            radii = max_speed * np.sqrt(rng.random(40000))
            angles = rng.uniform(0, 2 * np.pi, 40000)
            cands = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
            sampled_best = max_violation(cands, points, normals, max_speed).min()
            got = max_violation(velocity, points, normals, max_speed)[0]
            assert got <= sampled_best + 2e-3
            assert np.linalg.norm(velocity) <= max_speed + 1e-9
            checked += 1

    def test_symmetric_band_fallback_is_midline(self):
        feasible, velocity = solve(*self._disjoint_band(0.5), 2.0, [1.0, 0.3])
        assert not feasible
        # Equal violation of both planes happens exactly on y = 0.
        assert abs(velocity[1]) < 1e-9


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(31)
        points, normals, max_speed, v_desire = random_lp_instance(rng)
        a = solve(points, normals, max_speed, v_desire)
        b = solve(points, normals, max_speed, v_desire)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

"""The vectorised RVO batch kernel against the scalar per-row kernel, bit for bit."""

import numpy as np
import pytest

from crowdtrack import HpfConfig, NoiseSpec, kernels
from crowdtrack.bench import ProtocolConfig, run_tracking_protocol
from crowdtrack.data import corrupt, make_scenario

TAU, DT, CUTOFF = 2.0, 0.5, 3.0
ROW_COUNTS = (1, kernels.BATCH_MIN_ROWS - 1, kernels.BATCH_MIN_ROWS, 300)


def _scalar(states, *args):
    """Velocities and feasibility flags of the scalar kernel, one row at a time."""
    out = np.empty((states.shape[0], 2))
    feasible = np.empty(states.shape[0], dtype=bool)
    for i, row in enumerate(states):
        feasible[i], out[i, 0], out[i, 1] = kernels.rvo_velocity(*row, *args)
    return out, feasible


def _assert_bitwise(states, *args):
    """Both batch entry points equal the scalar kernel; returns its flags."""
    expected, feasible = _scalar(states, *args)
    for kernel in (kernels.rvo_velocity_batch, kernels.rvo_velocity_rows):
        out = np.full((states.shape[0], 2), np.nan)
        kernel(states, *args, out)
        assert out.tobytes() == expected.tobytes(), kernel.__name__
    return feasible


def _random_instance(rng, rows, n):
    """Crowded rows around neighbours, some far ones and some duplicates."""
    states = np.column_stack([rng.uniform(-1.5, 1.5, (rows, 2)), rng.uniform(-1.0, 1.0, (rows, 2)),
                              rng.uniform(-2.0, 2.0, (rows, 2))])
    nbr_pos = rng.uniform(-1.5, 1.5, (n, 2))
    nbr_vel = rng.uniform(-1.0, 1.0, (n, 2))
    if n >= 3:
        nbr_pos[1], nbr_vel[1] = nbr_pos[0], nbr_vel[0]  # parallel constraints
        nbr_pos[2] = (8.0, -8.0)  # beyond the cutoff for every row
    nbr_rad = rng.uniform(0.15, 0.35, n)
    return states, (0.25, 1.5, nbr_pos, nbr_vel, nbr_rad, TAU, DT, CUTOFF)


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_batch_equals_scalar_on_seeded_instances(rows, n):
    states, args = _random_instance(np.random.default_rng(100 * rows + n), rows, n)
    feasible = _assert_bitwise(states, *args)
    if rows == 300 and n >= 5:
        gaps = np.linalg.norm(states[:, None, :2] - args[2][None], axis=2)
        assert np.any(gaps < 0.25 + args[4])  # overlapping pairs
        assert not np.all(feasible)  # rows that take the lp3 fallback


def test_batch_equals_scalar_on_edge_branches():
    # Neighbours: A at (2, 1) moving (0.5, 0.25); B at (0.25, 0) at rest; a
    # duplicate of A; C beyond the cutoff.
    nbr_pos = np.array([[2.0, 1.0], [0.25, 0.0], [2.0, 1.0], [9.0, 0.0]])
    nbr_vel = np.array([[0.5, 0.25], [0.0, 0.0], [0.5, 0.25], [0.0, 0.0]])
    nbr_rad = np.full(4, 0.3)
    radius = 0.25
    states = np.array([
        [0.0, 0.0, 1.5, 0.75, 1.0, 0.0],   # relative velocity at A's cone disc centre
        [0.0, 0.0, 0.5, 0.0, 1.0, 0.0],    # relative velocity at B's overlap disc centre
        [0.25, 0.0, 0.0, 0.0, -1.0, 0.0],  # on top of B at B's velocity
        [0.25, 0.0, 1.0, 0.5, 2.0, 0.0],   # on top of B, moving
        [0.0, 0.0, 0.0, 0.0, 3.0, 3.0],
        [1.0, 1.0, -0.5, 0.2, 0.0, -1.0],
        [-0.3, 0.1, 0.2, 0.2, 0.5, 0.5],
        [0.1, 0.2, 0.9, -0.4, -1.0, 1.0],
    ])
    args = (radius, 1.5, nbr_pos, nbr_vel, nbr_rad, TAU, DT, CUTOFF)
    rel = nbr_pos[None] - states[:, None, :2]
    rvel = states[:, None, 2:4] - nbr_vel[None]
    assert np.all(rvel[0, 0] == rel[0, 0] / TAU)  # the cone's w_norm < 1e-300 branch
    assert np.all(rvel[1, 1] == rel[1, 1] * (1.0 / DT))  # the overlap's w_norm branch
    assert np.all(rel[2, 1] == 0.0) and np.all(rvel[2, 1] == 0.0)  # its x_norm == 0 branch
    assert np.all(rel[3, 1] == 0.0) and np.any(rvel[3, 1] != 0.0)
    assert np.all(np.sum(rel * rel, axis=2)[:, 3] > CUTOFF * CUTOFF)
    assert not np.all(_assert_bitwise(states, *args))
    _assert_bitwise(np.repeat(states, 40, axis=0), *args)
    # Relative velocity exactly at a cone's disc centre where the arc, not a leg, wins.
    x = np.array([1.369616873214543, -2.302132862361297])
    half_sum, tau = 0.13687617154257523 / 2, 0.5
    at_center = np.tile(np.concatenate([[0.0, 0.0], x / tau, x / tau]), (16, 1))
    _assert_bitwise(at_center, half_sum, 6.0, x[None], np.zeros((1, 2)), np.full(1, half_sum),
                    tau, DT, CUTOFF)


def test_batch_equals_scalar_on_a_tracking_trial(monkeypatch):
    """Every kernel call of criterion 7's HPF trial on seed 0."""
    calls = []
    batch = kernels.rvo_velocity_batch

    def capture(*args):
        batch(*args)
        calls.append(tuple(np.copy(a) for a in args))

    monkeypatch.setattr(kernels, "rvo_velocity_batch", capture)
    scenario = make_scenario("corridor", 3, seed=0)
    occl_rng = np.random.default_rng(5000)
    occlusions = [(agent, int(occl_rng.integers(3, scenario.n_frames - 4)), 2)
                  for agent in range(3)]
    trace = corrupt(scenario, 0.3, occlusions, seed=0)
    cfg = ProtocolConfig(hpf=HpfConfig(2, (0.91, 0.09), 200), noise=NoiseSpec(0.05, 0.1, 0.05),
                         sigma_obs=0.15)
    run_tracking_protocol(scenario, trace, "rvo+", "hpf", cfg, seed=2000)
    assert sum(c[0].shape[0] >= kernels.BATCH_MIN_ROWS for c in calls) >= 100
    infeasible = 0
    for *args, out in calls:
        expected, feasible = _scalar(*args)
        assert expected.tobytes() == out.tobytes()
        infeasible += np.count_nonzero(~feasible)
    assert infeasible > 0


# A row of a track-corridor PF trial whose least-violation fallback put the
# velocity 1.2e-9 (relative) beyond max_speed: two nearly antiparallel
# constraints meet far out on their bisector.
OVERSHOOT_ROW = [8.953891324092465, 0.6376114940880385, -0.35280256517012665,
                 -0.99241908544465, -0.35280256517012665, -0.99241908544465]
OVERSHOOT_NBRS = (np.array([[8.318181801591699, -0.19204898752695665],
                            [7.814845706825044, 0.440988648409172]]),
                  np.array([[1.3019831907517054, 1.1415964689362463],
                            [1.0787944815146049, 0.4134900697299394]]),
                  np.full(2, 0.2))


@pytest.mark.parametrize("rows", [1, kernels.BATCH_MIN_ROWS])
def test_fallback_stays_within_max_speed(rows):
    states = np.array([OVERSHOOT_ROW] * rows)
    args = (0.2, 2.5, *OVERSHOOT_NBRS, 2.0, 0.4, 10.0)
    out = np.empty((rows, 2))
    kernels.rvo_velocity_batch(states, *args, out)
    assert not np.any(_scalar(states, *args)[1])
    speeds = np.sqrt(np.sum(out * out, axis=1))
    assert np.all(speeds <= 2.5 * (1.0 + 1e-12))
    assert np.all(speeds >= 2.5 * (1.0 - 1e-12))  # still on the disc boundary

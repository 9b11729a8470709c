"""The vectorised RVO batch kernel against the scalar per-row kernel, bit for bit."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdtrack import HpfConfig, NoiseSpec, kernels
from crowdtrack.bench import ProtocolConfig, run_tracking_protocol
from crowdtrack.data import corrupt, make_scenario

TAU, DT, CUTOFF = 2.0, 0.5, 3.0
# Small batches and a large one.
ROW_COUNTS = (1, 15, 16, 47, 48, 300)


def _scalar(states, *args):
    """Velocities and feasibility flags of the scalar kernel, one row at a time.

    The rows and arguments go in as the batch entry hands them on: Python
    floats and lists.
    """
    args = [a.tolist() if isinstance(a, np.ndarray) else float(a) for a in args]
    out = np.empty((states.shape[0], 2))
    feasible = np.empty(states.shape[0], dtype=bool)
    for i, row in enumerate(states.tolist()):
        feasible[i], out[i, 0], out[i, 1] = kernels.rvo_velocity(*row, *args)
    return out, feasible


def _assert_bitwise(states, *args):
    """The row kernel equals the scalar kernel; returns the scalar kernel's flags."""
    expected, feasible = _scalar(states, *args)
    out = np.full((states.shape[0], 2), np.nan)
    kernels.rvo_velocity_batch(states, *args, out)
    assert out.tobytes() == expected.tobytes()
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


def test_lp3_starts_past_a_column_out_of_range_for_every_row():
    # Column 2 is beyond the cutoff for all 48 rows, and some rows' programs fail
    # at a later slot: lp3 starts at the count of in-range slots before it.
    states, args = _random_instance(np.random.default_rng(3), 48, 7)
    radius, max_speed, nbr_pos = args[:3]
    neighbours = [a.tolist() for a in args[2:5]]
    rel = nbr_pos[None] - states[:, None, :2]
    in_range = ~(rel[..., 0] * rel[..., 0] + rel[..., 1] * rel[..., 1] > CUTOFF * CUTOFF)
    assert np.flatnonzero(~in_range.any(axis=0)).tolist() == [2]
    failing_slots = []
    for r, row in enumerate(states.tolist()):
        points, normals = kernels.build_halfplanes(*row[:4], radius, *neighbours, TAU, DT, CUTOFF)
        begin, _, _ = kernels.lp2(points, normals, max_speed, row[4], row[5], False)
        if begin < len(points):
            failing_slots.append(np.flatnonzero(in_range[r])[begin])
    assert len(failing_slots) >= 5 and min(failing_slots) > 2
    _assert_bitwise(states, *args)


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
    assert len(calls) >= 100
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


@pytest.mark.parametrize("rows", [1, 16, 48])
def test_fallback_stays_within_max_speed(rows):
    states = np.array([OVERSHOOT_ROW] * rows)
    args = (0.2, 2.5, *OVERSHOOT_NBRS, 2.0, 0.4, 10.0)
    out = np.empty((rows, 2))
    kernels.rvo_velocity_batch(states, *args, out)
    assert not np.any(_scalar(states, *args)[1])
    speeds = np.sqrt(np.sum(out * out, axis=1))
    assert np.all(speeds <= 2.5 * (1.0 + 1e-12))
    assert np.all(speeds >= 2.5 * (1.0 - 1e-12))  # still on the disc boundary


# The least-violation fallback on its own: rvo_velocity_batch hands its
# infeasible rows to the scalar lp3, so the tests above compare lp3 with
# itself.  lp3_rows.json holds lp3's inputs (each row's in-range constraints,
# the index lp2 failed at and lp2's last iterate) from the README `predict`
# (every 65th of its 2,085 calls), the README `simulate` and criterion 7's HPF
# trial on seed 0 (every call), captured from the numpy-scalar lp3.  The pins
# are SHA-256 digests of its outputs as "x.hex() y.hex()" lines, computed there.
LP3_ROWS = json.loads((Path(__file__).parent / "lp3_rows.json").read_text())
LP3_PINS = {
    "readme-predict": "5c850531cc53abd91a2d058f75d669ed2c5105170061a6cdc73403306cb40a9f",
    "readme-simulate": "c7c767192475fc47ee1b348add007257fb09efc424d3cb6ea8e0e49f81d50536",
    "corridor-hpf": "bac5a5fa2a9fc4298ca042839b683240484225e62773f5a6573c3322e25d287b",
}
# Branches the captured rows do not reach, with their outputs: a constraint
# parallel to an earlier one, one exactly antiparallel (bisector through the
# midpoint), and two zero normals, as a neighbour beyond float range gets,
# whose bisector has length 0 (nan, not ZeroDivisionError).  Last, the
# OVERSHOOT_ROW's fallback, which the speed-disc rescale puts back on the disc.
LP3_EDGES = [
    ([[0.0, 1.0], [0.0, -1.0], [0.0, -3.0], [1.0, 0.0]],
     [[0.0, 1.0], [0.0, -1.0], [0.0, -1.0], [-1.0, 0.0]], 1, 2.0, (0.5, 1.0),
     "-0x1.bb67ae8584caap+0 -0x1.0000000000000p+0"),
    ([[0.0, 1.0], [0.0, 1.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 1.0], [0.0, -1.0]], 2, 2.0,
     (0.0, 1.0), "-0x1.0000000000000p+1 0x0.0p+0"),
    ([[3.0, 0.0], [1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], 1, 2.0,
     (0.0, 0.0), "0x1.0000000000000p-1 0x1.efbdeb14f4edap+0"),
    ([[-0.607857994953208, -0.5513385748260562], [-0.4780532387097216, -0.7758280678142759]],
     [[-0.5005849694005821, 0.8656874080233686], [0.5006047708344811, -0.8656759575139862]], 1,
     2.5, (-0.6078579949532079, -0.5513385748260561), "0x1.265f98c909c8cp+1 0x1.f5e7ab423fe04p-1"),
]


def _lp3_hex(points, normals, begin, radius, iterate):
    x, y = kernels.lp3(points, normals, begin, radius, *iterate)
    return f"{x.hex()} {y.hex()}"


@pytest.mark.parametrize("source", sorted(LP3_PINS))
def test_lp3_is_bitwise_pinned_on_captured_rows(source):
    rows = LP3_ROWS[source]
    lines = [_lp3_hex(r["points"], r["normals"], r["begin"], r["radius"], r["iterate"])
             for r in rows]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LP3_PINS[source]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", range(len(LP3_EDGES)))
def test_lp3_is_bitwise_pinned_on_edge_branches(case):
    *args, expected = LP3_EDGES[case]
    assert _lp3_hex(*args) == expected


def _equal_or_both_nan(a, b):
    return (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))


@st.composite
def kernel_batches(draw):
    """A batch of 1-64 rows around 0-6 neighbours, its arguments, and whether it
    lies in the kernel's stated input domain.

    Coordinates lie on a grid of 1/8 and tau, dt and the radii are powers of
    two, so the exact cases happen: a relative velocity at a cone's or an
    overlap disc's centre, zero relative velocity, exact tangency, a row on
    top of a neighbour.  With a finite cutoff, half the batches also get three
    neighbours beyond it for every row, at the first, a middle and the last
    slot; around no other neighbour, every column is out of range.  Or the rows
    are OVERSHOOT_ROW moved by up to 1e-6, whose two constraints are nearly
    antiparallel.  Then everything with a length is scaled by a power of two,
    which keeps those cases exact, up to about 1e200 (or down to about 1e-170,
    where squares underflow), and some entries may be set to +-inf or nan.
    Scales 1 and 2**332 without such entries are in the domain.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def grid(lim, shape):
        return rng.integers(-lim, lim + 1, shape) / 8.0

    rows = draw(st.integers(1, 64))
    tau, dt = draw(st.sampled_from([0.5, 2.0])), draw(st.sampled_from([0.25, 0.5]))
    if draw(st.booleans()):
        states = np.array(OVERSHOOT_ROW) + rng.uniform(-1e-6, 1e-6, (rows, 6))
        nbr_pos, nbr_vel, nbr_rad = (a.copy() for a in OVERSHOOT_NBRS)
        radius, max_speed, cutoff = 0.2, 2.5, 10.0
    else:
        n = draw(st.integers(0, 6))
        nbr_pos, nbr_vel = grid(24, (n, 2)), grid(8, (n, 2))
        nbr_rad = rng.choice([0.125, 0.25], n)
        radius = draw(st.sampled_from([0.125, 0.25]))
        max_speed = draw(st.sampled_from([0.5, 1.5]))
        cutoff = draw(st.sampled_from([3.0, math.inf]))
        p, v, des = grid(24, (rows, 2)), grid(12, (rows, 2)), grid(16, (rows, 2))
        if n:
            k = rng.integers(0, n, rows)
            where = rng.integers(0, 4, rows)[:, None]  # free, tangent, on top, half overlapping
            side = np.column_stack([radius + nbr_rad[k], np.zeros(rows)])
            p = np.select([where == 1, where == 2, where == 3],
                          [nbr_pos[k] - side, nbr_pos[k], nbr_pos[k] - 0.5 * side], p)
            rel = nbr_pos[k] - p
            how = rng.integers(0, 4, rows)[:, None]  # free, cone centre, overlap centre, at rest
            v = np.select([how == 1, how == 2, how == 3],
                          [nbr_vel[k] + rel / tau, nbr_vel[k] + rel / dt, nbr_vel[k]], v)
        states = np.column_stack([p, v, des])
        if cutoff < math.inf and draw(st.booleans()):
            # Every row lies within 3.5 of the origin on each axis, so |x| >= 7 is out of range.
            far_x = rng.choice([-1.0, 1.0], 3) * (7.0 + rng.integers(0, 9, 3) / 8.0)
            far = np.column_stack([far_x, grid(24, 3)])
            slots = [0, n // 2, n]
            nbr_pos = np.insert(nbr_pos, slots, far, axis=0)
            nbr_vel = np.insert(nbr_vel, slots, grid(8, (3, 2)), axis=0)
            nbr_rad = np.insert(nbr_rad, slots, rng.choice([0.125, 0.25], 3))
    scale = 2.0 ** draw(st.sampled_from([0, -565, 332, 531, 664]))
    in_domain = scale in (1.0, 2.0 ** 332)
    for a in (states, nbr_pos, nbr_vel, nbr_rad):
        a *= scale
        if draw(st.integers(0, 3)) == 0 and a.size:
            a.flat[rng.integers(0, a.size, 3)] = rng.choice([np.inf, -np.inf, np.nan], 3)
            in_domain = False
    return states, (radius * scale, max_speed * scale, nbr_pos, nbr_vel, nbr_rad, tau, dt,
                    cutoff * scale), in_domain


@settings(max_examples=300)
@given(batch=kernel_batches())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scalar_kernel_equals_row_kernel_on_drawn_geometry(batch):
    """Per row, the scalar kernel on floats equals the row kernel bit for bit (nan
    equal to nan), and neither raises: no ZeroDivisionError from an exact 0
    divisor, no ValueError from a negative square root, no OverflowError.  Inside
    the stated domain, every velocity is finite and within max_speed."""
    states, args, in_domain = batch
    expected, _ = _scalar(states, *args)
    out = np.full((states.shape[0], 2), 42.0)
    kernels.rvo_velocity_batch(states, *args, out)
    assert np.all(_equal_or_both_nan(out, expected))
    if in_domain:
        assert np.all(np.isfinite(out))
        assert np.all(np.hypot(out[:, 0], out[:, 1]) <= args[1] * (1.0 + 1e-12))

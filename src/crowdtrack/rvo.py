"""Reciprocal velocity obstacles for disc agents in the plane.

Agents are discs with a position, velocity, radius and speed limit.  For a
pair of agents the set of relative velocities colliding within a planning
horizon forms a truncated cone in velocity space; sharing the avoidance
effort equally gives each agent one permitted half-plane per neighbor, and
the new velocity is the feasible point closest to the agent's desired
velocity.  The geometry is in :mod:`crowdtrack.kernels`; this module checks
bodies and steps state rows [px, py, vx, vy, des_x, des_y] (:func:`crowd_step`):
the crowd becomes Python lists once per step, and each agent's velocity is one
call of the scalar :func:`crowdtrack.kernels.rvo_velocity`.  The filters'
particle batches take the row kernel instead, through
:mod:`crowdtrack.motion`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

#: Smallest speed limit a body may have (m/s).  Its square is a normal float,
#: so the kernel's speed-disc test cannot underflow to 0 > 0 and admit any speed.
MIN_MAX_SPEED = 1e-150

#: Largest radius a body may have (m).  The square of two radii summed stays a
#: normal float (4e300), inside the kernel's stated input domain.
MAX_RADIUS = 1e150


def as_vec(value, name="vector"):
    """Coerce to a finite float64 2-vector."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (2,):
        raise ValueError(f"{name} must have shape (2,), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


def check_body(radius: float, max_speed: float):
    """Raise ValueError, naming the field, unless 0 < ``radius`` <= `MAX_RADIUS`
    and `MIN_MAX_SPEED` <= ``max_speed`` < inf."""
    if not (0.0 < radius <= MAX_RADIUS):
        raise ValueError(f"radius must be > 0 and <= {MAX_RADIUS!r}")
    if not (MIN_MAX_SPEED <= max_speed < np.inf):
        raise ValueError(f"max_speed must be finite and >= {MIN_MAX_SPEED!r}")


@dataclass(frozen=True)
class RvoParams:
    """Planning horizon and step length (finite, > 0) and neighbor cutoff (> 0, inf for none)."""

    time_horizon_tau: float = 2.0
    dt: float = 0.4
    neighbor_radius: float = 10.0

    def __post_init__(self):
        for field_name in ("time_horizon_tau", "dt"):
            if not (0.0 < getattr(self, field_name) < np.inf):
                raise ValueError(f"{field_name} must be finite and > 0")
        if not (self.neighbor_radius > 0.0):
            raise ValueError("neighbor_radius must be > 0")


def crowd_step(states, radii, max_speeds, params: RvoParams) -> np.ndarray:
    """Advance a crowd of state rows [px, py, vx, vy, des_x, des_y] one step.

    Row i avoids every other row, in row order, with those rows' radii;
    its new velocity is chosen with ``radii[i]`` and ``max_speeds[i]``, and
    its position moves by that velocity for ``params.dt``.  The desired
    velocities are kept.  Each row's body is checked by `check_body`.
    Returns new rows; ``states`` is not modified.
    """
    states = np.asarray(states, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    max_speeds = np.asarray(max_speeds, dtype=np.float64)
    n = states.shape[0]
    if states.shape != (n, 6) or radii.shape != (n,) or max_speeds.shape != (n,):
        raise ValueError("states must have shape (n, 6), radii and max_speeds shape (n,)")
    rads = radii.tolist()
    speeds = max_speeds.tolist()
    for radius, max_speed in zip(rads, speeds):
        check_body(radius, max_speed)
    # One conversion per call; each row then calls the scalar kernel on Python
    # floats and lists, with the arguments `kernels.rvo_velocity_batch` passes it.
    rows = states.tolist()
    pos = [row[0:2] for row in rows]
    vel = [row[2:4] for row in rows]
    tau = float(params.time_horizon_tau)
    dt = float(params.dt)
    cutoff = float(params.neighbor_radius)
    out = []
    for i, (px, py, vx, vy, des_x, des_y) in enumerate(rows):
        _, vx, vy = kernels.rvo_velocity(
            px, py, vx, vy, des_x, des_y, rads[i], speeds[i],
            pos[:i] + pos[i + 1:], vel[:i] + vel[i + 1:], rads[:i] + rads[i + 1:],
            tau, dt, cutoff)
        out.append([px + vx * dt, py + vy * dt, vx, vy, des_x, des_y])
    return np.array(out, dtype=np.float64).reshape(n, 6)


# No program path calls this.  It stays only because perfbench's tracer wraps
# `rvo.rvo_step` by name, and every `--trace 1` run fails without it.
def rvo_step(self_idx: int, states, radii, max_speeds, params: RvoParams) -> np.ndarray:
    """New velocity of row ``self_idx`` in one `crowd_step` of the state rows."""
    return crowd_step(states, radii, max_speeds, params)[self_idx, 2:4]

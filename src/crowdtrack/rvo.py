"""Reciprocal velocity obstacles for disc agents in the plane.

Agents are discs with a position, velocity, radius and speed limit.  For a
pair of agents the set of relative velocities colliding within a planning
horizon forms a truncated cone in velocity space; sharing the avoidance
effort equally gives each agent one permitted half-plane per neighbor, and
the new velocity is the feasible point closest to the agent's desired
velocity.  The geometry is in :mod:`crowdtrack.kernels`; this module checks
bodies and steps state rows [px, py, vx, vy, des_x, des_y] (:func:`crowd_step`):
the crowd becomes Python lists once per step, each in-range pair's cone is built
once with the scalar :func:`crowdtrack.kernels.pair_shift` and mirrored for the
pair's second agent, and each agent's velocity program is solved with
:func:`crowdtrack.kernels.solve_velocity_kernel`, bitwise as
:func:`crowdtrack.kernels.rvo_velocity` per agent.  The filters' particle
batches take the row kernel instead, through :mod:`crowdtrack.motion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

#: Smallest speed limit a body may have (m/s).  Its square is a normal float,
#: so the kernel's speed-disc test cannot underflow to 0 > 0 and admit any speed.
MIN_MAX_SPEED = 1e-150

#: Largest radius a body may have (m).  The square of two radii summed stays a
#: normal float (4e300), inside the kernel's stated input domain.
MAX_RADIUS = 1e150

#: Closed range of a step length ``dt`` and a planning horizon ``tau`` (s).  With
#: kernel inputs in [1e-100, 1e100], every x / tau, r / dt and v * dt then lies in
#: [1e-106, 1e106], so their squares stay normal floats, as the kernel's domain needs.
MIN_TIME = 1e-6
MAX_TIME = 1e6


def check_time(name: str, value: float):
    """Raise ValueError, naming ``name``, unless `MIN_TIME` <= ``value`` <= `MAX_TIME`."""
    if not (MIN_TIME <= value <= MAX_TIME):
        raise ValueError(f"{name} must be in [{MIN_TIME!r}, {MAX_TIME!r}] s, got {value!r}")


def check_body(radius: float, max_speed: float):
    """Raise ValueError, naming the field, unless 0 < ``radius`` <= `MAX_RADIUS`
    and `MIN_MAX_SPEED` <= ``max_speed`` < inf."""
    if not (0.0 < radius <= MAX_RADIUS):
        raise ValueError(f"radius must be > 0 and <= {MAX_RADIUS!r}")
    if not (MIN_MAX_SPEED <= max_speed < np.inf):
        raise ValueError(f"max_speed must be finite and >= {MIN_MAX_SPEED!r}")


@dataclass(frozen=True)
class RvoParams:
    """Planning horizon and step length (see `check_time`) and neighbor cutoff (> 0, inf
    for none)."""

    time_horizon_tau: float = 2.0
    dt: float = 0.4
    neighbor_radius: float = 10.0

    def __post_init__(self):
        check_time("time_horizon_tau", self.time_horizon_tau)
        check_time("dt", self.dt)
        if not (self.neighbor_radius > 0.0):
            raise ValueError("neighbor_radius must be > 0")


def crowd_step(states, radii, max_speeds, params: RvoParams) -> np.ndarray:
    """Advance a crowd of state rows [px, py, vx, vy, des_x, des_y] one step.

    Row i avoids every other row, in row order, with those rows' radii;
    its new velocity is chosen with ``radii[i]`` and ``max_speeds[i]``, and
    its position moves by that velocity for ``params.dt``.  Each in-range
    pair's velocity-obstacle cone is built once and mirrored for the pair's
    second row, so the velocities are bitwise those of
    `kernels.rvo_velocity` per row with half the cone work.  The desired
    velocities are kept.  Each row's body is checked by `check_body`, and a
    non-finite state row raises ValueError.  Returns new rows; ``states`` is
    not modified.
    """
    states = np.asarray(states, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    max_speeds = np.asarray(max_speeds, dtype=np.float64)
    n = states.shape[0]
    if states.shape != (n, 6) or radii.shape != (n,) or max_speeds.shape != (n,):
        raise ValueError("states must have shape (n, 6), radii and max_speeds shape (n,)")
    if not np.isfinite(states).all():
        raise ValueError("states must be finite")
    rads = radii.tolist()
    speeds = max_speeds.tolist()
    for radius, max_speed in zip(rads, speeds):
        check_body(radius, max_speed)
    # One conversion per call; the kernels then run on Python floats and lists.
    rows = states.tolist()
    tau = float(params.time_horizon_tau)
    dt = float(params.dt)
    cutoff2 = float(params.neighbor_radius) * float(params.neighbor_radius)
    points = [[] for _ in rows]
    normals = [[] for _ in rows]
    # Each in-range pair's cone is built once.  RVO is reciprocal, so j's plane
    # against i mirrors i's against j: u_ji = -u_ij, n_ji = -n_ij, the bits of
    # `kernels.build_halfplanes` for j, because negating (x, v) commutes with
    # every operation of the cone but the sign of a zero.  A component that is
    # 0 or not finite, and an overlap (coincident discs push both along +x),
    # take the direct call on j's own inputs instead.  Pairs come in ascending
    # neighbour order for each agent, as in `build_halfplanes`.
    for i, (px, py, vx, vy, _, _) in enumerate(rows):
        for j in range(i + 1, n):
            qx, qy, qvx, qvy, _, _ = rows[j]
            rel_px = qx - px
            rel_py = qy - py
            dist2 = rel_px * rel_px + rel_py * rel_py
            if dist2 > cutoff2:
                continue
            r_sum = rads[i] + rads[j]
            ux, uy, nx, ny = kernels.pair_shift(rel_px, rel_py, dist2, r_sum, tau, dt,
                                                vx - qvx, vy - qvy)
            points[i].append([vx + 0.5 * ux, vy + 0.5 * uy])
            normals[i].append([nx, ny])
            if dist2 < r_sum * r_sum or not 0.0 < abs(ux * uy * nx * ny) < math.inf:
                ux, uy, nx, ny = kernels.pair_shift(px - qx, py - qy, dist2, r_sum, tau, dt,
                                                    qvx - vx, qvy - vy)
            else:
                ux, uy, nx, ny = -ux, -uy, -nx, -ny
            points[j].append([qvx + 0.5 * ux, qvy + 0.5 * uy])
            normals[j].append([nx, ny])
    out = []
    for i, (px, py, vx, vy, des_x, des_y) in enumerate(rows):
        _, vx, vy = kernels.solve_velocity_kernel(points[i], normals[i], speeds[i],
                                                  des_x, des_y)
        out.append([px + vx * dt, py + vy * dt, vx, vy, des_x, des_y])
    return np.array(out, dtype=np.float64).reshape(n, 6)


# perfbench's tracer wraps every attribute holding `crowd_step` under this name.
rvo_step = crowd_step

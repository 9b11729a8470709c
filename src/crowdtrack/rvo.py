"""Reciprocal velocity obstacles for disc agents in the plane.

Agents are discs with a position, velocity, radius and speed limit.  For a
pair of agents the set of relative velocities colliding within a planning
horizon forms a truncated cone in velocity space; sharing the avoidance
effort equally gives each agent one permitted half-plane per neighbor, and
the new velocity is the feasible point closest to the agent's desired
velocity.  The geometry is in :mod:`crowdtrack.kernels`; this module checks
inputs and calls it for state rows (:func:`crowd_step`).
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
class AgentBody:
    """Disc agent: position/velocity in meters and m/s, radius and max_speed as `check_body`."""

    position: np.ndarray
    velocity: np.ndarray
    radius: float = 0.2
    max_speed: float = 2.5

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec(self.position, "position"))
        object.__setattr__(self, "velocity", as_vec(self.velocity, "velocity"))
        check_body(self.radius, self.max_speed)


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
    for radius, max_speed in zip(radii.tolist(), max_speeds.tolist()):
        check_body(radius, max_speed)
    new_vel = np.empty((n, 2))
    for i in range(n):
        others = np.arange(n) != i
        kernels.rvo_velocity_batch(
            states[i:i + 1], radii[i], max_speeds[i],
            states[others, 0:2], states[others, 2:4], radii[others],
            params.time_horizon_tau, params.dt, params.neighbor_radius, new_vel[i:i + 1])
    out = states.copy()
    out[:, 0:2] = states[:, 0:2] + new_vel * params.dt
    out[:, 2:4] = new_vel
    return out


# Only tests call this; it stays while perfbench's tracer wraps `rvo.rvo_step` by name.
def rvo_step(self_idx: int, agents, v_desire, params: RvoParams) -> np.ndarray:
    """New velocity for one agent given every agent's current body.

    Builds one half-plane per neighbor within the neighbor radius (ascending
    index order, self excluded) and picks the admissible velocity closest to
    v_desire.  Overlapping neighbors contribute an emergency separation
    constraint; an empty feasible region falls back to the least-violation
    velocity.
    """
    if not agents:
        raise ValueError("agents must be nonempty")
    if not (0 <= self_idx < len(agents)):
        raise ValueError(f"self_idx {self_idx} out of range")
    desires = [as_vec(v_desire, "v_desire") if i == self_idx else a.velocity
               for i, a in enumerate(agents)]
    states = np.array([np.concatenate([a.position, a.velocity, desire])
                       for a, desire in zip(agents, desires)])
    radii = np.array([a.radius for a in agents])
    max_speeds = np.array([a.max_speed for a in agents])
    return crowd_step(states, radii, max_speeds, params)[self_idx, 2:4]

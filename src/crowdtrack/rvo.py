"""Reciprocal velocity obstacles for disc agents in the plane.

Agents are discs with a position, velocity, radius and speed limit.  For a
pair of agents the set of relative velocities colliding within a planning
horizon forms a truncated cone in velocity space; sharing the avoidance
effort equally gives each agent one permitted half-plane per neighbor, and
the new velocity is the feasible point closest to the agent's desired
velocity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels


class OverlappingAgents(ValueError):
    """Two agent discs already intersect; the cone geometry is undefined."""


def as_vec(value, name="vector"):
    """Coerce to a finite float64 2-vector."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (2,):
        raise ValueError(f"{name} must have shape (2,), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


@dataclass(frozen=True)
class AgentBody:
    """Disc agent: position/velocity in meters and m/s, finite radius and max_speed > 0."""

    position: np.ndarray
    velocity: np.ndarray
    radius: float = 0.2
    max_speed: float = 2.5

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec(self.position, "position"))
        object.__setattr__(self, "velocity", as_vec(self.velocity, "velocity"))
        if not (0.0 < self.radius < np.inf):
            raise ValueError("radius must be finite and > 0")
        if not (0.0 < self.max_speed < np.inf):
            raise ValueError("max_speed must be finite and > 0")


@dataclass(frozen=True)
class HalfPlane:
    """Permitted-velocity constraint: v is admitted iff (v - point) . normal >= 0."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", as_vec(self.point, "point"))
        object.__setattr__(self, "normal", as_vec(self.normal, "normal"))
        if abs(float(np.linalg.norm(self.normal)) - 1.0) > 1e-9:
            raise ValueError("normal must have unit length")

    def contains(self, velocity, tol=0.0):
        v = as_vec(velocity, "velocity")
        return float(np.dot(v - self.point, self.normal)) >= -tol

    def signed_margin(self, velocity):
        """Positive inside the permitted side, negative when violated."""
        v = as_vec(velocity, "velocity")
        return float(np.dot(v - self.point, self.normal))


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


@dataclass(frozen=True)
class VelocitySolution:
    """Result of the constrained velocity choice.

    ``feasible`` is False when the half-plane intersection was empty; the
    velocity then minimizes the largest constraint violation instead of
    satisfying all constraints.
    """

    velocity: np.ndarray
    feasible: bool


def _check_pair(a: AgentBody, b: AgentBody, tau: float):
    if not (tau > 0.0):
        raise ValueError("tau must be > 0")
    rel = b.position - a.position
    r_sum = a.radius + b.radius
    if float(np.linalg.norm(rel)) < r_sum:
        raise OverlappingAgents(
            f"discs overlap: center distance {np.linalg.norm(rel):.6f} < {r_sum:.6f}"
        )
    return rel, r_sum


def vo_contains(a: AgentBody, b: AgentBody, tau: float, rel_velocity) -> bool:
    """True iff the relative velocity collides with the neighbor within tau seconds."""
    rel_velocity = as_vec(rel_velocity, "rel_velocity")
    rel, r_sum = _check_pair(a, b, tau)
    sep = kernels.vo_min_separation(rel[0], rel[1], tau, rel_velocity[0], rel_velocity[1])
    return bool(sep < r_sum)


def compute_u(a: AgentBody, b: AgentBody, tau: float):
    """Smallest relative-velocity change onto the collision-cone boundary.

    Returns (u, n): u moves the current relative velocity a.velocity -
    b.velocity onto the closest boundary point (toward the boundary from
    outside, out of the cone from inside); n is the outward unit normal
    there.
    """
    rel, r_sum = _check_pair(a, b, tau)
    rv = a.velocity - b.velocity
    ux, uy, nx, ny = kernels.vo_closest_boundary(rel[0], rel[1], r_sum, tau, rv[0], rv[1])
    return np.array([ux, uy]), np.array([nx, ny])


def permitted_halfplane(a: AgentBody, b: AgentBody, tau: float) -> HalfPlane:
    """Half-plane of velocities keeping agent `a` collision-free against `b`.

    Each agent of the pair takes half of the required change u, so the
    boundary passes through a.velocity + u/2 with the cone normal.
    """
    u, n = compute_u(a, b, tau)
    return HalfPlane(point=a.velocity + 0.5 * u, normal=n)


def solve_velocity(halfplanes, max_speed: float, v_desire) -> VelocitySolution:
    """Velocity closest to v_desire within all half-planes and the speed disc.

    Constraints are processed in the given order (deterministic).  With an
    empty feasible region the returned solution is flagged infeasible and
    carries the least-violation velocity, still within the speed disc.
    """
    if not (0.0 < max_speed < np.inf):
        raise ValueError("max_speed must be finite and > 0")
    v_desire = as_vec(v_desire, "v_desire")
    n = len(halfplanes)
    pts = np.empty((n, 2))
    nms = np.empty((n, 2))
    for i, hp in enumerate(halfplanes):
        pts[i] = hp.point
        nms[i] = hp.normal
    feasible, vx, vy = kernels.solve_velocity_kernel(pts, nms, n, max_speed, v_desire[0], v_desire[1])
    return VelocitySolution(velocity=np.array([vx, vy]), feasible=bool(feasible))


def crowd_step(states, radii, max_speeds, params: RvoParams) -> np.ndarray:
    """Advance a crowd of state rows [px, py, vx, vy, des_x, des_y] one step.

    Row i avoids every other row, in row order, with those rows' radii;
    its new velocity is chosen with ``radii[i]`` and ``max_speeds[i]``, and
    its position moves by that velocity for ``params.dt``.  The desired
    velocities are kept.  Returns new rows; ``states`` is not modified.
    """
    states = np.asarray(states, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    max_speeds = np.asarray(max_speeds, dtype=np.float64)
    n = states.shape[0]
    if states.shape != (n, 6) or radii.shape != (n,) or max_speeds.shape != (n,):
        raise ValueError("states must have shape (n, 6), radii and max_speeds shape (n,)")
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


def _rows(agents, v_desires):
    """State rows, radii and speed limits of a list of bodies."""
    states = np.array([np.concatenate([a.position, a.velocity, as_vec(v, "v_desire")])
                       for a, v in zip(agents, v_desires)]).reshape(len(agents), 6)
    return (states, np.array([a.radius for a in agents]),
            np.array([a.max_speed for a in agents]))


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
    v_desires = [v_desire if i == self_idx else a.velocity for i, a in enumerate(agents)]
    return crowd_step(*_rows(agents, v_desires), params)[self_idx, 2:4]


def advance(state: AgentBody, new_velocity, dt: float) -> AgentBody:
    """Euler step: adopt the new velocity and move for dt seconds."""
    if not (dt > 0.0):
        raise ValueError("dt must be > 0")
    new_velocity = as_vec(new_velocity, "new_velocity")
    return replace(state, position=state.position + new_velocity * dt, velocity=new_velocity)


def step_all(agents, v_desires, params: RvoParams):
    """Advance every agent one step simultaneously from the shared snapshot."""
    rows = crowd_step(*_rows(agents, v_desires), params)
    return [replace(agent, position=row[0:2], velocity=row[2:4])
            for agent, row in zip(agents, rows)]

"""One-step motion models for the per-agent filters.

A pedestrian state is a row [px, py, vx, vy, des_x, des_y]: position,
velocity and desired velocity, each a 2-vector.  The ``rvo`` model
predicts the next velocity with reciprocal collision avoidance against the
other agents' published mean states, which a `CrowdContext` holds as such
rows, and keeps the desired velocity as the mean of its diffusion; the
``lin`` baseline extrapolates the current velocity.  Gaussian noise with
per-block standard deviations turns the mean prediction into a transition
density, which `sample_transition_batch` samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import kernels
from .rvo import RvoParams, check_fields

#: Hard cap on pedestrian speed and desired speed (m/s).
SPEED_CAP = 3.0

STATE_DIM = 6

#: Model ids implemented here.
MODELS = ("lin", "rvo")


@dataclass(frozen=True)
class BodySpec:
    """Disc radius and speed limit used for an agent inside the filters (see `rvo.DOMAINS`)."""

    radius: float = 0.2
    max_speed: float = 2.5

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-block transition noise (standard deviations, see `rvo.DOMAINS`)."""

    sigma_position: float = 0.05
    sigma_velocity: float = 0.1
    sigma_desired: float = 0.05

    def __post_init__(self):
        check_fields(self)

    def block_scales(self) -> np.ndarray:
        """Length-6 vector of per-coordinate standard deviations."""
        return np.array([
            self.sigma_position, self.sigma_position,
            self.sigma_velocity, self.sigma_velocity,
            self.sigma_desired, self.sigma_desired,
        ])


class CrowdContext:
    """Snapshot of the *other* agents at one reference time.

    ``others`` holds the neighbours' mean states as rows of shape (n, 6);
    each neighbour is a disc of ``self_body.radius``.  The snapshot is
    frozen for a whole filter step so that all agents update simultaneously
    from the same published means.  Treat instances as immutable.
    """

    def __init__(self, others=(), params: RvoParams = RvoParams(),
                 self_body: BodySpec = BodySpec()):
        others = np.asarray(others, dtype=np.float64)
        if others.size == 0:
            others = others.reshape(0, STATE_DIM)
        if others.ndim != 2 or others.shape[1] != STATE_DIM:
            raise ValueError(f"others must have shape (n, {STATE_DIM})")
        self.params = params
        self.self_body = self_body
        self.neighbor_positions = others[:, 0:2].copy()
        self.neighbor_velocities = others[:, 2:4].copy()
        self.neighbor_radii = np.full(others.shape[0], self_body.radius)


def resolve_model(name: str) -> Tuple[str, bool]:
    """Split a model name into (base model, adaptive desired velocity).

    A trailing ``+`` marks the variant whose desired velocity diffuses during
    tracking; without it the desired velocity stays at its initial value.
    """
    base = name[:-1] if name.endswith("+") else name
    base = base.lower()
    if base not in MODELS:
        raise ValueError(f"unknown model '{name}' (available: {MODELS})")
    return base, name.endswith("+")


def predict_mean_batch(model: str, states: np.ndarray, ctx: CrowdContext) -> np.ndarray:
    """Noise-free means of one ``ctx.params.dt`` step of an agent's states (M, 6) under ``model``."""
    if model not in MODELS:
        raise ValueError(f"unknown model id '{model}' (available: {MODELS})")
    dt = ctx.params.dt
    states = np.asarray(states, dtype=np.float64)
    if model == "lin":
        return step_mean(states, states[:, 2:4], dt)
    new_vel = np.empty((states.shape[0], 2))
    kernels.rvo_velocity_batch(
        states, ctx.self_body.radius, ctx.self_body.max_speed,
        ctx.neighbor_positions, ctx.neighbor_velocities, ctx.neighbor_radii,
        ctx.params.time_horizon_tau, dt, ctx.params.neighbor_radius, new_vel,
    )
    return step_mean(states, new_vel, dt)


def step_mean(states: np.ndarray, velocity: np.ndarray, dt: float) -> np.ndarray:
    """Transition means for next velocities (M, 2): position += velocity * dt."""
    out = states.copy()
    for axis in (0, 1):  # by columns: numpy runs an (M, 2) view two elements at a time
        out[:, 2 + axis] = velocity[:, axis]
        out[:, axis] += velocity[:, axis] * dt
    return out


def _clamp_speeds(states: np.ndarray):
    vx, vy, dx, dy = states.T[2:6]  # column views
    square = np.array([vx * vx + vy * vy, dx * dx + dy * dy])  # squared speeds, (2, M)
    hot = square > SPEED_CAP * SPEED_CAP  # as sqrt(square) > SPEED_CAP: sqrt is monotone
    if not hot.any():
        return
    for first, rows, block_square in zip((2, 4), hot, square):
        block = states[:, first:first + 2]
        norms = np.sqrt(block_square[rows])
        big = np.isinf(norms)  # the square overflowed; hypot scales first
        norms[big] = np.hypot(*block[rows][big].T)
        block[rows] *= (SPEED_CAP / norms)[:, None]


def sample_transition_batch(means: np.ndarray, eps: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Sample next states: transition means (M, 6) plus standard normals ``eps`` of
    the same shape times the per-block noise scales, one row per transition.

    Callers compute the means (`filters.predict_blocks` stacks the hops from one
    context into one `predict_mean_batch` call) and draw ``eps``.  The desired
    velocity diffuses; both velocity magnitudes are clamped to `SPEED_CAP`.
    """
    out = means + eps * noise.block_scales()
    _clamp_speeds(out)
    return out

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
from .rvo import RvoParams, as_vec

#: Hard cap on pedestrian speed and desired speed (m/s).
SPEED_CAP = 3.0

STATE_DIM = 6

#: Model ids implemented here.
MODELS = ("lin", "rvo")


@dataclass(frozen=True)
class AgentState:
    """Position (m), velocity (m/s) and desired velocity (m/s) of one pedestrian."""

    position: np.ndarray
    velocity: np.ndarray
    desired_velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec(self.position, "position"))
        object.__setattr__(self, "velocity", as_vec(self.velocity, "velocity"))
        object.__setattr__(self, "desired_velocity", as_vec(self.desired_velocity, "desired_velocity"))

    def to_array(self) -> np.ndarray:
        return np.concatenate([self.position, self.velocity, self.desired_velocity])

    @staticmethod
    def from_array(arr) -> "AgentState":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != (STATE_DIM,):
            raise ValueError(f"state array must have shape ({STATE_DIM},)")
        return AgentState(arr[0:2], arr[2:4], arr[4:6])


@dataclass(frozen=True)
class BodySpec:
    """Disc radius and speed limit used for an agent inside the filters."""

    radius: float = 0.2
    max_speed: float = 2.5

    def __post_init__(self):
        for name in ("radius", "max_speed"):
            if not (0.0 < getattr(self, name) < np.inf):
                raise ValueError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class NoiseSpec:
    """Per-block transition noise (standard deviations, all finite and >= 0)."""

    sigma_position: float = 0.05
    sigma_velocity: float = 0.1
    sigma_desired: float = 0.05

    def __post_init__(self):
        for name in ("sigma_position", "sigma_velocity", "sigma_desired"):
            if not (0.0 <= getattr(self, name) < np.inf):
                raise ValueError(f"{name} must be finite and >= 0")

    def block_scales(self) -> np.ndarray:
        """Length-6 vector of per-coordinate standard deviations."""
        return np.array([
            self.sigma_position, self.sigma_position,
            self.sigma_velocity, self.sigma_velocity,
            self.sigma_desired, self.sigma_desired,
        ])


class CrowdContext:
    """Snapshot of the *other* agents at one reference time.

    ``others`` holds the neighbours' mean states as rows of shape (n, 6)
    and ``radii`` their disc radii, by default ``self_body.radius`` each.
    The snapshot is frozen for a whole filter step so that all agents
    update simultaneously from the same published means.  Treat instances
    as immutable.
    """

    def __init__(self, others=(), params: RvoParams = RvoParams(),
                 self_body: BodySpec = BodySpec(), radii=None):
        others = np.asarray(others, dtype=np.float64)
        if others.size == 0:
            others = others.reshape(0, STATE_DIM)
        if others.ndim != 2 or others.shape[1] != STATE_DIM:
            raise ValueError(f"others must have shape (n, {STATE_DIM})")
        n = others.shape[0]
        self.params = params
        self.self_body = self_body
        self.neighbor_positions = others[:, 0:2].copy()
        self.neighbor_velocities = others[:, 2:4].copy()
        if radii is None:
            radii = np.full(n, self_body.radius)
        self.neighbor_radii = np.array(radii, dtype=np.float64)
        if self.neighbor_radii.shape != (n,):
            raise ValueError("radii must hold one radius per neighbour")


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


def predict_mean_batch(model: str, states: np.ndarray, ctx: CrowdContext, dt: float) -> np.ndarray:
    """Noise-free transition means of one agent's states (M, 6) under a MODELS id."""
    if model not in MODELS:
        raise ValueError(f"unknown model id '{model}' (available: {MODELS})")
    if not (dt > 0.0):
        raise ValueError("dt must be > 0")
    states = np.asarray(states, dtype=np.float64)
    out = states.copy()
    if model == "lin":
        out[:, 0:2] += states[:, 2:4] * dt
        return out
    new_vel = np.empty((states.shape[0], 2))
    kernels.rvo_velocity_batch(
        states, ctx.self_body.radius, ctx.self_body.max_speed,
        ctx.neighbor_positions, ctx.neighbor_velocities, ctx.neighbor_radii,
        ctx.params.time_horizon_tau, dt, ctx.params.neighbor_radius, new_vel,
    )
    out[:, 2:4] = new_vel
    out[:, 0:2] = states[:, 0:2] + new_vel * dt
    return out


def _clamp_speeds(states: np.ndarray, cap: float):
    for sl in (slice(2, 4), slice(4, 6)):
        block = states[:, sl]
        norms = np.sqrt(np.sum(block * block, axis=1))
        hot = norms > cap
        if np.any(hot):
            block[hot] *= (cap / norms[hot])[:, None]


def sample_transition_batch(model: str, states: np.ndarray, ctx: CrowdContext,
                            noise: NoiseSpec, dt: float, rng: np.random.Generator,
                            speed_cap: float = SPEED_CAP) -> np.ndarray:
    """Sample next states: prediction mean plus independent per-block Gaussian noise.

    The desired-velocity block is a pure diffusion.  Velocity and desired
    velocity magnitudes are clamped to ``speed_cap``.
    """
    means = predict_mean_batch(model, states, ctx, dt)
    eps = rng.standard_normal(means.shape)
    out = means + eps * noise.block_scales()
    _clamp_speeds(out, speed_cap)
    return out

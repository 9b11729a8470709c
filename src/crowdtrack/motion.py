"""One-step motion models for the per-agent filters.

A pedestrian state is [position, velocity, desired_velocity], each a
2-vector.  The ``rvo`` model predicts the next velocity with reciprocal
collision avoidance against the other agents' published mean states and
keeps the desired velocity as the mean of its diffusion; the ``lin``
baseline extrapolates the current velocity.  Gaussian noise with
per-block standard deviations turns the mean prediction into a transition
density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .rvo import RvoParams, as_vec

#: Hard cap on pedestrian speed and desired speed (m/s).
SPEED_CAP = 3.0

STATE_DIM = 6

#: Model ids implemented here.
MODELS = ("lin", "rvo")
#: Interface-compatible model ids that ship unimplemented on purpose.
UNAVAILABLE_MODELS = ("lta", "attr", "attrg")


class DegenerateNoise(ValueError):
    """Transition density requested with a zero standard deviation."""


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
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be > 0")


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

    ``others`` holds (agent id, mean state) pairs; ids must be unique.  The
    snapshot is frozen for a whole filter step so that all agents update
    simultaneously from the same published means.  Treat instances as
    immutable.
    """

    def __init__(self, others: Sequence[Tuple[int, AgentState]] = (),
                 params: RvoParams = RvoParams(),
                 self_body: BodySpec = BodySpec(),
                 bodies: Optional[Mapping[int, BodySpec]] = None):
        ids = [agent_id for agent_id, _ in others]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate agent ids in context")
        self.others = tuple((agent_id, state) for agent_id, state in others)
        self.params = params
        self.self_body = self_body
        self.bodies = dict(bodies) if bodies else {}
        n = len(self.others)
        self.neighbor_positions = np.empty((n, 2))
        self.neighbor_velocities = np.empty((n, 2))
        self.neighbor_radii = np.empty(n)
        for i, (agent_id, state) in enumerate(self.others):
            self.neighbor_positions[i] = state.position
            self.neighbor_velocities[i] = state.velocity
            self.neighbor_radii[i] = self.body_of(agent_id).radius

    def body_of(self, agent_id: int) -> BodySpec:
        return self.bodies.get(agent_id, BodySpec())


def resolve_model(name: str) -> Tuple[str, bool]:
    """Split a model name into (base model, adaptive desired velocity).

    A trailing ``+`` marks the variant whose desired velocity diffuses during
    tracking; without it the desired velocity stays at its initial value.
    """
    base = name[:-1] if name.endswith("+") else name
    base = base.lower()
    if base in UNAVAILABLE_MODELS:
        raise NotImplementedError(
            f"model '{base}' requires an external codebase and is not shipped"
        )
    if base not in MODELS:
        raise ValueError(f"unknown model '{name}' (available: {MODELS})")
    return base, name.endswith("+")


def _check_model(model: str):
    if model not in MODELS:
        # Route unimplemented/unknown ids through the resolver for uniform errors.
        resolve_model(model)


def predict_mean_batch(model: str, states: np.ndarray, ctx: CrowdContext, dt: float) -> np.ndarray:
    """Noise-free transition means for a batch of states (M, 6) of one agent."""
    _check_model(model)
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


def predict_mean(model: str, state: AgentState, ctx: CrowdContext, dt: float) -> AgentState:
    """Noise-free one-step prediction of a single state."""
    batch = predict_mean_batch(model, state.to_array()[None, :], ctx, dt)
    return AgentState.from_array(batch[0])


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


def sample_transition(model: str, state: AgentState, ctx: CrowdContext,
                      noise: NoiseSpec, dt: float, rng: np.random.Generator,
                      speed_cap: float = SPEED_CAP) -> AgentState:
    arr = sample_transition_batch(model, state.to_array()[None, :], ctx, noise, dt, rng, speed_cap)
    return AgentState.from_array(arr[0])


def transition_log_density_batch(model: str, nexts: np.ndarray, state: AgentState,
                                 ctx: CrowdContext, noise: NoiseSpec, dt: float) -> np.ndarray:
    """Log density of candidate next states (N, 6) under the diagonal Gaussian transition."""
    scales = noise.block_scales()
    if np.any(scales == 0.0):
        raise DegenerateNoise("all noise standard deviations must be > 0 to evaluate the density")
    mean = predict_mean_batch(model, state.to_array()[None, :], ctx, dt)[0]
    nexts = np.asarray(nexts, dtype=np.float64)
    z = (nexts - mean) / scales
    return -0.5 * np.sum(z * z, axis=1) - np.sum(np.log(scales)) - 0.5 * STATE_DIM * np.log(2.0 * np.pi)


def transition_density(model: str, next_state: AgentState, state: AgentState,
                       ctx: CrowdContext, noise: NoiseSpec, dt: float) -> float:
    """Log transition density of one candidate next state."""
    return float(transition_log_density_batch(model, next_state.to_array()[None, :], state, ctx, noise, dt)[0])

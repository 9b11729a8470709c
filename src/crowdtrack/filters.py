"""Per-agent sequential Monte Carlo filters.

``pf_step`` is the standard bootstrap filter.  ``hpf_step`` generalizes it
to a K-th order Markov mixture: the posterior is a weighted sum of j-step
ahead posteriors, each built by propagating the particle set from j steps
back without looking at the intermediate observations.  The mixture weight
of block j is proportional to its prior weight times the marginal
likelihood of the current observation under that block, so blocks that
explain the observation better dominate.  All weight arithmetic happens in
log space.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Protocol, Tuple

import numpy as np

from .motion import AgentState, CrowdContext, NoiseSpec, STATE_DIM, sample_transition_batch

#: Below this max log-likelihood a step is treated as carrying no information.
LOG_UNDERFLOW = -700.0


class InsufficientHistory(ValueError):
    """A j-step prediction was requested with fewer than j stored posteriors."""


class ObservationModel(Protocol):
    """Anything that can score an observation against a batch of states."""

    def log_likelihood(self, obs, states: np.ndarray) -> np.ndarray:
        """Return per-particle log-likelihoods; must be finite for finite inputs."""
        ...


@dataclass
class ParticleSet:
    """Weighted particles of one agent at one time step.

    ``states`` has shape (M, 6) with rows [px, py, vx, vy, des_x, des_y].
    ``flagged`` marks steps where every likelihood underflowed and the
    filter fell back to pure prediction.
    """

    states: np.ndarray
    weights: np.ndarray
    timestamp: int = 0
    flagged: bool = False

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.states.ndim != 2 or self.states.shape[1] != STATE_DIM:
            raise ValueError(f"states must have shape (M, {STATE_DIM})")
        if self.weights.shape != (self.states.shape[0],):
            raise ValueError("weights must match the number of particles")
        if self.states.shape[0] < 1:
            raise ValueError("at least one particle required")
        if np.any(self.weights < 0.0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite and nonnegative")

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def normalized(self) -> "ParticleSet":
        total = float(self.weights.sum())
        if total <= 0.0:
            raise ValueError("cannot normalize zero total weight")
        return ParticleSet(self.states, self.weights / total, self.timestamp, self.flagged)


@dataclass(frozen=True)
class HpfConfig:
    """Mixture order K, mixture weights pi (sum to 1) and particle count M."""

    order_k: int = 2
    pi: Tuple[float, ...] = (0.91, 0.09)
    particles_m: int = 400

    def __post_init__(self):
        if self.order_k < 1:
            raise ValueError("order_k must be >= 1")
        if self.particles_m < 1:
            raise ValueError("particles_m must be >= 1")
        if len(self.pi) != self.order_k:
            raise ValueError("pi must have exactly order_k entries")
        pi = np.asarray(self.pi, dtype=np.float64)
        if not np.all(np.isfinite(pi) & (pi >= 0.0)):
            raise ValueError("pi entries must be finite and >= 0")
        if abs(float(pi.sum()) - 1.0) > 1e-9:
            raise ValueError("pi must sum to 1")


class FilterHistory:
    """Ring buffer of the last K posteriors and their aligned crowd contexts.

    Entry j=1 is the newest (time t-1), j=len(history) the oldest.  The context
    stored with a posterior describes the other agents at that same time, so
    propagating from t-j to t-j+1 uses the context stored at t-j.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._entries = deque(maxlen=capacity)

    def push(self, posterior: ParticleSet, ctx: CrowdContext):
        self._entries.append((posterior, ctx))

    def __len__(self):
        return len(self._entries)

    def posterior(self, j: int) -> ParticleSet:
        self._check(j)
        return self._entries[-j][0]

    def context(self, j: int) -> CrowdContext:
        self._check(j)
        return self._entries[-j][1]

    def _check(self, j: int):
        if not (1 <= j <= len(self._entries)):
            raise InsufficientHistory(f"requested {j} steps back, have {len(self._entries)}")


def _logsumexp(a: np.ndarray) -> float:
    m = float(np.max(a))
    if not np.isfinite(m):
        return m
    return m + float(np.log(np.sum(np.exp(a - m))))


def _normalize_log(a: np.ndarray) -> np.ndarray:
    m = np.max(a)
    if not np.isfinite(m):
        return np.full(a.shape, 1.0 / a.size)
    w = np.exp(a - m)
    return w / w.sum()


def resample(pooled: ParticleSet, m: int, rng: np.random.Generator) -> ParticleSet:
    """Systematic resampling of a (possibly pooled) weighted set down to m particles.

    With uniform input weights over m particles this returns exactly one copy
    of each.  Output weights are uniform 1/m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = float(pooled.weights.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"pooled weights must sum to 1, got {total}")
    cum = np.cumsum(pooled.weights)
    cum[-1] = 1.0
    positions = (np.arange(m) + rng.random()) / m
    idx = np.searchsorted(cum, positions, side="right")
    return ParticleSet(pooled.states[idx].copy(), np.full(m, 1.0 / m),
                       pooled.timestamp, pooled.flagged)


def posterior_mean(pset: ParticleSet) -> AgentState:
    """Weight-weighted mean state of a normalized particle set."""
    total = float(pset.weights.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError("particle set must be normalized")
    return AgentState.from_array(pset.weights @ pset.states)


def hpf_predict_j(history: FilterHistory, j: int, model: str, noise: NoiseSpec,
                  dt: float, rng: np.random.Generator,
                  latest_ctx: Optional[CrowdContext] = None) -> ParticleSet:
    """Propagate the posterior from j steps back through j single transitions.

    Each intermediate step uses the crowd context stored alongside that
    time's posterior (the other agents' published means); ``latest_ctx``,
    when given, replaces the stored context for the final hop.  The returned
    set keeps the source weights.
    """
    source = history.posterior(j)
    states = source.states
    for back in range(j, 0, -1):
        if back == 1 and latest_ctx is not None:
            ctx = latest_ctx
        else:
            ctx = history.context(back)
        states = sample_transition_batch(model, states, ctx, noise, dt, rng)
    return ParticleSet(states, source.weights.copy(), source.timestamp + j, source.flagged)


def mixture_update(history: FilterHistory, ctx: CrowdContext, obs, obs_model: ObservationModel,
                   cfg: HpfConfig, model: str, noise: NoiseSpec, dt: float,
                   rng: np.random.Generator):
    """Shared core of `hpf_step`: blocks, mixture weights and the pooled set.

    Returns (pooled_states, pooled_weights, lambdas, log_block_scores,
    flagged).  The pooled set holds K_eff * M particles, K_eff = min(K,
    available history), with mixture weights renormalized over the available
    blocks.
    """
    k_eff = min(len(history), cfg.order_k)
    if k_eff < 1:
        raise InsufficientHistory("history is empty")
    pi = np.asarray(cfg.pi[:k_eff], dtype=np.float64)
    pi = pi / pi.sum()

    block_states = []
    block_logprior = []
    block_logw = []
    best_loglik = -np.inf
    for j in range(1, k_eff + 1):
        predicted = hpf_predict_j(history, j, model, noise, dt, rng, latest_ctx=ctx)
        loglik = np.asarray(obs_model.log_likelihood(obs, predicted.states), dtype=np.float64)
        best_loglik = max(best_loglik, float(np.max(loglik)))
        prior_w = predicted.weights
        with np.errstate(divide="ignore"):
            log_prior = np.where(prior_w > 0.0, np.log(np.maximum(prior_w, 1e-300)), -np.inf)
        block_states.append(predicted.states)
        block_logprior.append(log_prior)
        block_logw.append(log_prior + loglik)

    flagged = best_loglik < LOG_UNDERFLOW
    if flagged:
        # No block explains the observation at all: drop the likelihood and
        # keep the pure prediction so the filter survives the frame.
        block_logw = block_logprior
        log_scores = np.log(pi)
    else:
        log_scores = np.array([np.log(pi[j]) + _logsumexp(block_logw[j]) for j in range(k_eff)])

    lambdas = _normalize_log(log_scores)

    m = history.posterior(1).size
    pooled_states = np.vstack(block_states)
    pooled_weights = np.empty(k_eff * m)
    for j in range(k_eff):
        pooled_weights[j * m:(j + 1) * m] = lambdas[j] * _normalize_log(block_logw[j])
    pooled_weights /= pooled_weights.sum()
    return pooled_states, pooled_weights, lambdas, log_scores, flagged


def hpf_step(history: FilterHistory, ctx: CrowdContext, obs, obs_model: ObservationModel,
             cfg: HpfConfig, model: str, noise: NoiseSpec, dt: float,
             rng: np.random.Generator):
    """One higher-order filter step.

    Returns (posterior ParticleSet with M uniform-weight particles, mixture
    weights lambda summing to 1).  With K=1 this is exactly one bootstrap
    filter step.
    """
    pooled_states, pooled_weights, lambdas, _, flagged = mixture_update(
        history, ctx, obs, obs_model, cfg, model, noise, dt, rng)
    timestamp = history.posterior(1).timestamp + 1
    pooled = ParticleSet(pooled_states, pooled_weights, timestamp, flagged)
    return resample(pooled, cfg.particles_m, rng), lambdas


def pf_step(prior: ParticleSet, ctx: CrowdContext, obs, obs_model: ObservationModel,
            model: str, noise: NoiseSpec, dt: float, rng: np.random.Generator) -> ParticleSet:
    """One bootstrap particle filter step: propagate, reweight, resample.

    Implemented as the K=1 case of the mixture filter so the two share every
    numerical path.
    """
    history = FilterHistory(1)
    history.push(prior.normalized(), ctx)
    cfg = HpfConfig(order_k=1, pi=(1.0,), particles_m=prior.size)
    posterior, _ = hpf_step(history, ctx, obs, obs_model, cfg, model, noise, dt, rng)
    return posterior


def init_particles(position, velocity, m: int, noise: NoiseSpec,
                   rng: np.random.Generator, timestamp: int = 0,
                   position_spread: Optional[float] = None,
                   velocity_spread: Optional[float] = None) -> ParticleSet:
    """Particle cloud around a first position/velocity fix.

    The spreads should reflect the uncertainty of the fix itself (for a
    two-point finite difference, roughly the observation noise and
    sqrt(2)/dt times it); they default to the transition noise.  The desired
    velocity starts equal to the sampled velocity, matching an
    initialization from the first observed finite-difference velocity.
    """
    position = np.asarray(position, dtype=np.float64)
    velocity = np.asarray(velocity, dtype=np.float64)
    pos_s = noise.sigma_position if position_spread is None else position_spread
    vel_s = noise.sigma_velocity if velocity_spread is None else velocity_spread
    states = np.empty((m, STATE_DIM))
    states[:, 0:2] = position + rng.standard_normal((m, 2)) * pos_s
    states[:, 2:4] = velocity + rng.standard_normal((m, 2)) * vel_s
    states[:, 4:6] = states[:, 2:4]
    return ParticleSet(states, np.full(m, 1.0 / m), timestamp)

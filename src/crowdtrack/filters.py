"""Per-agent sequential Monte Carlo filters.

``pf_step`` is the standard bootstrap filter.  ``hpf_step`` generalizes it
to a K-th order Markov mixture: the posterior is a weighted sum of j-step
ahead posteriors, each built by propagating the particle set from j steps
back without looking at the intermediate observations.  The mixture weight
of block j is proportional to its prior weight times the marginal
likelihood of the current observation under that block, so blocks that
explain the observation better dominate.  All weight arithmetic happens in
log space.

A step draws K(K+1)/2 transitions with one motion-mean call per stored context,
reusing the one-hop means block 1 computed earlier: at K=2, one call of 2M rows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Protocol, Tuple

import numpy as np

from .motion import (AgentState, CrowdContext, NoiseSpec, STATE_DIM, predict_mean_batch,
                     sample_transition_batch, step_mean)

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
        return ParticleSet(self.states, self.weights / total, self.flagged)


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
    propagating from t-j to t-j+1 uses the context stored at t-j.  Entries memoize
    one-hop means (`predict_blocks`), so pushed posteriors and contexts must stay unchanged.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries = deque(maxlen=capacity)

    def push(self, posterior: ParticleSet, ctx: CrowdContext):
        self._entries.append((posterior, ctx, {}))

    def __len__(self):
        return len(self._entries)

    def posterior(self, j: int) -> ParticleSet:
        return self._entry(j)[0]

    def context(self, j: int) -> CrowdContext:
        return self._entry(j)[1]

    def _entry(self, j: int):
        """Entry j: (posterior, context, {(model, dt): one-hop mean velocities (M, 2)})."""
        if not (1 <= j <= len(self._entries)):
            raise InsufficientHistory(f"requested {j} steps back, have {len(self._entries)}")
        return self._entries[-j]


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
    return ParticleSet(pooled.states[idx].copy(), np.full(m, 1.0 / m), pooled.flagged)


def posterior_mean(pset: ParticleSet) -> AgentState:
    """Weight-weighted mean state of a normalized particle set."""
    total = float(pset.weights.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError("particle set must be normalized")
    return AgentState.from_array(pset.weights @ pset.states)


def predict_blocks(history: FilterHistory, k: int, model: str, noise: NoiseSpec,
                   dt: float, rng: np.random.Generator):
    """The k predicted (M, 6) blocks: block j is posterior(j) through j transitions.

    Normals are drawn first, in a per-block loop's order; then one
    `predict_mean_batch` call per level ``back`` = k..1 covers all hops from
    context ``back``; block ``back``'s first hop is read from entry ``back``'s memo,
    or computed and kept there unless the next push drops that entry."""
    m = history.posterior(k).size
    eps = rng.standard_normal((k * (k + 1) // 2, m, STATE_DIM))
    key, blocks = (model, dt), [None] * (k + 1)
    for back in range(k, 0, -1):
        source, ctx, memo = history._entry(back)
        last = back == history.capacity  # the entry leaves at the next push
        first = memo.pop(key, None) if last else memo.get(key)
        rows = ([source.states] if first is None else []) + blocks[back + 1:]
        means = [] if first is None else [step_mean(source.states, first, dt)]
        if rows:
            rows = rows[0] if len(rows) == 1 else np.concatenate(rows)
            means.append(predict_mean_batch(model, rows, ctx, dt))
        if first is None and not last:
            memo[key] = means[0][:m, 2:4].copy()
        picks = [j * (j - 1) // 2 + j - back for j in range(back, k + 1)]
        means = means[0] if len(means) == 1 else np.concatenate(means)
        out = sample_transition_batch(means, eps[picks].reshape(-1, STATE_DIM), noise)
        blocks[back:] = out.reshape(-1, m, STATE_DIM)
    return blocks[1:]


def mixture_update(history: FilterHistory, obs, obs_model: ObservationModel,
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

    block_states = predict_blocks(history, k_eff, model, noise, dt, rng)
    logliks = [np.asarray(obs_model.log_likelihood(obs, states), dtype=np.float64)
               for states in block_states]
    with np.errstate(divide="ignore"):
        block_logprior = [np.where(w > 0.0, np.log(np.maximum(w, 1e-300)), -np.inf)
                          for w in (history.posterior(j).weights for j in range(1, k_eff + 1))]
    block_logw = [log_prior + loglik for log_prior, loglik in zip(block_logprior, logliks)]
    # A fold from -inf, as max(best, x) block by block: a NaN block is skipped.
    flagged = max([-np.inf] + [float(np.max(loglik)) for loglik in logliks]) < LOG_UNDERFLOW
    if flagged:
        # No block explains the observation at all: drop the likelihood and
        # keep the pure prediction so the filter survives the frame.
        block_logw = block_logprior
        log_scores = np.log(pi)
    else:
        log_scores = np.array([np.log(pi[j]) + _logsumexp(block_logw[j]) for j in range(k_eff)])

    lambdas = _normalize_log(log_scores)

    pooled_states = np.vstack(block_states)
    pooled_weights = np.concatenate([lam * _normalize_log(logw)
                                     for lam, logw in zip(lambdas, block_logw)])
    pooled_weights /= pooled_weights.sum()
    return pooled_states, pooled_weights, lambdas, log_scores, flagged


def hpf_step(history: FilterHistory, ctx: CrowdContext, obs, obs_model: ObservationModel,
             cfg: HpfConfig, model: str, noise: NoiseSpec, dt: float,
             rng: np.random.Generator):
    """One higher-order filter step.

    ``ctx`` must be ``history.context(1)``, the context pushed with the
    newest posterior; every hop propagates with the stored contexts.
    Returns (posterior ParticleSet with M uniform-weight particles, mixture
    weights lambda summing to 1).  With K=1 this is exactly one bootstrap
    filter step.
    """
    if ctx is not history.context(1):
        raise ValueError("ctx must be the context stored with the newest posterior")
    pooled_states, pooled_weights, lambdas, _, flagged = mixture_update(
        history, obs, obs_model, cfg, model, noise, dt, rng)
    pooled = ParticleSet(pooled_states, pooled_weights, flagged)
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


def init_particles(position, velocity, m: int, rng: np.random.Generator,
                   position_spread: float, velocity_spread: float) -> ParticleSet:
    """Uniform-weight particle cloud around a first position/velocity fix.

    The spreads (standard deviations) should reflect the uncertainty of the
    fix itself: for a two-point finite difference, roughly the observation
    noise and sqrt(2)/dt times it.  The desired velocity starts equal to the
    sampled velocity, matching an initialization from the first observed
    finite-difference velocity.
    """
    position = np.asarray(position, dtype=np.float64)
    velocity = np.asarray(velocity, dtype=np.float64)
    states = np.empty((m, STATE_DIM))
    states[:, 0:2] = position + rng.standard_normal((m, 2)) * position_spread
    states[:, 2:4] = velocity + rng.standard_normal((m, 2)) * velocity_spread
    states[:, 4:6] = states[:, 2:4]
    return ParticleSet(states, np.full(m, 1.0 / m))

"""Per-agent sequential Monte Carlo filters.

``pf_step`` is the standard bootstrap filter.  ``hpf_step`` generalizes it
to a K-th order Markov mixture: the posterior is a weighted sum of j-step
ahead posteriors, each built by propagating the particle set from j steps
back without looking at the intermediate observations.  The mixture weight
of block j is proportional to its prior weight times the marginal
likelihood of the current observation under that block, so blocks that
explain the observation better dominate.  All weight arithmetic happens in
log space.

A step draws K(K+1)/2 transitions, each at its stored context's ``params.dt``, with
one motion-mean call per stored context, reusing the one-hop means block 1 computed
earlier: at K=2, one call of 2M rows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Protocol, Tuple

import numpy as np

from .motion import (CrowdContext, NoiseSpec, STATE_DIM, predict_mean_batch,
                     sample_transition_batch, step_mean)
from .rvo import check_domain

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
        if not (self.weights.min() >= 0.0 and self.weights.max() < np.inf):  # NaN fails too
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
    """Mixture order K, weights pi (in `rvo.DOMAINS`, summing to 1) and particle count M."""

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
        check_domain("pi", self.pi)
        if abs(float(np.sum(self.pi)) - 1.0) > 1e-9:
            raise ValueError("pi must sum to 1")


class FilterHistory:
    """Ring buffer of the last ``order_k`` posteriors and their aligned crowd contexts.

    Entry j=1 is the newest (time t-1), j=len(history) the oldest.  The context
    stored with a posterior describes the other agents at that same time, so
    propagating from t-j to t-j+1 uses the context stored at t-j, and its clock.
    Entries memoize one-hop means (`predict_blocks`) until a push drops them, so
    pushed posteriors and contexts must stay unchanged.
    """

    def __init__(self, order_k: int):
        if order_k < 1:
            raise ValueError("order_k must be >= 1")
        self._entries = deque(maxlen=order_k)

    def push(self, posterior: ParticleSet, ctx: CrowdContext):
        self._entries.append((posterior, ctx, {}))

    def __len__(self):
        return len(self._entries)

    def posterior(self, j: int) -> ParticleSet:
        return self._entry(j)[0]

    def context(self, j: int) -> CrowdContext:
        return self._entry(j)[1]

    def _entry(self, j: int):
        """Entry j: (posterior, context, {model: one-hop mean velocities (M, 2)})."""
        if not (1 <= j <= len(self._entries)):
            raise InsufficientHistory(f"requested {j} steps back, have {len(self._entries)}")
        return self._entries[-j]


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
    return ParticleSet(pooled.states.take(idx, axis=0), np.full(m, 1.0 / m), pooled.flagged)


def predict_blocks(history: FilterHistory, k: int, model: str, noise: NoiseSpec,
                   rng: np.random.Generator) -> np.ndarray:
    """The k predicted blocks, (k, M, 6): block j is posterior(j) through j transitions,
    each hop stepping at the ``params.dt`` of the context it propagates with.

    Normals are drawn first, in a per-block loop's order; then one
    `predict_mean_batch` call per level ``back`` = k..1 covers all hops from
    context ``back``; block ``back``'s first hop is read from entry ``back``'s memo,
    or computed and kept there until the entry leaves the history."""
    m = history.posterior(k).size
    eps = rng.standard_normal((k * (k + 1) // 2, m, STATE_DIM))
    later = None  # blocks back+1..k after their hops so far
    for back in range(k, 0, -1):
        source, ctx, memo = history._entry(back)
        first = memo.get(model)
        if first is None:
            rows = source.states if later is None else np.concatenate((source.states, later))
            means = predict_mean_batch(model, rows, ctx)
            memo[model] = means[:m, 2:4].copy()
        else:
            means = step_mean(source.states, first, ctx.params.dt)
            if later is not None:
                means = np.concatenate((means, predict_mean_batch(model, later, ctx)))
        picks = [j * (j - 1) // 2 + j - back for j in range(back, k + 1)]
        later = sample_transition_batch(means, eps[picks].reshape(-1, STATE_DIM), noise)
    return later.reshape(k, m, STATE_DIM)


def mixture_update(history: FilterHistory, obs, obs_model: ObservationModel,
                   cfg: HpfConfig, model: str, noise: NoiseSpec, rng: np.random.Generator):
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

    blocks = predict_blocks(history, k_eff, model, noise, rng)
    loglik = np.array([obs_model.log_likelihood(obs, b) for b in blocks], dtype=np.float64)
    weights = np.array([history.posterior(j).weights for j in range(1, k_eff + 1)])
    log_w = np.where(weights > 0.0, np.log(np.maximum(weights, 1e-300)), -np.inf)
    # If no block explains the observation at all (a NaN max never does), drop the
    # likelihood and keep the pure prediction so the filter survives the frame.
    flagged = not (loglik.max(axis=1) >= LOG_UNDERFLOW).any()
    if not flagged:
        log_w += loglik
    # Per row, w = exp(log_w - max) and log-sum-exp = max + log(sum(w)); a row
    # without a finite max gets uniform weights and scores its max.
    top = log_w.max(axis=1)
    finite = np.isfinite(top)
    w = np.exp(np.where(finite[:, None], log_w, 0.0) - np.where(finite, top, 0.0)[:, None])
    total = w.sum(axis=1)
    log_scores = np.log(pi) if flagged else np.log(pi) + (top + np.log(total))
    lambdas = _normalize_log(log_scores)
    pooled_weights = (lambdas[:, None] * (w / total[:, None])).reshape(-1)
    pooled_weights /= pooled_weights.sum()
    return blocks.reshape(-1, STATE_DIM), pooled_weights, lambdas, log_scores, flagged


def hpf_step(history: FilterHistory, ctx: CrowdContext, obs, obs_model: ObservationModel,
             cfg: HpfConfig, model: str, noise: NoiseSpec, rng: np.random.Generator):
    """One higher-order filter step.

    ``ctx`` must be ``history.context(1)``, the context pushed with the
    newest posterior; every hop propagates with the stored contexts and their dt.
    Returns (posterior ParticleSet with M uniform-weight particles, mixture
    weights lambda summing to 1).  With K=1 this is exactly one bootstrap
    filter step.
    """
    if ctx is not history.context(1):
        raise ValueError("ctx must be the context stored with the newest posterior")
    pooled_states, pooled_weights, lambdas, _, flagged = mixture_update(
        history, obs, obs_model, cfg, model, noise, rng)
    pooled = ParticleSet(pooled_states, pooled_weights, flagged)
    return resample(pooled, cfg.particles_m, rng), lambdas


def pf_step(prior: ParticleSet, ctx: CrowdContext, obs, obs_model: ObservationModel,
            model: str, noise: NoiseSpec, rng: np.random.Generator) -> ParticleSet:
    """One bootstrap particle filter step at ``ctx.params.dt``: propagate, reweight, resample.

    Implemented as the K=1 case of the mixture filter so the two share every
    numerical path.
    """
    history = FilterHistory(1)
    history.push(prior.normalized(), ctx)
    cfg = HpfConfig(order_k=1, pi=(1.0,), particles_m=prior.size)
    posterior, _ = hpf_step(history, ctx, obs, obs_model, cfg, model, noise, rng)
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

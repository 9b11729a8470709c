"""Evaluation protocols: trajectory prediction and tracking robustness.

The prediction protocol runs a two-phase trial from every 16th frame: a
learning phase where the filter consumes observations, then an open-loop
phase where the motion model extrapolates without observations and the
error to ground truth is read off at fixed horizons.

The tracking protocol replays a noisy/occluded observation trace, starts a
tracker at every 16th frame from ground-truth positions and classifies each
track at fixed horizons as a success, a loss, or an identity switch against
the 0.5 m rule.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .data import NonFiniteMotion, Scenario, Trace
from .filters import FilterHistory, HpfConfig, ParticleSet, hpf_step, init_particles
from .motion import BodySpec, CrowdContext, NoiseSpec, resolve_model, step_mean
from .rvo import RvoParams, crowd_step

#: Distance rule for track outcomes (meters).
SUCCESS_THRESHOLD = 0.5

#: Closed range of the observation noise ``sigma_obs`` (m).  Its square, the
#: likelihood's variance, stays a normal float, so no log-likelihood is nan.
MIN_SIGMA_OBS = 1e-150
MAX_SIGMA_OBS = 1e150


def check_sigma_obs(value: float):
    """Raise ValueError, naming ``sigma_obs``, unless `MIN_SIGMA_OBS` <= ``value``
    <= `MAX_SIGMA_OBS`."""
    if not (MIN_SIGMA_OBS <= value <= MAX_SIGMA_OBS):
        raise ValueError(f"sigma_obs must be in [{MIN_SIGMA_OBS!r}, {MAX_SIGMA_OBS!r}] m, "
                         f"got {value!r}")


class NoEligibleTrials(ValueError):
    """No trajectory spans the learning window or reaches a tracking horizon."""


@dataclass(frozen=True)
class GaussianPositionLikelihood:
    """Isotropic Gaussian likelihood on position; flat when the target is occluded.

    Stands in for an appearance model: an observation is a 2D position, and
    a missing observation scores every particle 0 (weights unchanged).
    """

    sigma_obs: float = 0.1

    def __post_init__(self):
        check_sigma_obs(self.sigma_obs)

    def log_likelihood(self, obs, states: np.ndarray) -> np.ndarray:
        if obs is None:
            return np.zeros(states.shape[0])
        obs = np.asarray(obs, dtype=np.float64)
        dx, dy = states[:, 0] - obs[0], states[:, 1] - obs[1]
        s2 = self.sigma_obs * self.sigma_obs
        return -0.5 * (dx * dx + dy * dy) / s2 - np.log(2.0 * np.pi * s2)


@dataclass
class PredictionRow:
    dataset: str
    model: str
    filter_kind: str
    horizon: int
    mean_error_m: float
    n_trials: int


@dataclass
class PredictionReport:
    rows: List[PredictionRow]

    def overall_average(self) -> float:
        cells = [r.mean_error_m for r in self.rows if r.n_trials > 0]
        return float(np.mean(cells)) if cells else float("nan")

    def cell(self, horizon: int) -> Optional[PredictionRow]:
        for r in self.rows:
            if r.horizon == horizon:
                return r
        return None

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("dataset,model,filter,L,mean_error_m,n_trials\n")
            for r in self.rows:
                fh.write(f"{r.dataset},{r.model},{r.filter_kind},{r.horizon},"
                         f"{r.mean_error_m:.6f},{r.n_trials}\n")

    def format_table(self) -> str:
        lines = [f"{'dataset':<19} {'model':<7} {'filter':<7} {'L':>4} {'mean err (m)':>13} "
                 f"{'trials':>7}"]
        for r in self.rows:
            lines.append(f"{r.dataset:<19} {r.model:<7} {r.filter_kind:<7} {r.horizon:>4} "
                         f"{r.mean_error_m:>13.3f} {r.n_trials:>7}")
        return "\n".join(lines)


@dataclass(frozen=True)
class TrackOutcome:
    """Outcome of one tracked agent at one horizon."""

    agent_id: int
    start: int
    horizon: int
    kind: str  # success | lost | id_switch
    distance: float


@dataclass
class TrackReport:
    outcomes: List[TrackOutcome]
    dataset: str = ""
    model: str = ""
    filter_kind: str = ""

    def counts(self, horizon: Optional[int] = None) -> Tuple[int, int, int]:
        """(successes, id switches, losses), optionally for one horizon."""
        selected = [o for o in self.outcomes if horizon is None or o.horizon == horizon]
        st = sum(1 for o in selected if o.kind == "success")
        ids = sum(1 for o in selected if o.kind == "id_switch")
        lost = sum(1 for o in selected if o.kind == "lost")
        return st, ids, lost

    @property
    def horizons(self):
        return sorted({o.horizon for o in self.outcomes})

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("dataset,model,filter,N,st,ids,lost,n_tracks\n")
            for n in self.horizons:
                st, ids, lost = self.counts(n)
                fh.write(f"{self.dataset},{self.model},{self.filter_kind},{n},"
                         f"{st},{ids},{lost},{st + ids + lost}\n")

    def format_table(self) -> str:
        lines = [f"{'dataset':<19} {'model':<7} {'filter':<7} {'N':>4} {'ST':>5} {'IDS':>5} "
                 f"{'lost':>5}"]
        for n in self.horizons:
            st, ids, lost = self.counts(n)
            lines.append(f"{self.dataset:<19} {self.model:<7} {self.filter_kind:<7} {n:>4} "
                         f"{st:>5} {ids:>5} {lost:>5}")
        return "\n".join(lines)


def classify_track(estimate, own_truth, other_truths,
                   threshold: float = SUCCESS_THRESHOLD) -> Tuple[str, float]:
    """Apply the distance rule to one track endpoint.

    success   -- within `threshold` of the own ground truth and no other
                 agent's ground truth is strictly nearer
    id_switch -- within `threshold` of the own ground truth but another
                 agent's ground truth is strictly nearer
    lost      -- farther than `threshold` from the own ground truth
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    d_own = float(np.linalg.norm(estimate - np.asarray(own_truth, dtype=np.float64)))
    if d_own > threshold:
        return "lost", d_own
    for other in other_truths:
        if float(np.linalg.norm(estimate - np.asarray(other, dtype=np.float64))) < d_own:
            return "id_switch", d_own
    return "success", d_own


class JointTracker:
    """One filter per agent, stepped simultaneously off shared published means.

    Every agent's particles interact with the *previous* frame's posterior
    means of the other agents; new means are published only after all agents
    finished the frame.  ``means`` holds them as one (agents, 6) array of
    state rows in ``ids`` order.  Steps span ``cfg.params.dt`` (the protocols
    set it to the scenario's) and score observations with ``cfg.sigma_obs``.
    """

    def __init__(self, init_fixes: Dict[int, Tuple[np.ndarray, np.ndarray]],
                 model: str, filter_kind: str, cfg: ProtocolConfig,
                 rng: np.random.Generator, init_spread: Tuple[float, float]):
        base_model, adaptive = resolve_model(model)
        self.model = base_model
        hpf = cfg.hpf
        if filter_kind == "pf":
            hpf = HpfConfig(order_k=1, pi=(1.0,), particles_m=hpf.particles_m)
        elif filter_kind != "hpf":
            raise ValueError(f"unknown filter kind '{filter_kind}'")
        self.hpf = hpf
        self.noise = cfg.noise if adaptive else replace(cfg.noise, sigma_desired=0.0)
        self.params = cfg.params
        self.body = cfg.body
        self.obs_model = GaussianPositionLikelihood(cfg.sigma_obs)
        self.rng = rng
        self.ids = sorted(init_fixes)
        self.histories = [FilterHistory(hpf.order_k) for _ in self.ids]
        sets = [init_particles(*init_fixes[agent_id], hpf.particles_m, rng, *init_spread)
                for agent_id in self.ids]
        self._publish(sets)

    def _publish(self, sets: Sequence[ParticleSet]):
        """Publish the sets' means; push each set with the other agents' means beside it."""
        self.means = np.array([pset.weights @ pset.states for pset in sets])
        if not np.isfinite(self.means).all():
            raise NonFiniteMotion("a filter's mean state overflowed to a non-finite value")
        for i, pset in enumerate(sets):
            others = np.concatenate((self.means[:i], self.means[i + 1:]))
            self.histories[i].push(pset, CrowdContext(others, self.params, self.body))

    def step(self, observations: Dict[int, Optional[np.ndarray]]):
        """Advance every agent one frame.

        ``observations`` maps agent id to a position or None (occluded); an
        id it lacks reads as None, so a trace frame is passed as it is.
        """
        self._publish([
            hpf_step(history, history.context(1), observations.get(agent_id), self.obs_model,
                     self.hpf, self.model, self.noise, self.rng)[0]
            for agent_id, history in zip(self.ids, self.histories)])

    def mean_position(self, agent_id: int) -> np.ndarray:
        return self.means[self.ids.index(agent_id), 0:2]

    def rollout_means(self, steps: int):
        """Open-loop extrapolation of the published means, no observations.

        The mixture means at the current time are propagated jointly through
        the noise-free motion model, one `crowd_step` per step for ``rvo``;
        for the higher-order filter this is the frozen-weight mixture mean
        carried forward.  Returns, per step, a dict of agent id to predicted
        position.  The filter state is not touched.
        """
        n = len(self.ids)
        radii = np.full(n, self.body.radius)
        max_speeds = np.full(n, self.body.max_speed)
        dt = self.params.dt
        current = self.means
        out = []
        for _ in range(steps):
            if self.model == "lin":
                current = step_mean(current, current[:, 2:4], dt)
            else:
                current = crowd_step(current, radii, max_speeds, self.params)
            out.append({agent_id: current[i, 0:2] for i, agent_id in enumerate(self.ids)})
        return out


class ConfigError(ValueError):
    """A configuration value is unknown or invalid; ``key`` names its key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config error in '{key}': {message}")
        self.key = key


@dataclass
class ProtocolConfig:
    """Shared knobs of both protocols."""

    hpf: HpfConfig = field(default_factory=HpfConfig)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    params: RvoParams = field(default_factory=RvoParams)
    body: BodySpec = field(default_factory=BodySpec)
    sigma_obs: float = 0.1
    start_stride: int = 16
    learn_steps: int = 10
    predict_steps: int = 30
    prediction_horizons: Tuple[int, ...] = (5, 15, 30)
    track_steps: int = 24
    tracking_horizons: Tuple[int, ...] = (16, 24)
    threshold: float = SUCCESS_THRESHOLD

    def __post_init__(self):
        check_sigma_obs(self.sigma_obs)
        if not (0.0 < self.threshold < np.inf):
            raise ValueError("threshold must be finite and > 0")
        for name in ("start_stride", "learn_steps", "predict_steps", "track_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name, steps in (("prediction_horizons", self.predict_steps),
                            ("tracking_horizons", self.track_steps)):
            horizons = getattr(self, name)
            if not horizons or not all(1 <= h <= steps for h in horizons):
                raise ValueError(f"{name} must be one or more steps in 1..{steps}")

    def resolve_init_spread(self, exact_observations: bool):
        """(position, velocity) spread of the initial particle cloud: derived
        from sigma_obs and ``params.dt`` for noisy traces, collapsed for exact ones."""
        if exact_observations:
            return (0.0, 0.0)
        return (self.sigma_obs, 1.5 * self.sigma_obs / self.params.dt)


@dataclass(frozen=True)
class Key:
    """One configuration key: the attribute it sets, its parser and echo format.

    ``path`` is a field of the configured object, or ``section.field`` for a
    field of one of its nested dataclasses.
    """

    path: str
    parse: Callable[[str], object]
    echo: Callable[[object], str] = repr

    def read(self, obj):
        return functools.reduce(getattr, self.path.split("."), obj)


def parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected integer, got '{raw}'") from None


def parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected number, got '{raw}'") from None


def parse_ints(raw: str) -> Tuple[int, ...]:
    values = tuple(parse_int(part) for part in raw.split(",") if part.strip())
    if not values:
        raise ValueError("expected one or more integers")
    return values


def parse_floats(raw: str) -> Tuple[float, ...]:
    return tuple(parse_float(part) for part in raw.split(",") if part.strip())


def echo_list(values) -> str:
    return ",".join(repr(v) for v in values)


#: Protocol configuration keys, the names used by config files, ``--set``,
#: ``sweep.grid.<key>``, ``config.echo`` and `sweep`.
PROTOCOL_KEYS: Dict[str, Key] = {
    "hpf.k": Key("hpf.order_k", parse_int),
    "hpf.pi": Key("hpf.pi", parse_floats, echo_list),
    "hpf.m": Key("hpf.particles_m", parse_int),
    "noise.sigma_position": Key("noise.sigma_position", parse_float),
    "noise.sigma_velocity": Key("noise.sigma_velocity", parse_float),
    "noise.sigma_desired": Key("noise.sigma_desired", parse_float),
    "rvo.tau": Key("params.time_horizon_tau", parse_float),
    "rvo.dt": Key("params.dt", parse_float),
    "rvo.neighbor_radius": Key("params.neighbor_radius", parse_float),
    "body.radius": Key("body.radius", parse_float),
    "body.max_speed": Key("body.max_speed", parse_float),
    "obs.sigma": Key("sigma_obs", parse_float),
    "bench.learn_steps": Key("learn_steps", parse_int),
    "bench.predict_steps": Key("predict_steps", parse_int),
    "bench.start_stride": Key("start_stride", parse_int),
    "bench.track_steps": Key("track_steps", parse_int),
    "bench.prediction_horizons": Key("prediction_horizons", parse_ints, echo_list),
    "bench.tracking_horizons": Key("tracking_horizons", parse_ints, echo_list),
    "bench.threshold": Key("threshold", parse_float),
}


def configure(base: ProtocolConfig, settings: Dict[str, object]) -> ProtocolConfig:
    """`base` with parsed ``{key: value}`` settings applied, one replace per section.

    Every dataclass validates its fields once; a rejected value raises
    ConfigError naming the key of the field the error message starts with.
    """
    changes: Dict[str, Dict[str, object]] = {}
    for key, value in settings.items():
        if key not in PROTOCOL_KEYS:
            raise ConfigError(key, "unknown protocol key")
        section, _, name = PROTOCOL_KEYS[key].path.rpartition(".")
        changes.setdefault(section, {})[name] = value

    def build(section, obj, fields):
        try:
            return replace(obj, **fields)
        except ValueError as exc:
            path = ".".join(filter(None, (section, str(exc).split()[0])))
            key = next((k for k, spec in PROTOCOL_KEYS.items() if spec.path == path), "config")
            raise ConfigError(key, str(exc)) from None

    top = changes.pop("", {})
    for section, fields in changes.items():
        top[section] = build(section, getattr(base, section), fields)
    return build("", base, top)


def _protocol_inputs(scenario: Scenario, trace: Optional[Trace],
                     cfg: Optional[ProtocolConfig], seed: int):
    """Truth maps, observed maps (``trace``, else the truth), generator and ``cfg``
    stepping at the scenario's dt; ValueError on a trace of another length."""
    truth = [dict(f.entries) for f in scenario.frames]
    if trace is not None and len(trace) != len(truth):
        raise ValueError(f"trace has {len(trace)} frames, "
                         f"scenario '{scenario.name}' has {len(truth)}")
    cfg = cfg or ProtocolConfig()
    cfg = replace(cfg, params=replace(cfg.params, dt=scenario.dt))
    return truth, truth if trace is None else trace, np.random.default_rng(seed), cfg


def run_prediction_protocol(scenario: Scenario, model: str = "rvo+",
                            filter_kind: str = "hpf",
                            cfg: Optional[ProtocolConfig] = None, seed: int = 0,
                            trace: Optional[Trace] = None) -> PredictionReport:
    """Two-phase learn/predict evaluation over a scenario.

    From every ``start_stride``-th frame: agents present through the whole
    learning window are filtered for ``learn_steps`` frames on observations,
    ground-truth positions or ``trace[k]`` ({agent id: position, or None
    while occluded}), then extrapolated open loop without observations; a
    start where one of them is unobserved at t0 or t0 + 1 is skipped.  The
    Euclidean error of the published mean at each horizon is averaged over
    all (trial, agent) pairs that reach it.  Without a trace the initial
    particle cloud is collapsed.
    """
    truth, observed, rng, cfg = _protocol_inputs(scenario, trace, cfg, seed)
    spread = cfg.resolve_init_spread(exact_observations=trace is None)
    n = len(truth)
    errors: Dict[int, List[float]] = {h: [] for h in cfg.prediction_horizons}
    any_trial = False

    for t0 in range(0, n - cfg.learn_steps, cfg.start_stride):
        learn_end = t0 + cfg.learn_steps
        eligible = sorted(set(truth[t0]).intersection(*truth[t0 + 1:learn_end + 1]))
        fixes = {agent_id: (observed[t0].get(agent_id), observed[t0 + 1].get(agent_id))
                 for agent_id in eligible}
        if not eligible or any(p0 is None or p1 is None for p0, p1 in fixes.values()):
            continue
        any_trial = True
        init = {agent_id: (p0, (p1 - p0) / cfg.params.dt)
                for agent_id, (p0, p1) in fixes.items()}
        tracker = JointTracker(init, model, filter_kind, cfg, rng, spread)
        for t in range(t0 + 1, learn_end + 1):
            tracker.step(observed[t])
        available = min(cfg.predict_steps, n - 1 - learn_end)
        predicted = tracker.rollout_means(available)
        for h in [h for h in errors if h <= available]:
            for agent_id in eligible:
                own = truth[learn_end + h].get(agent_id)
                if own is not None:
                    diff = predicted[h - 1][agent_id] - own
                    err = float(np.linalg.norm(diff))
                    if np.isinf(err):
                        # The squared norm overflowed; hypot scales first.
                        err = float(np.hypot(*diff))
                    errors[h].append(err)

    if not any_trial:
        raise NoEligibleTrials(
            f"no trajectory spans the {cfg.learn_steps}-step learning window")

    rows = [PredictionRow(scenario.name, model, filter_kind, h,
                          float(np.mean(errors[h])) if errors[h] else float("nan"),
                          len(errors[h]))
            for h in cfg.prediction_horizons]
    return PredictionReport(rows)


def run_tracking_protocol(scenario: Scenario, trace: Optional[Trace] = None,
                          model: str = "rvo+", filter_kind: str = "hpf",
                          cfg: Optional[ProtocolConfig] = None, seed: int = 0) -> TrackReport:
    """Replay observations, classify each track at the configured horizons.

    Trackers start from ground-truth positions of the agents present at t0
    and t0 + 1, at every ``start_stride``-th frame, and run for at most
    ``track_steps`` frames on the observations, ground-truth positions or
    ``trace[k]`` ({agent id: position, or None while occluded}); each
    horizon where the agent's ground truth still exists yields one outcome.
    """
    truth, observed, rng, cfg = _protocol_inputs(scenario, trace, cfg, seed)
    spread = cfg.resolve_init_spread(exact_observations=False)
    n = len(truth)
    outcomes: List[TrackOutcome] = []

    for t0 in range(0, n - 1, cfg.start_stride):
        agents = sorted(truth[t0].keys() & truth[t0 + 1].keys())
        if not agents:
            continue
        init = {}
        for agent_id in agents:
            p0 = truth[t0][agent_id]
            obs1 = observed[t0 + 1].get(agent_id)
            init[agent_id] = (p0, np.zeros(2) if obs1 is None else (obs1 - p0) / cfg.params.dt)
        tracker = JointTracker(init, model, filter_kind, cfg, rng, spread)
        for step in range(1, min(cfg.track_steps, n - 1 - t0) + 1):
            t = t0 + step
            tracker.step(observed[t])
            if step in cfg.tracking_horizons:
                for agent_id in agents:
                    own = truth[t].get(agent_id)
                    if own is None:
                        continue
                    others = [pos for other_id, pos in truth[t].items() if other_id != agent_id]
                    kind, dist = classify_track(tracker.mean_position(agent_id), own,
                                                others, cfg.threshold)
                    outcomes.append(TrackOutcome(agent_id, t0, step, kind, dist))

    if not outcomes:
        raise NoEligibleTrials(
            f"no track reaches a tracking horizon ({echo_list(cfg.tracking_horizons)} steps)")
    return TrackReport(outcomes, dataset=scenario.name, model=model, filter_kind=filter_kind)


@dataclass
class SweepResult:
    best: Dict[str, object]
    best_score: float
    rows: List[Tuple[Dict[str, object], float]]

    def to_csv(self, path):
        keys = sorted(self.rows[0][0]) if self.rows else []
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(keys + ["objective"]) + "\n")
            for combo, score in self.rows:
                fh.write(",".join(str(combo[k]) for k in keys) + f",{score:.6f}\n")


def sweep(grid: Dict[str, Sequence], scenarios: Sequence[Scenario],
          objective: str = "mean_error", base: Optional[ProtocolConfig] = None,
          model: str = "rvo+", filter_kind: str = "hpf", seed: int = 0,
          traces: Optional[Sequence[Optional[Trace]]] = None) -> SweepResult:
    """Exhaustive search over protocol keys (`PROTOCOL_KEYS`).

    A combination runs one protocol per scenario, observing ``traces[i]``, or
    ground truth where it or ``traces`` is None: ``mean_error`` minimizes the
    prediction protocol's overall average, ``st`` maximizes successful tracks.
    Ties keep the first combination in enumeration order.  Every combination,
    and the number of traces, is validated before the first one runs.
    """
    if objective not in ("mean_error", "st"):
        raise ValueError("objective must be 'mean_error' or 'st'")
    if not scenarios:
        raise ValueError("sweep needs at least one scenario")
    traces = [None] * len(scenarios) if traces is None else traces
    if len(traces) != len(scenarios):
        raise ValueError(f"sweep got {len(traces)} traces for {len(scenarios)} scenarios")
    if "rvo.dt" in grid:
        raise ConfigError("rvo.dt", "a sweep runs at its scenarios' dt and cannot vary it")
    base = base or ProtocolConfig()
    keys = sorted(grid)
    combos = [dict(zip(keys, values)) for values in itertools.product(*(grid[k] for k in keys))]
    configs = [configure(base, combo) for combo in combos]
    rows: List[Tuple[Dict[str, object], float]] = []
    best = None
    best_score = None
    for combo, cfg in zip(combos, configs):
        scores = []
        for scenario, trace in zip(scenarios, traces):
            if objective == "mean_error":
                report = run_prediction_protocol(scenario, model, filter_kind, cfg, seed, trace)
                scores.append(report.overall_average())
            else:
                report = run_tracking_protocol(scenario, trace, model, filter_kind, cfg, seed)
                scores.append(-float(report.counts()[0]))
        score = float(np.mean(scores))
        rows.append((combo, score))
        if best_score is None or score < best_score:
            best_score = score
            best = combo
    return SweepResult(best=best, best_score=best_score, rows=rows)

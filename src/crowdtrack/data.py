"""Trajectory ingestion, canonical scenarios and synthetic scenario generation.

Scenarios are ground-plane trajectories sampled at a fixed interval,
typically 0.4 s.  The canonical on-disk format (``csv-fixy``) is a CSV with
header ``frame,id,x,y`` preceded by optional ``# key = value`` metadata
lines; the ETH-style ``obsmat`` layout is supported read-only.  Synthetic
scenarios are produced by simulating avoidance agents toward assigned goals,
so they carry known ground-truth desired velocities; a seed whose simulation
brings two agents closer than their radii allow is rejected.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .motion import BodySpec
from .rvo import RvoParams, as_vec, crowd_step


class MalformedRow(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class NonMonotoneFrames(ValueError):
    pass


class EmptyFile(ValueError):
    pass


class OverlappingScenario(ValueError):
    """A generated scenario brings two agents closer than their radii allow."""


@dataclass
class Frame:
    """One time slice: (agent id, position) entries with unique ids."""

    time_index: int
    entries: List[Tuple[int, np.ndarray]]

    def __post_init__(self):
        ids = [agent_id for agent_id, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate agent ids in frame {self.time_index}")

    def position_of(self, agent_id: int) -> Optional[np.ndarray]:
        for aid, pos in self.entries:
            if aid == agent_id:
                return pos
        return None

    @property
    def ids(self):
        return [agent_id for agent_id, _ in self.entries]


@dataclass
class Scenario:
    """Timed ground-plane trajectory set at fixed dt."""

    dt: float
    frames: List[Frame]
    name: str = ""
    meta: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("dt must be > 0")
        times = [f.time_index for f in self.frames]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise NonMonotoneFrames("frame time indices must be strictly increasing")

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def agent_ids(self):
        ids = set()
        for f in self.frames:
            ids.update(f.ids)
        return sorted(ids)

    def positions_by_agent(self) -> Dict[int, Dict[int, np.ndarray]]:
        """agent id -> {frame position in self.frames order -> position}."""
        tracks: Dict[int, Dict[int, np.ndarray]] = {}
        for k, frame in enumerate(self.frames):
            for agent_id, pos in frame.entries:
                tracks.setdefault(agent_id, {})[k] = pos
        return tracks

    def goal_of(self, agent_id: int) -> Optional[np.ndarray]:
        raw = self.meta.get(f"goal.{agent_id}")
        if raw is None:
            return None
        x, y = (float(part) for part in raw.split(","))
        return np.array([x, y])


@dataclass
class Observation:
    """One (possibly missing) position measurement with its provenance tag."""

    position: Optional[np.ndarray]
    tag: str  # clean | noisy | occluded


@dataclass
class ObservationTrace:
    """Per-frame, per-agent observations aligned to a scenario's frames."""

    frames: List[Dict[int, Observation]]

    def get(self, frame_pos: int, agent_id: int) -> Optional[Observation]:
        return self.frames[frame_pos].get(agent_id)


def _parse_meta(line: str):
    body = line.lstrip("#").strip()
    if "=" not in body:
        return None
    key, value = body.split("=", 1)
    return key.strip(), value.strip()


def _parse_csv_fixy(text: str, name: str) -> Scenario:
    meta: Dict[str, str] = {}
    rows = []
    seen = set()
    header_seen = False
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parsed = _parse_meta(line)
            if parsed:
                meta[parsed[0]] = parsed[1]
            continue
        if not header_seen:
            if line != "frame,id,x,y":
                raise MalformedRow(lineno, f"expected header 'frame,id,x,y', got '{line}'")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise MalformedRow(lineno, f"expected 4 fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            agent_id = int(parts[1])
            x = float(parts[2])
            y = float(parts[3])
        except ValueError as exc:
            raise MalformedRow(lineno, str(exc)) from None
        if not (np.isfinite(x) and np.isfinite(y)):
            raise MalformedRow(lineno, "non-finite position")
        if (frame, agent_id) in seen:
            raise MalformedRow(lineno, f"duplicate (frame, id) = ({frame}, {agent_id})")
        seen.add((frame, agent_id))
        if rows and frame < rows[-1][0]:
            raise NonMonotoneFrames(f"line {lineno}: frame {frame} after frame {rows[-1][0]}")
        rows.append((frame, agent_id, x, y))
    if not rows:
        raise EmptyFile("no data rows")

    frames: List[Frame] = []
    for frame_idx, agent_id, x, y in rows:
        if frames and frames[-1].time_index == frame_idx:
            frames[-1].entries.append((agent_id, np.array([x, y])))
        else:
            frames.append(Frame(frame_idx, [(agent_id, np.array([x, y]))]))
    # Re-validate per-frame id uniqueness after grouping.
    frames = [Frame(f.time_index, f.entries) for f in frames]
    raw_dt = meta.pop("dt", "0.4")
    try:
        dt = float(raw_dt)
    except ValueError:
        raise ValueError(f"dt must be a number, got '{raw_dt}'") from None
    name = meta.pop("name", name)
    return Scenario(dt=dt, frames=frames, name=name, meta=meta)


def _parse_obsmat(text: str, name: str) -> Scenario:
    """ETH-style rows `frame id x z y vx vz vy`; only (x, y) are used.

    Raw frame numbers are compressed to consecutive indices in order.
    """
    entries: Dict[int, List[Tuple[int, np.ndarray]]] = {}
    any_row = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise MalformedRow(lineno, f"expected 8 whitespace-separated fields, got {len(parts)}")
        try:
            frame = int(float(parts[0]))
            agent_id = int(float(parts[1]))
            x = float(parts[2])
            y = float(parts[4])
        except ValueError as exc:
            raise MalformedRow(lineno, str(exc)) from None
        if not (np.isfinite(x) and np.isfinite(y)):
            raise MalformedRow(lineno, "non-finite position")
        entries.setdefault(frame, []).append((agent_id, np.array([x, y])))
        any_row = True
    if not any_row:
        raise EmptyFile("no data rows")
    frames = [Frame(idx, entries[raw_frame])
              for idx, raw_frame in enumerate(sorted(entries))]
    return Scenario(dt=0.4, frames=frames, name=name)


def _check_finite_motion(scenario: Scenario):
    """Reject a dt or 1/dt that is not finite, or a non-finite frame-to-frame velocity."""
    if not (np.isfinite(scenario.dt) and np.isfinite(1.0 / scenario.dt)):
        raise ValueError(f"dt must be finite with a finite reciprocal, got {scenario.dt}")
    for before, after in zip(scenario.frames, scenario.frames[1:]):
        previous = dict(before.entries)
        for agent_id, pos in after.entries:
            if agent_id not in previous:
                continue
            with np.errstate(over="ignore"):
                velocity = (pos - previous[agent_id]) / scenario.dt
            if not np.all(np.isfinite(velocity)):
                raise ValueError(f"agent {agent_id}: displacement / dt must be finite, from "
                                 f"frame {before.time_index} to {after.time_index}")


def parse_trajectories(path, fmt: str = "csv-fixy") -> Scenario:
    """Load a trajectory file into a canonical Scenario.

    Raises ``ValueError`` on malformed rows and on a dt or a frame-to-frame
    velocity that is not finite.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    if fmt == "csv-fixy":
        scenario = _parse_csv_fixy(text, name)
    elif fmt == "obsmat":
        scenario = _parse_obsmat(text, name)
    else:
        raise ValueError(f"unknown format '{fmt}' (use 'csv-fixy' or 'obsmat')")
    _check_finite_motion(scenario)
    return scenario


def write_trajectories(scenario: Scenario, path):
    """Write a Scenario in the canonical csv-fixy layout (round-trips exactly)."""
    buf = io.StringIO()
    buf.write(f"# dt = {scenario.dt!r}\n")
    if scenario.name:
        buf.write(f"# name = {scenario.name}\n")
    for key in sorted(scenario.meta):
        buf.write(f"# {key} = {scenario.meta[key]}\n")
    buf.write("frame,id,x,y\n")
    for frame in scenario.frames:
        for agent_id, pos in frame.entries:
            buf.write(f"{frame.time_index},{agent_id},{float(pos[0])!r},{float(pos[1])!r}\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())


def _goal_desired_velocity(position, goal, pref_speed, dt):
    to_goal = goal - position
    dist = float(np.linalg.norm(to_goal))
    if dist < 1e-12:
        return np.zeros(2)
    speed = min(pref_speed, dist / dt)
    return to_goal / dist * speed


def simulate_goal_driven(starts, goals, steps: int, dt: float,
                         body: BodySpec = BodySpec(),
                         params: Optional[RvoParams] = None,
                         pref_speed: float = 1.3, substeps: int = 4,
                         fixed_desired: bool = False) -> np.ndarray:
    """Simulate avoidance agents walking toward fixed goals.

    Returns positions with shape (steps + 1, n, 2) sampled at dt.  The
    simulation itself runs at dt/substeps so dense crossings stay
    collision-free even when the recording interval is coarse.

    With ``fixed_desired`` each agent keeps the constant desired velocity
    aimed from its start at its goal and walks on past it; the default
    re-aims every step and decays the speed near arrival so agents stop at
    their goals.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    sim_dt = dt / substeps
    if params is None:
        params = RvoParams(dt=sim_dt)
    else:
        params = RvoParams(params.time_horizon_tau, sim_dt, params.neighbor_radius)
    starts = [as_vec(s, "start") for s in starts]
    goals = [as_vec(g, "goal") for g in goals]
    n = len(starts)
    if len(goals) != n:
        raise ValueError("need one goal per start")
    radii = np.full(n, body.radius)
    max_speeds = np.full(n, body.max_speed)
    states = np.zeros((n, 6))
    for i, (start, goal) in enumerate(zip(starts, goals)):
        states[i, 0:2] = start
        states[i, 4:6] = _goal_desired_velocity(start, goal, pref_speed, sim_dt)
    out = np.empty((steps + 1, n, 2))
    out[0] = states[:, 0:2]
    for t in range(steps):
        for _ in range(substeps):
            if not fixed_desired:
                for i, goal in enumerate(goals):
                    states[i, 4:6] = _goal_desired_velocity(states[i, 0:2], goal, pref_speed, sim_dt)
            states = crowd_step(states, radii, max_speeds, params)
        out[t + 1] = states[:, 0:2]
    return out


def _min_gap(positions: np.ndarray) -> float:
    """Smallest distance between two agents of (frames, n, 2) positions."""
    first, second = np.triu_indices(positions.shape[1], 1)
    diff = positions[:, first] - positions[:, second]
    return float(np.sqrt(np.min(np.sum(diff * diff, axis=2), initial=np.inf)))


def _scenario_from_rollout(positions: np.ndarray, goals, dt: float, name: str,
                           pref_speed: float) -> Scenario:
    frames = [Frame(t, [(i, positions[t, i].copy()) for i in range(positions.shape[1])])
              for t in range(positions.shape[0])]
    meta = {f"goal.{i}": f"{float(g[0])!r},{float(g[1])!r}" for i, g in enumerate(goals)}
    meta["pref_speed"] = repr(float(pref_speed))
    return Scenario(dt=dt, frames=frames, name=name, meta=meta)


def make_scenario(kind: str, n_agents: int, seed: int, steps: Optional[int] = None,
                  dt: float = 0.4, body: BodySpec = BodySpec(),
                  params: Optional[RvoParams] = None,
                  pref_speed: float = 1.3,
                  substeps: Optional[int] = None) -> Scenario:
    """Deterministic synthetic scenario of a given kind.

    head_on   -- two opposing groups on parallel lanes walking through each other
    crossing  -- two perpendicular flows crossing mid-scene
    circle    -- agents on a circle exchanging to antipodal goals
    corridor  -- one platoon on closely spaced lanes, same direction

    Sparse kinds simulate directly at dt (the dynamics then match a predictor
    stepping at the annotation rate); the dense circle exchange refines the
    simulation step to stay collision-free.  Raises
    :class:`OverlappingScenario` when two agents still come closer than
    ``2 * body.radius - 1e-6`` in a recorded frame (circle-8 seeds 18, 106
    and 12005 do).
    """
    if n_agents < 1:
        raise ValueError("n_agents must be >= 1")
    rng = np.random.default_rng(seed)
    starts: List[np.ndarray] = []
    goals: List[np.ndarray] = []

    if kind == "head_on":
        span = 8.0
        for i in range(n_agents):
            lane = (i // 2) * 1.2
            if i % 2 == 0:
                starts.append(np.array([-span, lane]))
                goals.append(np.array([span + 4.0, lane]))
            else:
                starts.append(np.array([span, lane]))
                goals.append(np.array([-span - 4.0, lane]))
        default_steps = 44
    elif kind == "crossing":
        span = 12.5
        # Lane offsets and arrival staggers vary independently per seed, so
        # the pass geometry (who yields, by how much) differs across seeds
        # while staying clear of full deadlock.
        lanes = rng.uniform(-0.25, 0.25, size=n_agents)
        stagger = rng.uniform(0.0, 0.5, size=n_agents)
        for i in range(n_agents):
            lane = (i // 2) * 0.8 + lanes[i]
            if i % 2 == 0:
                starts.append(np.array([-span - stagger[i], lane]))
                goals.append(np.array([span + 12.0, lane]))
            else:
                starts.append(np.array([lane, -span - stagger[i]]))
                goals.append(np.array([lane, span + 12.0]))
        default_steps = 44
    elif kind == "circle":
        radius = max(4.0, 0.9 * n_agents)
        angles = 2.0 * np.pi * np.arange(n_agents) / n_agents
        angles = angles + rng.uniform(-0.05, 0.05, size=n_agents)
        # Radial stagger desynchronizes arrivals at the center, which keeps
        # the symmetric exchange from gridlocking.
        radii = radius + rng.uniform(-0.3, 0.3, size=n_agents)
        for a, r in zip(angles, radii):
            starts.append(r * np.array([np.cos(a), np.sin(a)]))
            goals.append(-radius * np.array([np.cos(a), np.sin(a)]))
        default_steps = int(np.ceil(3.0 * radius / (pref_speed * dt)))
    elif kind == "corridor":
        gaps = rng.uniform(-0.3, 0.3, size=n_agents)
        for i in range(n_agents):
            lane = 0.4 * i
            starts.append(np.array([-8.0 + gaps[i], lane]))
            goals.append(np.array([20.0, lane]))
        default_steps = 44
    else:
        raise ValueError(f"unknown scenario kind '{kind}'")

    steps = default_steps if steps is None else steps
    if substeps is None:
        substeps = 4 if kind == "circle" else 1
    # Sparse kinds keep a constant desired velocity (walkers pass through);
    # the circle exchange needs goal re-aiming to actually arrive.
    fixed_desired = kind != "circle"
    positions = simulate_goal_driven(starts, goals, steps, dt, body, params,
                                     pref_speed, substeps=substeps,
                                     fixed_desired=fixed_desired)
    # RVO is collision-free only while every velocity program is feasible;
    # the least-violation fallback can let a dense crossing overlap.
    gap = _min_gap(positions)
    if gap < 2.0 * body.radius - 1e-6:
        raise OverlappingScenario(
            f"seed {seed}: {kind} agents come {gap:.6f} m apart, closer than "
            f"their radius sum {2.0 * body.radius!r} m")
    return _scenario_from_rollout(positions, goals, dt, f"{kind}-{n_agents}-{seed}", pref_speed)


def corrupt(scenario: Scenario, noise_sigma: float,
            occlusions: Sequence[Tuple[int, int, int]] = (), seed: int = 0) -> ObservationTrace:
    """Noisy/occluded observation stream for a scenario.

    ``occlusions`` entries are (agent_id, start, length) in frame positions;
    occluded entries keep no position.  Deterministic per seed.
    """
    n = scenario.n_frames
    for agent_id, start, length in occlusions:
        if start < 0 or length < 0 or start + length > n:
            raise ValueError(f"occlusion window ({agent_id}, {start}, {length}) outside scenario span")
    occluded = set()
    for agent_id, start, length in occlusions:
        for k in range(start, start + length):
            occluded.add((k, agent_id))
    rng = np.random.default_rng(seed)
    tag = "clean" if noise_sigma == 0.0 else "noisy"
    frames = []
    for k, frame in enumerate(scenario.frames):
        obs = {}
        for agent_id, pos in frame.entries:
            if (k, agent_id) in occluded:
                obs[agent_id] = Observation(None, "occluded")
            else:
                noisy = pos + rng.standard_normal(2) * noise_sigma
                obs[agent_id] = Observation(noisy, tag)
        frames.append(obs)
    return ObservationTrace(frames)

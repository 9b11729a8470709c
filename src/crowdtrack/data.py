"""Trajectory ingestion, canonical scenarios and synthetic scenario generation.

Scenarios are ground-plane trajectories sampled at a fixed interval,
typically 0.4 s.  The canonical on-disk format (``csv-fixy``) is a CSV with
header ``frame,id,x,y`` preceded by optional ``# key = value`` metadata
lines; the ETH-style ``obsmat`` layout is supported read-only.  Synthetic
scenarios (`make_scenario`) are produced by simulating avoidance agents toward
assigned goals, so they carry known ground-truth desired velocities.  The kind
sets the simulation: the dense circle runs four substeps per dt and re-aims
its agents at their goals, the sparse kinds step once per dt on fixed desired
velocities.  The clock is checked before anything divides by it, and a seed
whose simulation brings two agents closer than their radii allow is rejected.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .motion import BodySpec
from .rvo import RvoParams, check_fields, crowd_step

#: Preferred walking speed of generated agents (m/s), recorded in each scenario's meta.
PREF_SPEED = 1.3

#: Most recorded steps `make_scenario` simulates.  The circle's default count grows
#: as 1 / dt; at this bound the 8-agent circle records 1.3 MB in 40,000 crowd steps.
MAX_STEPS = 10_000

#: Observations aligned to a scenario's frames: item k maps each agent id of the
#: k-th frame to its observed position, or to None while occluded.
Trace = List[Dict[int, Optional[np.ndarray]]]

#: Most frames in a row in which no agent is observed that a trajectory file may
#: imply; a longer gap is read as a typo, and the grid stays within 101 frames a row.
MAX_EMPTY_FRAMES = 100


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


class NonFiniteMotion(ValueError):
    """A position or frame-to-frame displacement / dt that is not finite."""


@dataclass
class Frame:
    """One time slice: (agent id, position) entries with unique ids."""

    time_index: int
    entries: List[Tuple[int, np.ndarray]]

    def __post_init__(self):
        ids = [agent_id for agent_id, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate agent ids in frame {self.time_index}")

    @property
    def ids(self):
        return [agent_id for agent_id, _ in self.entries]


@dataclass
class Scenario:
    """Timed ground-plane trajectory set at a fixed dt (its range is in `rvo.DOMAINS`)."""

    dt: float
    frames: List[Frame]
    name: str = ""
    meta: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        check_fields(self)
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

    def goal_of(self, agent_id: int) -> Optional[np.ndarray]:
        raw = self.meta.get(f"goal.{agent_id}")
        if raw is None:
            return None
        x, y = (float(part) for part in raw.split(","))
        return np.array([x, y])


def _parse_meta(line: str):
    body = line.lstrip("#").strip()
    if "=" not in body:
        return None
    key, value = body.split("=", 1)
    return key.strip(), value.strip()


def _grid_frames(entries: Dict[int, List[Tuple[int, np.ndarray]]], step: int,
                 origin: int) -> List[Frame]:
    """Frames at every ``step``-th number from the first in ``entries`` to the last,
    time index (number - origin) // step; a number ``entries`` lacks is a frame in
    which no agent is observed.  Raises ValueError on a number off that grid or
    one after more than `MAX_EMPTY_FRAMES` empty frames."""
    numbers = sorted(entries)
    first = numbers[0]
    for before, number in zip([first] + numbers, numbers):
        if (number - first) % step:
            raise ValueError(f"frame {number} must lie on the grid of step {step} "
                             f"from frame {first}")
        if number - before > (MAX_EMPTY_FRAMES + 1) * step:
            raise ValueError(f"frame {number} must follow frame {before} with at most "
                             f"{MAX_EMPTY_FRAMES} empty frames between")
    return [Frame((number - origin) // step, entries.get(number, []))
            for number in range(first, numbers[-1] + 1, step)]


def _add_row(entries: Dict[int, List[Tuple[int, np.ndarray]]], seen: set, lineno: int,
             frame: int, agent_id: int, x: float, y: float):
    """Append one parsed row to ``entries`` and its (frame, id) to ``seen``; raise
    MalformedRow at ``lineno`` on a non-finite position or a repeated (frame, id)."""
    if not (np.isfinite(x) and np.isfinite(y)):
        raise MalformedRow(lineno, "non-finite position")
    if (frame, agent_id) in seen:
        raise MalformedRow(lineno, f"duplicate (frame, id) = ({frame}, {agent_id})")
    seen.add((frame, agent_id))
    entries.setdefault(frame, []).append((agent_id, np.array([x, y])))


def _parse_csv_fixy(text: str, name: str) -> Scenario:
    meta: Dict[str, str] = {}
    entries: Dict[int, List[Tuple[int, np.ndarray]]] = {}
    last = None
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
        _add_row(entries, seen, lineno, frame, agent_id, x, y)
        if last is not None and frame < last:
            raise NonMonotoneFrames(f"line {lineno}: frame {frame} after frame {last}")
        last = frame
    if not entries:
        raise EmptyFile("no data rows")
    raw_dt = meta.pop("dt", "0.4")
    try:
        dt = float(raw_dt)
    except ValueError:
        raise ValueError(f"dt must be a number, got '{raw_dt}'") from None
    name = meta.pop("name", name)
    return Scenario(dt=dt, frames=_grid_frames(entries, 1, 0), name=name, meta=meta)


def _parse_obsmat(text: str, name: str) -> Scenario:
    """ETH-style rows `frame id x z y vx vz vy`; only (x, y) are used.

    Raw frame numbers step by their most frequent difference (one stray number
    would make the smallest 1), 0.4 s per step; the first is frame 0.  ETH's
    sequences are annotated every 0.4 s, every 6th video frame in seq_eth and
    every 10th in seq_hotel (Pellegrini et al., ICCV 2009); the rule is not
    checked on those files, none of which is in this repository.
    """
    entries: Dict[int, List[Tuple[int, np.ndarray]]] = {}
    seen = set()
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
        except (ValueError, OverflowError) as exc:  # int(inf) overflows
            raise MalformedRow(lineno, str(exc)) from None
        _add_row(entries, seen, lineno, frame, agent_id, x, y)
    if not entries:
        raise EmptyFile("no data rows")
    numbers = sorted(entries)
    steps = Counter(b - a for a, b in zip(numbers, numbers[1:]))
    step = min(steps, key=lambda d: (-steps[d], d)) if steps else 1
    return Scenario(dt=0.4, frames=_grid_frames(entries, step, numbers[0]), name=name)


def _check_finite_motion(dt: float, frames: Sequence[Tuple[int, Dict[int, np.ndarray]]]):
    """Raise NonFiniteMotion on a non-finite position, or a non-finite
    displacement / dt between consecutive frames.

    ``frames`` holds (frame time index, {agent id: position}) pairs in order.
    """
    before, previous = None, {}
    with np.errstate(over="ignore"):
        for time_index, positions in frames:
            for agent_id, (x, y) in positions.items():
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise NonFiniteMotion(f"agent {agent_id}: position must be finite, "
                                          f"in frame {time_index}")
                if agent_id in previous:
                    px, py = previous[agent_id]
                    if not (math.isfinite((x - px) / dt) and math.isfinite((y - py) / dt)):
                        raise NonFiniteMotion(f"agent {agent_id}: displacement / dt must be "
                                              f"finite, from frame {before} to {time_index}")
            before, previous = time_index, positions


def parse_trajectories(path, fmt: str = "csv-fixy") -> Scenario:
    """Load a trajectory file into a canonical Scenario.

    Raises ``ValueError`` on malformed rows or a dt outside its `rvo.DOMAINS`
    range, and `NonFiniteMotion` on a frame-to-frame velocity that is not finite.
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
    _check_finite_motion(scenario.dt, [(f.time_index, dict(f.entries)) for f in scenario.frames])
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


def _goal_desired_velocities(positions, goals, dt):
    """Desired velocities (n, 2) from ``positions`` toward ``goals``, both (n, 2).

    Each row heads for its goal at `PREF_SPEED`, slowed to reach it in one
    step of ``dt``, and is 0 within 1e-12 m of it.  A row's distance is the
    (1, 2) @ (2, 1) product numpy computes as the 1-D dot, so it has the bits
    of ``np.linalg.norm(goal - position)``; a sum of squares may round
    differently.
    """
    to_goal = goals - positions
    dist = np.sqrt(np.matmul(to_goal[:, None, :], to_goal[:, :, None])[:, :, 0])
    safe = np.maximum(dist, 1e-12)  # equals dist on every row that is kept
    vel = to_goal / safe * np.minimum(PREF_SPEED, safe / dt)
    vel[dist[:, 0] < 1e-12] = 0.0
    return vel


def min_pairwise_separation(scenario: Scenario) -> float:
    """Smallest center distance between any two agents over all frames."""
    best = np.inf
    for frame in scenario.frames:
        if len(frame.entries) < 2:
            continue
        pts = np.array([pos for _, pos in frame.entries])
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt(np.sum(diff * diff, axis=2))
        d[np.arange(len(pts)), np.arange(len(pts))] = np.inf
        best = min(best, float(d.min()))
    return best


def make_scenario(kind: str, n_agents: int, seed: int, steps: Optional[int] = None,
                  dt: float = 0.4, body: BodySpec = BodySpec()) -> Scenario:
    """Deterministic synthetic scenario of a given kind.

    head_on   -- two opposing groups on parallel lanes walking through each other
    crossing  -- two perpendicular flows crossing mid-scene
    circle    -- agents on a circle exchanging to antipodal goals
    corridor  -- one platoon on closely spaced lanes, same direction

    Avoidance agents with default `RvoParams` walk at `PREF_SPEED` toward
    their goals, recorded every dt; the kind sets the simulation.  Sparse kinds
    step directly at dt (the dynamics then match a predictor stepping at the
    annotation rate) and keep the desired velocity aimed from each start at
    its goal, so walkers pass through.  The dense circle exchange runs four
    substeps per dt to stay collision-free and re-aims every substep, slowing
    near arrival, so agents stop at their goals.

    The clock is checked first: a dt whose simulation step (dt / 4 for the
    circle) lies outside its `rvo.DOMAINS` range raises ValueError starting
    with ``dt``.  A negative step count, or one above `MAX_STEPS` (given or
    the kind's default), raises ValueError before anything is simulated.  Raises
    :class:`OverlappingScenario` when two agents still come closer than
    ``2 * body.radius - 1e-6`` in a recorded frame (circle-8 seeds 18, 106
    and 12005 do).
    """
    if n_agents < 1:
        raise ValueError("n_agents must be >= 1")
    circle = kind == "circle"
    substeps = 4 if circle else 1
    try:
        params = RvoParams(dt=dt / substeps)
    except ValueError as exc:
        if not circle:
            raise
        raise ValueError(f"dt / {substeps} substeps: {exc}") from None
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
        start_radii = radius + rng.uniform(-0.3, 0.3, size=n_agents)
        for a, r in zip(angles, start_radii):
            starts.append(r * np.array([np.cos(a), np.sin(a)]))
            goals.append(-radius * np.array([np.cos(a), np.sin(a)]))
        default_steps = int(np.ceil(3.0 * radius / (PREF_SPEED * dt)))
    elif kind == "corridor":
        gaps = rng.uniform(-0.3, 0.3, size=n_agents)
        for i in range(n_agents):
            lane = 0.4 * i
            starts.append(np.array([-8.0 + gaps[i], lane]))
            goals.append(np.array([20.0, lane]))
        default_steps = 44
    else:
        raise ValueError(f"unknown scenario kind '{kind}'")

    if steps is None:
        if default_steps > MAX_STEPS:
            raise ValueError(f"dt = {dt!r} s gives {default_steps} steps, above {MAX_STEPS}")
        steps = default_steps
    elif steps < 0:
        raise ValueError("steps must be >= 0")
    elif steps > MAX_STEPS:
        raise ValueError(f"steps must be <= {MAX_STEPS}, got {steps}")
    goals = np.array(goals)
    radii = np.full(n_agents, body.radius)
    max_speeds = np.full(n_agents, body.max_speed)
    states = np.zeros((n_agents, 6))
    states[:, 0:2] = starts
    states[:, 4:6] = _goal_desired_velocities(states[:, 0:2], goals, params.dt)
    positions = np.empty((steps + 1, n_agents, 2))
    positions[0] = states[:, 0:2]
    for t in range(steps):
        for _ in range(substeps):
            if circle:
                states[:, 4:6] = _goal_desired_velocities(states[:, 0:2], goals, params.dt)
            states = crowd_step(states, radii, max_speeds, params)
        positions[t + 1] = states[:, 0:2]
    frames = [Frame(t, [(i, positions[t, i].copy()) for i in range(n_agents)])
              for t in range(steps + 1)]
    meta = {f"goal.{i}": f"{float(g[0])!r},{float(g[1])!r}" for i, g in enumerate(goals)}
    meta["pref_speed"] = repr(PREF_SPEED)
    scenario = Scenario(dt=dt, frames=frames, name=f"{kind}-{n_agents}-{seed}", meta=meta)
    # RVO is collision-free only while every velocity program is feasible;
    # the least-violation fallback can let a dense crossing overlap.
    gap = min_pairwise_separation(scenario)
    if gap < 2.0 * body.radius - 1e-6:
        raise OverlappingScenario(
            f"seed {seed}: {kind} agents come {gap:.6f} m apart, closer than "
            f"their radius sum {2.0 * body.radius!r} m")
    return scenario


@np.errstate(over="ignore")
def corrupt(scenario: Scenario, noise_sigma: float,
            occlusions: Sequence[Tuple[int, int, int]] = (), seed: int = 0) -> Trace:
    """Noisy/occluded observation trace for a scenario (see `Trace`).

    ``occlusions`` entries are (agent_id, start, length) in frame positions;
    an occluded agent is observed as None.  Deterministic per seed.  Raises
    ``ValueError`` on a window outside the span or for an agent id in no
    frame, and `NonFiniteMotion` when the noisy positions fail
    `parse_trajectories`' finite-motion rule.
    """
    n = scenario.n_frames
    agent_ids = set(scenario.agent_ids)
    occluded = set()
    for agent_id, start, length in occlusions:
        window = f"occlusion window ({agent_id}, {start}, {length})"
        if start < 0 or length < 0 or start + length > n:
            raise ValueError(f"{window} outside scenario span")
        if agent_id not in agent_ids:
            raise ValueError(f"{window} names agent {agent_id}, which appears in no frame")
        occluded.update((k, agent_id) for k in range(start, start + length))
    rng = np.random.default_rng(seed)
    frames = []
    for k, frame in enumerate(scenario.frames):
        frames.append({agent_id: None if (k, agent_id) in occluded
                       else pos + rng.standard_normal(2) * noise_sigma
                       for agent_id, pos in frame.entries})
    _check_finite_motion(scenario.dt, [
        (frame.time_index, {agent_id: pos for agent_id, pos in observed.items() if pos is not None})
        for frame, observed in zip(scenario.frames, frames)])
    return frames

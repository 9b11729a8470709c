"""Output checks made from the benchmark's own computations.

Every check returns a list of failure messages; an empty list passes.  The
expected values are derived here from the scenario and the protocol
constants, never from stored copies of earlier outputs.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Protocol constants of the default ProtocolConfig, restated so the expected
# counts do not come from the code under test.
START_STRIDE = 16
LEARN_STEPS = 10
PREDICT_STEPS = 30
PREDICTION_HORIZONS = (5, 15, 30)
TRACK_STEPS = 24
TRACKING_HORIZONS = (16, 24)
THRESHOLD = 0.5
OUTCOMES = ("success", "id_switch", "lost")


def presence(frames):
    """List of agent-id sets, one per frame, from (agent id, position) entries."""
    return [{agent_id for agent_id, _ in entries} for entries in frames]


def expected_tracks(present):
    """Horizon -> number of track outcomes the tracking protocol must report."""
    n = len(present)
    counts = {h: 0 for h in TRACKING_HORIZONS}
    for t0 in range(0, n, START_STRIDE):
        if t0 + 1 >= n:
            continue
        agents = present[t0] & present[t0 + 1]
        horizon = min(TRACK_STEPS, n - 1 - t0)
        for h in TRACKING_HORIZONS:
            if h <= horizon:
                counts[h] += len(agents & present[t0 + h])
    return counts


def expected_trials(present):
    """Horizon -> number of (trial, agent) errors the prediction protocol averages."""
    n = len(present)
    counts = {h: 0 for h in PREDICTION_HORIZONS}
    for t0 in range(0, n, START_STRIDE):
        learn_end = t0 + LEARN_STEPS
        if learn_end + 1 > n:
            continue
        eligible = set.intersection(*present[t0:learn_end + 1])
        available = min(PREDICT_STEPS, n - 1 - learn_end)
        for h in PREDICTION_HORIZONS:
            if h <= available:
                counts[h] += len(eligible & present[learn_end + h])
    return counts


def filter_frames(present, kind):
    """Crowd frames a protocol filters: JointTracker steps over all its trials."""
    n = len(present)
    total = 0
    for t0 in range(0, n, START_STRIDE):
        if kind == "track":
            if t0 + 1 < n and present[t0] & present[t0 + 1]:
                total += min(TRACK_STEPS, n - 1 - t0)
        elif t0 + LEARN_STEPS + 1 <= n and set.intersection(*present[t0:t0 + LEARN_STEPS + 1]):
            total += LEARN_STEPS
    return total


def check_track_rows(rows, expected):
    """rows: horizon -> (st, ids, lost, n_tracks) as reported."""
    failures = []
    if sorted(rows) != sorted(h for h, n in expected.items() if n > 0):
        failures.append(f"track horizons {sorted(rows)} != expected "
                        f"{sorted(h for h, n in expected.items() if n > 0)}")
    for h, (st, ids, lost, n_tracks) in sorted(rows.items()):
        if min(st, ids, lost) < 0:
            failures.append(f"N={h}: negative count in {(st, ids, lost)}")
        if st + ids + lost != n_tracks:
            failures.append(f"N={h}: st+ids+lost = {st + ids + lost} != n_tracks {n_tracks}")
        if n_tracks != expected.get(h):
            failures.append(f"N={h}: n_tracks {n_tracks} != derived {expected.get(h)}")
    return failures


def check_outcomes(outcomes, threshold=THRESHOLD):
    """outcomes: (kind, distance) pairs; the kind must agree with the distance rule."""
    failures = []
    for kind, distance in outcomes:
        if kind not in OUTCOMES:
            failures.append(f"unknown outcome kind {kind!r}")
        elif not (math.isfinite(distance) and distance >= 0.0):
            failures.append(f"{kind} with distance {distance!r}")
        elif (kind == "lost") != (distance > threshold):
            failures.append(f"{kind} at distance {distance!r} breaks the {threshold} m rule")
    return failures


def check_prediction_rows(rows, expected):
    """rows: horizon -> (mean_error_m, n_trials) as reported."""
    failures = []
    if sorted(rows) != sorted(expected):
        failures.append(f"prediction horizons {sorted(rows)} != {sorted(expected)}")
    for h, (err, n_trials) in sorted(rows.items()):
        if n_trials != expected.get(h):
            failures.append(f"L={h}: n_trials {n_trials} != derived {expected.get(h)}")
        if n_trials > 0 and not (math.isfinite(err) and err >= 0.0):
            failures.append(f"L={h}: mean error {err!r} over {n_trials} trials")
    return failures


def parse_report_csv(text, key_column, value_columns):
    """Read a report.csv into {int(key): tuple of values} with the header checked."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    missing = [c for c in (key_column, *value_columns) if c not in header]
    if missing:
        raise ValueError(f"report header {header} lacks {missing}")
    rows = {}
    for line in lines[1:]:
        fields = dict(zip(header, line.split(",")))
        rows[int(fields[key_column])] = tuple(
            int(fields[c]) if c != "mean_error_m" else float(fields[c]) for c in value_columns)
    return rows


def parse_canonical_csv(text):
    """Independent reader of csv-fixy: (metadata dict, [(frame, id, x, y), ...])."""
    meta = {}
    rows = []
    header_seen = False
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif not header_seen:
            if line != "frame,id,x,y":
                raise ValueError(f"unexpected header {line!r}")
            header_seen = True
        elif line:
            frame, agent_id, x, y = line.split(",")
            rows.append((int(frame), int(agent_id), float(x), float(y)))
    return meta, rows


def check_roundtrip(meta, rows, dt, frames):
    """The file read back must equal the in-memory scenario exactly.

    frames: [(time index, [(agent id, position), ...]), ...] of the scenario.
    """
    failures = []
    if float(meta.get("dt", "nan")) != dt:
        failures.append(f"dt {meta.get('dt')!r} != {dt!r}")
    expected = [(t, agent_id, float(pos[0]), float(pos[1]))
                for t, entries in frames for agent_id, pos in entries]
    if len(rows) != len(expected):
        failures.append(f"{len(rows)} rows read back, scenario has {len(expected)}")
    for got, want in zip(rows, expected):
        if got != want:
            failures.append(f"row {got} != scenario {want}")
            break
    return failures


def min_separation(positions):
    """Smallest centre distance between two agents over all frames; positions (T, N, 2)."""
    diff = positions[:, :, None, :] - positions[:, None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=3))
    n = positions.shape[1]
    dist[:, np.arange(n), np.arange(n)] = np.inf
    return float(dist.min())


def check_separation(positions, radius_sum, tol=1e-6):
    sep = min_separation(positions)
    if sep < radius_sum - tol:
        return [f"min pairwise separation {sep!r} < {radius_sum} - {tol}"]
    return []


def check_speeds(velocities, max_speed):
    """Every returned velocity must lie within the speed limit (1e-9 relative slack)."""
    speeds = np.sqrt(np.sum(velocities * velocities, axis=1))
    if not np.all(speeds <= max_speed * (1.0 + 1e-9)):
        return [f"velocity of speed {float(np.max(speeds))!r} > max_speed {max_speed!r}"]
    return []


def reversed_beyond_noise(better, worse, z=3.0):
    """True if `better` exceeds `worse` on average by more than z standard errors.

    better/worse are paired per-scenario values where the paper expects
    better <= worse.  Plain inequality of the means is reported for
    information; only a reversal that noise cannot explain fails.
    """
    d = np.asarray(better, dtype=np.float64) - np.asarray(worse, dtype=np.float64)
    if d.size < 2:
        return False
    se = float(d.std(ddof=1)) / math.sqrt(d.size)
    return float(d.mean()) > z * se


def check_prediction_ordering(lin, rvo, hpf):
    """HPF <= RVO+ <= LIN at L=30, per-scenario errors paired by seed."""
    failures = []
    if reversed_beyond_noise(rvo, lin):
        failures.append(f"RVO+ L=30 error {np.mean(rvo):.4f} exceeds LIN {np.mean(lin):.4f} "
                        "beyond 3 standard errors")
    if reversed_beyond_noise(hpf, rvo):
        failures.append(f"HPF L=30 error {np.mean(hpf):.4f} exceeds RVO+ {np.mean(rvo):.4f} "
                        "beyond 3 standard errors")
    return failures


def check_tracking_ordering(pf_st, hpf_st):
    """HPF ST >= PF ST, successful tracks paired by seed."""
    if reversed_beyond_noise(-np.asarray(hpf_st, dtype=np.float64),
                             -np.asarray(pf_st, dtype=np.float64)):
        return [f"HPF successful tracks {int(np.sum(hpf_st))} below PF {int(np.sum(pf_st))} "
                "beyond 3 standard errors"]
    return []


def digest(text):
    """Short content digest of a report, recorded for information only."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

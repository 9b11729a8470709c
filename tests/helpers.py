"""Independent oracles shared by the test modules.

These deliberately avoid the library's incremental algorithms: containment
is checked by dense time sampling, boundary projection by dense grids over
the cone pieces, and the constrained velocity choice by dense polar sampling
of the feasible set plus golden-section refinement.  The filters' j-step
prediction is checked against the plain per-block, per-hop loop, the
mixture weights against the per-block code they were first written as, and
the scalar crowd step against its masked-array loop over the row kernel.
"""

import numpy as np

from crowdtrack import kernels
from crowdtrack.filters import LOG_UNDERFLOW, predict_blocks
from crowdtrack.motion import predict_mean_batch, sample_transition_batch


def time_sampling_contains(rel_pos, r_sum, tau, rel_vel, n=1000):
    """Collision test by sampling t over (0, tau] at tau/n steps."""
    ts = np.linspace(tau / n, tau, n)
    pts = ts[:, None] * np.asarray(rel_vel)[None, :]
    d = np.linalg.norm(pts - np.asarray(rel_pos)[None, :], axis=1)
    return bool(np.any(d < r_sum))


def analytic_min_separation(rel_pos, tau, rel_vel):
    """Closed-form min over t in (0, tau] of |t v - x| (for boundary-case skipping)."""
    x = np.asarray(rel_pos, dtype=float)
    v = np.asarray(rel_vel, dtype=float)
    vv = float(v @ v)
    if vv == 0.0:
        return float(np.linalg.norm(x))
    t = float(v @ x) / vv
    t = min(max(t, 0.0), tau)
    if t == 0.0:
        return float(np.linalg.norm(x))
    return float(np.linalg.norm(t * v - x))


def vo_boundary_samples(rel_pos, r_sum, tau, extent, step=1e-3):
    """Dense samples of the truncated-cone boundary (legs + arc)."""
    c = np.asarray(rel_pos, dtype=float) / tau
    rho = r_sum / tau
    c_norm = np.linalg.norm(c)
    axis = c / c_norm
    sin_half = rho / c_norm
    cos_half = np.sqrt(max(0.0, 1.0 - sin_half**2))
    tangent_dist = c_norm * cos_half

    def rot(vec, ang):
        ca, sa = np.cos(ang), np.sin(ang)
        return np.array([ca * vec[0] - sa * vec[1], sa * vec[0] + ca * vec[1]])

    half = np.arcsin(min(1.0, sin_half))
    pieces = []
    s_max = tangent_dist + extent
    s = np.arange(tangent_dist, s_max, step)
    for sign in (+1.0, -1.0):
        leg_dir = rot(axis, sign * half)
        pieces.append(s[:, None] * leg_dir[None, :])
    phi_max = np.arccos(min(1.0, sin_half))
    phis = np.arange(-phi_max, phi_max + step, step)
    arc = np.stack([c + rho * rot(-axis, p) for p in phis])
    pieces.append(arc)
    return np.vstack(pieces)


def grid_project_boundary(rel_pos, r_sum, tau, rel_vel, step=1e-3):
    """Closest boundary point to the relative velocity by grid search."""
    v = np.asarray(rel_vel, dtype=float)
    extent = np.linalg.norm(v) + np.linalg.norm(np.asarray(rel_pos) / tau) + r_sum / tau + 1.0
    samples = vo_boundary_samples(rel_pos, r_sum, tau, extent, step)
    d = np.linalg.norm(samples - v[None, :], axis=1)
    i = int(np.argmin(d))
    return samples[i], float(d[i])


def row_dots(a, b):
    """Dot products of the rows of ``a`` (n, 2) with ``b`` ((2,) or (n, 2)), each
    rounded as the 1-D ``a[i] @ b[i]`` is; one (n, 2) @ (2,) product may round
    differently."""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def feasible_mask(candidates, points, normals, max_speed, tol=1e-12):
    ok = np.linalg.norm(candidates, axis=1) <= max_speed + tol
    for p, nvec in zip(points, normals):
        ok &= row_dots(candidates - p[None, :], nvec) >= -tol
    return ok


def _zoom_min(fn, lo, hi, rounds=12, pts=64):
    """Nested-grid minimization of ``fn`` (values at an array of parameters);
    robust to +inf (infeasible) plateaus."""
    best_t = None
    best_f = np.inf
    for _ in range(rounds):
        ts = np.linspace(lo, hi, pts)
        fs = fn(ts)
        i = int(np.argmin(fs))
        if fs[i] < best_f:
            best_f = fs[i]
            best_t = ts[i]
        if not np.isfinite(fs[i]):
            break
        step = (hi - lo) / (pts - 1)
        lo = ts[i] - step
        hi = ts[i] + step
    return best_t


def project_oracle(points, normals, max_speed, v_desire, n_samples=4096):
    """Projection of v_desire onto the feasible set by dense sampling + refinement.

    Returns the best point found, or None when no sampled point is feasible.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    normals = np.asarray(normals, dtype=float).reshape(-1, 2)
    v_desire = np.asarray(v_desire, dtype=float)

    def dist(v):
        return float(np.linalg.norm(v - v_desire))

    def feasible(v):
        return bool(feasible_mask(v[None, :], points, normals, max_speed)[0])

    best = None
    # Interior candidates.
    for cand in (v_desire,
                 v_desire * (max_speed / max(np.linalg.norm(v_desire), 1e-300))):
        if feasible(cand) and (best is None or dist(cand) < dist(best)):
            best = cand.copy()

    pieces = []
    # Each half-plane boundary line, parametrized by arc length around the
    # point closest to the origin (covers the whole disc chord).
    for p, nvec in zip(points, normals):
        d = np.array([nvec[1], -nvec[0]])
        t_mid = -float(p @ d)
        ts = np.linspace(t_mid - max_speed * 1.01, t_mid + max_speed * 1.01, n_samples)
        pieces.append((lambda t, p=p, d=d: p + np.outer(np.atleast_1d(t), d).squeeze(), ts))
    # The speed-disc boundary, parametrized by angle.
    thetas = np.linspace(-np.pi, np.pi, n_samples, endpoint=False)
    pieces.append((lambda t: max_speed * np.stack([np.cos(np.atleast_1d(t)),
                                                   np.sin(np.atleast_1d(t))], axis=-1).squeeze(), thetas))

    for param_fn, ts in pieces:
        cands = np.atleast_2d(param_fn(ts))
        ok = feasible_mask(cands, points, normals, max_speed)
        if not np.any(ok):
            continue
        d = np.where(ok, np.linalg.norm(cands - v_desire[None, :], axis=1), np.inf)
        i = int(np.argmin(d))
        lo = ts[max(i - 1, 0)]
        hi = ts[min(i + 1, len(ts) - 1)]

        def fn(ts, param_fn=param_fn):
            vs = np.atleast_2d(param_fn(ts))
            ok = feasible_mask(vs, points, normals, max_speed)
            diff = vs - v_desire[None, :]
            return np.where(ok, np.sqrt(row_dots(diff, diff)), np.inf)

        t_star = _zoom_min(fn, lo, hi)
        for t in (t_star, ts[i]):
            if t is None:
                continue
            v = np.asarray(param_fn(t), dtype=float)
            if feasible(v) and (best is None or dist(v) < dist(best)):
                best = v.copy()
    return best


def max_violation(vs, points, normals, max_speed):
    """Largest constraint violation depth at each velocity row of ``vs`` ((n, 2), or
    one velocity (2,)); speed is handled by clamping in tests."""
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    worst = np.zeros(len(vs))
    for p, nvec in zip(points, normals):
        worst = np.maximum(worst, -row_dots(vs - p, nvec))
    return worst


def kalman_filter_lin(observations, dt, scales, sigma_obs, m0, P0):
    """Exact Kalman filter for the linear constant-velocity state model.

    State [px, py, vx, vy, dx, dy]; p' = p + v dt, v and d random walks;
    observation is the position with isotropic noise.  Returns per-step
    posterior means (T, 6) and covariances (T, 6, 6).
    """
    F = np.eye(6)
    F[0, 2] = dt
    F[1, 3] = dt
    Q = np.diag(np.asarray(scales, dtype=float) ** 2)
    H = np.zeros((2, 6))
    H[0, 0] = 1.0
    H[1, 1] = 1.0
    R = sigma_obs**2 * np.eye(2)
    m = np.asarray(m0, dtype=float).copy()
    P = np.asarray(P0, dtype=float).copy()
    means, covs = [], []
    for y in observations:
        m = F @ m
        P = F @ P @ F.T + Q
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        m = m + K @ (np.asarray(y) - H @ m)
        P = (np.eye(6) - K @ H) @ P
        means.append(m.copy())
        covs.append(P.copy())
    return np.array(means), np.array(covs)


def random_lp_instance(rng):
    """Seeded random constrained-velocity instance (1-8 half-planes).

    Most instances keep the origin feasible (normals flipped inward) so the
    mix contains both solvable and empty feasible regions.
    """
    n = int(rng.integers(1, 9))
    max_speed = float(rng.uniform(0.5, 3.0))
    points = rng.uniform(-1.2 * max_speed, 1.2 * max_speed, size=(n, 2))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if rng.random() < 0.7:
        for i in range(n):
            if float((np.zeros(2) - points[i]) @ normals[i]) < 0.0:
                normals[i] = -normals[i]
    v_desire = rng.uniform(-1.5 * max_speed, 1.5 * max_speed, size=2)
    return points, normals, max_speed, v_desire


def transition(model, states, ctx, noise, rng):
    """One sampled transition at ``ctx.params.dt``: its own mean computation and its
    own normal draw."""
    means = predict_mean_batch(model, states, ctx)
    return sample_transition_batch(means, rng.standard_normal(means.shape), noise)


def hpf_predict_j(history, j, model, noise, rng):
    """Block j from scratch: the posterior from j steps back through j transitions,
    each hop with the context stored at the time it starts from, and its dt."""
    states = history.posterior(j).states
    for back in range(j, 0, -1):
        states = transition(model, states, history.context(back), noise, rng)
    return states


def _logsumexp(a):
    m = float(np.max(a))
    if not np.isfinite(m):
        return m
    return m + float(np.log(np.sum(np.exp(a - m))))


def _normalize_log(a):
    m = np.max(a)
    if not np.isfinite(m):
        return np.full(a.shape, 1.0 / a.size)
    w = np.exp(a - m)
    return w / w.sum()


def mixture_update_per_block(history, obs, obs_model, cfg, model, noise, rng):
    """`filters.mixture_update` block by block, one 1-D array per block, as it
    was first written: the oracle for the row-reduction version."""
    k_eff = min(len(history), cfg.order_k)
    pi = np.asarray(cfg.pi[:k_eff], dtype=np.float64)
    pi = pi / pi.sum()
    block_states = list(predict_blocks(history, k_eff, model, noise, rng))
    logliks = [np.asarray(obs_model.log_likelihood(obs, states), dtype=np.float64)
               for states in block_states]
    with np.errstate(divide="ignore"):
        block_logprior = [np.where(w > 0.0, np.log(np.maximum(w, 1e-300)), -np.inf)
                          for w in (history.posterior(j).weights for j in range(1, k_eff + 1))]
    block_logw = [log_prior + loglik for log_prior, loglik in zip(block_logprior, logliks)]
    flagged = max([-np.inf] + [float(np.max(loglik)) for loglik in logliks]) < LOG_UNDERFLOW
    if flagged:
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


def crowd_step_oracle(states, radii, max_speeds, params):
    """`crowd_step` as a loop over agents: one `kernels.rvo_velocity_batch` call on
    each 1-row slice, with the other rows' masked arrays as its neighbours.

    `crowd_step` runs the scalar kernel and `rvo_velocity_batch` the row kernel,
    so comparing the two pits one implementation against the other."""
    states = np.asarray(states, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    max_speeds = np.asarray(max_speeds, dtype=np.float64)
    n = states.shape[0]
    new_vel = np.empty((n, 2))
    for i in range(n):
        others = np.arange(n) != i
        kernels.rvo_velocity_batch(
            states[i:i + 1], radii[i], max_speeds[i],
            states[others, 0:2], states[others, 2:4], radii[others],
            params.time_horizon_tau, params.dt, params.neighbor_radius, new_vel[i:i + 1])
    out = states.copy()
    out[:, 0:2] = states[:, 0:2] + new_vel * params.dt
    out[:, 2:4] = new_vel
    return out

"""Geometry kernels for velocity-obstacle avoidance.

The scalar kernels operate on plain floats and float64 arrays, one agent
(one particle row) at a time.  :func:`rvo_velocity_batch` is the entry point
the program calls: batches of at least :data:`BATCH_MIN_ROWS` rows run
:func:`rvo_velocity_rows`, which does the same floating-point operations
elementwise over (rows, neighbours) numpy arrays and so returns bitwise the
same velocities; smaller batches, such as the scenario generator's and the
rollout's single rows, run the scalar :func:`rvo_velocity` per row.  Every
returned velocity lies within ``max_speed`` up to rounding (relative 1e-12),
the least-violation fallback included.  Inputs are not validated here: the
callers in :mod:`crowdtrack.rvo` and :mod:`crowdtrack.motion` check them.

Conventions
-----------
* A half-plane is stored as (point, normal) with the unit normal pointing
  into the permitted side: v is permitted iff (v - point) . normal >= 0.
* The boundary direction of a half-plane is d = (n.y, -n.x), so that the
  permitted side is the left side of d.
* The truncated collision cone for relative position x, combined radius r
  and horizon tau has its apex at the origin, two tangent legs, and a
  truncation arc on the disc of radius r/tau centered at x/tau.
"""

import numpy as np

# Tolerance for parallel-direction determinants in the linear programs.
_EPS = 1e-10

#: Batches with fewer rows run the scalar kernel row by row: below about 12
#: rows numpy's per-call overhead makes the vectorised path the slower one
#: (6x slower on a 1-row call with 7 neighbours; numpy 2.4, x86-64).
BATCH_MIN_ROWS = 16


def vo_closest_boundary(rel_px, rel_py, radius_sum, tau, vx, vy):
    """Project the relative velocity onto the truncated-cone boundary.

    Returns (ux, uy, nx, ny): u is the shift from (vx, vy) to the closest
    boundary point and n the outward unit normal there.  The three boundary
    pieces are searched explicitly; ties resolve in the fixed order
    left leg, right leg, truncation arc.  Requires |x| > radius_sum.
    """
    cx = rel_px / tau
    cy = rel_py / tau
    rho = radius_sum / tau
    c_norm = np.sqrt(cx * cx + cy * cy)
    ax = cx / c_norm  # unit cone axis
    ay = cy / c_norm
    sin_half = rho / c_norm  # sine of the half-aperture
    cos2 = 1.0 - sin_half * sin_half
    if cos2 < 0.0:
        cos2 = 0.0
    cos_half = np.sqrt(cos2)
    tangent_dist = c_norm * cos_half  # origin -> tangent point distance

    best = np.inf
    bqx = 0.0
    bqy = 0.0
    bnx = 0.0
    bny = 0.0

    # Left leg: ray from the tangent point, counter-clockwise of the axis.
    ldx = cos_half * ax - sin_half * ay
    ldy = sin_half * ax + cos_half * ay
    s = vx * ldx + vy * ldy
    if s < tangent_dist:
        s = tangent_dist
    qx = s * ldx
    qy = s * ldy
    d = np.sqrt((qx - vx) * (qx - vx) + (qy - vy) * (qy - vy))
    if d < best:
        best = d
        bqx = qx
        bqy = qy
        bnx = -ldy  # outward = away from the cone axis
        bny = ldx

    # Right leg, clockwise of the axis.
    rdx = cos_half * ax + sin_half * ay
    rdy = -sin_half * ax + cos_half * ay
    s = vx * rdx + vy * rdy
    if s < tangent_dist:
        s = tangent_dist
    qx = s * rdx
    qy = s * rdy
    d = np.sqrt((qx - vx) * (qx - vx) + (qy - vy) * (qy - vy))
    if d < best:
        best = d
        bqx = qx
        bqy = qy
        bnx = rdy
        bny = -rdx

    # Truncation arc, valid on the near side between the tangent points.
    wx = vx - cx
    wy = vy - cy
    w_norm = np.sqrt(wx * wx + wy * wy)
    if w_norm < 1e-300:
        # Relative velocity exactly at the disc center: push toward the apex.
        wux = -ax
        wuy = -ay
        w_norm = 0.0
    else:
        wux = wx / w_norm
        wuy = wy / w_norm
    if wux * ax + wuy * ay <= -sin_half + 1e-12:
        d = w_norm - rho
        if d < 0.0:
            d = -d
        if d < best:
            best = d
            bqx = cx + rho * wux
            bqy = cy + rho * wuy
            bnx = wux
            bny = wuy

    return bqx - vx, bqy - vy, bnx, bny


def overlap_shift(rel_px, rel_py, radius_sum, dt, vx, vy):
    """Emergency constraint when discs already intersect.

    Pushes the relative velocity out of the disc D(x/dt, r/dt) so the discs
    separate within one time step.  Returns (ux, uy, nx, ny) like
    :func:`vo_closest_boundary`.
    """
    inv_dt = 1.0 / dt
    wx = vx - rel_px * inv_dt
    wy = vy - rel_py * inv_dt
    w_norm = np.sqrt(wx * wx + wy * wy)
    if w_norm < 1e-300:
        x_norm = np.sqrt(rel_px * rel_px + rel_py * rel_py)
        if x_norm > 0.0:
            wux = -rel_px / x_norm
            wuy = -rel_py / x_norm
        else:
            wux = 1.0
            wuy = 0.0
        w_norm = 0.0
    else:
        wux = wx / w_norm
        wuy = wy / w_norm
    mag = radius_sum * inv_dt - w_norm
    return mag * wux, mag * wuy, wux, wuy


def lp1(points, normals, index, radius, opt_x, opt_y, direction_opt, res_x, res_y):
    """Optimum restricted to the boundary line of constraint `index`.

    Intersects the line with the speed disc and with constraints
    0..index-1, then places the optimum on the resulting segment.  Returns
    (ok, x, y); ok is False when the segment is empty.
    """
    px = points[index, 0]
    py = points[index, 1]
    nx = normals[index, 0]
    ny = normals[index, 1]
    dx = ny
    dy = -nx
    dot_pd = px * dx + py * dy
    disc = dot_pd * dot_pd + radius * radius - px * px - py * py
    if disc < 0.0:
        # The constraint line misses the speed disc entirely.
        return False, res_x, res_y
    root = np.sqrt(disc)
    t_left = -dot_pd - root
    t_right = -dot_pd + root

    for j in range(index):
        denom = dx * normals[j, 0] + dy * normals[j, 1]
        num = (px - points[j, 0]) * normals[j, 0] + (py - points[j, 1]) * normals[j, 1]
        if -_EPS < denom < _EPS:
            if num < 0.0:
                return False, res_x, res_y
            continue
        t = -num / denom
        if denom > 0.0:
            if t > t_left:
                t_left = t
        else:
            if t < t_right:
                t_right = t
        if t_left > t_right:
            return False, res_x, res_y

    if direction_opt:
        if opt_x * dx + opt_y * dy > 0.0:
            t = t_right
        else:
            t = t_left
    else:
        t = (opt_x - px) * dx + (opt_y - py) * dy
        if t < t_left:
            t = t_left
        elif t > t_right:
            t = t_right
    return True, px + t * dx, py + t * dy


def lp2(points, normals, count, radius, opt_x, opt_y, direction_opt):
    """Incremental 2D program: closest point to the objective in the feasible set.

    Constraints are processed in the given order; whenever the current
    optimum violates one, it is re-projected onto that constraint's boundary
    (lp1).  Returns (fail_index, x, y) with fail_index == count on success.
    """
    if direction_opt:
        # opt is a unit direction: start on the disc boundary.
        res_x = opt_x * radius
        res_y = opt_y * radius
    else:
        opt_norm2 = opt_x * opt_x + opt_y * opt_y
        if opt_norm2 > radius * radius:
            scale = radius / np.sqrt(opt_norm2)
            res_x = opt_x * scale
            res_y = opt_y * scale
        else:
            res_x = opt_x
            res_y = opt_y

    for i in range(count):
        if (res_x - points[i, 0]) * normals[i, 0] + (res_y - points[i, 1]) * normals[i, 1] < 0.0:
            ok, new_x, new_y = lp1(points, normals, i, radius, opt_x, opt_y, direction_opt, res_x, res_y)
            if not ok:
                return i, res_x, res_y
            res_x = new_x
            res_y = new_y
    return count, res_x, res_y


def lp3(points, normals, count, begin, radius, res_x, res_y):
    """Fallback program: minimize the largest violation depth.

    Runs when the feasible region is empty.  Starting from the last lp2
    iterate, each still-violated constraint is relaxed together with the
    previously processed ones through their bisector lines, keeping all
    violation depths equal to the smallest achievable maximum.  The result
    is put back on the speed disc when it lies outside by more than rounding.
    """
    distance = 0.0
    proj_p = np.empty((count, 2))
    proj_n = np.empty((count, 2))
    for i in range(begin, count):
        if (points[i, 0] - res_x) * normals[i, 0] + (points[i, 1] - res_y) * normals[i, 1] > distance:
            dix = normals[i, 1]
            diy = -normals[i, 0]
            m = 0
            for j in range(i):
                djx = normals[j, 1]
                djy = -normals[j, 0]
                determinant = dix * djy - diy * djx
                if -_EPS <= determinant <= _EPS:
                    if dix * djx + diy * djy > 0.0:
                        # Same direction: constraint j is redundant here.
                        continue
                    ppx = 0.5 * (points[i, 0] + points[j, 0])
                    ppy = 0.5 * (points[i, 1] + points[j, 1])
                else:
                    t = (djx * (points[i, 1] - points[j, 1]) - djy * (points[i, 0] - points[j, 0])) / determinant
                    ppx = points[i, 0] + t * dix
                    ppy = points[i, 1] + t * diy
                bdx = djx - dix
                bdy = djy - diy
                b_norm = np.sqrt(bdx * bdx + bdy * bdy)
                bdx /= b_norm
                bdy /= b_norm
                proj_p[m, 0] = ppx
                proj_p[m, 1] = ppy
                proj_n[m, 0] = -bdy
                proj_n[m, 1] = bdx
                m += 1
            fail, cand_x, cand_y = lp2(proj_p, proj_n, m, radius, normals[i, 0], normals[i, 1], True)
            if fail >= m:
                # In exact arithmetic this program is always feasible; keep
                # the previous iterate if rounding says otherwise.
                res_x = cand_x
                res_y = cand_y
            distance = (points[i, 0] - res_x) * normals[i, 0] + (points[i, 1] - res_y) * normals[i, 1]
    # Two nearly antiparallel constraints meet on a bisector point far out
    # (about 1e4 m/s), and lp1's disc then loses about 1e-8 to cancellation,
    # so the iterate can land beyond the speed disc by far more than
    # rounding.  Put it back on the disc; iterates off by only rounding stay.
    speed = np.sqrt(res_x * res_x + res_y * res_y)
    if speed > radius * (1.0 + 1e-12):
        scale = radius / speed
        res_x = res_x * scale
        res_y = res_y * scale
    return res_x, res_y


def solve_velocity_kernel(points, normals, count, max_speed, des_x, des_y):
    """Closest admissible velocity to the desired one.

    Returns (feasible, vx, vy).  When the half-plane intersection with the
    speed disc is empty, (vx, vy) is the least-violation fallback.
    """
    fail, res_x, res_y = lp2(points, normals, count, max_speed, des_x, des_y, False)
    if fail < count:
        res_x, res_y = lp3(points, normals, count, fail, max_speed, res_x, res_y)
        return False, res_x, res_y
    return True, res_x, res_y


def build_halfplanes(px, py, vx, vy, radius, nbr_pos, nbr_vel, nbr_rad,
                     tau, dt, neighbor_radius, out_points, out_normals):
    """Fill one permitted-velocity half-plane per neighbor in range.

    Each agent takes half of the required relative-velocity change, so the
    plane passes through v + u/2.  Overlapping neighbors produce the
    emergency separation constraint instead of the cone projection.
    Returns the number of planes written.
    """
    count = 0
    for k in range(nbr_pos.shape[0]):
        rel_px = nbr_pos[k, 0] - px
        rel_py = nbr_pos[k, 1] - py
        dist2 = rel_px * rel_px + rel_py * rel_py
        if dist2 > neighbor_radius * neighbor_radius:
            continue
        r_sum = radius + nbr_rad[k]
        rvx = vx - nbr_vel[k, 0]
        rvy = vy - nbr_vel[k, 1]
        if dist2 < r_sum * r_sum:
            ux, uy, nx, ny = overlap_shift(rel_px, rel_py, r_sum, dt, rvx, rvy)
        else:
            ux, uy, nx, ny = vo_closest_boundary(rel_px, rel_py, r_sum, tau, rvx, rvy)
        out_points[count, 0] = vx + 0.5 * ux
        out_points[count, 1] = vy + 0.5 * uy
        out_normals[count, 0] = nx
        out_normals[count, 1] = ny
        count += 1
    return count


def rvo_velocity(px, py, vx, vy, des_x, des_y, radius, max_speed,
                 nbr_pos, nbr_vel, nbr_rad, tau, dt, neighbor_radius):
    """One collision-avoiding velocity choice for a single agent.

    Returns (feasible, vx_new, vy_new).
    """
    n = nbr_pos.shape[0]
    pts = np.empty((n, 2))
    nms = np.empty((n, 2))
    count = build_halfplanes(px, py, vx, vy, radius, nbr_pos, nbr_vel, nbr_rad,
                             tau, dt, neighbor_radius, pts, nms)
    return solve_velocity_kernel(pts, nms, count, max_speed, des_x, des_y)


def rvo_velocity_batch(states, radius, max_speed, nbr_pos, nbr_vel, nbr_rad,
                       tau, dt, neighbor_radius, out_vel):
    """RVO velocity for a batch of particle states (M, 6) sharing one neighbor set.

    State layout per row: [px, py, vx, vy, des_x, des_y].  Fills ``out_vel``
    (M, 2) in place.  Calls with at least :data:`BATCH_MIN_ROWS` rows run
    :func:`rvo_velocity_rows`; smaller ones run :func:`rvo_velocity` per row.
    Both give bitwise the same velocities.
    """
    if states.shape[0] >= BATCH_MIN_ROWS:
        rvo_velocity_rows(states, radius, max_speed, nbr_pos, nbr_vel, nbr_rad,
                          tau, dt, neighbor_radius, out_vel)
        return
    for i in range(states.shape[0]):
        _, ox, oy = rvo_velocity(states[i, 0], states[i, 1], states[i, 2], states[i, 3],
                                 states[i, 4], states[i, 5], radius, max_speed,
                                 nbr_pos, nbr_vel, nbr_rad, tau, dt, neighbor_radius)
        out_vel[i, 0] = ox
        out_vel[i, 1] = oy


# ---------------------------------------------------------------------------
# Vectorised batch path.  Each function below is the elementwise twin of a
# scalar kernel above: every ``if`` is an ``np.where`` on the same predicate,
# over the same expressions in the same operand order, so each element is
# computed with exactly the scalar code's floating-point operations.  Arrays
# are (rows, neighbours); neighbour slots out of range stay in place and are
# masked, where the scalar code compacts them away.

def _vo_closest_boundary_rows(rel_px, rel_py, radius_sum, tau, vx, vy):
    """Elementwise :func:`vo_closest_boundary` (NaN where |x| = 0)."""
    cx = rel_px / tau
    cy = rel_py / tau
    rho = radius_sum / tau
    c_norm = np.sqrt(cx * cx + cy * cy)
    ax = cx / c_norm
    ay = cy / c_norm
    sin_half = rho / c_norm
    cos2 = 1.0 - sin_half * sin_half
    cos2 = np.where(cos2 < 0.0, 0.0, cos2)
    cos_half = np.sqrt(cos2)
    tangent_dist = c_norm * cos_half

    ldx = cos_half * ax - sin_half * ay
    ldy = sin_half * ax + cos_half * ay
    s = vx * ldx + vy * ldy
    s = np.where(s < tangent_dist, tangent_dist, s)
    qx = s * ldx
    qy = s * ldy
    d = np.sqrt((qx - vx) * (qx - vx) + (qy - vy) * (qy - vy))
    take = d < np.inf
    best = np.where(take, d, np.inf)
    bqx = np.where(take, qx, 0.0)
    bqy = np.where(take, qy, 0.0)
    bnx = np.where(take, -ldy, 0.0)
    bny = np.where(take, ldx, 0.0)

    rdx = cos_half * ax + sin_half * ay
    rdy = -sin_half * ax + cos_half * ay
    s = vx * rdx + vy * rdy
    s = np.where(s < tangent_dist, tangent_dist, s)
    qx = s * rdx
    qy = s * rdy
    d = np.sqrt((qx - vx) * (qx - vx) + (qy - vy) * (qy - vy))
    take = d < best
    best = np.where(take, d, best)
    bqx = np.where(take, qx, bqx)
    bqy = np.where(take, qy, bqy)
    bnx = np.where(take, rdy, bnx)
    bny = np.where(take, -rdx, bny)

    wx = vx - cx
    wy = vy - cy
    w_norm = np.sqrt(wx * wx + wy * wy)
    at_center = w_norm < 1e-300
    wux = np.where(at_center, -ax, wx / w_norm)
    wuy = np.where(at_center, -ay, wy / w_norm)
    w_norm = np.where(at_center, 0.0, w_norm)
    d = w_norm - rho
    d = np.where(d < 0.0, -d, d)
    take = (wux * ax + wuy * ay <= -sin_half + 1e-12) & (d < best)
    bqx = np.where(take, cx + rho * wux, bqx)
    bqy = np.where(take, cy + rho * wuy, bqy)
    bnx = np.where(take, wux, bnx)
    bny = np.where(take, wuy, bny)
    return bqx - vx, bqy - vy, bnx, bny


def _overlap_shift_rows(rel_px, rel_py, radius_sum, dt, vx, vy):
    """Elementwise :func:`overlap_shift`."""
    inv_dt = 1.0 / dt
    wx = vx - rel_px * inv_dt
    wy = vy - rel_py * inv_dt
    w_norm = np.sqrt(wx * wx + wy * wy)
    at_center = w_norm < 1e-300
    x_norm = np.sqrt(rel_px * rel_px + rel_py * rel_py)
    apart = x_norm > 0.0
    wux = np.where(at_center, np.where(apart, -rel_px / x_norm, 1.0), wx / w_norm)
    wuy = np.where(at_center, np.where(apart, -rel_py / x_norm, 0.0), wy / w_norm)
    w_norm = np.where(at_center, 0.0, w_norm)
    mag = radius_sum * inv_dt - w_norm
    return mag * wux, mag * wuy, wux, wuy


def _halfplane_rows(states, radius, nbr_pos, nbr_vel, nbr_rad, tau, dt, neighbor_radius):
    """Elementwise :func:`build_halfplanes`: (px, py, nx, ny, in_range), each (R, N)."""
    px = states[:, 0:1]
    py = states[:, 1:2]
    vx = states[:, 2:3]
    vy = states[:, 3:4]
    rel_px = nbr_pos[:, 0] - px
    rel_py = nbr_pos[:, 1] - py
    dist2 = rel_px * rel_px + rel_py * rel_py
    in_range = ~(dist2 > neighbor_radius * neighbor_radius)  # the scalar skip, negated
    r_sum = radius + nbr_rad
    rvx = vx - nbr_vel[:, 0]
    rvy = vy - nbr_vel[:, 1]
    overlap = dist2 < r_sum * r_sum
    shift = _overlap_shift_rows(rel_px, rel_py, r_sum, dt, rvx, rvy)
    cone = _vo_closest_boundary_rows(rel_px, rel_py, r_sum, tau, rvx, rvy)
    ux, uy, nx, ny = (np.where(overlap, a, b) for a, b in zip(shift, cone))
    return vx + 0.5 * ux, vy + 0.5 * uy, nx, ny, in_range


def _lp1_rows(px, py, nx, ny, in_range, index, radius, opt_x, opt_y):
    """Elementwise :func:`lp1` with ``direction_opt`` False; returns (ok, x, y)."""
    bx = px[:, index]
    by = py[:, index]
    dx = ny[:, index]
    dy = -nx[:, index]
    dot_pd = bx * dx + by * dy
    disc = dot_pd * dot_pd + radius * radius - bx * bx - by * by
    ok = ~(disc < 0.0)
    root = np.sqrt(disc)
    t_left = -dot_pd - root
    t_right = -dot_pd + root
    for j in range(index):
        denom = dx * nx[:, j] + dy * ny[:, j]
        num = (bx - px[:, j]) * nx[:, j] + (by - py[:, j]) * ny[:, j]
        live = ok & in_range[:, j]
        parallel = (-_EPS < denom) & (denom < _EPS)
        crossing = live & ~parallel
        t = -num / denom
        rising = denom > 0.0
        t_left = np.where(crossing & rising & (t > t_left), t, t_left)
        t_right = np.where(crossing & ~rising & (t < t_right), t, t_right)
        ok &= ~(live & parallel & (num < 0.0)) & ~(crossing & (t_left > t_right))
    t = (opt_x - bx) * dx + (opt_y - by) * dy
    t = np.where(t < t_left, t_left, np.where(t > t_right, t_right, t))
    return ok, bx + t * dx, by + t * dy


def _lp2_rows(px, py, nx, ny, in_range, radius, opt_x, opt_y):
    """:func:`lp2` with ``direction_opt`` False for all rows, one constraint at a time.

    Returns (fail, x, y): ``fail`` is the failing slot, or N on success.  A
    row that fails stops there with its iterate from before that slot.
    """
    rows, n = px.shape
    opt_norm2 = opt_x * opt_x + opt_y * opt_y
    outside = opt_norm2 > radius * radius
    scale = radius / np.sqrt(opt_norm2)
    res_x = np.where(outside, opt_x * scale, opt_x)
    res_y = np.where(outside, opt_y * scale, opt_y)
    fail = np.full(rows, n)
    for k in range(n):
        violated = ((res_x - px[:, k]) * nx[:, k] + (res_y - py[:, k]) * ny[:, k] < 0.0)
        hit = np.flatnonzero(violated & in_range[:, k] & (fail == n))
        if hit.size == 0:
            continue
        ok, new_x, new_y = _lp1_rows(px[hit], py[hit], nx[hit], ny[hit], in_range[hit],
                                     k, radius, opt_x[hit], opt_y[hit])
        res_x[hit[ok]] = new_x[ok]
        res_y[hit[ok]] = new_y[ok]
        fail[hit[~ok]] = k
    return fail, res_x, res_y


def rvo_velocity_rows(states, radius, max_speed, nbr_pos, nbr_vel, nbr_rad,
                      tau, dt, neighbor_radius, out_vel):
    """Vectorised :func:`rvo_velocity_batch`, bitwise equal to the per-row kernel.

    Builds every half-plane at once, runs :func:`lp2` over all rows together
    and the scalar :func:`lp3` on the rows whose program is infeasible, on
    their compacted constraints.
    """
    with np.errstate(all="ignore"):
        px, py, nx, ny, in_range = _halfplane_rows(states, radius, nbr_pos, nbr_vel,
                                                   nbr_rad, tau, dt, neighbor_radius)
        fail, res_x, res_y = _lp2_rows(px, py, nx, ny, in_range, max_speed,
                                       states[:, 4], states[:, 5])
    for r in np.flatnonzero(fail < px.shape[1]):
        keep = in_range[r]
        points = np.column_stack((px[r, keep], py[r, keep]))
        normals = np.column_stack((nx[r, keep], ny[r, keep]))
        res_x[r], res_y[r] = lp3(points, normals, points.shape[0],
                                 int(np.count_nonzero(keep[:fail[r]])), max_speed,
                                 res_x[r], res_y[r])
    out_vel[:, 0] = res_x
    out_vel[:, 1] = res_y

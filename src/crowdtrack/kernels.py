"""Geometry kernels for velocity-obstacle avoidance.

The scalar kernels take Python floats, with half-planes and neighbours in
nested lists indexed ``[i][0]``, one agent (one particle row) at a time.
Their callers convert arrays and numbers to these types once, where they
enter: numpy scalars give the same IEEE results at several times the cost
per operation.  There is one path per caller.  A filter's particle batch
takes :func:`rvo_velocity_batch`, the row kernel: the same floating-point
operations as :func:`rvo_velocity`, elementwise over (rows, neighbours)
numpy arrays, so bitwise the same velocities at any batch size.  A crowd
step (:func:`crowdtrack.rvo.crowd_step`, the scenario generator's and the
rollout's one row per agent) converts the crowd once, builds each in-range
pair's cone once with the scalar :func:`pair_shift` (mirrored for the pair's
second agent) and solves each agent's program with the scalar
:func:`solve_velocity_kernel`, bitwise as :func:`rvo_velocity` per agent; the
row kernel likewise calls the scalar :func:`lp3` on its infeasible rows.  A
batch with no neighbour within ``neighbor_radius`` of any row, or with no
neighbours, builds no cone and runs no LP loop: each velocity is the desired
one clipped to ``max_speed``, which is :func:`rvo_velocity`'s answer with no
half-planes.

Input domain: finite inputs whose lengths, speeds and radii are 0 or have
magnitudes whose squares stay normal floats, for example within [1e-100, 1e100].
Inside it every returned velocity is finite and lies within ``max_speed`` up to
rounding (relative 1e-12), the least-violation fallback included.  Outside it
both kernels still agree bit for bit, but squares overflow or underflow and a
velocity may be nan or too fast.  Inputs are not validated here.
:data:`crowdtrack.rvo.DOMAINS` bounds radii, speed limits, the step and the
horizon; every configuration checks its fields against it, and
:func:`crowdtrack.rvo.crowd_step` its bodies and state rows.  The filters'
rows are finite where they come from: the tracker's neighbour rows from
``JointTracker._publish``, which rejects a non-finite mean.

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

import math

import numpy as np

# Tolerance for parallel-direction determinants in the linear programs.
_EPS = 1e-10


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
    c_norm = math.sqrt(cx * cx + cy * cy)
    if c_norm == 0.0:
        c_norm = np.float64(0.0)  # x / tau is 0 or too small to square: inf or nan, as in numpy
    ax = cx / c_norm  # unit cone axis
    ay = cy / c_norm
    sin_half = rho / c_norm  # sine of the half-aperture
    cos2 = 1.0 - sin_half * sin_half
    if cos2 < 0.0:
        cos2 = 0.0
    cos_half = math.sqrt(cos2)
    tangent_dist = c_norm * cos_half  # origin -> tangent point distance

    best = math.inf
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
    d = math.sqrt((qx - vx) * (qx - vx) + (qy - vy) * (qy - vy))
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
    d = math.sqrt((qx - vx) * (qx - vx) + (qy - vy) * (qy - vy))
    if d < best:
        best = d
        bqx = qx
        bqy = qy
        bnx = rdy
        bny = -rdx

    # Truncation arc, valid on the near side between the tangent points.
    wx = vx - cx
    wy = vy - cy
    w_norm = math.sqrt(wx * wx + wy * wy)
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
    w_norm = math.sqrt(wx * wx + wy * wy)
    if w_norm < 1e-300:
        x_norm = math.sqrt(rel_px * rel_px + rel_py * rel_py)
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


def pair_shift(rel_px, rel_py, dist2, radius_sum, tau, dt, vx, vy):
    """(ux, uy, nx, ny) of one agent against one neighbour at squared distance
    ``dist2``: :func:`overlap_shift` when the discs intersect, else
    :func:`vo_closest_boundary`."""
    if dist2 < radius_sum * radius_sum:
        return overlap_shift(rel_px, rel_py, radius_sum, dt, vx, vy)
    return vo_closest_boundary(rel_px, rel_py, radius_sum, tau, vx, vy)


def lp1(points, normals, index, radius, opt_x, opt_y, direction_opt):
    """Optimum restricted to the boundary line of constraint `index`.

    Intersects the line with the speed disc and with constraints
    0..index-1, then places the optimum on the resulting segment.  Returns
    (x, y), or None when the segment is empty.
    """
    px, py = points[index]
    nx, ny = normals[index]
    dx = ny
    dy = -nx
    dot_pd = px * dx + py * dy
    disc = dot_pd * dot_pd + radius * radius - px * px - py * py
    if disc < 0.0:
        # The constraint line misses the speed disc entirely.
        return None
    root = math.sqrt(disc)
    t_left = -dot_pd - root
    t_right = -dot_pd + root

    for j in range(index):
        (qx, qy), (mx, my) = points[j], normals[j]
        denom = dx * mx + dy * my
        num = (px - qx) * mx + (py - qy) * my
        if -_EPS < denom < _EPS:
            if num < 0.0:
                return None
            continue
        t = -num / denom
        if denom > 0.0:
            if t > t_left:
                t_left = t
        else:
            if t < t_right:
                t_right = t
        if t_left > t_right:
            return None

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
    return px + t * dx, py + t * dy


def lp2(points, normals, radius, opt_x, opt_y, direction_opt):
    """Incremental 2D program: closest point to the objective in the feasible set.

    Constraints are processed in the given order; whenever the current
    optimum violates one, it is re-projected onto that constraint's boundary
    (lp1).  Returns (fail_index, x, y) with fail_index == len(points) on success.
    """
    if direction_opt:
        # opt is a unit direction: start on the disc boundary.
        res_x = opt_x * radius
        res_y = opt_y * radius
    else:
        opt_norm2 = opt_x * opt_x + opt_y * opt_y
        if opt_norm2 > radius * radius:
            scale = radius / math.sqrt(opt_norm2)
            res_x = opt_x * scale
            res_y = opt_y * scale
        else:
            res_x = opt_x
            res_y = opt_y

    for i, ((px, py), (nx, ny)) in enumerate(zip(points, normals)):
        if (res_x - px) * nx + (res_y - py) * ny < 0.0:
            new = lp1(points, normals, i, radius, opt_x, opt_y, direction_opt)
            if new is None:
                return i, res_x, res_y
            res_x, res_y = new
    return len(points), res_x, res_y


def lp3(points, normals, begin, radius, res_x, res_y):
    """Fallback program: minimize the largest violation depth.

    Runs when the feasible region is empty.  Starting from the last lp2
    iterate, each still-violated constraint is relaxed together with the
    previously processed ones through their bisector lines, keeping all
    violation depths equal to the smallest achievable maximum.  The result
    is put back on the speed disc when it lies outside by more than rounding.
    """
    distance = 0.0
    for i in range(begin, len(points)):
        (pix, piy), (nix, niy) = points[i], normals[i]
        if (pix - res_x) * nix + (piy - res_y) * niy > distance:
            dix = niy
            diy = -nix
            proj_p = []
            proj_n = []
            for j in range(i):
                (pjx, pjy), (njx, njy) = points[j], normals[j]
                djx = njy
                djy = -njx
                determinant = dix * djy - diy * djx
                if -_EPS <= determinant <= _EPS:
                    if dix * djx + diy * djy > 0.0:
                        # Same direction: constraint j is redundant here.
                        continue
                    ppx = 0.5 * (pix + pjx)
                    ppy = 0.5 * (piy + pjy)
                else:
                    t = (djx * (piy - pjy) - djy * (pix - pjx)) / determinant
                    ppx = pix + t * dix
                    ppy = piy + t * diy
                bdx = djx - dix
                bdy = djy - diy
                b_norm = math.sqrt(bdx * bdx + bdy * bdy)
                if b_norm == 0.0:
                    b_norm = np.float64(0.0)  # two zero normals: 0 / 0 is nan, as in numpy
                bdx /= b_norm
                bdy /= b_norm
                proj_p.append([ppx, ppy])
                proj_n.append([-bdy, bdx])
            fail, cand_x, cand_y = lp2(proj_p, proj_n, radius, nix, niy, True)
            if fail >= len(proj_p):
                # In exact arithmetic this program is always feasible; keep
                # the previous iterate if rounding says otherwise.
                res_x = cand_x
                res_y = cand_y
            distance = (pix - res_x) * nix + (piy - res_y) * niy
    # Two nearly antiparallel constraints meet on a bisector point far out
    # (about 1e4 m/s), and lp1's disc then loses about 1e-8 to cancellation,
    # so the iterate can land beyond the speed disc by far more than
    # rounding.  Put it back on the disc; iterates off by only rounding stay.
    speed = math.sqrt(res_x * res_x + res_y * res_y)
    if speed > radius * (1.0 + 1e-12):
        scale = radius / speed
        res_x = res_x * scale
        res_y = res_y * scale
    return res_x, res_y


def solve_velocity_kernel(points, normals, max_speed, des_x, des_y):
    """Closest admissible velocity to the desired one.

    Returns (feasible, vx, vy).  When the half-plane intersection with the
    speed disc is empty, (vx, vy) is the least-violation fallback.
    """
    fail, res_x, res_y = lp2(points, normals, max_speed, des_x, des_y, False)
    if fail < len(points):
        res_x, res_y = lp3(points, normals, fail, max_speed, res_x, res_y)
        return False, res_x, res_y
    return True, res_x, res_y


def build_halfplanes(px, py, vx, vy, radius, nbr_pos, nbr_vel, nbr_rad,
                     tau, dt, neighbor_radius):
    """One permitted-velocity half-plane per neighbor in range: (points, normals).

    Each agent takes half of the required relative-velocity change, so the
    plane passes through v + u/2.  Overlapping neighbors produce the
    emergency separation constraint instead of the cone projection.
    """
    points = []
    normals = []
    for (qx, qy), (qvx, qvy), rad in zip(nbr_pos, nbr_vel, nbr_rad):
        rel_px = qx - px
        rel_py = qy - py
        dist2 = rel_px * rel_px + rel_py * rel_py
        if dist2 > neighbor_radius * neighbor_radius:
            continue
        ux, uy, nx, ny = pair_shift(rel_px, rel_py, dist2, radius + rad, tau, dt,
                                    vx - qvx, vy - qvy)
        points.append([vx + 0.5 * ux, vy + 0.5 * uy])
        normals.append([nx, ny])
    return points, normals


def rvo_velocity(px, py, vx, vy, des_x, des_y, radius, max_speed,
                 nbr_pos, nbr_vel, nbr_rad, tau, dt, neighbor_radius):
    """One collision-avoiding velocity choice for a single agent.

    Returns (feasible, vx_new, vy_new).
    """
    points, normals = build_halfplanes(px, py, vx, vy, radius, nbr_pos, nbr_vel, nbr_rad,
                                       tau, dt, neighbor_radius)
    return solve_velocity_kernel(points, normals, max_speed, des_x, des_y)


# ---------------------------------------------------------------------------
# Vectorised batch path.  Each function below is the elementwise twin of a
# scalar kernel above: every ``if`` is an ``np.where`` or masked write on the
# same predicate, over the same expressions in the same operand order, so each
# element is computed with exactly the scalar code's floating-point operations.
# Arrays are (rows, neighbours), or (2, rows, neighbours) for vectors.  Neighbours
# out of range for every row are dropped before the cone is built, and a batch
# left with none returns no planes; the remaining out-of-range slots are
# masked.  Temporaries die at their last use.

def _vo_closest_boundary_rows(x, radius_sum, tau, v):
    """Elementwise :func:`vo_closest_boundary` of x and v, which it only reads:
    (u, n), NaN where |x| = 0."""
    def leg(d):
        """Offset s of the closest point s * d on a leg, and its distance to v."""
        s = v[0] * d[0] + v[1] * d[1]
        s = np.where(s < tangent_dist, tangent_dist, s)
        ex = s * d[0] - v[0]
        ex *= ex
        ey = s * d[1]
        ey -= v[1]
        ex += np.multiply(ey, ey, out=ey)
        return s, np.sqrt(ex, out=ex)

    c = x / tau
    rho = radius_sum / tau
    c_norm = np.sqrt(c[0] * c[0] + c[1] * c[1])
    a = c / c_norm
    sin_half = rho / c_norm
    cos_half = 1.0 - sin_half * sin_half
    cos_half = np.sqrt(np.where(cos_half < 0.0, 0.0, cos_half))
    tangent_dist = c_norm * cos_half
    wu = v - c
    w_norm = np.sqrt(wu[0] * wu[0] + wu[1] * wu[1])
    at_center = w_norm < 1e-300
    wu /= w_norm
    np.negative(a, out=wu, where=at_center)
    w_norm[at_center] = 0.0
    d_arc = np.subtract(w_norm, rho, out=w_norm)
    d_arc = np.where(d_arc < 0.0, -d_arc, d_arc)
    d_arc = np.where(wu[0] * a[0] + wu[1] * a[1] <= -sin_half + 1e-12, d_arc, np.inf)

    # Leg directions cos a -+ sin (a_y, -a_x): the scalar sums, reordered exactly.
    sp = sin_half * a[::-1]
    sp[0] *= -1.0
    ca = np.multiply(cos_half, a, out=a)
    ld = ca + sp
    rd = np.subtract(ca, sp, out=ca)
    del a, ca, sp, sin_half, cos_half, c_norm
    s_left, best = leg(ld)
    skip = ~(best < np.inf)
    best[skip] = np.inf
    s, d = leg(rd)
    del tangent_dist
    take = d < best
    arc = d_arc < np.where(take, d, best)
    q = s_left * ld
    del d, best, d_arc, s_left
    n = ld[::-1]
    n[0] *= -1.0
    np.copyto(q, 0.0, where=skip)
    np.copyto(n, 0.0, where=skip)
    q = np.where(take, s * rd, q)
    rd[0] *= -1.0
    n = np.where(take, rd[::-1], n)
    del s, rd, skip

    n = np.where(arc, wu, n)
    q = np.where(arc, np.add(c, np.multiply(rho, wu, out=wu), out=c), q)
    return np.subtract(q, v, out=q), n


def _overlap_shift_rows(rel, radius_sum, dt, v):
    """Elementwise :func:`overlap_shift` on (2, K) stacks of x and v: (u, n)."""
    inv_dt = 1.0 / dt
    w = v - rel * inv_dt
    w_norm = np.sqrt(w[0] * w[0] + w[1] * w[1])
    at_center = w_norm < 1e-300
    x_norm = np.sqrt(rel[0] * rel[0] + rel[1] * rel[1])
    wu = np.where(at_center, np.where(x_norm > 0.0, -rel / x_norm, [[1.0], [0.0]]), w / w_norm)
    mag = radius_sum * inv_dt - np.where(at_center, 0.0, w_norm)
    return mag * wu, wu


def _halfplane_rows(states, radius, nbr_pos, nbr_vel, nbr_rad, tau, dt, neighbor_radius):
    """Elementwise :func:`build_halfplanes`: (px, py, nx, ny, in_range), each (R, N)."""
    p, v = states[:, 0:2].T[:, :, None], states[:, 2:4].T[:, :, None]
    shape = (2, states.shape[0], nbr_pos.shape[0])  # C order: numpy loops over neighbours innermost
    rel = np.subtract(nbr_pos.T[:, None, :], p, out=np.empty(shape))
    dist2 = rel[0] * rel[0] + rel[1] * rel[1]
    in_range = ~(dist2 > neighbor_radius * neighbor_radius)  # the scalar skip, negated
    if not in_range.all():  # one reduction for the common call with every pair in range
        live = in_range.any(axis=0)
        if not live.all():  # no plane for a neighbour out of range for every row
            rel, dist2, in_range = np.compress(live, rel, axis=2), dist2[:, live], in_range[:, live]
            nbr_vel, nbr_rad = nbr_vel[live], nbr_rad[live]
    if not rel.shape[2]:  # no neighbour in range of any row: no plane, and lp2 only clips
        return rel[0], rel[0], rel[0], rel[0], in_range
    r_sum = radius + nbr_rad
    rv = np.subtract(v, nbr_vel.T[:, None, :], out=np.empty(rel.shape))
    hit = np.flatnonzero(dist2 < r_sum * r_sum)  # overlapping pairs: the shift replaces the cone
    del dist2
    u, n = _vo_closest_boundary_rows(rel, r_sum, tau, rv)
    if hit.size:
        u.reshape(2, -1)[:, hit], n.reshape(2, -1)[:, hit] = _overlap_shift_rows(
            np.take(rel.reshape(2, -1), hit, axis=1), r_sum[hit % r_sum.size], dt,
            np.take(rv.reshape(2, -1), hit, axis=1))
    u *= 0.5
    u += v
    return u[0], u[1], n[0], n[1], in_range


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


def rvo_velocity_batch(states, radius, max_speed, nbr_pos, nbr_vel, nbr_rad,
                       tau, dt, neighbor_radius, out_vel):
    """RVO velocity for a batch of particle states (M, 6) sharing one neighbor set.

    State layout per row: [px, py, vx, vy, des_x, des_y].  Fills ``out_vel``
    (M, 2) in place, bitwise equal to :func:`rvo_velocity` per row.  Builds
    every half-plane at once, for the neighbours in range of at least one row,
    runs :func:`lp2` over all rows together and the scalar :func:`lp3` on the
    rows whose program is infeasible, on their compacted constraints.
    Dropping a neighbour out of range for every row changes no bit: the LPs
    skip out-of-range slots, and lp3's start, the count of in-range slots
    before the failing one, stays the same.  When none is left, or there
    were none, there is no half-plane: no cone is built, lp2 only clips the
    desired velocity to ``max_speed`` and no row reaches lp1 or lp3.  The
    filters run every particle batch through this, whatever its size;
    `crowdtrack.rvo.crowd_step` takes the scalar kernels.
    """
    with np.errstate(all="ignore"):
        px, py, nx, ny, in_range = _halfplane_rows(states, radius, nbr_pos, nbr_vel,
                                                   nbr_rad, tau, dt, neighbor_radius)
        fail, res_x, res_y = _lp2_rows(px, py, nx, ny, in_range, max_speed,
                                       states[:, 4], states[:, 5])
    bad = np.flatnonzero(fail < px.shape[1])
    if bad.size:  # rows whose program is infeasible
        for r, keep, f, bx, by, bnx, bny in zip(bad.tolist(), in_range[bad].tolist(), fail[bad].tolist(),
                                                px[bad].tolist(), py[bad].tolist(),
                                                nx[bad].tolist(), ny[bad].tolist()):
            points = [[x, y] for x, y, k in zip(bx, by, keep) if k]
            normals = [[x, y] for x, y, k in zip(bnx, bny, keep) if k]
            res_x[r], res_y[r] = lp3(points, normals, sum(keep[:f]), float(max_speed),
                                     float(res_x[r]), float(res_y[r]))
    out_vel[:, 0] = res_x
    out_vel[:, 1] = res_y

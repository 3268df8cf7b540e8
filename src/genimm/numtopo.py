"""Numerical topology: linking numbers, degrees, Hopf invariants, curve solving.

The engines here are chart free.  Curves produced elsewhere in the package
live on a closed hypersurface in R^4 that is star shaped about the origin,
so each curve is faithfully described by the rays through its points and can
be normalized onto the unit 3-sphere whenever a common reference is needed.
Linking numbers of curve pairs have three engines.  After a stereographic
projection to R^3, gauss_link sums the solid angles of the Gauss map over
all segment pairs exactly, and crossing_link counts the signed crossings of
a generic planar projection, certified and near linear in the number of
vertices; on the 3-sphere of rays, spherical_cone_link counts the signed
crossings through a spherical cone.  hopf_invariant traces the fibers of
a map on the (theta, r, phi) box that degree_S3 also searches, and links
each pair with gauss_link and spherical_cone_link, which must agree;
projected_link, the framing check of invariants.lk_of_family, uses
crossing_link.  A closed curve K in R^5 is linked with an immersed
3-sphere by link_1cycle_3manifold, which counts the signed crossings of
the image through the curtain {K(s) + lambda d : lambda >= 0} that K
sweeps along a direction d near e5, drawing a new direction when a
crossing is not generic.  Degree and fiber routines run batched Newton
iterations seeded from coarse grids.

Derivatives without a closed form come from the one central-difference
helper, geometry.fd_jacobian.  Every equation, square or wide, is solved by
the one batched damped Gauss-Newton, _newton: degree preimages, curtain
crossings, fiber and double-curve seeds, and both stages of the one
tracer, _trace_closed_curve, which follows closed level curves (Hopf
fibers and double-point curves) from a residual and its Jacobian alone:
the corrector of a coarse sequential predictor-corrector walk, then one
batch per refinement level for the chord midpoints; its one cover loop,
_trace_all, finds every fiber and double curve.  Converged solutions are
deduplicated by _dedupe within _DEDUPE_RADIUS.

Every sign rests on one orientation rule: the normal or the Jacobian rows
first, then the tangent or frame, make a positive basis.  The one helper
oriented_complement completes rows that way, and every frame and tangent
here comes from it: the frames normal to a value or projection direction,
the positive tangent basis of the domain, the stereographic basis (the
complement of minus the pole) and the tracer's unit tangent.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
from scipy.spatial import cKDTree

from .config import Config, DEFAULT
from .geometry import domain_constraint, fd_jacobian


class NonRegularValueError(RuntimeError):
    """Raised when a requested target value fails the regularity checks."""


@dataclasses.dataclass(frozen=True)
class SignedCount:
    """Isolated solutions of an equation together with orientation signs."""

    locations: np.ndarray
    signs: np.ndarray

    @property
    def value(self) -> int:
        return int(self.signs.sum())

    @property
    def count(self) -> int:
        return int(len(self.signs))


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _drop_duplicate_endpoint(curve):
    curve = np.asarray(curve, dtype=float)
    if curve.ndim != 2 or len(curve) < 3:
        raise ValueError("expected a closed polyline with at least 3 vertices")
    if np.linalg.norm(curve[0] - curve[-1]) < 1e-12:
        curve = curve[:-1]
    return curve


def oriented_complement(rows):
    """Orthonormal columns C spanning the complement of the rows, with
    det[rows; C^T] > 0.

    rows is one vector or a k x n matrix.  For a normal vector C is a
    positive frame of the tangent space; for the Jacobian of a curve
    {F = 0} its one column is the oriented unit tangent.  Raises
    NonRegularValueError when |det[rows; C^T]| < 1e-12, that is when the
    rows are (nearly) rank deficient.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    comp = np.linalg.qr(rows.T, mode="complete")[0][:, len(rows):]
    det = np.linalg.det(np.concatenate([rows, comp.T]))
    if abs(det) < 1e-12:
        raise NonRegularValueError("rows are rank deficient; the point or "
                                   "value is not regular")
    if det < 0:
        comp[:, 0] = -comp[:, 0]
    return comp


# ---------------------------------------------------------------------------
# linking of closed polylines in R^3


def _triangle_solid_angle(t1, t2, t3):
    num = np.einsum("...i,...i->...", t1, np.cross(t2, t3))
    den = (1.0 + np.einsum("...i,...i->...", t1, t2)
           + np.einsum("...i,...i->...", t2, t3)
           + np.einsum("...i,...i->...", t3, t1))
    return 2.0 * np.arctan2(num, den)


def gauss_link_raw(curve_a, curve_b, config: Config = DEFAULT) -> float:
    """Gauss linking integral of two closed polylines, summed exactly.

    The Gauss map g(s, t) = (a(s) - b(t)) / |a(s) - b(t)| sends the torus of
    parameter pairs to the unit sphere; its degree over one segment pair is
    the signed solid angle of a spherical quadrilateral, evaluated here with
    the arctangent formula, so the result is exact for the polylines.  With
    this Gauss map det(g, dg/ds, dg/dt) = -det(da/ds, db/dt, a - b)/|a-b|^3,
    so the right handed crossing convention is minus the accumulated angle
    over 4 pi.
    """
    a = _drop_duplicate_endpoint(curve_a)
    b = _drop_duplicate_endpoint(curve_b)
    if a.shape[1] != 3 or b.shape[1] != 3:
        raise ValueError("curves must lie in R^3")
    if cKDTree(b).query(a)[0].min() < config.min_image_separation:
        raise ValueError("curves are too close to link reliably")
    a_next = np.roll(a, -1, axis=0)
    b_next = np.roll(b, -1, axis=0)
    total = 0.0
    block = max(1, (1 << 21) // len(b))
    for lo in range(0, len(a), block):
        p0 = a[lo:lo + block, None, :]
        p1 = a_next[lo:lo + block, None, :]
        va = _unit(p0 - b[None, :, :])
        vb = _unit(p0 - b_next[None, :, :])
        vc = _unit(p1 - b_next[None, :, :])
        vd = _unit(p1 - b[None, :, :])
        total += _triangle_solid_angle(va, vd, vc).sum()
        total += _triangle_solid_angle(va, vc, vb).sum()
    return -total / (4.0 * np.pi)


def gauss_link(curve_a, curve_b, config: Config = DEFAULT) -> int:
    raw = gauss_link_raw(curve_a, curve_b, config)
    rounded = int(np.rint(raw))
    if abs(raw - rounded) > config.integer_rounding_margin:
        raise ArithmeticError(
            f"linking sum {raw:.6f} is not near an integer; "
            "the curves are under-resolved or intersect")
    return rounded


# A projected crossing closer than this fraction of either segment to one of
# its ends, or at a sine of angle below it, is not called: the direction of
# projection is replaced instead.
_CROSSING_MARGIN = 1e-6


def _projected_crossings(a, b, d, config: Config):
    """Signed a-over-b crossing count of a and b projected along d, or None.

    With (w1, w2) completing d to a positive frame, the crossing of a(s)
    over b(t) (a - b a positive multiple of d) carries sign det[a', b', d],
    the cross product of the projected tangents; summing over the crossings
    of a over b gives the linking number, and so does minus the sum over
    those of b over a.  Returns None when a crossing is within
    _CROSSING_MARGIN of a segment end, near parallel, has an over/under gap
    below config.min_image_separation, or the two sums differ.
    """
    frame = oriented_complement(d)
    a_next = np.roll(a, -1, axis=0)
    b_next = np.roll(b, -1, axis=0)
    pa, pb = a @ frame, b @ frame
    ua, ub = a_next @ frame - pa, b_next @ frame - pb
    len_a = np.linalg.norm(ua, axis=1)
    len_b = np.linalg.norm(ub, axis=1)
    mid_a, mid_b = pa + 0.5 * ua, pb + 0.5 * ub
    # a point of line a at parameter s in (-m, 1 + m) lies within
    # (1/2 + m) |ua| of the midpoint, so no pair the margin test reads is
    # dropped here
    m = _CROSSING_MARGIN
    near = cKDTree(mid_a).query_ball_tree(
        cKDTree(mid_b), (0.5 + m) * (len_a.max() + len_b.max()))
    i = np.repeat(np.arange(len(a)), [len(js) for js in near])
    j = np.fromiter(itertools.chain.from_iterable(near), dtype=int,
                    count=len(i))
    reach = (np.linalg.norm(mid_a[i] - mid_b[j], axis=1)
             <= (0.5 + m) * (len_a[i] + len_b[j]))
    i, j = i[reach], j[reach]

    def cross2(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    den = cross2(ua[i], ub[j])
    w = pb[j] - pa[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = cross2(w, ub[j]) / den
        t = cross2(w, ua[i]) / den
    # exactly parallel pairs (den = 0) give nan or inf here and count as
    # not crossing; a projected overlap ends where a vertex lies on the
    # other curve, which the margin below catches
    close = (s > -m) & (s < 1 + m) & (t > -m) & (t < 1 + m)
    clean = ((s >= m) & (s <= 1 - m) & (t >= m) & (t <= 1 - m)
             & (np.abs(den) >= m * len_a[i] * len_b[j]))
    if np.any(close & ~clean):
        return None
    i, j, s, t, den = i[clean], j[clean], s[clean], t[clean], den[clean]
    height_a = (a[i] + s[:, None] * (a_next[i] - a[i])) @ d
    height_b = (b[j] + t[:, None] * (b_next[j] - b[j])) @ d
    gap = height_a - height_b
    if np.any(np.abs(gap) < config.min_image_separation):
        return None
    sign = np.sign(den).astype(int)
    a_over_b = int(sign[gap > 0].sum())
    b_over_a = -int(sign[gap < 0].sum())
    return a_over_b if a_over_b == b_over_a else None


def crossing_link(curve_a, curve_b, config: Config = DEFAULT,
                  direction=None) -> int:
    """Linking number of two closed polylines in R^3 by crossing count.

    The signed count of crossings of a over b in a generic planar
    projection (Rolfsen, Knots and Links, 5.D), with the sign convention of
    gauss_link.  Segments are paired by a kd-tree on their projected
    midpoints within the sum of the largest projected half-lengths and
    intersected in the plane, so the cost is near linear in the number of
    vertices.  The count is certified, not rounded: a direction with a
    crossing near a vertex, a near-parallel crossing, an over/under gap
    below config.min_image_separation, or unequal a-over-b and b-over-a
    counts is replaced by a fresh one, max(1, config.apex_retries) times
    in all, after which ArithmeticError is raised.  A given direction is
    the only one tried.
    """
    a = _drop_duplicate_endpoint(curve_a)
    b = _drop_duplicate_endpoint(curve_b)
    if a.shape[1] != 3 or b.shape[1] != 3:
        raise ValueError("curves must lie in R^3")
    if cKDTree(b).query(a)[0].min() < config.min_image_separation:
        raise ValueError("curves are too close to link reliably")
    if direction is not None:
        directions = [_unit(direction)]
    else:
        rng = np.random.default_rng(config.seed + 3)
        directions = _unit(rng.normal(size=(max(1, config.apex_retries), 3)))
    for d in directions:
        total = _projected_crossings(a, b, d, config)
        if total is not None:
            return total
    raise ArithmeticError("no generic projection direction found for the "
                          "crossing count")


# ---------------------------------------------------------------------------
# stereographic projection


def stereographic_basis(pole):
    """Orthonormal (e1, e2, e3) normal to pole with det[pole, e] = -1.

    Projection from the pole then carries the outward-normal-first
    orientation of the unit 3-sphere to the standard orientation of R^3.
    """
    return oriented_complement(-np.asarray(pole, dtype=float))


def stereographic(points, pole):
    """Project unit 4-vectors from the pole onto R^3, preserving orientation."""
    points = np.asarray(points, dtype=float)
    p = _unit(np.asarray(pole, dtype=float))
    basis = stereographic_basis(p)
    denom = 1.0 - points @ p
    if np.any(np.abs(denom) < 1e-9):
        raise ValueError("points pass through the projection pole")
    return (points @ basis) / denom[..., None]


def choose_pole(curves, config: Config = DEFAULT):
    """Unit 4-vector staying far from every given curve (after normalizing)."""
    pts = _unit(np.concatenate([_drop_duplicate_endpoint(c) for c in curves]))
    rng = np.random.default_rng(config.seed)
    cands = np.concatenate([np.eye(4), -np.eye(4),
                            _unit(rng.normal(size=(60, 4)))])
    dist = np.linalg.norm(pts[None, :, :] - cands[:, None, :], axis=-1)
    return cands[dist.min(axis=1).argmax()]


def projected_link(curve_a, curve_b, config: Config = DEFAULT, pole=None) -> int:
    """Linking number of two closed curves given by rays in R^4.

    Curves are normalized onto the unit sphere, projected stereographically
    away from a pole clear of both, and linked by the certified crossing
    count of crossing_link, near linear in the number of vertices.  This is
    the engine of the framing check in invariants.lk_of_family; the Hopf
    fiber pairs are linked by gauss_link and spherical_cone_link instead.
    """
    a = _unit(_drop_duplicate_endpoint(curve_a))
    b = _unit(_drop_duplicate_endpoint(curve_b))
    if pole is None:
        pole = choose_pole([a, b], config)
    return crossing_link(stereographic(a, pole), stereographic(b, pole),
                         config)


# ---------------------------------------------------------------------------
# linking via cone crossings on the 3-sphere of rays


def _cross4(u, v, w):
    """Vector X with X . y = det[u, v, w, y] columnwise, for stacked inputs."""
    m = np.stack([u, v, w], axis=-1)
    keep = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    minors = np.stack([np.linalg.det(m[..., rows, :]) for rows in keep],
                      axis=-1)
    minors[..., 0] *= -1.0
    minors[..., 2] *= -1.0
    return minors


def _cone_crossings(apex, a, a_next, b):
    """Signed crossings of curve b through the spherical cone over curve a.

    The cone from the apex ray over an a-segment is the spherical triangle
    spanned by the three rays, parametrized by c(s, t) = (1-t) z + t a(s)
    and oriented by (dc/dt, dc/ds) so that its boundary traverses the
    segment positively.  A b-segment crosses the supporting hyperplane where
    the determinant d(u) = det[z, a_i, a_i+1, b(u)] changes sign, and lands
    inside the triangle when its coordinates in the three spanning rays are
    positive.  Tracking orientations through the radial projection onto the
    unit sphere, the crossing sign is sign(d_j+1 - d_j).  Returns None when
    a crossing is too close to a triangle edge to call.
    """
    x_vec = _cross4(np.broadcast_to(apex, a.shape), a, a_next)
    d = x_vec @ b.T
    scale = (np.linalg.norm(x_vec, axis=1, keepdims=True)
             * np.linalg.norm(b, axis=1)[None, :])

    def near_triangle(i, w, slack):
        span = np.column_stack([apex, a[i], a_next[i]])
        coeff, *_ = np.linalg.lstsq(span, w, rcond=None)
        return coeff, np.all(coeff > -slack * np.linalg.norm(w))

    # a vertex almost on a supporting hyperplane is harmless unless it is
    # also near that triangle, where the crossing count would be ambiguous
    for i, j in np.argwhere(np.abs(d) < 1e-9 * np.maximum(scale, 1e-30)):
        if near_triangle(i, b[j], 1e-6)[1]:
            return None

    d_next = np.roll(d, -1, axis=1)
    hits = np.argwhere(np.sign(d) != np.sign(d_next))
    total = 0
    for i, j in hits:
        jn = (j + 1) % d.shape[1]
        u = d[i, j] / (d[i, j] - d[i, jn])
        w = (1.0 - u) * b[j] + u * b[jn]
        coeff, inside_closed = near_triangle(i, w, 1e-9)
        if inside_closed and np.any(coeff < 1e-9 * np.linalg.norm(w)):
            return None  # crossing on a triangle edge, apex not generic
        if np.all(coeff > 0):
            total += 1 if d[i, jn] > d[i, j] else -1
    return total


def spherical_cone_link(curve_a, curve_b, config: Config = DEFAULT,
                        apex=None) -> int:
    """Linking number of two disjoint closed curves on a star-shaped 3-sphere.

    Both curves are taken up to positive radial scale, so any hypersurface
    star shaped about the origin works.  The number returned is the signed
    count of crossings of curve_b through a 2-chain coning curve_a off to an
    apex ray, equal to the Gauss-projection linking number.
    """
    a = _unit(_drop_duplicate_endpoint(curve_a))
    b = _unit(_drop_duplicate_endpoint(curve_b))
    if a.shape[1] != 4 or b.shape[1] != 4:
        raise ValueError("curves must be given by rays in R^4")
    if cKDTree(b).query(a)[0].min() < config.min_image_separation:
        raise ValueError("curves are too close to link reliably")
    a_next = np.roll(a, -1, axis=0)
    keep = np.linalg.norm(a_next - a, axis=1) > 1e-13
    a_seg, a_seg_next = a[keep], a_next[keep]
    rng = np.random.default_rng(config.seed)
    if apex is not None:
        candidates = [_unit(np.asarray(apex, dtype=float))]
    else:
        pool = _unit(rng.normal(size=(40, 4)))
        pts = np.concatenate([a, b])
        score = np.linalg.norm(pts[None] - pool[:, None], axis=-1).min(axis=1)
        candidates = list(pool[np.argsort(score)[::-1]][:config.apex_retries])
    for z in candidates:
        total = _cone_crossings(z, a_seg, a_seg_next, b)
        if total is not None:
            return total
    raise ArithmeticError("no generic apex found for the cone construction")


# ---------------------------------------------------------------------------
# degree of a map from the swept 3-sphere to S^3


def _box_axes(n):
    """theta (= phi) and cell-centred r axes of an n-point box grid."""
    return (np.linspace(0, 2 * np.pi, n, endpoint=False),
            (np.arange(n) + 0.5) * np.pi / n)


def _in_box(x):
    """Mask of the stacked (theta, r, phi) points with r inside (0, pi)."""
    return (x[:, 1] > 1e-7) & (x[:, 1] < np.pi - 1e-7)


def _box_map(map_fn, jac_fn, config: Config):
    """map_fn(theta, r, phi) and its Jacobian as functions of stacked points.

    Without jac_fn the Jacobian is taken by central differences.
    """
    def fn(p):
        return map_fn(p[..., 0], p[..., 1], p[..., 2])

    if jac_fn is None:
        def jac(p):
            return fd_jacobian(fn, p, config.fd_step)
    else:
        def jac(p):
            return jac_fn(p[..., 0], p[..., 1], p[..., 2])
    return fn, jac


# Duplicate Newton solutions agree to ~1e-8 and distinct ones are >= 0.08
# apart, both in degree_S3 and in _curtain_crossings.
_DEDUPE_RADIUS = 1e-6


def _dedupe(points, radius):
    """Indices, in order, of the points not within radius of an earlier
    kept point: the first point of each cluster."""
    tree = cKDTree(points)
    taken = np.zeros(len(points), dtype=bool)
    keep = []
    while not taken.all():
        i = int(np.argmin(taken))
        keep.append(i)
        taken[tree.query_ball_point(points[i], radius)] = True
    return np.array(keep, dtype=int)


def _periodic_key(x):
    """(theta, r, phi) box points embedded so the periodic angles wrap."""
    return np.column_stack([np.cos(x[:, 0]), np.sin(x[:, 0]), x[:, 1],
                            np.cos(x[:, 2]), np.sin(x[:, 2])])


def _newton(x, residual, jacobian, tol, config: Config):
    """Batched damped Gauss-Newton onto {F = 0}; returns (x, converged).

    residual(x, rows) -> F of shape (N, k) and jacobian(x, rows) -> J of
    shape (N, k, n) evaluate N rows of the batch, rows holding their indices
    in the original batch.  Each iteration builds J once and takes the
    minimum-norm step J^T (J J^T)^-1 F, which serves square and wide systems
    alike, then halves it up to 6 times, evaluating only the residual and
    only on the rows that have not improved yet.  A row stops when
    |det(J J^T)| <= 1e-300 or no trial point lowers its residual norm, and
    has converged once that norm is below tol.  Rows never interact, so a
    row's result does not depend on its batch.
    """
    x = np.array(x, dtype=float)
    if len(x) == 0:
        return x, np.zeros(0, dtype=bool)
    active = np.arange(len(x))
    F = residual(x, active)
    best = np.linalg.norm(F, axis=-1)
    for _ in range(config.newton_max_iter):
        active = active[best[active] >= tol]
        if len(active) == 0:
            break
        J = jacobian(x[active], active)
        Jt = np.swapaxes(J, -1, -2)
        JJt = J @ Jt
        ok = np.abs(np.linalg.det(JJt)) > 1e-300
        active, Jt, JJt = active[ok], Jt[ok], JJt[ok]
        step = (Jt @ np.linalg.solve(JJt, F[active][..., None]))[..., 0]
        pending = np.ones(len(active), dtype=bool)
        scale = 1.0
        for _ in range(6):
            idx = np.nonzero(pending)[0]
            if len(idx) == 0:
                break
            rows = active[idx]
            cand = x[rows] - scale * step[idx]
            Fc = residual(cand, rows)
            norm = np.linalg.norm(Fc, axis=-1)
            better = norm < best[rows]
            took = rows[better]
            x[took], F[took] = cand[better], Fc[better]
            best[took] = norm[better]
            pending[idx[better]] = False
            scale *= 0.5
        active = active[~pending]
    return x, best < tol


def degree_S3(map_fn, value, config: Config = DEFAULT, jac_fn=None) -> SignedCount:
    """Mapping degree at a regular value of a map (theta, r, phi) -> S^3.

    The domain is the box [0, 2pi) x [0, pi] x [0, 2pi) with periodic first
    and last coordinates.  Preimages are located by a coarse grid prefilter
    followed by _newton to config.newton_tol on the coordinates in the
    tangent chart of the value, deduplicated within _DEDUPE_RADIUS after
    embedding the periodic angles by cosine and sine, and signed by the sign
    of det[value, J columns].  Raises NonRegularValueError when any preimage
    fails the Jacobian regularity threshold.
    """
    v = _unit(np.asarray(value, dtype=float))
    fn, jac = _box_map(map_fn, jac_fn, config)
    basis = stereographic_basis(v)

    theta, r = _box_axes(config.degree_grid)
    n = len(theta)
    best = np.inf
    cand = []
    for th in theta:
        T = np.full((n, n), th)
        R, P = np.meshgrid(r, theta, indexing="ij")
        vals = map_fn(T, R, P)
        dist = np.linalg.norm(vals - v, axis=-1)
        best = min(best, dist.min())
        mask = dist < 0.35
        if mask.any():
            cand.append(np.stack([T[mask], R[mask], P[mask]], axis=-1))
    if not cand:
        if best > 0.2:
            return SignedCount(np.empty((0, 3)), np.empty(0, dtype=int))
        raise NonRegularValueError("grid approaches the value but no "
                                   "candidate cell isolates a preimage")

    def residual(p, _rows):
        return fn(p) @ basis

    def jacobian(p, _rows):
        return np.einsum("ki,...ij->...kj", basis.T, jac(p))

    x, ok = _newton(np.concatenate(cand), residual, jacobian,
                    config.newton_tol, config)
    # the chart residual also vanishes at preimages of -v
    ok &= (fn(x) @ v > 0.5) & _in_box(x)
    x = x[ok]
    if len(x) == 0:
        if best > 0.2:
            return SignedCount(np.empty((0, 3)), np.empty(0, dtype=int))
        raise NonRegularValueError("Newton lost every candidate preimage")

    reps = x[_dedupe(_periodic_key(x), _DEDUPE_RADIUS)]
    J = jac(reps)
    JF = np.einsum("ki,...ij->...kj", basis.T, J)
    if np.any(np.abs(np.linalg.det(JF)) < config.jacobian_min_det):
        raise NonRegularValueError("value is not regular: singular Jacobian "
                                   "at a preimage")
    full = np.concatenate([np.broadcast_to(v, (len(reps), 4))[..., None], J],
                          axis=-1)
    signs = np.sign(np.linalg.det(full)).astype(int)
    return SignedCount(reps, signs)


# ---------------------------------------------------------------------------
# the corrector, the curve tracer, fiber tracing and the Hopf invariant
_FIBER_GRID = 48          # seed grid points per axis of the parameter box


def positive_tangent_basis(constraint, x, config: Config) -> np.ndarray:
    """Columns: basis of the tangent space of {constraint = 0} at x that the
    outward normal, put first, completes to a positive basis of R^4."""
    return oriented_complement(fd_jacobian(constraint, x, config.fd_step))


# The halves of a bent chord of length L are longer than L / 2, by about
# (kappa L)^2 / 32 of it at curvature kappa.  A coarse chord of exactly K
# steps would therefore end its last bisection level just over step and
# take one more level, doubling the vertices; a coarse step 1% short of K
# steps absorbs kappa L up to about 0.5.
_COARSE_SHORTFALL = 0.99


def _walk(x, ends, residual, jacobian, tol, step, close_tol, skip,
          config: Config, stage):
    """Sequential predictor-corrector walk from x until it comes within
    close_tol of one of the ends; returns the points and the end reached.

    _newton corrects each predicted point to tol as a batch of one.  The
    predictor follows the oriented unit tangent t, the oriented_complement
    of the Jacobian, so det[J; t] > 0 all along the curve.  Within 1.5
    steps of an end the predictor halves the gap instead, and a failed
    correction halves the predictor step down to a tenth of
    config.trace_closure_tol.  The first skip steps neither aim at an end
    nor stop, so a walk round a closed curve leaves its start first.
    Raises ArithmeticError naming the stage after config.trace_max_steps
    steps.
    """
    pts = [x]
    for n in range(config.trace_max_steps):
        t = oriented_complement(jacobian(x[None], None)[0])[:, 0]
        h = step
        if n >= skip:
            g = np.linalg.norm(x - ends, axis=1).min()
            if g < 1.5 * step:
                h = max(g * 0.5, close_tol * 0.25)
        while True:
            cand, ok = _newton((x + h * t)[None], residual, jacobian, tol,
                               config)
            h *= 0.5
            if ok[0]:
                break
            if h <= config.trace_closure_tol * 0.1:
                raise ArithmeticError(f"{stage}: the corrector failed to "
                                      "converge")
        x = cand[0]
        pts.append(x)
        if n >= skip:
            g = np.linalg.norm(x - ends, axis=1)
            if g.min() < close_tol:
                return np.array(pts), ends[np.argmin(g)]
    raise ArithmeticError(f"{stage}: no end reached in "
                          f"{config.trace_max_steps} steps")


def _rejected_midpoints(a, b, z, converged, J):
    """Rows whose corrected midpoint z of the chord a -> b fails its
    certificate: z did not converge, moved more than half the chord from
    its midpoint, leaves a half-chord not shorter than the chord, or has
    det[J(z); chord] <= 0.  That determinant keeps its sign along a regular
    curve, so a flip means z landed on another branch.
    """
    c = b - a
    length = np.linalg.norm(c, axis=1)
    moved = np.linalg.norm(z - 0.5 * (a + b), axis=1)
    half = np.maximum(np.linalg.norm(z - a, axis=1),
                      np.linalg.norm(b - z, axis=1))
    det = np.linalg.det(np.concatenate([J, c[:, None, :]], axis=1))
    return ~converged | (moved > 0.5 * length) | (half >= length) | (det <= 0)


def _trace_closed_curve(start, residual, jacobian, tol, step, config: Config,
                        shifts):
    """A closed regular curve {F = 0} through start, sampled with chords
    at most step long; returns the vertices and the number of rejected
    midpoints.

    The residual and jacobian are those of _newton.  A coarse _walk with
    K = config.trace_coarse_factor goes round the curve at just under K
    times step (_COARSE_SHORTFALL) until it returns, within K times
    config.trace_closure_tol, to start modulo one of the shift vectors,
    which list the period lattice (just the zero vector for a curve in
    R^n).  Then, one level at a time, the midpoint of every chord longer
    than step, the closing chord to the shifted start included, is
    corrected in one _newton batch onto the curve and the hyperplane that
    bisects its chord (Allgower and Georg, Numerical Continuation Methods,
    1990).  A midpoint that fails _rejected_midpoints has the arc of its
    chord re-traced by a _walk at step instead.
    """
    k = config.trace_coarse_factor
    pts, end = _walk(start, start + np.asarray(shifts), residual, jacobian,
                     tol, _COARSE_SHORTFALL * k * step,
                     k * config.trace_closure_tol, 6, config, "coarse walk")
    rejected = 0
    while True:
        chord = np.diff(pts, axis=0, append=end[None])
        long = np.nonzero(np.linalg.norm(chord, axis=1) > step)[0]
        if len(long) == 0:
            return pts, rejected
        a, c = pts[long], chord[long]
        mid = a + 0.5 * c

        def bisected(z, rows):
            return np.column_stack([residual(z, rows),
                                    ((z - mid[rows]) * c[rows]).sum(axis=1)])

        def bisected_jacobian(z, rows):
            return np.concatenate([jacobian(z, rows), c[rows, None, :]],
                                  axis=1)

        z, ok = _newton(mid, bisected, bisected_jacobian, tol, config)
        bad = _rejected_midpoints(a, a + c, z, ok,
                                  jacobian(z, np.arange(len(z))))
        at, new = [long[~bad] + 1], [z[~bad]]
        for i in long[bad]:
            arc = _walk(pts[i], pts[i] + chord[i][None], residual, jacobian,
                        tol, step, step, 0, config,
                        "re-trace of a rejected chord")[0][1:]
            at.append(np.full(len(arc), i + 1))
            new.append(arc)
        rejected += int(bad.sum())
        pts = np.insert(pts, np.concatenate(at), np.concatenate(new), axis=0)


def _trace_all(points, residual, jacobian, tol, step, config: Config, shifts,
               swap=None):
    """Every closed level curve through the points, each traced once.

    The points lie on the level set: the callers refine their seeds in one
    _newton batch first.  The first point not yet covered is traced by
    _trace_closed_curve; then every point within 3 step of the curve moved
    by a shift, or given swap, of its coordinate-swapped copy, is covered."""
    curves = []
    covered = np.zeros(len(points), dtype=bool)
    while not covered.all():
        curve = _trace_closed_curve(points[np.argmin(covered)], residual,
                                    jacobian, tol, step, config, shifts)[0]
        curves.append(curve)
        copies = [curve] if swap is None else [curve, curve[:, swap]]
        tree = cKDTree(np.concatenate([c + s for c in copies for s in shifts]))
        covered |= tree.query(points)[0] < 3 * step
    return curves


def _fibers_param(map_fn, v, config: Config, jac_fn=None):
    """All fiber components of map_fn over v in the (theta, r, phi) box."""
    fn, jac = _box_map(map_fn, jac_fn, config)
    W = oriented_complement(v)

    def residual(x, _rows):
        return (fn(x) - v) @ W

    def jacobian(x, _rows):
        return W.T @ jac(x)

    theta, r = _box_axes(_FIBER_GRID)
    T, R, P = np.meshgrid(theta, r, theta, indexing="ij")
    vals = map_fn(T, R, P)
    mask = np.linalg.norm(vals - v, axis=-1) < 0.3
    seeds = np.stack([T[mask], R[mask], P[mask]], axis=-1)
    if len(seeds) > 400:
        rng = np.random.default_rng(config.seed)
        seeds = seeds[rng.choice(len(seeds), 400, replace=False)]
    x, ok = _newton(seeds, residual, jacobian, config.trace_corrector_tol,
                    config)
    # wrap the angles, so the one-period shifts below match every copy
    x = x[ok & _in_box(x)]
    x[:, ::2] %= 2 * np.pi
    shifts = [np.array([2 * np.pi * i, 0.0, 2 * np.pi * j])
              for i in (-1, 0, 1) for j in (-1, 0, 1)]
    return _trace_all(x, residual, jacobian, config.trace_corrector_tol,
                      config.trace_step, config, shifts)


def hopf_invariant(map_fn, config: Config = DEFAULT, *, to_sphere,
                   values=None, jac_fn=None):
    """Hopf invariant of a map to S^2: linking of two regular fibers.

    map_fn(theta, r, phi) maps the box of degree_S3 to the unit 2-sphere,
    with jac_fn its Jacobian (central differences without it), and
    to_sphere carries an (N, 3) polyline of box points to rays in R^4.
    The fibers are found in the open box, so the edges r = 0 and r = pi
    must stay clear of the fibers over the values.  Each fiber is traced,
    oriented so that the differential carries a positive complement onto
    the chosen tangent basis at the value, pushed onto the unit 3-sphere,
    and linked with gauss_link and spherical_cone_link; the two must agree.
    A map that misses a value is null homotopic, giving 0, so the fibers
    over the second value are not traced when the first has none.

    Sign normalization: the quaternionic rotation map x -> x i conj(x) has
    Hopf invariant +1.  This is the convention the closed-form frame columns
    are built around; it is the negative of the right-handed fiber linking
    that gauss_link reports, so the result is negated once at the end.
    """
    if values is None:
        rng = np.random.default_rng(config.seed + 1)
        values = _unit(rng.normal(size=(2, 3)))
    v1, v2 = (np.asarray(v, dtype=float) for v in values)

    def fibers(v):
        return [_unit(to_sphere(c))
                for c in _fibers_param(map_fn, v, config, jac_fn)]

    rays1 = fibers(v1)
    rays2 = fibers(v2) if rays1 else []
    if not rays2:
        return 0

    pole = choose_pole(rays1 + rays2, config)
    total = 0
    for ca in rays1:
        for cb in rays2:
            lk = gauss_link(stereographic(ca, pole), stereographic(cb, pole),
                            config)
            cone = spherical_cone_link(ca, cb, config)
            if lk != cone:
                raise ArithmeticError(
                    f"linking engines disagree ({lk} vs {cone}); "
                    "fiber curves are under-resolved")
            total += lk
    return -total  # frame-map normalization, see docstring


# ---------------------------------------------------------------------------
# numerical self-intersection of the immersed sphere


@dataclasses.dataclass(frozen=True)
class SelfIntersection:
    """One double-point curve of an immersion, found numerically.

    preimage_components holds one closed polyline on the domain when the
    two branches over the double curve merge into a single circle, and two
    polylines otherwise.  image_curve is the corresponding polyline in R^5
    traced along the first branch.
    """

    preimage_components: tuple
    image_curve: np.ndarray
    merged_cover: bool


def _kink_disk_grid(params, n):
    """Domain points uniform in the kink disk, swept at 4n angles: ring
    k < n at disk radius (k + 1/2) a / n holds ceil(2 pi (k + 1/2)) points,
    odd rings turned by half a step."""
    r, phi = np.concatenate([
        [np.full(c, k + 0.5), (np.arange(c) + 0.5 * (k % 2)) / c]
        for k in range(n) for c in [int(np.ceil(2 * np.pi * (k + 0.5)))]],
        axis=1)
    theta = np.linspace(0, 2 * np.pi, 4 * n, endpoint=False)
    return params.torus_chart(np.repeat(theta, len(r)),
                              np.tile(r * np.pi / n, 4 * n),
                              np.tile(2 * np.pi * phi, 4 * n))


def _double_point_seeds(family, config: Config):
    """Seed pairs (x, y), shape (N, 8), on the grid _kink_disk_grid of
    config.double_seed_rings rings.  Each grid image is paired with its 12
    nearest images within pair_seed_radius; at the default config the
    radius drops none of them, so the neighbour count and
    min_preimage_separation pick the candidates, and the radius decides
    the resolution check of solve_self_intersection.  Pairs more than
    min_preimage_separation apart are kept, each unordered pair once
    (i < j), in order of image gap.  Nothing is capped."""
    pts = _kink_disk_grid(family.params, config.double_seed_rings)
    img = family.ambient_eval(pts)
    # neighbours past the radius come back as (inf, len(img)); the close
    # mask drops them before nbr is read
    dist, nbr = cKDTree(img).query(
        img, k=13, distance_upper_bound=config.pair_seed_radius)
    close = dist[:, 1:] < config.pair_seed_radius
    i, j = np.nonzero(close)[0], nbr[:, 1:][close]
    far = (np.linalg.norm(pts[i] - pts[j], axis=1)
           > config.min_preimage_separation)
    i, j = np.divmod(np.unique(np.minimum(i, j)[far] * len(pts)
                               + np.maximum(i, j)[far]), len(pts))
    order = np.argsort(np.linalg.norm(img[i] - img[j], axis=1),
                       kind="stable")
    return np.concatenate([pts[i][order], pts[j][order]], axis=1)


def solve_self_intersection(family, config: Config = DEFAULT):
    """Trace the double-point curves of a family member numerically.

    Solves the 7 x 8 system f(x) = f(y), G(x) = G(y) = 0 on pairs of
    points of the domain hypersurface {G = 0}: every _double_point_seeds
    pair goes through _newton in one batch.  _trace_all traces the
    solutions whose points lie min_preimage_separation apart in R^8, at
    double_trace_step, each curve covering the solutions in its tube in
    either order.  The seed grid must resolve each traced curve: the
    nearest grid points of each vertex pair have images closer than
    pair_seed_radius, or ArithmeticError names the stage.  Returns one
    SelfIntersection per double curve, in trace order.
    """
    def constraint(x):
        return domain_constraint(x, family.params)

    def residual(z, _rows):
        xy = z.reshape(-1, 4)
        img = family.ambient_eval(xy).reshape(len(z), 2, 5)
        return np.concatenate([img[:, 0] - img[:, 1],
                               constraint(xy).reshape(len(z), 2)], axis=1)

    def jacobian(z, _rows):
        xy = z.reshape(-1, 4)
        jac = family.ambient_jacobian(xy).reshape(len(z), 2, 5, 4)
        grad = fd_jacobian(constraint, xy, config.fd_step).reshape(
            len(z), 2, 4)
        J = np.zeros((len(z), 7, 8))
        J[:, :5, :4] = jac[:, 0]
        J[:, :5, 4:] = -jac[:, 1]
        J[:, 5, :4] = grad[:, 0]
        J[:, 6, 4:] = grad[:, 1]
        return J

    refined, ok = _newton(_double_point_seeds(family, config), residual,
                          jacobian, config.newton_tol, config)
    ok &= (np.linalg.norm(refined[:, :4] - refined[:, 4:], axis=1)
           >= config.min_preimage_separation)
    grid = _kink_disk_grid(family.params, config.double_seed_rings)
    swap = [4, 5, 6, 7, 0, 1, 2, 3]
    step = config.double_trace_step
    results = []
    for track in _trace_all(refined[ok], residual, jacobian,
                            config.newton_tol, step, config, [np.zeros(8)],
                            swap):
        # the track passes the swapped start exactly when the two branches
        # over the double curve join into one preimage circle
        merged = bool(np.any(np.linalg.norm(track[1:] - track[0, swap],
                                            axis=1) < 1.5 * step))
        near = grid[cKDTree(grid).query(track.reshape(-1, 4))[1]]
        img = family.ambient_eval(near).reshape(-1, 2, 5)
        gap = np.linalg.norm(img[:, 0] - img[:, 1], axis=1).max()
        if gap >= config.pair_seed_radius:
            raise ArithmeticError(
                f"double-curve seed grid too coarse: nearest grid points of "
                f"a traced pair have image gap {gap:.3g}, not below "
                f"pair_seed_radius {config.pair_seed_radius:g}")
        x_track, y_track = track[:, :4], track[:, 4:]
        results.append(SelfIntersection(
            preimage_components=(x_track,) if merged else (x_track, y_track),
            image_curve=family.ambient_eval(x_track),
            merged_cover=merged))
    return results


# ---------------------------------------------------------------------------
# linking of a closed curve with an immersed 3-sphere image in R^5


class _DegenerateChain(Exception):
    """Internal: a curtain crossing fell near a vertex line or was
    near-tangential."""


def _star_project(directions, constraint):
    """Radially project unit 4-vectors onto the star-shaped level {G = 0}.

    Fixed-point iteration on the scale: for a unit direction d and scale s,
    G(s d) = s^2 - R(s d)^2 with R the target radius, so s <- sqrt(s^2 - G)
    converges for profiles whose radius varies slowly along rays.  Each row
    stops on its own once its scale moves by less than 1e-13, so a row's
    result does not depend on the other rows of the batch.
    """
    d = _unit(np.asarray(directions, dtype=float))
    lam = np.ones(len(d))
    active = np.arange(len(d))
    for _ in range(80):
        cur = lam[active]
        step = np.sqrt(np.maximum(
            cur**2 - constraint(cur[:, None] * d[active]), 1e-12))
        lam[active] = step
        active = active[~(np.abs(step - cur) < 1e-13)]
        if len(active) == 0:
            return lam[:, None] * d
    raise NonRegularValueError("star projection onto the domain did not "
                               "converge in 80 iterations; the domain is "
                               "not star shaped enough for the chain seeds")


def _seeds_near_chain(chain_tree, image, constraint, config: Config,
                      extra=None):
    """Domain points whose images come near the chain, by ray refinement.

    image(x) maps (N, 4) domain points into the space of chain_tree.
    Starts from a quasi-uniform radial sample of the domain hypersurface
    and keeps jitter-refining the points whose images approach the chain.
    Each round keeps the points within its radius of the chain, adds fan
    jittered copies of each, and draws at most 150,000 points from the kept
    points and their copies; only the copies that are drawn are star
    projected back onto the domain.  Returns None when nothing comes near at the coarse
    scale, which rules out any crossing at the sampling resolution used by
    the caller.
    """
    rng = np.random.default_rng(config.seed + 5)
    pts = _star_project(rng.normal(size=(60000, 4)), constraint)
    if extra is not None and len(extra):
        pts = np.concatenate([pts, np.asarray(extra, dtype=float)])
    for radius, jitter, fan in ((0.25, 0.06, 8),
                                (0.08, 0.02, 6),
                                (0.025, None, 0)):
        # farther points come back as inf, and only dist < radius is read
        dist = chain_tree.query(image(pts), distance_upper_bound=radius)[0]
        keep = pts[dist < radius]
        if jitter is None:
            return keep
        if len(keep) == 0:
            return None
        reps = np.repeat(keep, fan, axis=0)
        reps = reps + rng.normal(size=reps.shape) * jitter
        pick = np.arange(len(keep) + len(reps))
        if len(pick) > 150000:
            pick = rng.choice(len(pick), 150000, replace=False)
        copy = pick >= len(keep)
        pts = np.empty((len(pick), 4))
        pts[~copy] = keep[pick[~copy]]
        pts[copy] = _star_project(reps[pick[copy] - len(keep)], constraint)
    return pts


def _flatten(points, d):
    """Points projected along the unit vector d onto its normal hyperplane."""
    return points - (points @ d)[..., None] * d


def _curtain_crossings(verts, d, seg, manifold, constraint, seeds, img,
                       config: Config) -> int:
    """Signed count of image crossings through the curtain over a polyline.

    Seed i, with image img[i], is paired with segment A B = verts[seg[i]],
    verts[seg[i] + 1] and started at its projected foot point: u clipped to
    [0, 1] and lambda the height of its image above A + u (B - A) along d.
    The 6 x 6 system f(x) = A + u (B - A) + lambda d, G(x) = 0 is solved by
    _newton to config.newton_tol; converged rows with lambda > 0 and u in
    (0, 1) are deduplicated and signed.  A crossing within 1e-5 in u of a
    vertex or failing the transversality threshold raises _DegenerateChain
    so the caller can draw a new direction.  A converged row on the curve
    itself (|lambda| < config.min_image_separation) raises ValueError.
    """
    edge = 1e-5
    A = verts[seg]
    E = np.roll(verts, -1, axis=0)[seg] - A
    flat_e = _flatten(E, d)
    u0 = np.clip(np.einsum("ij,ij->i", img - A, flat_e)
                 / np.einsum("ij,ij->i", flat_e, flat_e), 0.0, 1.0)
    lam0 = (img - A - u0[:, None] * E) @ d
    z = np.column_stack([seeds, u0, lam0])

    def residual(zz, rows):
        F = np.empty((len(zz), 6))
        F[:, :5] = (manifold.ambient_eval(zz[:, :4]) - A[rows]
                    - zz[:, 4, None] * E[rows] - zz[:, 5, None] * d)
        F[:, 5] = constraint(zz[:, :4])
        return F

    def jacobian(zz, rows):
        x = zz[:, :4]
        J = np.zeros((len(zz), 6, 6))
        J[:, :5, :4] = manifold.ambient_jacobian(x)
        J[:, 5, :4] = fd_jacobian(constraint, x, config.fd_step)
        J[:, :5, 4] = -E[rows]
        J[:, :5, 5] = -d
        return J

    z, conv = _newton(z, residual, jacobian, config.newton_tol, config)
    # a solution on the segment (lambda ~ 0) is an image point on the curve
    if np.any(conv & (np.abs(z[:, 5]) < config.min_image_separation)
              & (z[:, 4] > -edge) & (z[:, 4] < 1 + edge)):
        raise ValueError("curve passes too close to the image to link")
    ahead = conv & (z[:, 5] > 0)
    z, E = z[ahead], E[ahead]
    u = z[:, 4]
    if np.any((np.abs(u) < edge) | (np.abs(u - 1.0) < edge)):
        raise _DegenerateChain("crossing near a vertex")
    inside = (u > 0) & (u < 1)
    z, E = z[inside], E[inside]
    if len(z) == 0:
        return 0

    total = 0
    for k in _dedupe(z[:, :4], _DEDUPE_RADIUS):
        x = z[k, :4]
        nu = manifold.ambient_jacobian(x)
        D = np.column_stack([E[k], d,
                             nu @ positive_tangent_basis(constraint, x,
                                                         config)])
        val = np.linalg.det(D)
        if abs(val) < config.jacobian_min_det * np.prod(
                np.linalg.norm(D, axis=0)):
            raise _DegenerateChain("near-tangential crossing")
        total += 1 if val > 0 else -1
    return total


def link_1cycle_3manifold(curve, manifold, config: Config = DEFAULT,
                          direction=None, domain_seeds=None) -> int:
    """Linking number in R^5 of a closed curve with an immersed 3-sphere.

    curve is a closed polyline K in R^5 disjoint from the image of
    manifold, an immersion exposing vectorized ambient_eval /
    ambient_jacobian over the star-shaped domain hypersurface
    {domain_constraint(., params) = 0}.  The class of the curve in H_1 of
    the image complement is the signed count of crossings of the image
    through any 2-chain bounding the curve; the chain used here is the
    curtain {K(s) + lambda d : lambda >= 0} that K sweeps along a unit
    direction d, the cone over K from the point at infinity in direction d.
    Seeds are domain points whose images lie within 0.025 of K once both
    are projected along d, and each crossing, solved on the segment of its
    seed, is signed by

        det[B - A, d, f_* b1, f_* b2, f_* b3]

    with A B the segment and (b_i) a positive tangent basis of the domain,
    outward normal first, so a curve bounding a small disk that meets the
    image once positively gets +1.  The count is independent of d.  The
    directions are unit(e5 + 0.06 N(0, I)) drawn from config.seed + 11: a
    crossing within 1e-5 of a vertex or failing the transversality
    threshold moves on to the next, max(1, config.apex_retries) in all,
    after which NonRegularValueError is raised.  A given direction is the
    only one tried.

    domain_seeds, optional (N, 4) points on the domain, augment the
    built-in ray-refinement seed search; pass them when the immersion has
    features sharper than its 0.25-coarse sampling can see.
    """
    verts = _drop_duplicate_endpoint(curve)
    if verts.shape[1] != 5:
        raise ValueError("curve must be a closed polyline in R^5")

    def constraint(x):
        return domain_constraint(x, manifold.params)

    if direction is not None:
        directions = [_unit(direction)]
    else:
        rng = np.random.default_rng(config.seed + 11)
        directions = _unit(np.eye(5)[4] + 0.06 * rng.normal(
            size=(max(1, config.apex_retries), 5)))
    # the points at u = 1/4 and 3/4 of each segment; sample i lies on
    # segment i mod n
    nxt = np.roll(verts, -1, axis=0)
    samples = np.concatenate([0.75 * verts + 0.25 * nxt,
                              0.25 * verts + 0.75 * nxt])
    last_err = None
    for d in directions:
        tree = cKDTree(_flatten(samples, d))
        seeds = _seeds_near_chain(
            tree, lambda x: _flatten(manifold.ambient_eval(x), d),
            constraint, config, extra=domain_seeds)
        if seeds is None or len(seeds) == 0:
            return 0
        img = manifold.ambient_eval(seeds)
        if cKDTree(img).query(verts)[0].min() < config.min_image_separation:
            raise ValueError("curve passes too close to the image to link")
        seg = tree.query(_flatten(img, d))[1] % len(verts)
        try:
            return _curtain_crossings(verts, d, seg, manifold, constraint,
                                      seeds, img, config)
        except _DegenerateChain as err:
            last_err = err
    raise NonRegularValueError(f"no generic projection direction found: "
                               f"{last_err}")


def _directed_polyline_dist(pts, poly) -> float:
    """max over pts of the distance to the closed polyline poly."""
    n = len(poly)
    nxt = np.roll(np.arange(n), -1)
    # candidate segments: the ones adjacent to the four nearest vertices
    _, idx = cKDTree(poly).query(pts, k=min(4, n))
    idx = np.atleast_2d(idx)
    cand = np.concatenate([idx, (idx - 1) % n], axis=1)
    a = poly[cand]
    b = poly[nxt[cand]]
    ab = b - a
    ap = pts[:, None, :] - a
    denom = np.einsum("ijk,ijk->ij", ab, ab)
    t = np.clip(np.einsum("ijk,ijk->ij", ap, ab) / np.maximum(denom, 1e-300),
                0.0, 1.0)
    foot = a + t[..., None] * ab
    d = np.linalg.norm(pts[:, None, :] - foot, axis=-1).min(axis=1)
    return float(d.max())


def hausdorff_distance(curve_a, curve_b) -> float:
    """Hausdorff distance between two closed polylines (segment-aware)."""
    a = np.asarray(curve_a, dtype=float)
    b = np.asarray(curve_b, dtype=float)
    return max(_directed_polyline_dist(a, b), _directed_polyline_dist(b, a))

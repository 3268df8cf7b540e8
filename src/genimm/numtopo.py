"""Numerical topology: linking numbers, degrees, Hopf invariants, curve solving.

The family's domain is a closed hypersurface M in R^4, star shaped about
the origin, with one closed-form chart, geometry.KinkParams.chart.  The
box engines work on its kink disks, the (theta, r, phi) box of torus_chart;
the curtain engine seeds its flat crossings on M ray by ray through the
chart (geometry.radial_point).  A curve on M is faithfully described by the
rays through its points and can be normalized onto the unit 3-sphere
whenever a common reference is needed.
Linking numbers of curve pairs have three engines.  After a stereographic
projection to R^3, gauss_link sums the solid angles of the Gauss map over
all segment pairs exactly, and crossing_link counts the signed crossings of
a generic planar projection, certified and near linear in the number of
vertices; on the 3-sphere of rays, spherical_cone_link counts the signed
crossings through a spherical cone.  hopf_invariant traces the fibers of
a map on the (theta, r, phi) box and links each pair with gauss_link and
spherical_cone_link, which must agree;
projected_link, the framing check of invariants.lk_of_family, uses
crossing_link.  A closed curve K in R^5 is linked with an immersed
3-sphere by link_1cycle_3manifold, which counts the signed crossings of
the image through the curtain {K(s) + lambda d : lambda >= 0} that K
sweeps along a direction d near e5, drawing a new direction when a
crossing is not generic.  Its Newton rows move along the whole curve on
one continuous parameter, and its seeds rest on the two pieces of the
image: one per vertex where the vertex's curtain line meets the flat
part R^4 x {0}, and the kink-disk grid on the spun kink.  One kink-disk
grid, _kink_disk_grid, seeds both 5-space solvers: the double-curve
pairs and the curtain crossings.  One
box finder serves both box solvers, the preimages that degree_S3 counts
and the fibers that hopf_invariant traces: _box_seeds sweeps the
config.degree_grid grid once, one theta slice at a time, for every value
the solver needs, and _box_preimages solves from those seeds.

The family and its domain have closed-form differentials,
geometry.FamilyMap.ambient_jacobian and geometry.domain_constraint_grad;
both 5-space systems and the positive tangent basis of the domain use
them.  Only a box map given without its Jacobian is differentiated by the
one central-difference helper, geometry.fd_jacobian, with
config.fd_step.  Every equation, square or wide, is solved by
the one batched damped Gauss-Newton, _newton: degree preimages, curtain
crossings, fiber and double-curve seeds, and both stages of the one
tracer, _trace_closed_curve, which follows closed level curves (Hopf
fibers and double-point curves) from a residual and its Jacobian alone:
the corrector of a coarse sequential predictor-corrector walk, then one
batch per refinement level for the chord midpoints.  A double-point curve
is walked only up to the swap of its start when it passes there.  Its one
cover loop, _trace_all, finds every fiber and double curve.  Converged
solutions are deduplicated by _dedupe within _DEDUPE_RADIUS.

Every sign rests on one orientation rule: the normal or the Jacobian rows
first, then the tangent or frame, make a positive basis.  The one helper
oriented_complement completes rows that way, and every frame and tangent
here comes from it: the frames normal to a value or projection direction,
the positive tangent basis of the domain, the stereographic basis (the
complement of minus the pole) and the tracer's unit tangent.  A solved
square system holds the rule already, so its Jacobian J at the solution
signs it: det(W^T J) a degree_S3 preimage and -det J a curtain crossing,
whose system, from the one 5-space _domain_system, has the normal as G row.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .config import Config, DEFAULT
from .geometry import (domain_constraint, domain_constraint_grad,
                       fd_jacobian, radial_point)


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


def _kdtree(points):
    """A scipy.spatial.cKDTree of the points.  scipy is imported on the
    first call, so the combinatorial modules, which import this one, run
    without it."""
    from scipy.spatial import cKDTree
    return cKDTree(points)


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


# Segment pairs per block of the Gauss sum, so that a block's unit-vector
# grid and its dot products stay in cache.  It sets only the summation order.
_GAUSS_PAIR_BUDGET = 1 << 14


def gauss_link_raw(curve_a, curve_b, config: Config = DEFAULT) -> float:
    """Gauss linking integral of two closed polylines, summed exactly.

    The Gauss map g(s, t) = (a(s) - b(t)) / |a(s) - b(t)| sends the torus of
    parameter pairs to the unit sphere; its degree over one segment pair is
    the signed solid angle of the spherical quadrilateral of its corners
    va, vb, vc, vd = g at (a_i, b_j), (a_i, b_j+1), (a_i+1, b_j+1),
    (a_i+1, b_j), so the result is exact for the polylines (Klenin and
    Langowski, Biopolymers 54, 2000).  The quadrilateral splits along the
    diagonal va, vc into two triangles, each of solid angle
    2 arctan2(det, 1 + the three pairwise dots), and both determinants
    come from X = va x vc: det(va, vd, vc) = -vd . X and
    det(va, vc, vb) = vb . X.  The rows of a are taken in blocks of
    _GAUSS_PAIR_BUDGET segment pairs; each block builds the grid
    U[i, j] = g(a_i, b_j) once, with one wrap row and one wrap column, as
    its three component arrays, and reads every corner from them, so each
    product and sum runs over whole arrays of segment pairs.  With this Gauss map
    det(g, dg/ds, dg/dt) = -det(da/ds, db/dt, a - b)/|a-b|^3, so the right
    handed crossing convention is minus the accumulated angle over 4 pi.
    """
    a = _drop_duplicate_endpoint(curve_a)
    b = _drop_duplicate_endpoint(curve_b)
    if a.shape[1] != 3 or b.shape[1] != 3:
        raise ValueError("curves must lie in R^3")
    if _kdtree(b).query(a)[0].min() < config.min_image_separation:
        raise ValueError("curves are too close to link reliably")
    a_wrap = np.concatenate([a, a[:1]]).T
    b_wrap = np.concatenate([b, b[:1]]).T
    rows = max(1, _GAUSS_PAIR_BUDGET // len(b))

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    total = 0.0
    for lo in range(0, len(a), rows):
        # the grid as its three component arrays gx, gy, gz
        grid = [ak[lo:lo + rows + 1, None] - bk[None, :]
                for ak, bk in zip(a_wrap, b_wrap)]
        norm = np.sqrt(dot(grid, grid))
        grid = [g / norm for g in grid]
        va = [g[:-1, :-1] for g in grid]
        vb = [g[:-1, 1:] for g in grid]
        vc = [g[1:, 1:] for g in grid]
        vd = [g[1:, :-1] for g in grid]
        x = [va[1] * vc[2] - va[2] * vc[1], va[2] * vc[0] - va[0] * vc[2],
             va[0] * vc[1] - va[1] * vc[0]]
        ac = dot(va, vc)
        total += np.arctan2(-dot(vd, x),
                            1.0 + ac + dot(va, vd) + dot(vd, vc)).sum()
        total += np.arctan2(dot(vb, x),
                            1.0 + ac + dot(vc, vb) + dot(vb, va)).sum()
    return -total / (2.0 * np.pi)


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
    near = _kdtree(mid_a).query_ball_tree(
        _kdtree(mid_b), (0.5 + m) * (len_a.max() + len_b.max()))
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
    counts is replaced by a fresh one, config.apex_retries times in all,
    after which ArithmeticError is raised.  A given direction is the only
    one tried.
    """
    a = _drop_duplicate_endpoint(curve_a)
    b = _drop_duplicate_endpoint(curve_b)
    if a.shape[1] != 3 or b.shape[1] != 3:
        raise ValueError("curves must lie in R^3")
    if _kdtree(b).query(a)[0].min() < config.min_image_separation:
        raise ValueError("curves are too close to link reliably")
    if direction is not None:
        directions = [_unit(direction)]
    else:
        rng = np.random.default_rng(config.seed + 3)
        directions = _unit(rng.normal(size=(config.apex_retries, 3)))
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
    # for unit vectors |p - c|^2 = 2 - 2 p . c: the candidate whose nearest
    # point is farthest is the one whose largest dot product is least
    return cands[(pts @ cands.T).max(axis=0).argmin()]


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


# Segment-vertex pairs per block of the cone count, so that its n_a x n_b
# arrays stay a few MB whatever the fiber lengths.  It sets only the
# summation order.
_CONE_PAIR_BUDGET = 1 << 16


def _cone_crossings(apex, a, a_next, b):
    """Signed crossings of curve b through the spherical cone over curve a.

    The cone from the apex ray over an a-segment is the spherical triangle
    spanned by the three rays, parametrized by c(s, t) = (1-t) z + t a(s)
    and oriented by (dc/dt, dc/ds) so that its boundary traverses the
    segment positively.  A b-segment crosses the supporting hyperplane where
    the determinant d(u) = det[z, a_i, a_i+1, b(u)] changes sign, and lands
    inside the triangle when its coordinates in the three spanning rays are
    positive.  Tracking orientations through the radial projection onto the
    unit sphere, the crossing sign is sign(d_j+1 - d_j).  The coordinates
    are least-squares ones, taken for every crossing at once from the
    stacked pseudo-inverses of the 4 x 3 triangle spans; so are those of
    the b vertices that lie on a supporting hyperplane.  The rows of a are
    taken in blocks of _CONE_PAIR_BUDGET segment-vertex pairs.  Returns
    None when a crossing is too close to a triangle edge to call, or a
    vertex on a supporting hyperplane is near its triangle.
    """
    x_vec = _cross4(np.broadcast_to(apex, a.shape), a, a_next)
    x_norm = np.linalg.norm(x_vec, axis=1, keepdims=True)
    b_norm = np.linalg.norm(b, axis=1)[None, :]
    inverse = np.linalg.pinv(
        np.stack([np.broadcast_to(apex, a.shape), a, a_next], axis=-1))

    def near_triangle(i, w, slack):
        coeff = np.einsum("nij,nj->ni", inverse[i], w)
        bound = slack * np.linalg.norm(w, axis=1, keepdims=True)
        return coeff, bound, np.all(coeff > -bound, axis=1)

    total = 0
    rows = max(1, _CONE_PAIR_BUDGET // len(b))
    for lo in range(0, len(a), rows):
        d = x_vec[lo:lo + rows] @ b.T
        scale = x_norm[lo:lo + rows] * b_norm
        # a vertex almost on a supporting hyperplane is harmless unless it
        # is also near that triangle, where the crossing count would be
        # ambiguous
        i, j = np.nonzero(np.abs(d) < 1e-9 * np.maximum(scale, 1e-30))
        if np.any(near_triangle(i + lo, b[j], 1e-6)[2]):
            return None

        i, j = np.nonzero(np.sign(d) != np.sign(np.roll(d, -1, axis=1)))
        jn = (j + 1) % d.shape[1]
        u = (d[i, j] / (d[i, j] - d[i, jn]))[:, None]
        coeff, bound, inside_closed = near_triangle(
            i + lo, (1.0 - u) * b[j] + u * b[jn], 1e-9)
        if np.any(inside_closed & np.any(coeff < bound, axis=1)):
            return None  # crossing on a triangle edge, apex not generic
        sign = np.where(d[i, jn] > d[i, j], 1, -1)
        total += int(sign[np.all(coeff > 0, axis=1)].sum())
    return total


def spherical_cone_link(curve_a, curve_b, config: Config = DEFAULT,
                        apex=None) -> int:
    """Linking number of two disjoint closed curves on a star-shaped 3-sphere.

    Both curves are taken up to positive radial scale, so any hypersurface
    star shaped about the origin works.  The number returned is the signed
    count of crossings of curve_b through a 2-chain coning curve_a off to an
    apex ray, equal to the Gauss-projection linking number.  Without a given
    apex, the config.apex_retries candidates farthest from both curves, out
    of max(40, config.apex_retries) random ones, are tried in turn.
    """
    a = _unit(_drop_duplicate_endpoint(curve_a))
    b = _unit(_drop_duplicate_endpoint(curve_b))
    if a.shape[1] != 4 or b.shape[1] != 4:
        raise ValueError("curves must be given by rays in R^4")
    if _kdtree(b).query(a)[0].min() < config.min_image_separation:
        raise ValueError("curves are too close to link reliably")
    a_next = np.roll(a, -1, axis=0)
    keep = np.linalg.norm(a_next - a, axis=1) > 1e-13
    a_seg, a_seg_next = a[keep], a_next[keep]
    rng = np.random.default_rng(config.seed)
    if apex is not None:
        candidates = [_unit(np.asarray(apex, dtype=float))]
    else:
        pool = _unit(rng.normal(size=(max(40, config.apex_retries), 4)))
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


# Duplicate Newton solutions agree to ~1e-8 and distinct ones are >= 0.08
# apart, both in degree_S3 and in _curtain_crossings.
_DEDUPE_RADIUS = 1e-6


def _dedupe(points, radius):
    """Indices, in order, of the points not within radius of an earlier
    kept point: the first point of each cluster."""
    tree = _kdtree(points)
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


def _box_seeds(map_fn, values, config: Config):
    """Seeds of _box_preimages for each unit value, in one sweep of the
    config.degree_grid box grid, one theta slice at a time: the grid points
    whose images lie within 0.35 of the value, and the least distance from
    the value of the grid's images."""
    theta, r = _box_axes(config.degree_grid)
    R, P = np.meshgrid(r, theta, indexing="ij")
    best = np.full(len(values), np.inf)
    seeds = [[] for _ in values]
    for th in theta:
        T = np.full(R.shape, th)
        img = map_fn(T, R, P)
        for k, v in enumerate(values):
            dist = np.linalg.norm(img - v, axis=-1)
            best[k] = min(best[k], dist.min())
            mask = dist < 0.35
            seeds[k].append(np.stack([T[mask], R[mask], P[mask]], axis=-1))
    return [np.concatenate(s) for s in seeds], best


def _box_preimages(map_fn, v, seeds, config: Config, jac_fn, tol):
    """Preimages of the unit value v under map_fn on the (theta, r, phi) box.

    The seeds, from _box_seeds, go through one _newton batch to tol on
    fn(x) @ W = 0, with W the oriented_complement of v.  That equation also
    holds over -v, so only the rows that converge inside the box (_in_box)
    with fn(x) @ v > 0 are kept.  Without jac_fn the Jacobian is taken by
    central differences.  Returns the kept points, and the residual and
    jacobian given to _newton.
    """
    W = oriented_complement(v)

    def fn(p):
        return map_fn(p[..., 0], p[..., 1], p[..., 2])

    def residual(p, _rows):
        return fn(p) @ W

    def jacobian(p, _rows):
        if jac_fn is None:
            return W.T @ fd_jacobian(fn, p, config.fd_step)
        return W.T @ jac_fn(p[..., 0], p[..., 1], p[..., 2])

    x, ok = _newton(seeds, residual, jacobian, tol, config)
    return x[ok & _in_box(x) & (fn(x) @ v > 0)], residual, jacobian


def degree_S3(map_fn, value, config: Config = DEFAULT, jac_fn=None) -> SignedCount:
    """Mapping degree at a regular value of a map (theta, r, phi) -> S^3.

    The domain is the box [0, 2pi) x [0, pi] x [0, 2pi) with periodic first
    and last coordinates.  _box_preimages finds the preimages to
    config.newton_tol; they are deduplicated within _DEDUPE_RADIUS after
    embedding the periodic angles by cosine and sine, and signed by
    det(W^T J), W the oriented_complement of the value.  That equals the
    sign of det[value, J columns], since [value, W] is a positive basis and
    value^T J = 0 at a preimage.  Without preimages, a value that every
    grid image misses by more than 0.2 has degree 0 and a nearer one raises
    NonRegularValueError, as does a preimage with |det(W^T J)| below
    config.jacobian_min_det.
    """
    v = _unit(np.asarray(value, dtype=float))
    (seeds,), (best,) = _box_seeds(map_fn, [v], config)
    x, _, jacobian = _box_preimages(map_fn, v, seeds, config, jac_fn,
                                    config.newton_tol)
    if len(x) == 0:
        if best > 0.2:
            return SignedCount(np.empty((0, 3)), np.empty(0, dtype=int))
        raise NonRegularValueError("Newton lost every candidate preimage")

    reps = x[_dedupe(_periodic_key(x), _DEDUPE_RADIUS)]
    det = np.linalg.det(jacobian(reps, None))
    if np.any(np.abs(det) < config.jacobian_min_det):
        raise NonRegularValueError("value is not regular: singular Jacobian "
                                   "at a preimage")
    return SignedCount(reps, np.sign(det).astype(int))


# ---------------------------------------------------------------------------
# the corrector, the curve tracer, fiber tracing and the Hopf invariant


def positive_tangent_basis(x, params) -> np.ndarray:
    """Columns: basis of the tangent space of the domain
    {domain_constraint(., params) = 0} at the point x that the outward
    normal, domain_constraint_grad, put first completes to a positive basis
    of R^4."""
    return oriented_complement(domain_constraint_grad(x, params))


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
                        shifts, swap=None):
    """A closed regular curve {F = 0} through start, sampled with chords
    at most step long; returns the vertices, the number of rejected
    midpoints and whether the walk closed on the swapped start.

    The residual and jacobian are those of _newton.  A coarse _walk with
    K = config.trace_coarse_factor goes round the curve at just under K
    times step (_COARSE_SHORTFALL) until it returns, within K times
    config.trace_closure_tol, to start modulo one of the shift vectors,
    which list the period lattice (just the zero vector for a curve in
    R^n).  A swap, a coordinate permutation that maps the solution set
    onto itself (the exchange of the two points of a double-point pair),
    is walked as a symmetry of the curve: the walk also ends at start[swap]
    modulo a shift, whichever it reaches first.  A curve through both is
    invariant under the swap and its second half is the swap of the first,
    so only the arc from start to start[swap] is traced and refined; the
    closed curve is the arc followed by arc[:, swap].  Then, one level at a
    time, the midpoint of every chord longer than step, the closing chord
    to the end reached included, is corrected in one _newton batch onto the
    curve and the hyperplane that bisects its chord (Allgower and Georg,
    Numerical Continuation Methods, 1990).  A midpoint that fails
    _rejected_midpoints has the arc of its chord re-traced by a _walk at
    step instead.
    """
    k = config.trace_coarse_factor
    ends = start + np.asarray(shifts)
    if swap is not None:
        ends = np.concatenate([ends, start[swap] + np.asarray(shifts)])
    pts, end = _walk(start, ends, residual, jacobian, tol,
                     _COARSE_SHORTFALL * k * step,
                     k * config.trace_closure_tol, 6, config, "coarse walk")
    swapped = bool(np.all(end == ends[len(shifts):], axis=1).any())
    rejected = 0
    while True:
        chord = np.diff(pts, axis=0, append=end[None])
        long = np.nonzero(np.linalg.norm(chord, axis=1) > step)[0]
        if len(long) == 0:
            return pts, rejected, swapped
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
    """Every closed level curve through the points, each traced once by
    _trace_closed_curve; returns (vertices, swapped) per curve.

    The points lie on the level set: the callers refine their seeds in one
    _newton batch first.  The first point not yet covered is traced; then
    every point within 3 step of the traced vertices or, given swap, of
    their coordinate-swapped copy, each moved by a shift, is covered.  A
    swapped curve is the arc of its vertices followed by their swap, so the
    two copies cover it, and an unswapped one with its swap covers the
    other curve of the pair."""
    curves = []
    covered = np.zeros(len(points), dtype=bool)
    while not covered.all():
        curve, _, swapped = _trace_closed_curve(
            points[np.argmin(covered)], residual, jacobian, tol, step,
            config, shifts, swap)
        curves.append((curve, swapped))
        copies = [curve] if swap is None else [curve, curve[:, swap]]
        tree = _kdtree(np.concatenate([c + s for c in copies
                                       for s in shifts]))
        covered |= tree.query(points)[0] < 3 * step
    return curves


def _fibers_param(map_fn, v, config: Config, jac_fn=None, seeds=None):
    """All fiber components of map_fn over v in the (theta, r, phi) box,
    from the given _box_seeds of v or, without them, from a sweep of v
    alone."""
    if seeds is None:
        (seeds,), _ = _box_seeds(map_fn, [v], config)
    x, residual, jacobian = _box_preimages(map_fn, v, seeds, config, jac_fn,
                                           config.trace_corrector_tol)
    # wrap the angles, so the one-period shifts below match every copy
    x[:, ::2] %= 2 * np.pi
    shifts = [np.array([2 * np.pi * i, 0.0, 2 * np.pi * j])
              for i in (-1, 0, 1) for j in (-1, 0, 1)]
    return [curve for curve, _ in _trace_all(
        x, residual, jacobian, config.trace_corrector_tol, config.trace_step,
        config, shifts)]


def hopf_invariant(map_fn, config: Config = DEFAULT, *, to_sphere,
                   values=None, jac_fn=None):
    """Hopf invariant of a map to S^2: linking of two regular fibers.

    map_fn(theta, r, phi) maps the box of degree_S3 to the unit 2-sphere,
    with jac_fn its Jacobian (central differences without it), and
    to_sphere carries an (N, 3) polyline of box points to rays in R^4.
    The finder of degree_S3 seeds the fibers in the open box, from one
    _box_seeds sweep for both values, so the edges r = 0 and r = pi must
    stay clear of the fibers over the values.  Each fiber is traced by _trace_all, oriented so that the
    differential carries a positive complement onto the chosen tangent
    basis at the value, pushed onto the unit 3-sphere, and linked with
    gauss_link and spherical_cone_link; the two must agree.
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
    values = [np.asarray(v, dtype=float) for v in values]
    seeds, _ = _box_seeds(map_fn, values, config)

    def fibers(k):
        return [_unit(to_sphere(c)) for c in
                _fibers_param(map_fn, values[k], config, jac_fn, seeds[k])]

    rays1 = fibers(0)
    rays2 = fibers(1) if rays1 else []
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


def _domain_system(manifold):
    """x -> [f(x), G(x)] and x -> [df(x); grad G(x)], shapes (N, 6) and
    (N, 6, 4) at N points of R^4: f and df from manifold.ambient_eval and
    ambient_jacobian, G the domain_constraint of manifold.params with its
    closed-form gradient, domain_constraint_grad.  solve_self_intersection
    and _curtain_crossings assemble their systems from it."""
    def system(x):
        return np.column_stack([manifold.ambient_eval(x),
                                domain_constraint(x, manifold.params)])

    def system_jacobian(x):
        return np.concatenate(
            [manifold.ambient_jacobian(x),
             domain_constraint_grad(x, manifold.params)[:, None]], axis=1)

    return system, system_jacobian


@dataclasses.dataclass(frozen=True)
class SelfIntersection:
    """One double-point curve of an immersion, found numerically.

    preimage_components holds one closed polyline on the domain when the
    two branches over the double curve merge into a single circle, and two
    polylines otherwise.  A merged circle is its traced arc of first points
    followed by the arc of second points, the second half of the pair loop
    being the swap of the first.  image_curve is the closed polyline in R^5
    of the arc's first points, one cover of the double curve either way.
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


def _double_point_seeds(pts, img, config: Config):
    """Seed pairs (x, y), shape (N, 8), among the grid points pts with
    images img.  Each grid image is paired with its 12 nearest images
    within pair_seed_radius; at the default config the radius drops none
    of them, so the neighbour count and min_preimage_separation pick the
    candidates, and the radius decides the resolution check of
    solve_self_intersection.  Pairs more than min_preimage_separation
    apart are kept, each unordered pair once (i < j), in order of image
    gap.  Nothing is capped."""
    # neighbours past the radius come back as (inf, len(img)); the close
    # mask drops them before nbr is read
    dist, nbr = _kdtree(img).query(
        img, k=13, distance_upper_bound=config.pair_seed_radius)
    close = dist[:, 1:] < config.pair_seed_radius
    i, j = np.nonzero(close)[0], nbr[:, 1:][close]
    # squared distances, one coordinate at a time, so that no (pairs, 4)
    # gather is built for the many near pairs this drops
    far = (sum((c[i] - c[j])**2 for c in pts.T)
           > config.min_preimage_separation**2)
    i, j = np.divmod(np.unique(np.minimum(i, j)[far] * len(pts)
                               + np.maximum(i, j)[far]), len(pts))
    order = np.argsort(np.linalg.norm(img[i] - img[j], axis=1),
                       kind="stable")
    return np.concatenate([pts[i][order], pts[j][order]], axis=1)


def solve_self_intersection(family, config: Config = DEFAULT):
    """Trace the double-point curves of a family member numerically.

    Solves the 7 x 8 system f(x) = f(y), G(x) = G(y) = 0, assembled from
    _domain_system, on pairs of points of the domain hypersurface
    {G = 0}: every _double_point_seeds pair of the kink-disk grid of
    double_seed_rings rings goes through _newton in one batch.  _trace_all
    traces the solutions whose points lie min_preimage_separation apart in
    R^8, at double_trace_step, with the swap (x, y) -> (y, x), which maps
    the solution set onto itself, as a symmetry: each curve's walk stops
    at its start or at the swapped start, whichever comes first, and covers
    the solutions in its tube in either order.  A walk that stops at the
    swapped start has found a curve of pairs whose two branches merge into
    one preimage circle; only its arc from (x, y) to (y, x) is traced, and
    the rest of the loop is the arc swapped.  The seed grid must resolve
    each traced arc, which holds every pair of the curve in one order or
    the other: the nearest grid points of each vertex pair have images
    closer than pair_seed_radius, or ArithmeticError names the stage.  The
    grid and its images are computed once and serve both the seeds and
    this check.  Returns one SelfIntersection per double curve, in trace
    order.
    """
    system, system_jacobian = _domain_system(family)

    def residual(z, _rows):
        v = system(z.reshape(-1, 4)).reshape(len(z), 2, 6)
        return np.concatenate([v[:, 0, :5] - v[:, 1, :5], v[:, :, 5]], axis=1)

    def jacobian(z, _rows):
        D = system_jacobian(z.reshape(-1, 4)).reshape(len(z), 2, 6, 4)
        J = np.zeros((len(z), 7, 8))
        J[:, :6, :4] = D[:, 0]
        J[:, :5, 4:] = -D[:, 1, :5]
        J[:, 6, 4:] = D[:, 1, 5]
        return J

    grid = _kink_disk_grid(family.params, config.double_seed_rings)
    grid_img = family.ambient_eval(grid)
    refined, ok = _newton(_double_point_seeds(grid, grid_img, config),
                          residual, jacobian, config.newton_tol, config)
    ok &= (np.linalg.norm(refined[:, :4] - refined[:, 4:], axis=1)
           >= config.min_preimage_separation)
    results = []
    for arc, merged in _trace_all(refined[ok], residual, jacobian,
                                  config.newton_tol, config.double_trace_step,
                                  config, [np.zeros(8)],
                                  [4, 5, 6, 7, 0, 1, 2, 3]):
        # the swapped half of a merged curve holds the arc's pairs swapped
        img = grid_img[_kdtree(grid).query(arc.reshape(-1, 4))[1]]
        img = img.reshape(-1, 2, 5)
        gap = np.linalg.norm(img[:, 0] - img[:, 1], axis=1).max()
        if gap >= config.pair_seed_radius:
            raise ArithmeticError(
                f"double-curve seed grid too coarse: nearest grid points of "
                f"a traced pair have image gap {gap:.3g}, not below "
                f"pair_seed_radius {config.pair_seed_radius:g}")
        x_arc, y_arc = arc[:, :4], arc[:, 4:]
        results.append(SelfIntersection(
            preimage_components=((np.concatenate([x_arc, y_arc]),) if merged
                                 else (x_arc, y_arc)),
            image_curve=family.ambient_eval(x_arc),
            merged_cover=merged))
    return results


# ---------------------------------------------------------------------------
# linking of a closed curve with an immersed 3-sphere image in R^5


class _DegenerateChain(Exception):
    """Internal: a curtain crossing fell near a vertex line or was
    near-tangential."""


def _flatten(points, d):
    """Points projected along the unit vector d onto its normal hyperplane."""
    return points - (points @ d)[..., None] * d


def _curtain_crossings(verts, d, seg, manifold, seeds, img,
                       config: Config) -> int:
    """Signed count of image crossings through the curtain over a polyline.

    Each row carries one continuous curve parameter u in [0, n) with
    K(u) = verts[i] + frac(u) E[i], i = floor(u) mod n and E[i] the edge
    from verts[i] to the next vertex, so a row may cross segment ends as
    it converges.  Seed k, with image img[k], starts on segment seg[k] at
    its projected foot point: u = seg[k] plus the foot clipped to [0, 1],
    and lambda the height of its image above K(u) along d.  The 6 x 6
    system f(x) = K(u) + lambda d, G(x) = 0, assembled from _domain_system
    with u column -E[i] and lambda column -d, is solved by _newton to
    config.newton_tol.  A converged row on the curve itself
    (|lambda| < config.min_image_separation) raises ValueError.  Converged
    rows with lambda > 0 are deduplicated, and each crossing is signed by
    -sign det J, J the system's Jacobian at the crossing.  A row within
    1e-5 in frac(u) of a vertex, or a crossing with |det J| below
    config.jacobian_min_det times the product of J's column norms
    (Hadamard's bound on |det J|), raises _DegenerateChain so the caller
    can draw a new direction.
    """
    edge = 1e-5
    n = len(verts)
    E = np.roll(verts, -1, axis=0) - verts
    system, system_jacobian = _domain_system(manifold)

    def split(u):
        i = np.floor(u)
        return i.astype(int) % n, u - i

    flat_e = _flatten(E[seg], d)
    foot = np.clip(np.einsum("ij,ij->i", img - verts[seg], flat_e)
                   / np.einsum("ij,ij->i", flat_e, flat_e), 0.0, 1.0)
    lam0 = (img - verts[seg] - foot[:, None] * E[seg]) @ d

    def residual(zz, _rows):
        i, t = split(zz[:, 4])
        F = system(zz[:, :4])
        F[:, :5] = (F[:, :5] - verts[i] - t[:, None] * E[i]
                    - zz[:, 5, None] * d)
        return F

    def jacobian(zz, _rows):
        J = np.zeros((len(zz), 6, 6))
        J[:, :, :4] = system_jacobian(zz[:, :4])
        J[:, :5, 4] = -E[split(zz[:, 4])[0]]
        J[:, :5, 5] = -d
        return J

    z, conv = _newton(np.column_stack([seeds, seg + foot, lam0]), residual,
                      jacobian, config.newton_tol, config)
    # every u is a curve point, so a row at lambda ~ 0 is an image point on
    # the curve
    if np.any(conv & (np.abs(z[:, 5]) < config.min_image_separation)):
        raise ValueError("curve passes too close to the image to link")
    z = z[conv & (z[:, 5] > 0)]
    t = split(z[:, 4])[1]
    if np.any((t < edge) | (t > 1.0 - edge)):
        raise _DegenerateChain("crossing near a vertex")
    # with B = [unit normal, positive tangent basis T], det B = 1, the G
    # row of J diag(B, 1, 1) gives det J = -|grad G| det[E, d, df T]
    J = jacobian(z[_dedupe(z[:, :4], _DEDUPE_RADIUS)], None)
    det = np.linalg.det(J)
    if np.any(np.abs(det) < config.jacobian_min_det
              * np.prod(np.linalg.norm(J, axis=1), axis=1)):
        raise _DegenerateChain("near-tangential crossing")
    return int(-np.sign(det).sum())


def link_1cycle_3manifold(curve, manifold, config: Config = DEFAULT,
                          direction=None) -> int:
    """Linking number in R^5 of a closed curve with an immersed 3-sphere.

    curve is a closed polyline K in R^5 disjoint from the image of
    manifold, an immersion exposing vectorized ambient_eval /
    ambient_jacobian over the star-shaped domain hypersurface
    {domain_constraint(., params) = 0}, with KinkParams params; repeated
    consecutive vertices of K are dropped first.  The class
    of the curve in H_1 of the image complement is the signed count of
    crossings of the image through any 2-chain bounding the curve; the
    chain used here is the curtain {K(s) + lambda d : lambda >= 0} that K
    sweeps along a unit direction d, the cone over K from the point at
    infinity in direction d.  The seeds rest on the two pieces of the
    image, so the engine relies on f(x) = (x, 0) off the kink disks, as
    for geometry.FamilyMap.  There a crossing lies where some curtain line
    K_i + lambda d meets R^4 x {0}: vertex i seeds the point of the domain
    on the ray through K_i[:4] - (K_i5 / d5) d[:4] (geometry.radial_point),
    paired with its own segment.  On the kink disks the kink-disk grid of
    solve_self_intersection (config.double_seed_rings rings) seeds every
    point whose image lies within 0.08 of K once both are projected along
    d, paired with the segment of the nearest projected sample.  Each
    crossing, solved by _curtain_crossings on one continuous curve
    parameter, has the sign of

        det[B - A, d, f_* b1, f_* b2, f_* b3]

    with A B its segment and (b_i) a positive tangent basis of the domain,
    outward normal first, so a curve bounding a small disk that meets the
    image once positively gets +1; that sign is -sign det J, J the 6 x 6
    Jacobian of the curtain system at the crossing.  The count is
    independent of d.  The
    directions are unit(e5 + 0.06 N(0, I)) drawn from config.seed + 11: a
    crossing within 1e-5 of a vertex or failing the transversality
    threshold moves on to the next, config.apex_retries in all,
    after which NonRegularValueError is raised.  A given direction is the
    only one tried; one with d5 = 0, whose curtain lines never meet
    R^4 x {0}, raises ValueError.
    """
    verts = _drop_duplicate_endpoint(curve)
    if verts.shape[1] != 5:
        raise ValueError("curve must be a closed polyline in R^5")
    # a repeated vertex spans a zero-length segment, which has no foot point
    verts = verts[np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
                  > 1e-13]
    params = manifold.params
    if direction is not None:
        directions = [_unit(direction)]
        if directions[0][4] == 0:
            raise ValueError("direction must not be horizontal (d5 = 0)")
    else:
        rng = np.random.default_rng(config.seed + 11)
        directions = _unit(np.eye(5)[4] + 0.06 * rng.normal(
            size=(config.apex_retries, 5)))
    n = len(verts)
    # the points at u = 1/4 and 3/4 of each segment; sample i lies on
    # segment i mod n
    nxt = np.roll(verts, -1, axis=0)
    samples = np.concatenate([0.75 * verts + 0.25 * nxt,
                              0.25 * verts + 0.75 * nxt])
    grid = _kink_disk_grid(params, config.double_seed_rings)
    grid_img = manifold.ambient_eval(grid)
    last_err = None
    for d in directions:
        tree = _kdtree(_flatten(samples, d))
        # farther points come back as inf, and only dist < 0.08 is read
        dist, near = tree.query(_flatten(grid_img, d),
                                distance_upper_bound=0.08)
        close = dist < 0.08
        foot = verts[:, :4] - (verts[:, 4] / d[4])[:, None] * d[:4]
        ray = np.any(foot != 0, axis=1)
        flat = radial_point(foot[ray], params)
        seeds = np.concatenate([grid[close], flat])
        img = np.concatenate([grid_img[close], manifold.ambient_eval(flat)])
        seg = np.concatenate([near[close] % n, np.nonzero(ray)[0]])
        try:
            return _curtain_crossings(verts, d, seg, manifold, seeds, img,
                                      config)
        except _DegenerateChain as err:
            last_err = err
    raise NonRegularValueError(f"no generic projection direction found: "
                               f"{last_err}")


def _directed_polyline_dist(pts, poly) -> float:
    """max over pts of the distance to the closed polyline poly."""
    n = len(poly)
    nxt = np.roll(np.arange(n), -1)
    # candidate segments: the ones adjacent to the four nearest vertices
    _, idx = _kdtree(poly).query(pts, k=min(4, n))
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

"""Closed-form geometry: kink, blend, swept domain, family, frame columns."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from genimm.config import Config
from genimm import geometry
from genimm.geometry import (FamilyMap, HalfInteger, KinkParams, TorusPoint,
                             blended_kink, classical_hopf, column_m1,
                             column_m1_jacobian, column_n1,
                             column_n1_jacobian, domain_constraint,
                             domain_constraint_grad, fd_jacobian,
                             frame_columns, frame_defect,
                             profile_height, quat_mul, quaternion_frame,
                             radial_point, smooth_step, whitney_kink,
                             whitney_kink_jacobian)

RNG = np.random.default_rng(20240812)


# ---------------------------------------------------------------------------
# half integers


def test_half_integer_parse():
    assert HalfInteger.parse("3/2").twice == 3
    assert HalfInteger.parse("-1/2").twice == -1
    assert HalfInteger.parse(2).twice == 4
    assert HalfInteger.parse("2").value == 2.0
    assert str(HalfInteger.parse("1/2")) == "1/2"
    assert str(HalfInteger.parse("-2")) == "-2"
    with pytest.raises(ValueError):
        HalfInteger.parse("1/3")


# ---------------------------------------------------------------------------
# the kink


def test_kink_double_point():
    p = whitney_kink(1.0, 0.0)
    q = whitney_kink(-1.0, 0.0)
    assert np.allclose(p, q)
    assert np.allclose(p, [0.0, 0.0, 0.5, 0.0])


def test_kink_flattens_at_infinity():
    far = whitney_kink(40.0, -3.0)
    assert np.allclose(far[:2], [40.0 - 2 * 40 / ((1 + 1600) * 10), -3.0])
    assert abs(far[2]) < 1e-3 and abs(far[3]) < 1e-2


def kink(p):
    return whitney_kink(p[..., 0], p[..., 1])


def test_kink_jacobian_matches_finite_differences():
    h = 1e-6
    pts = RNG.uniform(-3, 3, size=(25, 2))
    for x, y in pts:
        J = whitney_kink_jacobian(x, y)
        fd_x = (whitney_kink(x + h, y) - whitney_kink(x - h, y)) / (2 * h)
        fd_y = (whitney_kink(x, y + h) - whitney_kink(x, y - h)) / (2 * h)
        assert np.allclose(J[..., 0], fd_x, atol=1e-6)
        assert np.allclose(J[..., 1], fd_y, atol=1e-6)
        fd = fd_jacobian(kink, np.array([x, y]), h)
        assert fd.shape == (4, 2)
        assert np.array_equal(fd, np.column_stack([fd_x, fd_y]))
    # batched: (5, 5, 2) points give (5, 5, 4, 2) Jacobians
    grid = pts.reshape(5, 5, 2)
    fd = fd_jacobian(kink, grid, h)
    assert fd.shape == (5, 5, 4, 2)
    assert np.allclose(fd, whitney_kink_jacobian(grid[..., 0], grid[..., 1]),
                       atol=1e-6)


def test_fd_jacobian_of_a_scalar_function_is_its_gradient():
    # on the round part 4a <= |(x1, x2)| < 1, G(x) = |x|^2 - 1, so the
    # gradient is 2x
    params = KinkParams()
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 7, 4))
    x[..., 0] = rng.uniform(0.85, 0.95, size=(3, 7))
    x[..., 1] = rng.uniform(-0.1, 0.1, size=(3, 7))
    grad = fd_jacobian(lambda p: domain_constraint(p, params), x, 1e-6)
    assert grad.shape == (3, 7, 4)
    assert np.allclose(grad, 2 * x, atol=1e-6)


def test_kink_half_turn_symmetry():
    # L o g o R = g with R the half turn of the plane and L = diag(-1,-1,1,1)
    pts = RNG.uniform(-4, 4, size=(50, 2))
    g = whitney_kink(pts[:, 0], pts[:, 1])
    g_rot = whitney_kink(-pts[:, 0], -pts[:, 1])
    assert np.allclose(g_rot * np.array([-1, -1, 1, 1]), g)


def test_smooth_step_is_flat_outside():
    t = np.array([-1.0, 0.0, 1.0, 2.0])
    assert np.allclose(smooth_step(t), [0, 0, 1, 1])
    mid = smooth_step(np.array([0.5]))
    assert 0 < mid[0] < 1


def test_blended_kink_matches_pieces():
    inner = RNG.uniform(-1.5, 1.5, size=(20, 2))
    g = blended_kink(inner[:, 0], inner[:, 1])
    assert np.allclose(g, whitney_kink(inner[:, 0], inner[:, 1]))
    ang = RNG.uniform(0, 2 * np.pi, 20)
    rad = RNG.uniform(5.0, 8.0, 20)
    x, y = rad * np.cos(ang), rad * np.sin(ang)
    g = blended_kink(x, y)
    flat = np.stack([x, y, np.zeros_like(x), np.zeros_like(x)], axis=-1)
    assert np.allclose(g, flat)


def test_blended_kink_keeps_symmetry():
    pts = RNG.uniform(-6, 6, size=(50, 2))
    g = blended_kink(pts[:, 0], pts[:, 1])
    g_rot = blended_kink(-pts[:, 0], -pts[:, 1])
    assert np.allclose(g_rot * np.array([-1, -1, 1, 1]), g)


def test_blended_kink_is_an_immersion():
    # finite-difference jacobian has two strong singular values everywhere
    ang = RNG.uniform(0, 2 * np.pi, 1500)
    rad = np.sqrt(RNG.uniform(0, 1, 1500)) * 6.0
    x, y = rad * np.cos(ang), rad * np.sin(ang)
    h = 1e-5
    Jx = (blended_kink(x + h, y) - blended_kink(x - h, y)) / (2 * h)
    Jy = (blended_kink(x, y + h) - blended_kink(x, y - h)) / (2 * h)
    J = np.stack([Jx, Jy], axis=-1)
    smin = np.linalg.svd(J, compute_uv=False)[:, -1]
    assert smin.min() > 1e-2


def test_blended_kink_single_double_point():
    # image self-overlaps only at the one kink crossing
    n = 261
    grid = np.linspace(-6.5, 6.5, n)
    X, Y = np.meshgrid(grid, grid)
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    img = blended_kink(pts[:, 0], pts[:, 1])
    tree = cKDTree(img)
    spacing = grid[1] - grid[0]
    pairs = tree.query_pairs(r=spacing * 0.75, output_type="ndarray")
    sep = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    suspicious = pairs[sep > 0.5]
    assert len(suspicious) > 0  # the crossing is really there
    for i, j in suspicious:
        assert np.linalg.norm(np.abs(pts[i]) - [1, 0]) < 0.2
        assert np.linalg.norm(np.abs(pts[j]) - [1, 0]) < 0.2


# ---------------------------------------------------------------------------
# domain hypersurface


def test_profile_flat_then_round():
    p = KinkParams()
    h = p.cap_height
    assert np.array_equal(profile_height([0.0, 0.1, 2 * p.a], p), [h, h, h])
    s = np.array([4 * p.a, 0.9, 1.0])
    assert np.allclose(profile_height(s, p), np.sqrt(1 - s**2))
    dense = np.linspace(0, 0.999, 2000)
    vals = profile_height(dense, p)
    assert np.all(vals > 0)
    assert vals.max() < 1.0


def test_domain_constraint_sign():
    p = KinkParams()
    theta = RNG.uniform(0, 2 * np.pi, 200)
    s = RNG.uniform(0, 1, 200)
    chi = RNG.uniform(0, 2 * np.pi, 200)
    pts = p.chart(np.maximum(s, p.a), chi, theta)
    assert np.max(np.abs(domain_constraint(pts, p))) < 1e-12
    assert np.all(domain_constraint(0.9 * pts, p) < 0)
    assert np.all(domain_constraint(1.1 * pts, p) > 0)


@pytest.mark.parametrize("a", [1e-3, 0.05, 0.1, 0.15, 0.2, 0.24, 0.2499])
def test_domain_is_star_shaped(a):
    # s / zeta(s) strictly increasing on [0, 1], so each ray meets M once;
    # radial_point rests on this
    p = KinkParams(a=a)
    s = np.linspace(0.0, 1.0, 200001)
    zeta = profile_height(s, p)
    assert np.all(s[:-1] * zeta[1:] < s[1:] * zeta[:-1])


def test_radial_point_returns_chart_points():
    p = KinkParams()
    rng = np.random.default_rng(22)
    s = np.concatenate([rng.uniform(0, 2 * p.a, 100),
                        rng.uniform(2 * p.a, 4 * p.a, 100),
                        rng.uniform(4 * p.a, 1, 100)])
    alpha = rng.uniform(-np.pi, np.pi, 300)
    beta = rng.uniform(-np.pi, np.pi, 300)
    pts = p.chart(s, alpha, beta)
    for scale in (0.3, 1.0, 2.5):
        assert np.allclose(radial_point(scale * pts, p), pts,
                           rtol=0, atol=1e-14)
    # each row is mapped on its own, whatever else is in the batch
    sub = rng.choice(300, 90, replace=False)
    assert np.array_equal(radial_point(2 * pts[sub], p),
                          radial_point(2 * pts, p)[sub])


def test_radial_point_of_rays_in_a_coordinate_plane():
    # no nan and no RuntimeWarning, which pytest turns into an error
    p = KinkParams()
    angle = np.linspace(-np.pi, np.pi, 20)
    zero = np.zeros(20)
    ring = 2 * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    x34 = radial_point(np.concatenate([0 * ring, ring], axis=1), p)
    assert np.allclose(x34, p.chart(zero, zero, angle), rtol=0, atol=1e-15)
    x12 = radial_point(np.concatenate([ring, 0 * ring], axis=1), p)
    assert np.allclose(x12, p.chart(zero + 1, angle, zero), rtol=0,
                       atol=1e-15)


def test_torus_chart_is_the_chart_on_the_cap():
    # on the flat cap zeta is the cap height exactly, so the kink-disk
    # grids keep their bytes
    p = KinkParams()
    rng = np.random.default_rng(23)
    theta, phi = rng.uniform(0, 2 * np.pi, (2, 50))
    r = rng.uniform(0, np.pi, 50)
    rad, h = r * p.a / np.pi, p.cap_height
    assert np.array_equal(p.torus_chart(theta, r, phi), np.stack(
        [rad * np.cos(phi), rad * np.sin(phi),
         h * np.cos(theta), h * np.sin(theta)], axis=-1))


# ---------------------------------------------------------------------------
# the family


def test_family_requires_half_integer():
    with pytest.raises(ValueError):
        FamilyMap("2/3")


def test_family_fixes_exterior():
    fam = FamilyMap("3/2")
    theta = RNG.uniform(0, 2 * np.pi, 100)
    s = RNG.uniform(fam.params.a, 1.0, 100)
    chi = RNG.uniform(0, 2 * np.pi, 100)
    pts = fam.params.chart(s, chi, theta)
    out = fam.ambient_eval(pts)
    assert np.allclose(out[:, :4], pts, atol=1e-14)
    assert np.allclose(out[:, 4], 0.0)


def test_family_continuous_across_torus_boundary():
    fam = FamilyMap("3/2")
    theta = RNG.uniform(0, 2 * np.pi, 50)
    phi = RNG.uniform(0, 2 * np.pi, 50)
    inner = fam.torus_eval(theta, np.pi - 1e-9, phi)
    outer = fam.torus_eval(theta, np.pi, phi)
    assert np.max(np.linalg.norm(inner - outer, axis=1)) < 1e-8


def test_family_continuous_across_the_disk_edge_at_a_moved_annulus():
    # the kink scale a / r2 and the blend annulus both come from the
    # config, so the spun kink still meets the flat part at |x12| = a
    fam = FamilyMap("1/2", config=Config(kink_r1=2.0, kink_r2=4.0))
    a = fam.params.a
    theta = RNG.uniform(0, 2 * np.pi, 50)
    chi = RNG.uniform(0, 2 * np.pi, 50)
    inner = fam.ambient_eval(fam.params.chart(np.full(50, a - 1e-9), chi,
                                              theta))
    outer = fam.ambient_eval(fam.params.chart(np.full(50, a + 1e-9), chi,
                                              theta))
    assert np.max(np.linalg.norm(inner - outer, axis=1)) < 1e-7


def test_family_single_valued_across_sweep_seam():
    # theta -> 0+ and theta -> 2pi- give the same map despite the half turn
    for m in ("1/2", "-1/2", "3/2"):
        fam = FamilyMap(m)
        r = RNG.uniform(0, np.pi, 40)
        phi = RNG.uniform(0, 2 * np.pi, 40)
        lo = fam.torus_eval(np.full_like(r, 1e-9), r, phi)
        hi = fam.torus_eval(np.full_like(r, 2 * np.pi - 1e-9), r, phi)
        assert np.max(np.linalg.norm(lo - hi, axis=1)) < 1e-7


def test_family_double_point_circle():
    for m in ("1/2", "1", "-3/2"):
        fam = FamilyMap(m)
        theta = RNG.uniform(0, 2 * np.pi, 60)
        p1, p2 = fam.double_point_pair(theta)
        v1 = fam.ambient_eval(p1)
        v2 = fam.ambient_eval(p2)
        assert np.max(np.linalg.norm(v1 - v2, axis=1)) < 1e-12
        rho = fam.double_point_radius
        expect = np.stack([np.zeros_like(theta), np.zeros_like(theta),
                           rho * np.cos(theta), rho * np.sin(theta),
                           np.zeros_like(theta)], axis=-1)
        assert np.max(np.linalg.norm(v1 - expect, axis=1)) < 1e-12
        if fam.m.is_integer:
            continue
        # 2 pi m = pi mod 2 pi: the second leg continues the first past a
        # full sweep, and the two legs joined make the preimage circle
        assert np.max(np.linalg.norm(
            fam.preimage_branch(theta + 2 * np.pi, 0.0) - p2, axis=1)) < 1e-12
        grid = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        (circle,) = fam.preimage_components(128)
        assert np.array_equal(circle,
                              np.concatenate(fam.double_point_pair(grid)))


def test_preimage_component_structure():
    fam = FamilyMap("1/2")
    comps = fam.preimage_components(128)
    assert len(comps) == 1
    fam = FamilyMap("1")
    comps = fam.preimage_components(128)
    assert len(comps) == 2
    assert min(np.linalg.norm(comps[0] - comps[1], axis=1)) > 1e-3


def test_family_jacobian_has_rank_three():
    fam = FamilyMap("3/2")
    n = 1000
    theta = RNG.uniform(0, 2 * np.pi, n)
    r = RNG.uniform(0.05, np.pi - 0.05, n)
    phi = RNG.uniform(0, 2 * np.pi, n)
    J = fd_jacobian(lambda p: fam.torus_eval(p[..., 0], p[..., 1], p[..., 2]),
                    np.stack([theta, r, phi], axis=-1), 1e-5)
    smin = np.linalg.svd(J, compute_uv=False)[:, -1]
    assert smin.min() > 1e-4


def _chart_band(params, lo, hi, shape):
    """Chart points with planar radius s in [lo, hi), moved off M by about
    1e-3 along random directions."""
    s = RNG.uniform(lo, hi, shape)
    x = params.chart(s, RNG.uniform(0, 2 * np.pi, shape),
                     RNG.uniform(0, 2 * np.pi, shape))
    return x + 1e-3 * RNG.normal(size=x.shape)


@pytest.mark.parametrize("m", ["1/2", "1", "-3/2", "2"])
def test_ambient_jacobian_matches_finite_differences(m):
    # the leading shape (l, n) is the one invariants._pushoff_curve passes
    fam = FamilyMap(m)
    p, c = fam.params, fam.params.kink_scale
    bands = {"kink core": (0, c * p.r1), "blend annulus": (c * p.r1, p.a),
             "flat cap off the disk": (1.05 * p.a, 2 * p.a),
             "round part": (4 * p.a, 0.95)}
    for name, (lo, hi) in bands.items():
        x = _chart_band(p, lo, hi, (2, 6))
        J = fam.ambient_jacobian(x)
        assert J.shape == (2, 6, 5, 4)
        fd = fd_jacobian(fam.ambient_eval, x, 1e-6)
        assert np.abs(J - fd).max() < 1e-8, name
        if lo > p.a:
            assert np.array_equal(J, np.broadcast_to(np.eye(5, 4), J.shape))
    x = _chart_band(p, 0, p.a, ())
    assert fam.ambient_jacobian(x).shape == (5, 4)
    assert np.array_equal(fam.ambient_jacobian(x),
                          fam.ambient_jacobian(x[None])[0])


def test_domain_constraint_grad_matches_finite_differences():
    p = KinkParams()

    def fd(x):
        return fd_jacobian(lambda y: domain_constraint(y, p), x, 1e-6)

    bands = {"flat cap": (0, 2 * p.a), "profile annulus": (2 * p.a, 4 * p.a),
             "round part": (4 * p.a, 0.95)}
    for name, (lo, hi) in bands.items():
        x = _chart_band(p, lo, hi, (3, 5))
        grad = domain_constraint_grad(x, p)
        assert grad.shape == (3, 5, 4)
        assert np.abs(grad - fd(x)).max() < 1e-8, name
    # on the round part G = |x|^2 - 1 exactly, so its gradient is 2x
    x = _chart_band(p, 4 * p.a, 0.95, (7,))
    assert np.array_equal(domain_constraint_grad(x, p), 2 * x)
    # at s = 0 the disk coordinates drop out, with no division by s, alone
    # and beside a row in the profile annulus
    x = np.array([[0.0, 0.0, 0.6, -0.5], [0.5, 0.1, 0.4, 0.7]])
    grad = domain_constraint_grad(x, p)
    assert np.array_equal(grad[0], [0.0, 0.0, 1.2, -1.0])
    assert np.array_equal(domain_constraint_grad(x[0], p), grad[0])
    assert np.allclose(grad, fd(x), atol=1e-8)


def test_step_slope_is_the_derivative_of_the_step():
    t = np.array([-1.0, 0.0, 1e-3, 0.2, 0.5, 0.9, 0.999, 1.0, 3.0])
    step, slope = geometry._step_with_slope(t)
    assert np.array_equal(step, smooth_step(t))
    h = 1e-7
    fd = (smooth_step(t + h) - smooth_step(t - h)) / (2 * h)
    assert np.allclose(slope, fd, atol=1e-6)
    assert np.array_equal(slope[[0, 1, 7, 8]], np.zeros(4))


def test_eval_validates_coordinates():
    fam = FamilyMap("1/2")
    with pytest.raises(ValueError):
        TorusPoint(0.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        fam.eval(np.array([0.0, 0.0, 0.5, 0.0, 0.0]))  # off the hypersurface
    with pytest.raises(ValueError):
        fam.eval(np.array([0.0, 0.0, 0.9, 0.0, 0.3]))  # off the x5 = 0 slice
    p = TorusPoint(1.0, 0.5, 2.0)
    v = fam.eval(p)
    assert v.shape == (5,)


def test_torus_eval_matches_ambient_eval():
    fam = FamilyMap("-1/2")
    theta = RNG.uniform(0, 2 * np.pi, 30)
    r = RNG.uniform(0, np.pi, 30)
    phi = RNG.uniform(0, 2 * np.pi, 30)
    pts = fam.params.torus_chart(theta, r, phi)
    assert np.allclose(fam.torus_eval(theta, r, phi), fam.ambient_eval(pts))


# ---------------------------------------------------------------------------
# batches: every row gets the values it gets alone


def _ring(lo, hi, n, dim):
    """n points with planar radius in [lo, hi); the rest of dim is random."""
    ang = RNG.uniform(0, 2 * np.pi, n)
    rad = RNG.uniform(lo, hi, n)
    pts = RNG.normal(size=(n, dim))
    pts[:, 0], pts[:, 1] = rad * np.cos(ang), rad * np.sin(ang)
    return pts


def _assert_rows_independent(fn, classes):
    """fn on the shuffled union of the classes, on each class alone and on
    each row alone give equal rows."""
    mixed = np.concatenate(classes)
    order = RNG.permutation(len(mixed))
    whole = np.empty_like(fn(mixed))
    whole[order] = fn(mixed[order])
    start = 0
    for cls in classes:
        own = fn(cls)
        assert np.array_equal(whole[start:start + len(cls)], own)
        for row, val in zip(cls, own):
            assert np.array_equal(fn(row[None])[0], val)
        start += len(cls)


@pytest.mark.parametrize("m", ["1/2", "-3/2", "2"])
def test_family_rows_are_batch_independent(m):
    fam = FamilyMap(m)
    p, c = fam.params, fam.params.kink_scale
    classes = [_ring(0, c * p.r1, 12, 4),          # kink core
               _ring(c * p.r1, p.a, 12, 4),        # blend annulus
               _ring(p.a, 2 * p.a, 12, 4),         # flat cap, fixed
               _ring(2 * p.a, 1.0, 12, 4)]         # profile blend and round
    _assert_rows_independent(fam.ambient_eval, classes)
    _assert_rows_independent(fam.ambient_jacobian, classes)
    _assert_rows_independent(lambda x: domain_constraint(x, p), classes)
    _assert_rows_independent(lambda x: domain_constraint_grad(x, p), classes)


def test_blended_kink_rows_are_batch_independent():
    p = KinkParams()
    classes = [_ring(0, p.r1, 15, 2), _ring(p.r1, p.r2, 15, 2),
               _ring(p.r2, 2 * p.r2, 15, 2)]
    _assert_rows_independent(
        lambda pts: blended_kink(pts[:, 0], pts[:, 1]), classes)


def _bump_step(t):
    """The general smooth step, written out: f(t) / (f(t) + f(1 - t)) with
    f(s) = exp(-1/s) for s > 0 and 0 otherwise."""
    def f(s):
        return np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
    return f(t) / (f(t) + f(1.0 - t))


@pytest.mark.parametrize("t", [
    [-3.0, -1e-300, 0.0, -0.0],             # all <= 0
    [1.0, 1.0 + 1e-15, 2.5, 1e300],         # all >= 1
    [-1.0, 0.0, 1e-3, 0.5, 0.999, 1.0, 4.0],  # mixed
])
def test_smooth_step_equals_the_bump_formula(t):
    t = np.array(t)
    assert np.array_equal(smooth_step(t), _bump_step(t))
    assert np.array_equal(smooth_step(t[:1]), _bump_step(t[:1]))


def test_ambient_eval_of_a_point_equals_its_one_row_batch():
    fam = FamilyMap("3/2")
    p, c = fam.params, fam.params.kink_scale
    for x in np.concatenate([_ring(0, c * p.r1, 5, 4),
                             _ring(c * p.r1, p.a, 5, 4),
                             _ring(p.a, 1.0, 5, 4)]):
        single = fam.ambient_eval(x)
        assert single.shape == (5,)
        assert np.array_equal(single, fam.ambient_eval(x[None])[0])


# ---------------------------------------------------------------------------
# frame columns


def test_column_m1_unit_norm():
    for m in ("-2", "-1/2", "1", "3/2"):
        theta = RNG.uniform(0, 2 * np.pi, 200)
        r = RNG.uniform(0, np.pi, 200)
        phi = RNG.uniform(0, 2 * np.pi, 200)
        v = column_m1(m, theta, r, phi)
        assert np.allclose(np.linalg.norm(v, axis=-1), 1.0)


def test_column_m1_disk_center_and_boundary():
    theta = RNG.uniform(0, 2 * np.pi, 50)
    for m in ("1/2", "-1", "2"):
        mval = HalfInteger.parse(m).value
        A = (mval - 1) * theta
        center = column_m1(m, theta, np.zeros_like(theta), theta * 0)
        expect = np.stack([-np.cos(2 * A), np.sin(2 * A),
                           0 * A, 0 * A], axis=-1)
        assert np.allclose(center, expect, atol=1e-12)
        boundary = column_m1(m, theta, np.full_like(theta, np.pi),
                             RNG.uniform(0, 2 * np.pi, 50))
        assert np.allclose(boundary, [1, 0, 0, 0], atol=1e-12)


def test_column_m1_jacobian_matches_finite_differences():
    h = 1e-6
    for m in ("-1/2", "3/2"):
        theta = RNG.uniform(0, 2 * np.pi, 20)
        r = RNG.uniform(0.1, np.pi - 0.1, 20)
        phi = RNG.uniform(0, 2 * np.pi, 20)
        J = column_m1_jacobian(m, theta, r, phi)
        for k, (dt, dr, dp) in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            fd = (column_m1(m, theta + h * dt, r + h * dr, phi + h * dp)
                  - column_m1(m, theta - h * dt, r - h * dr, phi - h * dp)) \
                / (2 * h)
            assert np.allclose(J[..., k], fd, atol=1e-6)
        pts = np.stack([theta, r, phi], axis=-1).reshape(4, 5, 3)
        fd = fd_jacobian(lambda p: column_m1(m, p[..., 0], p[..., 1],
                                             p[..., 2]), pts, h)
        assert fd.shape == (4, 5, 4, 3)
        assert np.allclose(fd, J.reshape(4, 5, 4, 3), atol=1e-6)


def test_column_n1_jacobian_matches_finite_differences():
    theta = RNG.uniform(0, 2 * np.pi, 20)
    r = RNG.uniform(0, np.pi, 20)
    phi = RNG.uniform(0, 2 * np.pi, 20)
    J = column_n1_jacobian(theta, r, phi)
    assert J.shape == (20, 3, 3)
    pts = np.stack([theta, r, phi], axis=-1).reshape(4, 5, 3)
    fd = fd_jacobian(lambda p: column_n1(p[..., 0], p[..., 1], p[..., 2]),
                     pts, 1e-6)
    assert np.allclose(fd, J.reshape(4, 5, 3, 3), atol=1e-6)
    # scalar coordinates give a single 3 x 3 matrix
    assert np.allclose(column_n1_jacobian(theta[0], r[0], phi[0]), J[0])


def test_column_n1_unit_and_boundary():
    theta = RNG.uniform(0, 2 * np.pi, 100)
    r = RNG.uniform(0, np.pi, 100)
    phi = RNG.uniform(0, 2 * np.pi, 100)
    v = column_n1(theta, r, phi)
    assert np.allclose(np.linalg.norm(v, axis=-1), 1.0)
    edge = column_n1(theta, np.full_like(theta, np.pi), phi)
    assert np.allclose(edge, [1, 0, 0], atol=1e-12)


def test_frame_defect_localized_to_printed_third_column():
    for theta in RNG.uniform(0, 2 * np.pi, 20):
        report = frame_defect(theta)
        assert report["subframe_orthonormal"]
        st, ct = np.sin(theta), np.cos(theta)
        expected = {}
        if abs(st * ct) > 1e-12:
            expected[(1, 3)] = st * ct
            expected[(2, 3)] = st * ct
        if abs(ct) > 1e-12:
            expected[(3, 5)] = ct * ct
        assert set(report["entries"]) == set(expected)
        for key, val in expected.items():
            assert np.isclose(report["entries"][key], val)
    # orthonormal exactly where cos(theta) = 0
    assert frame_defect(np.pi / 2)["orthonormal"]
    assert not frame_defect(0.3)["orthonormal"]


def test_frame_columns_match_stated_vectors():
    theta = 0.7
    S = frame_columns(theta)
    c, s = np.cos(theta), np.sin(theta)
    assert np.allclose(S[:, 0], [0, 0, s, -c, 0])
    assert np.allclose(S[:, 1], [-c, -s, 0, 0, 0])
    assert np.allclose(S[:, 2], [-s, 0, c, 0, 0])
    assert np.allclose(S[:, 3], [0, 0, 0, 0, 1])
    assert np.allclose(S[:, 4], [0, 0, c, s, 0])


# ---------------------------------------------------------------------------
# quaternions


def test_quaternion_frame_orthonormal():
    x = RNG.normal(size=(100, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    F = quaternion_frame(x)
    for i in range(100):
        cols = np.column_stack([x[i], F[i][:, 0], F[i][:, 1], F[i][:, 2]])
        assert np.allclose(cols.T @ cols, np.eye(4), atol=1e-12)


def test_quat_mul_associative():
    a, b, c = RNG.normal(size=(3, 4))
    assert np.allclose(quat_mul(quat_mul(a, b), c), quat_mul(a, quat_mul(b, c)))


def test_classical_hopf_lands_on_sphere():
    x = RNG.normal(size=(200, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    v = classical_hopf(x)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0)
    # the circle through 1 and i is the fiber over (1, 0, 0)
    t = RNG.uniform(0, 2 * np.pi, 50)
    circ = np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], axis=-1)
    assert np.allclose(classical_hopf(circ), [1, 0, 0], atol=1e-12)

"""Tests for the numerical topology engines, pinned to independent oracles.

Linking oracles are either hand-counted crossing diagrams or a midpoint-rule
evaluation of the Gauss integral with analytic tangents; degree and Hopf
values are checked against closed-form preimages and the classical quaternion
fibration, whose fibers and their framings are written out exactly.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from genimm.config import Config
from genimm.geometry import (FamilyMap, HalfInteger, classical_hopf,
                             column_m1, column_m1_jacobian, column_n1,
                             domain_constraint, quat_mul)
from genimm.numtopo import (NonRegularValueError, SignedCount, choose_pole,
                            crossing_link, degree_S3, gauss_link,
                            gauss_link_raw,
                            hausdorff_distance, hopf_invariant,
                            link_1cycle_3manifold,
                            spherical_cone_link, projected_link,
                            oriented_complement, solve_self_intersection,
                            stereographic, stereographic_basis)
from genimm import numtopo
from genimm.numtopo import (_DEDUPE_RADIUS, _dedupe, _newton, _periodic_key,
                            _seeds_near_chain, _star_project)

CFG = Config()


def circle3(n=720, radius=1.0, center=(0.0, 0.0, 0.0), axes=((1, 0, 0), (0, 1, 0))):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)[:, None]
    e1, e2 = (np.asarray(a, dtype=float) for a in axes)
    return np.asarray(center) + radius * (np.cos(t) * e1 + np.sin(t) * e2)


def hand_link_pair(n=720):
    # unit circle in the xy-plane and a unit circle in the xz-plane through
    # (1, 0, 0) +- z; counting signed crossings of the planar diagram by hand
    # gives linking number -1 with both parametrized by increasing angle
    a = circle3(n)
    b = circle3(n, center=(1.0, 0.0, 0.0), axes=((1, 0, 0), (0, 0, 1)))
    return a, b


class TestGaussLink:
    def test_hand_counted_crossings(self):
        a, b = hand_link_pair()
        raw = gauss_link_raw(a, b, CFG)
        assert abs(raw - (-1.0)) < 1e-9
        assert gauss_link(a, b, CFG) == -1

    def test_matches_midpoint_gauss_integral(self):
        # independent oracle: (1/4pi) oint oint det[a', b', a-b]/|a-b|^3
        n = 600
        s = (np.arange(n) + 0.5) * 2 * np.pi / n
        a = np.stack([np.cos(s), np.sin(s), np.zeros(n)], axis=1)
        da = np.stack([-np.sin(s), np.cos(s), np.zeros(n)], axis=1)
        b = np.stack([1 + np.cos(s), np.zeros(n), np.sin(s)], axis=1)
        db = np.stack([-np.sin(s), np.zeros(n), np.cos(s)], axis=1)
        diff = a[:, None, :] - b[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        integrand = np.einsum("ik,ijk->ij", da,
                              np.cross(db[None, :, :], diff)) / dist ** 3
        riemann = integrand.sum() * (2 * np.pi / n) ** 2 / (4 * np.pi)
        assert abs(riemann - (-1.0)) < 2e-3
        a_poly, b_poly = hand_link_pair()
        assert abs(gauss_link_raw(a_poly, b_poly, CFG) - riemann) < 2e-3

    def test_unlink_is_zero(self):
        a = circle3()
        b = circle3(center=(4.0, 0.0, 0.0), axes=((1, 0, 0), (0, 0, 1)))
        assert gauss_link(a, b, CFG) == 0
        side = circle3(center=(3.0, 0.0, 0.0))
        assert gauss_link(a, side, CFG) == 0

    def test_double_cable_doubles(self):
        a = circle3()
        u = np.linspace(0, 4 * np.pi, 1440, endpoint=False)
        b = np.stack([1 + np.cos(u) + 0.05 * np.cos(u / 2),
                      0.05 * np.sin(u / 2),
                      np.sin(u)], axis=1)
        assert gauss_link(a, b, CFG) == -2

    def test_reversal_flips_sign(self):
        a, b = hand_link_pair()
        assert gauss_link(a, b[::-1], CFG) == 1
        assert gauss_link(a[::-1], b[::-1], CFG) == -1

    def test_touching_curves_rejected(self):
        a = circle3()
        b = circle3(center=(2.0 + 1e-6, 0.0, 0.0))
        with pytest.raises(ValueError):
            gauss_link(a, b, CFG)


def torus_knot(p, q, n, major=2.0, minor=0.5):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    rho = major + minor * np.cos(q * t)
    return np.stack([rho * np.cos(p * t), rho * np.sin(p * t),
                     minor * np.sin(q * t)], axis=1)


def perturbed(curve, rng, size):
    """A closed curve moved by a random smooth displacement."""
    t = np.linspace(0, 2 * np.pi, len(curve), endpoint=False)[:, None]
    c = size * rng.normal(size=(3, 2, 3))
    return curve + sum(c[k, 0] * np.cos((k + 1) * t)
                       + c[k, 1] * np.sin((k + 1) * t) for k in range(3))


def degenerate_pair(kind):
    """A square a and a loop b through it, linked once, whose projection
    along z puts a vertex of b on an edge of a at both crossings, once
    under and once over, so that skipping both would still balance the
    over and under counts ("vertex"), or has b pass 9e-5 above an edge of
    a ("gap")."""
    a = np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0],
                  [-1.0, 1.0, 0.0]])
    if kind == "vertex":
        back = [[1.0, 0.2, -0.5], [2.0, 0.3, -1.0], [1.0, 0.0, 0.5]]
    else:
        back = [[2.0, 0.3, -1.0], [1.5, 0.1, 9e-5], [0.5, -0.1, 9e-5]]
    b = np.array([[0.1, 0.0, 1.0], [-0.1, 0.1, -1.0]] + back)
    return a, b


class TestCrossingLink:
    def test_matches_gauss_on_perturbed_polygons(self):
        rng = np.random.default_rng(5)
        values = []
        for _ in range(6):
            a = perturbed(circle3(300), rng, 0.15)
            b = perturbed(circle3(300, center=(1.0, 0.0, 0.0),
                                  axes=((1, 0, 0), (0, 0, 1))), rng, 0.15)
            lk = gauss_link(a, b, CFG)
            assert crossing_link(a, b, CFG) == lk
            values.append(lk)
        assert -1 in values

    def test_torus_knots_link_their_core_q_times(self):
        core = circle3(400, radius=2.0)
        for p, q in ((2, 3), (3, 2), (3, 5), (1, -4)):
            knot = torus_knot(p, q, 900)
            lk = gauss_link(knot, core, CFG)
            assert abs(lk) == abs(q)
            assert crossing_link(knot, core, CFG) == lk
            assert crossing_link(core, knot, CFG) == lk

    def test_reversal_flips_sign(self):
        a, b = hand_link_pair(360)
        assert crossing_link(a, b, CFG) == gauss_link(a, b, CFG) == -1
        assert crossing_link(a[::-1], b, CFG) == 1
        assert crossing_link(a, b[::-1], CFG) == 1
        assert crossing_link(a[::-1], b[::-1], CFG) == -1

    def test_unlinked_pairs(self):
        rng = np.random.default_rng(6)
        a = circle3(300)
        far = circle3(300, center=(4.0, 0.0, 0.0), axes=((1, 0, 0), (0, 0, 1)))
        side = circle3(300, center=(3.0, 0.0, 0.0))
        # a circle above the plane of a: in projection it crosses a twice
        # with opposite signs
        above = circle3(300, center=(1.2, 0.3, 0.5))
        for b in (far, side, above, perturbed(above, rng, 0.05)):
            assert crossing_link(a, b, CFG) == gauss_link(a, b, CFG) == 0

    def test_independent_of_direction(self):
        a, b = hand_link_pair(360)
        knot, core = torus_knot(2, 3, 600), circle3(300, radius=2.0)
        rng = np.random.default_rng(8)
        for d in rng.normal(size=(5, 3)):
            assert crossing_link(a, b, CFG, direction=d) == -1
            assert crossing_link(knot, core, CFG, direction=d) == \
                gauss_link(knot, core, CFG)

    def test_vertex_and_gap_degeneracies_replace_the_direction(self,
                                                               monkeypatch):
        # rotate each pair so that its degenerate direction z becomes the
        # first direction crossing_link draws
        first = np.random.default_rng(CFG.seed + 3).normal(size=3)
        first /= np.linalg.norm(first)
        rot = np.column_stack([oriented_complement(first), first])
        tried = []
        count = numtopo._projected_crossings

        def spy(a, b, d, config):
            tried.append(d)
            return count(a, b, d, config)

        monkeypatch.setattr(numtopo, "_projected_crossings", spy)
        for kind in ("vertex", "gap"):
            a, b = (c @ rot.T for c in degenerate_pair(kind))
            lk = gauss_link(a, b, CFG)
            assert abs(lk) == 1
            with pytest.raises(ArithmeticError):
                crossing_link(a, b, CFG, direction=first)
            tried.clear()
            assert crossing_link(a, b, CFG) == lk
            assert len(tried) == 2 and np.allclose(tried[0], first)

    def test_degenerate_direction_exhausts_retries(self):
        a, b = degenerate_pair("vertex")
        cfg = CFG.replace(apex_retries=0)
        with pytest.raises(ArithmeticError):
            crossing_link(a, b, cfg, direction=(0.0, 0.0, 1.0))
        assert abs(crossing_link(a, b, cfg)) == 1

    def test_touching_curves_rejected(self):
        a = circle3()
        b = circle3(center=(2.0 + 1e-6, 0.0, 0.0))
        with pytest.raises(ValueError):
            crossing_link(a, b, CFG)
        with pytest.raises(ValueError):
            crossing_link(a[:, :2], b[:, :2], CFG)


class TestOrientedComplement:
    @pytest.mark.parametrize("shape", [(3,), (4,), (7, 8)])
    def test_positive_orthonormal_complement(self, shape):
        given = np.random.default_rng(sum(shape)).normal(size=shape)
        rows = np.atleast_2d(given)
        n, k = shape[-1], len(rows)
        c = oriented_complement(given)
        assert c.shape == (n, n - k)
        assert np.allclose(c.T @ c, np.eye(n - k), atol=1e-12)
        assert np.allclose(rows @ c, 0.0, atol=1e-12)
        assert np.linalg.det(np.vstack([rows, c.T])) > 0
        # negating a row flips det[rows; C^T] of the unfixed complement, so
        # one of the two calls takes the sign fix
        flipped = rows * np.where(np.arange(k) == 0, -1.0, 1.0)[:, None]
        assert np.linalg.det(np.vstack([flipped,
                                        oriented_complement(flipped).T])) > 0

    def test_rank_deficient_rows_rejected(self):
        rows = np.array([[1.0, 2.0, 0.0, 1.0], [2.0, 4.0, 0.0, 2.0]])
        with pytest.raises(NonRegularValueError):
            oriented_complement(rows)
        with pytest.raises(NonRegularValueError):
            oriented_complement(np.zeros(3))

    def test_tracer_follows_the_oriented_tangent(self):
        # {z = 0, x^2 + y^2 = 1}: det[J; t] > 0 with J = [e3; 2(x, y, 0)]
        # picks t = (-y, x, 0), so the unit circle is traced counterclockwise
        def residual(p, _rows):
            return np.column_stack([p[:, 2], (p[:, :2] ** 2).sum(axis=1) - 1])

        def jacobian(p, _rows):
            J = np.zeros((len(p), 2, 3))
            J[:, 0, 2] = 1.0
            J[:, 1, :2] = 2 * p[:, :2]
            return J

        curve, rejected = numtopo._trace_closed_curve(
            np.array([1.0, 0.0, 0.0]), residual, jacobian, 1e-10,
            CFG.trace_step, CFG, [np.zeros(3)])
        assert rejected == 0
        assert np.allclose(residual(curve, None), 0.0, atol=1e-10)
        steps = np.diff(curve, axis=0)
        dets = np.linalg.det(np.concatenate(
            [jacobian(curve[:-1], None), steps[:, None, :]], axis=1))
        assert np.all(dets > 0)
        angle = np.unwrap(np.arctan2(curve[:, 1], curve[:, 0]))
        assert np.isclose(angle[-1], 2 * np.pi, atol=1e-3)


def _unit_circle(p, _rows):
    return np.column_stack([p[:, 2], (p[:, :2] ** 2).sum(axis=1) - 1])


def _unit_circle_jacobian(p, _rows):
    J = np.zeros((len(p), 2, 3))
    J[:, 0, 2] = 1.0
    J[:, 1, :2] = 2 * p[:, :2]
    return J


def _box_curve(p, _rows):
    # r = pi/2 + 0.3 sin(phi), theta = phi + 0.2 sin(phi): one circle of
    # the periodic (theta, r, phi) box, closing through the shift
    # (2 pi, 0, 2 pi)
    u = p[:, 0] - p[:, 2] - 0.2 * np.sin(p[:, 2])
    return np.column_stack([p[:, 1] - np.pi / 2 - 0.3 * np.sin(p[:, 2]),
                            np.sin(u)])


def _box_curve_jacobian(p, _rows):
    u = p[:, 0] - p[:, 2] - 0.2 * np.sin(p[:, 2])
    J = np.zeros((len(p), 2, 3))
    J[:, 0, 1] = 1.0
    J[:, 0, 2] = -0.3 * np.cos(p[:, 2])
    J[:, 1, 0] = np.cos(u)
    J[:, 1, 2] = -np.cos(u) * (1 + 0.2 * np.cos(p[:, 2]))
    return J


_BOX_SHIFTS = [np.array([2 * np.pi * i, 0.0, 2 * np.pi * j])
               for i in (-1, 0, 1) for j in (-1, 0, 1)]

# {z = 0, (|xy|^2 - 1)(|xy|^2 - 1.02^2) = 0}: two concentric circles whose
# oriented tangents turn opposite ways, so a midpoint corrected onto the
# outer one has det[J; chord] < 0
_RHO2 = 1.02 ** 2


def _two_circles(p, _rows):
    q = (p[:, :2] ** 2).sum(axis=1)
    return np.column_stack([p[:, 2], (q - 1) * (q - _RHO2)])


def _two_circles_jacobian(p, _rows):
    q = (p[:, :2] ** 2).sum(axis=1)
    J = np.zeros((len(p), 2, 3))
    J[:, 0, 2] = 1.0
    J[:, 1, :2] = 2 * p[:, :2] * (2 * q - 1 - _RHO2)[:, None]
    return J


def _closing_end(curve, shifts):
    """The shifted start the closing chord of a traced curve runs to."""
    ends = curve[0] + np.array(shifts)
    return ends[np.argmin(np.linalg.norm(ends - curve[-1], axis=1))]


def _assert_certified(curve, residual, jacobian, tol, step, shifts):
    end = _closing_end(curve, shifts)
    chords = np.diff(curve, axis=0, append=end[None])
    assert np.linalg.norm(chords, axis=1).max() <= step
    assert np.linalg.norm(residual(curve, None), axis=1).max() < tol
    J = jacobian(curve, None)
    assert np.all(np.linalg.det(np.concatenate([J, chords[:, None]],
                                               axis=1)) > 0)
    return end


class TestRefinement:
    @pytest.mark.parametrize("case", ["circle", "box"])
    def test_refined_curve_is_certified(self, case):
        if case == "circle":
            start, residual, jacobian = (np.array([1.0, 0.0, 0.0]),
                                         _unit_circle, _unit_circle_jacobian)
            shifts = [np.zeros(3)]
        else:
            start, residual, jacobian = (np.array([0.0, np.pi / 2, 0.0]),
                                         _box_curve, _box_curve_jacobian)
            shifts = _BOX_SHIFTS
        curve, rejected = numtopo._trace_closed_curve(
            start, residual, jacobian, 1e-10, CFG.trace_step, CFG, shifts)
        assert rejected == 0
        end = _assert_certified(curve, residual, jacobian, 1e-10,
                                CFG.trace_step, shifts)
        shift = end - curve[0]
        if case == "circle":
            assert np.array_equal(shift, np.zeros(3))
            # 2 pi / trace_step chords, plus the ~1% shortfall of the
            # coarse step and the closure's shorter chords
            assert 2 * np.pi / CFG.trace_step < len(curve) < 700
        else:
            assert np.allclose(np.abs(shift), [2 * np.pi, 0.0, 2 * np.pi])

    def test_coarse_factor_one_is_the_sequential_walk(self):
        # K = 1: the walk already meets the spacing and no level runs
        curve, rejected = numtopo._trace_closed_curve(
            np.array([1.0, 0.0, 0.0]), _unit_circle, _unit_circle_jacobian,
            1e-10, CFG.trace_step, CFG.replace(trace_coarse_factor=1),
            [np.zeros(3)])
        assert rejected == 0
        _assert_certified(curve, _unit_circle, _unit_circle_jacobian, 1e-10,
                          CFG.trace_step, [np.zeros(3)])

    def test_each_midpoint_check(self):
        # chord (0, 0) -> (1, 0) and J = (0, -1): det[J; chord] = 1.  Each
        # row after the first fails exactly one check.  A half-chord that is
        # not shorter puts z at least half a chord from the midpoint, so the
        # third row sits on the boundary of the second check, at z = a.
        a = np.zeros((5, 2))
        b = np.tile([1.0, 0.0], (5, 1))
        z = np.array([[0.5, 0.1], [0.5, 0.1], [0.5, 0.6], [0.0, 0.0],
                      [0.5, 0.1]])
        converged = np.array([True, False, True, True, True])
        J = np.tile([[[0.0, -1.0]]], (5, 1, 1))
        J[4] = -J[4]
        assert numtopo._rejected_midpoints(a, b, z, converged, J).tolist() \
            == [False, True, True, True, True]

    @staticmethod
    def _force(monkeypatch, case):
        """Spoil the first midpoint of the first refinement level (the
        first _newton batch of more than one row) in the given way; returns
        that midpoint's chord ends, then the start and end of every
        re-trace walk."""
        real_newton, real_walk = numtopo._newton, numtopo._walk
        chord, retraced = [], []

        def newton(x, residual, jacobian, tol, config):
            z, ok = real_newton(x, residual, jacobian, tol, config)
            if chord or len(x) == 1:
                if chord and case == "stuck":
                    ok[:] = False
                return z, ok
            # the last Jacobian row of a bisected system is its chord
            c = jacobian(x[:1], np.arange(1))[0, -1]
            chord.extend([x[0] - 0.5 * c, x[0] + 0.5 * c])
            if case in ("unconverged", "stuck"):
                ok[0] = False
            elif case == "moved":
                z[0, 2] += 0.6 * np.linalg.norm(c)
            elif case == "half-chord":
                z[0] = chord[1]
            elif case == "flipped":
                z[0, :2] *= np.sqrt(_RHO2) / np.linalg.norm(z[0, :2])
            return z, ok

        def walk(x, ends, *args):
            pts, end = real_walk(x, ends, *args)
            if args[-1].startswith("re-trace"):
                retraced.append((x, end, pts))
            return pts, end

        monkeypatch.setattr(numtopo, "_newton", newton)
        monkeypatch.setattr(numtopo, "_walk", walk)
        return chord, retraced

    @pytest.mark.parametrize("case", ["unconverged", "moved", "half-chord",
                                      "flipped"])
    def test_rejected_midpoint_has_its_arc_retraced(self, monkeypatch, case):
        chord, retraced = self._force(monkeypatch, case)
        curve, rejected = numtopo._trace_closed_curve(
            np.array([1.0, 0.0, 0.0]), _two_circles, _two_circles_jacobian,
            1e-10, CFG.trace_step, CFG, [np.zeros(3)])
        assert rejected == 1
        # one fine walk from the spoiled chord's start to its end, whose
        # points are vertices; every vertex is on the inner circle and
        # every chord certified
        assert len(retraced) == 1
        start, end, arc = retraced[0]
        assert np.allclose([start, end], chord, atol=1e-12)
        assert len(arc) >= 8
        assert cKDTree(curve).query(arc)[0].max() == 0.0
        assert np.allclose(np.linalg.norm(curve[:, :2], axis=1), 1.0,
                           atol=1e-9)
        _assert_certified(curve, _two_circles, _two_circles_jacobian, 1e-10,
                          CFG.trace_step, [np.zeros(3)])

    def test_retrace_that_fails_raises(self, monkeypatch):
        self._force(monkeypatch, "stuck")
        with pytest.raises(ArithmeticError, match="re-trace"):
            numtopo._trace_closed_curve(
                np.array([1.0, 0.0, 0.0]), _two_circles,
                _two_circles_jacobian, 1e-10, CFG.trace_step, CFG,
                [np.zeros(3)])


class TestStereographic:
    def test_basis_is_negative_orthonormal_frame(self):
        rng = np.random.default_rng(3)
        for p in rng.normal(size=(20, 4)):
            p = p / np.linalg.norm(p)
            e = stereographic_basis(p)
            assert np.allclose(e.T @ e, np.eye(3), atol=1e-12)
            assert np.allclose(p @ e, 0.0, atol=1e-12)
            assert np.isclose(np.linalg.det(np.column_stack([p, e])), -1.0)

    def test_projection_radius_relation(self):
        # |stereo(x)| = |x - (x.p)p| / (1 - x.p) for unit x
        rng = np.random.default_rng(4)
        p = np.array([0.0, 0.0, 0.0, 1.0])
        x = rng.normal(size=(50, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y = stereographic(x, p)
        perp = x - (x @ p)[:, None] * p
        expect = np.linalg.norm(perp, axis=1) / (1 - x @ p)
        assert np.allclose(np.linalg.norm(y, axis=1), expect, atol=1e-10)

    def test_pole_on_curve_rejected(self):
        p = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            stereographic(np.array([[1.0, 0.0, 0.0, 0.0]]), p)

    def test_choose_pole_clearance(self):
        t = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        a = np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], axis=1)
        b = np.stack([0 * t, 0 * t, np.cos(t), np.sin(t)], axis=1)
        pole = choose_pole([a, b], CFG)
        assert np.isclose(np.linalg.norm(pole), 1.0)
        gap = min(np.linalg.norm(a - pole, axis=1).min(),
                  np.linalg.norm(b - pole, axis=1).min())
        assert gap > 0.5


class TestLinkingEngines:
    def coordinate_circles(self, n=600):
        t = np.linspace(0, 2 * np.pi, n, endpoint=False)
        a = np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], axis=1)
        b = np.stack([0 * t, 0 * t, np.cos(t), np.sin(t)], axis=1)
        return a, b

    def test_coordinate_circles_link_once(self):
        a, b = self.coordinate_circles()
        assert projected_link(a, b, CFG) == 1
        assert spherical_cone_link(a, b, CFG) == 1
        assert projected_link(a, b[::-1], CFG) == -1
        assert spherical_cone_link(a[::-1], b, CFG) == -1

    def test_torus_parallel_curves(self):
        # parallel (1, m) curves on a torus of rays link m times
        t = np.linspace(0, 2 * np.pi, 900, endpoint=False)
        for m in (1, 3, -2):
            a = np.stack([0.4 * np.cos(m * t), 0.4 * np.sin(m * t),
                          0.8 * np.cos(t), 0.8 * np.sin(t)], axis=1)
            b = np.stack([0.4 * np.cos(m * t + np.pi), 0.4 * np.sin(m * t + np.pi),
                          0.8 * np.cos(t), 0.8 * np.sin(t)], axis=1)
            assert projected_link(a, b, CFG) == m
            assert spherical_cone_link(a, b, CFG) == m

    def test_family_preimage_circles_link_m_times(self):
        for m in (1, 2, -1):
            fam = FamilyMap(HalfInteger(2 * m))
            u, v = fam.preimage_components(1024)
            assert projected_link(u, v, CFG) == m
            assert spherical_cone_link(u, v, CFG) == m

    def test_engines_agree_on_perturbed_curves(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0, 2 * np.pi, 800, endpoint=False)
        for _ in range(4):
            c = 0.12 * rng.normal(size=(2, 4, 3))
            a = np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], axis=1)
            b = np.stack([0 * t, 0 * t, np.cos(t), np.sin(t)], axis=1)
            for k in range(4):
                a[:, k] += c[0, k, 0] * np.sin(t) + c[0, k, 1] * np.cos(2 * t) \
                    + c[0, k, 2] * np.sin(3 * t)
                b[:, k] += c[1, k, 0] * np.cos(t) + c[1, k, 1] * np.sin(2 * t) \
                    + c[1, k, 2] * np.cos(3 * t)
            lk = projected_link(a, b, CFG)
            assert lk == spherical_cone_link(a, b, CFG)
            assert lk == 1

    def test_result_independent_of_pole_and_apex(self):
        a, b = self.coordinate_circles()
        poles = [np.array([0.5, 0.5, 0.5, 0.5]),
                 np.array([-0.3, 0.6, -0.2, 0.7]),
                 np.array([0.9, -0.1, 0.3, -0.4])]
        assert {projected_link(a, b, CFG, pole=p) for p in poles} == {1}
        apexes = [np.array([0.9, 0.7, 1.1, 1.3]),
                  np.array([-0.2, 0.8, 0.5, -0.6])]
        assert {spherical_cone_link(a, b, CFG, apex=z) for z in apexes} == {1}

    def test_curves_must_be_rays_in_r4(self):
        a, b = hand_link_pair()
        with pytest.raises(ValueError):
            spherical_cone_link(a, b, CFG)


class TestDegree:
    def frame_map(self, m):
        mv = HalfInteger(int(round(2 * m))).value

        def fn(theta, r, phi):
            return column_m1(mv, theta, r, phi)

        def jac(theta, r, phi):
            return column_m1_jacobian(mv, theta, r, phi)

        return fn, jac

    def test_signed_preimage_count_half_integer(self):
        fn, jac = self.frame_map(0.5)
        out = degree_S3(fn, (0.0, 0.0, 1.0, 0.0), CFG, jac_fn=jac)
        assert out.value == 1 and out.count == 1
        assert set(out.signs) == {1}

    def test_signed_preimage_count_integer(self):
        fn, jac = self.frame_map(2)
        out = degree_S3(fn, (0.0, 0.0, 1.0, 0.0), CFG, jac_fn=jac)
        assert out.value == -2 and out.count == 2
        assert set(out.signs) == {-1}
        vals = column_m1(2.0, out.locations[:, 0], out.locations[:, 1],
                         out.locations[:, 2])
        assert np.allclose(vals, [0.0, 0.0, 1.0, 0.0], atol=1e-7)

    def test_finite_difference_jacobian_agrees(self):
        fn, jac = self.frame_map(-1)
        with_jac = degree_S3(fn, (0.0, 0.0, 1.0, 0.0), CFG, jac_fn=jac)
        without = degree_S3(fn, (0.0, 0.0, 1.0, 0.0), CFG)
        assert with_jac.value == without.value == 4
        assert with_jac.count == without.count == 4

    def test_missed_value_gives_zero(self):
        fn, jac = self.frame_map(1)
        out = degree_S3(fn, (0.0, 1.0, 0.0, 0.0), CFG, jac_fn=jac)
        assert out.value == 0 and out.count == 0

    def test_nonregular_value_raises(self):
        # at m = 1 the preimage of (0,0,1,0) is a whole circle
        fn, jac = self.frame_map(1)
        with pytest.raises(NonRegularValueError):
            degree_S3(fn, (0.0, 0.0, 1.0, 0.0), CFG, jac_fn=jac)


def northish(theta, r, phi):
    # misses (0, 0, -1); over (0, 0, 1) it has the two circles theta in
    # {0, pi}, r = pi/2 of the box
    v = np.stack([0.2 * np.sin(theta), 0.2 * np.cos(r), np.ones_like(phi)],
                 axis=-1)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# Hopf coordinates of the unit 3-sphere on the (theta, r, phi) box, turned
# by the unit quaternion (1 + k)/sqrt(2) so that the edge circles r = 0 and
# r = pi are the classical_hopf fibers over +-(0, 1, 0), clear of the values
# linked below
_TURN = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def hopf_chart(theta, r, phi):
    c, s = np.cos(r / 2), np.sin(r / 2)
    return quat_mul(_TURN, np.stack([c * np.cos(theta), c * np.sin(theta),
                                     s * np.cos(phi), s * np.sin(phi)],
                                    axis=-1))


def chart_to_sphere(curve):
    return hopf_chart(curve[:, 0], curve[:, 1], curve[:, 2])


def classical_on_box(theta, r, phi):
    return classical_hopf(hopf_chart(theta, r, phi))


class TestHopf:
    def test_classical_fibration_oracle(self):
        # exact fibers of q -> q i conj(q): over (1,0,0) the unit complex
        # circle, over (-1,0,0) the circle j e^{i t}; the framed-orientation
        # rule gives tangent +i at 1 and -k at j, so with both written with
        # increasing parameter below, the raw right-handed linking is -1
        t = np.linspace(0, 2 * np.pi, 600, endpoint=False)
        f1 = np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], axis=1)
        f2 = np.stack([0 * t, 0 * t, np.cos(t), -np.sin(t)], axis=1)
        assert np.allclose(classical_hopf(f1), [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(classical_hopf(f2), [-1.0, 0.0, 0.0], atol=1e-12)
        assert projected_link(f1, f2, CFG) == -1
        # the chart's edges are the fibers over +-(0, 1, 0), so both fibers
        # lie inside the box
        angle = np.linspace(0, 2 * np.pi, 7)
        for r, value in ((0.0, [0.0, 1.0, 0.0]), (np.pi, [0.0, -1.0, 0.0])):
            edge = classical_on_box(angle, np.full(7, r), angle[::-1])
            assert np.allclose(edge, value, atol=1e-12)
        h = hopf_invariant(classical_on_box, CFG, to_sphere=chart_to_sphere,
                           values=((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)))
        assert h == 1

    def test_classical_fibration_generic_values(self):
        h = hopf_invariant(classical_on_box, CFG, to_sphere=chart_to_sphere)
        assert h == 1

    def test_second_frame_column_hopf(self):
        fam = FamilyMap(HalfInteger(1))

        def to_sphere(curve):
            return fam.params.torus_chart(curve[:, 0], curve[:, 1],
                                          curve[:, 2])

        def n1(theta, r, phi):
            return column_n1(theta, r, phi)

        pairs = [((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)),
                 ((0.2, 0.5, np.sqrt(0.71)), (-0.3, 0.4, -np.sqrt(0.75)))]
        for values in pairs:
            assert hopf_invariant(n1, CFG, to_sphere=to_sphere,
                                  values=values) == -1

    def test_missed_value_is_null_homotopic(self, monkeypatch):
        fam = FamilyMap(HalfInteger(1))

        def to_sphere(curve):
            return fam.params.torus_chart(curve[:, 0], curve[:, 1],
                                          curve[:, 2])

        searched = []
        real = numtopo._fibers_param

        def fibers(map_fn, v, config, jac_fn=None):
            searched.append(tuple(v))
            return real(map_fn, v, config, jac_fn)

        monkeypatch.setattr(numtopo, "_fibers_param", fibers)
        h = hopf_invariant(northish, CFG, to_sphere=to_sphere,
                           values=((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)))
        assert h == 0
        # no fiber over the first value: the second is never traced
        assert searched == [(0.0, 0.0, -1.0)]

    def test_param_fibers_stay_in_the_box(self):
        # Newton carries some grid seeds to r outside (0, pi); only the two
        # circles inside the box are fibers
        fibers = numtopo._fibers_param(northish, np.array([0.0, 0.0, 1.0]),
                                       CFG)
        assert len(fibers) == 2
        for fib in fibers:
            assert np.allclose(fib[:, 1], np.pi / 2, atol=1e-7)
            assert np.allclose(np.sin(fib[:, 0]), 0.0, atol=1e-7)
        assert sorted(np.cos(f[0, 0]).round() for f in fibers) == [-1, 1]

    def test_returned_fibers_are_closed_unit_rays(self):
        # the fibers hopf_invariant links, normalized as it normalizes them
        fibers = [numtopo._unit(chart_to_sphere(c))
                  for v in ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
                  for c in numtopo._fibers_param(classical_on_box,
                                                 np.array(v), CFG)]
        assert len(fibers) == 2
        for fib in fibers:
            assert np.allclose(np.linalg.norm(fib, axis=1), 1.0, atol=1e-8)
            assert np.linalg.norm(fib[0] - fib[-1]) < 0.1


class TestSelfIntersection:
    def test_half_integer_single_component(self):
        fam = FamilyMap(HalfInteger(1))
        curves = solve_self_intersection(fam, CFG)
        assert len(curves) == 1
        si = curves[0]
        assert si.merged_cover
        assert len(si.preimage_components) == 1
        closed = fam.preimage_components(8192)[0]
        assert hausdorff_distance(si.preimage_components[0], closed) < 1e-4

    def test_integer_two_components(self):
        fam = FamilyMap(HalfInteger(2))
        curves = solve_self_intersection(fam, CFG)
        assert len(curves) == 1
        si = curves[0]
        assert not si.merged_cover
        assert len(si.preimage_components) == 2
        closed = fam.preimage_components(8192)
        dists = np.array([[hausdorff_distance(c, cf) for cf in closed]
                          for c in si.preimage_components])
        assert np.allclose(dists.min(axis=1), 0.0, atol=1e-4)
        assert set(dists.argmin(axis=1)) == {0, 1}
        assert dists.max() > 1e-2

    def test_image_is_planar_circle(self):
        fam = FamilyMap(HalfInteger(1))
        si = solve_self_intersection(fam, CFG)[0]
        img = si.image_curve
        assert np.abs(img[:, [0, 1, 4]]).max() < 1e-9
        radius = np.linalg.norm(img[:, 2:4], axis=1)
        assert np.allclose(radius, fam.double_point_radius, atol=1e-9)

    @pytest.mark.parametrize("m, merged, vertices", [
        ("1/2", True, 2851), ("1", False, 1429), ("-3/2", True, 2858),
        ("0", False, 1442)])
    def test_refined_trace_keeps_the_family_curves(self, m, merged,
                                                    vertices):
        # vertices: the counts of the sequential tracer at the default
        # double_trace_step, per preimage component (for m = 0, of the
        # batched tracer).  The default config also passes the seed grid's
        # resolution check here, which would raise.
        fam = FamilyMap(m, config=CFG)
        curves = solve_self_intersection(fam, CFG)
        assert len(curves) == 1
        si = curves[0]
        assert si.merged_cover == merged
        closed = fam.preimage_components(8192)
        matched = set()
        for comp in si.preimage_components:
            assert abs(len(comp) - vertices) <= 0.05 * vertices
            dists = [hausdorff_distance(comp, c) for c in closed]
            assert min(dists) < 1e-4
            matched.add(int(np.argmin(dists)))
        assert matched == set(range(len(closed)))
        assert hausdorff_distance(si.image_curve,
                                  fam.self_intersection_image(4096)) < 1e-4

    def test_every_seed_pair_is_solved(self, monkeypatch):
        # 700 diagonal pairs (x, x) come before the grid's pairs: Newton
        # leaves them on the diagonal and they are dropped, so a cap on the
        # seed count would leave nothing to trace
        seeds = numtopo._double_point_seeds

        def junk_first(family, config):
            x = numtopo._kink_disk_grid(family.params,
                                        config.double_seed_rings)[:700]
            return np.concatenate([np.hstack([x, x]),
                                   seeds(family, config)])

        monkeypatch.setattr(numtopo, "_double_point_seeds", junk_first)
        curves = solve_self_intersection(FamilyMap("1/2", config=CFG), CFG)
        assert len(curves) == 1 and curves[0].merged_cover

    def test_seed_grid_must_resolve_the_traced_curve(self):
        # at this radius the grid still seeds the curve, but the nearest
        # grid points of some traced pair have images 0.017 apart
        cfg = CFG.replace(pair_seed_radius=0.01)
        fam = FamilyMap("1/2", config=cfg)
        assert len(numtopo._double_point_seeds(fam, cfg)) > 0
        with pytest.raises(ArithmeticError, match="double-curve seed grid"):
            solve_self_intersection(fam, cfg)

    def test_kink_disk_grid_is_uniform_in_the_disk(self):
        params = FamilyMap("1/2", config=CFG).params
        pts = numtopo._kink_disk_grid(params, 12)
        assert pts.shape == (458 * 48, 4)
        rad = np.hypot(pts[:, 0], pts[:, 1]) * 24 / params.a
        assert np.allclose(rad, np.round((rad - 1) / 2) * 2 + 1)
        assert rad.max() < 24
        k = np.round((rad[:458] - 1) / 2).astype(int)
        count = np.array([int(np.ceil(2 * np.pi * (i + 0.5)))
                          for i in range(12)])
        assert np.bincount(k).tolist() == count.tolist()
        # odd rings are turned by half a step
        steps = (np.arctan2(pts[:458, 1], pts[:458, 0]) * count[k]
                 / (2 * np.pi) - 0.5 * (k % 2))
        assert np.allclose(steps, np.round(steps))

    def test_no_seeds_gives_no_curves(self, monkeypatch):
        monkeypatch.setattr(numtopo, "_double_point_seeds",
                            lambda family, config: np.empty((0, 8)))
        assert solve_self_intersection(FamilyMap(HalfInteger(1)), CFG) == []


# Three systems in x = (x0, x1, x2), chosen per row through the rows index:
# kind 0 is square (x2 does not enter), kind 1 is wide (a circle of roots),
# kind 2 has no root (|F| >= 1).
_KINDS = np.array([0, 1, 2, 0, 1, 1, 0])
_STARTS = np.array([[1.0, 1.0, 5.0], [0.9, 0.2, 0.3], [0.5, 0.3, 0.0],
                    [3.0, 0.2, -1.0], [2.0, -1.0, 0.5], [0.1, 0.1, 0.1],
                    [1.2, 0.9, 0.0]])


def _mixed_residual(x, rows):
    kind = _KINDS[rows]
    return np.where(
        (kind == 0)[:, None],
        np.stack([x[:, 0]**2 - 2.0, x[:, 0] * x[:, 1] - 1.0], axis=1),
        np.where((kind == 1)[:, None],
                 np.stack([(x * x).sum(axis=1) - 1.0, x[:, 2] - x[:, 0]],
                          axis=1),
                 np.stack([x[:, 0]**2 + 1.0, x[:, 1]], axis=1)))


def _mixed_jacobian(x, rows):
    kind = _KINDS[rows]
    zero = np.zeros(len(x))
    square = np.stack([np.stack([2 * x[:, 0], zero, zero], axis=1),
                       np.stack([x[:, 1], x[:, 0], zero], axis=1)], axis=1)
    wide = np.stack([2 * x, np.stack([-1 + zero, zero, 1 + zero], axis=1)],
                    axis=1)
    rootless = np.stack([np.stack([2 * x[:, 0], zero, zero], axis=1),
                         np.stack([zero, 1 + zero, zero], axis=1)], axis=1)
    return np.where((kind == 0)[:, None, None], square,
                    np.where((kind == 1)[:, None, None], wide, rootless))


class TestNewton:
    def test_mixed_batch_rows_match_running_alone(self):
        x, ok = _newton(_STARTS, _mixed_residual, _mixed_jacobian,
                        CFG.newton_tol, CFG)
        assert ok.tolist() == [True, True, False, True, True, True, True]
        res = np.linalg.norm(_mixed_residual(x, np.arange(len(x))), axis=1)
        assert np.all(res[ok] < CFG.newton_tol)
        square = ok & (_KINDS == 0)
        assert np.allclose(x[square, :2], [np.sqrt(2), 1 / np.sqrt(2)])
        assert np.array_equal(x[square, 2], _STARTS[square, 2])
        for i in np.nonzero(ok)[0]:
            xi, oki = _newton(_STARTS[i:i + 1],
                              lambda p, r, i=i: _mixed_residual(p, r + i),
                              lambda p, r, i=i: _mixed_jacobian(p, r + i),
                              CFG.newton_tol, CFG)
            assert oki[0] and np.array_equal(xi[0], x[i])

    def test_jacobian_only_at_accepted_iterates(self):
        # Newton on arctan diverges from |x| > 1.39 without damping, so the
        # step must be halved and rejected trial points occur
        calls = []

        def residual(p, rows):
            calls.append(("F", p.copy()))
            return np.arctan(p)

        def jacobian(p, rows):
            calls.append(("J", p.copy()))
            return (1.0 / (1.0 + p**2))[:, :, None]

        x, ok = _newton(np.array([[3.0]]), residual, jacobian,
                        CFG.newton_tol, CFG)
        assert ok[0] and abs(x[0, 0]) < CFG.newton_tol
        kinds = "".join(kind for kind, _ in calls)
        assert kinds[0] == "F" and "JJ" not in kinds and "FF" in kinds
        best = np.inf
        for n, (kind, p) in enumerate(calls):
            if kind == "F":
                best = min(best, abs(np.arctan(p[0, 0])))
            else:
                # the iterate is the last point tried, the best one so far
                last = calls[n - 1][1]
                assert np.array_equal(p, last)
                assert abs(np.arctan(last[0, 0])) == best
        assert kinds.count("J") <= CFG.newton_max_iter

    def test_empty_batch(self):
        x, ok = _newton(np.empty((0, 3)), _mixed_residual, _mixed_jacobian,
                        CFG.newton_tol, CFG)
        assert x.shape == (0, 3) and ok.shape == (0,)


class TestHausdorff:
    def test_concentric_circles(self):
        a = circle3(n=2000, radius=1.0)
        b = circle3(n=2000, radius=1.2)
        assert abs(hausdorff_distance(a, b) - 0.2) < 1e-5

    def test_translated_triangles(self):
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        shifted = tri + np.array([0.0, 0.0, 0.3])
        assert abs(hausdorff_distance(tri, shifted) - 0.3) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(35, 3))
        assert np.isclose(hausdorff_distance(a, b), hausdorff_distance(b, a))


class TestDedupe:
    def test_periodic_duplicates_collapse_to_the_first(self):
        two_pi = 2 * np.pi
        pts = np.array([[3.0, 1.0, 2.0],
                        [1e-9, 1.0, 0.5],
                        [two_pi - 1e-9, 1.0, 0.5],     # wraps onto row 1
                        [1e-9, 1.0, two_pi - 0.5],     # distinct in phi
                        [3.0, 1.0 + 1e-3, 2.0],        # distinct in r
                        [3.0, 1.0, 2.0 + 1e-12]])      # duplicate of row 0
        keep = _dedupe(_periodic_key(pts), _DEDUPE_RADIUS)
        assert keep.tolist() == [0, 1, 3, 4]


class TestStarProjection:
    def test_projects_onto_the_round_sphere(self):
        d = np.random.default_rng(3).normal(size=(50, 4))
        pts = _star_project(d, lambda x: (x * x).sum(axis=-1) - 1.0)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_unsettled_scale_raises(self):
        # G = -1 everywhere: the scale grows like sqrt(1 + k), never settling
        d = np.random.default_rng(3).normal(size=(5, 4))
        with pytest.raises(NonRegularValueError, match="star projection"):
            _star_project(d, lambda x: np.full(x.shape[:-1], -1.0))

    def test_rows_do_not_depend_on_the_batch(self):
        # G = |x|^2 - 1 - 0.6 x1^2: along a unit ray d the scale settles in
        # one step where d1 = 0 and at rate 0.6 d1^2 elsewhere
        sizes = []

        def level(x):
            sizes.append(len(x))
            return (x * x).sum(axis=-1) - 1.0 - 0.6 * x[..., 0]**2

        d = np.random.default_rng(4).normal(size=(400, 4))
        d[::3, 0] = 0.0
        whole = _star_project(d, level)
        assert len(set(sizes)) > 10      # rows settled at many iterations
        d1 = d[:, 0] / np.linalg.norm(d, axis=1)
        assert np.allclose(np.linalg.norm(whole, axis=1),
                           1 / np.sqrt(1 - 0.6 * d1**2), atol=1e-12)
        sub = np.random.default_rng(5).choice(400, 90, replace=False)
        assert np.array_equal(_star_project(d[sub], level), whole[sub])


def _seeds_near_chain_reference(chain_tree, manifold, constraint, config):
    """The chain seed search as first written: unbounded queries, every
    jittered copy projected with a batch-wide stopping rule, then the
    150,000 draw.  Also returns whether each draw fired."""
    def project(directions):
        d = directions / np.linalg.norm(directions, axis=1, keepdims=True)
        lam = np.ones(len(d))
        for _ in range(80):
            step = np.sqrt(np.maximum(
                lam**2 - constraint(lam[:, None] * d), 1e-12))
            if np.max(np.abs(step - lam)) < 1e-13:
                return step[:, None] * d
            lam = step
        raise AssertionError("reference projection did not settle")

    rng = np.random.default_rng(config.seed + 5)
    pts = project(rng.normal(size=(60000, 4)))
    capped = []
    for radius, jitter, fan in ((0.25, 0.06, 8),
                                (0.08, 0.02, 6),
                                (0.025, None, 0)):
        dist = chain_tree.query(manifold.ambient_eval(pts))[0]
        keep = pts[dist < radius]
        if jitter is None:
            return keep, capped
        reps = np.repeat(keep, fan, axis=0)
        reps = reps + rng.normal(size=reps.shape) * jitter
        pts = np.concatenate([keep, project(reps)])
        capped.append(len(pts) > 150000)
        if len(pts) > 150000:
            pts = pts[rng.choice(len(pts), 150000, replace=False)]


def test_seeds_near_chain_matches_the_project_everything_search():
    fam = FamilyMap("1/2", config=CFG)

    def constraint(x):
        return domain_constraint(x, fam.params)

    # chain: the image of a torus on the domain, so that about half the
    # domain lies within 0.25 of it and both 150,000 draws fire
    a, b = np.meshgrid(np.linspace(0, 2 * np.pi, 60, endpoint=False),
                       np.linspace(0, 2 * np.pi, 60, endpoint=False))
    torus = np.stack([np.cos(a), np.sin(a), np.cos(b), np.sin(b)], axis=-1)
    tree = cKDTree(fam.ambient_eval(
        _star_project(torus.reshape(-1, 4), constraint)))
    ref, capped = _seeds_near_chain_reference(tree, fam, constraint, CFG)
    assert capped == [True, True]
    assert len(ref) > 10000
    seeds = _seeds_near_chain(tree, fam.ambient_eval, constraint, CFG)
    assert seeds.shape == ref.shape
    assert np.allclose(seeds, ref, rtol=0, atol=1e-12)


class TestCurtainLink:
    """A meridian of the image: a small circle about a point p of the
    round part of the m = 1/2 image, in the normal plane spanned by the
    radial direction n and e5.  Traversed from n towards e5 it bounds a
    disk oriented (n, e5), which meets the image once with sign
    det[n, e5, b1, b2, b3] = -det[n, b1, b2, b3, e5] = -1."""

    fam = FamilyMap("1/2", config=CFG)
    p = np.array([0.9, 0.0, np.sqrt(0.19), 0.0, 0.0])
    e5 = np.eye(5)[4]

    def meridian(self, vertex_count=400):
        t = np.linspace(0, 2 * np.pi, vertex_count, endpoint=False)[:, None]
        return self.p + 0.05 * (np.cos(t) * self.p + np.sin(t) * self.e5)

    def test_meridian_links_minus_one(self):
        assert np.allclose(self.fam.ambient_eval(self.p[None, :4]), self.p)
        assert link_1cycle_3manifold(self.meridian(), self.fam, CFG) == -1

    def test_reversal_flips_sign(self):
        assert link_1cycle_3manifold(self.meridian()[::-1], self.fam,
                                     CFG) == 1

    def test_lifted_meridian_is_unlinked(self):
        # seen along e5 it covers the meridian, but its curtain rises away
        # from the image
        lifted = self.meridian() + 0.5 * self.e5
        assert link_1cycle_3manifold(lifted, self.fam, CFG) == 0

    def test_independent_of_direction(self):
        for d in ((0.1, -0.2, 0.05, 0.3, 1.0), (0.3, 0.5, -0.2, 0.4, -1.0)):
            assert link_1cycle_3manifold(self.meridian(), self.fam, CFG,
                                         direction=d) == -1

    def test_direction_through_a_vertex_is_rejected(self):
        # the vertex line of vertex 0 along -n runs through p
        with pytest.raises(NonRegularValueError):
            link_1cycle_3manifold(self.meridian(), self.fam, CFG,
                                  direction=-self.p)

    def test_curve_through_the_image_is_rejected(self):
        # vertex 0 is p itself: the curtain solve lands on the curve, at
        # lambda ~ 0, where no sign can be read
        t = np.linspace(0, 2 * np.pi, 40, endpoint=False)[:, None]
        curve = self.p + 0.05 * ((np.cos(t) - 1) * np.eye(5)[1]
                                 + np.sin(t) * self.e5)
        with pytest.raises(ValueError, match="too close to the image"):
            link_1cycle_3manifold(curve, self.fam, CFG)


class TestSignedCount:
    def test_value_and_count(self):
        sc = SignedCount(np.zeros((3, 3)), np.array([1, -1, -1]))
        assert sc.value == -1
        assert sc.count == 3

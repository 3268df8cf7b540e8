"""Acceptance suite: reproduces every headline number end to end.

Each test below pins one deliverable of the package at the default
configuration: the Witt table of quadratic refinements, the frame-map
degree and Hopf golden values, the five-space linking values of the
explicit immersion family, the structure of its self-intersection
preimages, the index-24 embedding obstruction, the odd projective
fixture, the first-order jump calculus, the homomorphism laws, and the
cross-validation of every numerical engine against closed forms and
against its own convention choices.  Runs in a few minutes on a laptop.
"""

import dataclasses
import time
from collections import Counter

import numpy as np
import pytest

from genimm import qform, strata
from genimm.config import Config
from genimm.geometry import (FamilyMap, HalfInteger, KinkParams,
                             classical_hopf, column_m1, column_m1_jacobian,
                             column_n1, quat_mul)
from genimm.invariants import (Component5, ImmersionState5, J, L, St,
                               _framing_null_homologous, connected_sum5,
                               embedding_test, family_state, lambda_,
                               lk_of_family, reverse_orientation,
                               second_column_hopf, smale_of_family, tau)
from genimm.numtopo import (NonRegularValueError, degree_S3, gauss_link,
                            hausdorff_distance, hopf_invariant,
                            projected_link, solve_self_intersection,
                            spherical_cone_link, stereographic, choose_pole)
from genimm.surfaces import (beta_surface, check_parity_link, connected_sum4,
                             euler, mu, rp3_fixture)

CFG = Config()


def frame_map(twice):
    mval = HalfInteger(twice).value

    def fn(theta, r, phi):
        return column_m1(mval, theta, r, phi)

    def jac(theta, r, phi):
        return column_m1_jacobian(mval, theta, r, phi)

    return fn, jac


def test_brown_invariant_table():
    assert qform.brown(qform.p_plus(), CFG) == 1
    assert qform.brown(qform.p_minus(), CFG) == 7
    assert qform.brown(qform.t_zero(), CFG) == 0
    assert qform.brown(qform.t_four(), CFG) == 4
    # Witt relations: eight crosscap summands and the opposite pair both
    # land in the split class
    eight = qform.direct_sum_many([qform.p_plus()] * 8)
    assert qform.brown(eight, CFG) == 0
    assert qform.is_split(eight, CFG)
    pair = qform.direct_sum(qform.p_plus(), qform.p_minus())
    assert qform.brown(pair, CFG) == 0
    assert qform.is_split(pair, CFG)


def test_degree_golden_values():
    # degree of the first frame column is -2m + 2, realized by |2m - 2|
    # preimages of a regular value, all of one sign (positive iff m < 1)
    for twice in range(-4, 5):
        fn, jac = frame_map(twice)
        expected = 2 - twice
        if twice == 2:
            # the one non-surjective member: a missed value certifies
            # degree zero, the equatorial value is a whole critical circle
            out = degree_S3(fn, (0.0, 1.0, 0.0, 0.0), CFG, jac_fn=jac)
            assert (out.value, out.count) == (0, 0)
            with pytest.raises(NonRegularValueError):
                degree_S3(fn, (0.0, 0.0, 1.0, 0.0), CFG, jac_fn=jac)
            continue
        out = degree_S3(fn, (0.0, 0.0, 1.0, 0.0), CFG, jac_fn=jac)
        assert out.value == expected
        assert out.count == abs(expected)
        assert set(out.signs) == {1 if twice < 2 else -1}


def test_hopf_invariant_of_second_column():
    # the second frame column has Hopf invariant -1 for every member: it
    # and the torus chart depend on the config alone, which every member
    # shares, so one trace serves them all
    params = KinkParams.from_config(CFG)
    for twice in (-2, 1, 4):
        assert FamilyMap(HalfInteger(twice), config=CFG).params == params

    def to_sphere(curve):
        return params.torus_chart(curve[:, 0], curve[:, 1], curve[:, 2])

    assert hopf_invariant(column_n1, CFG, to_sphere=to_sphere) == -1
    # classical quaternion-rotation oracle: +1, and -1 after composing
    # with a reflection of the domain sphere.  The box carries the unit
    # sphere by Hopf coordinates turned by (1 + k)/sqrt(2), whose edge
    # circles r = 0 and r = pi are fibers over +-(0, 1, 0)
    turn = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)

    def chart(theta, r, phi):
        c, s = np.cos(r / 2), np.sin(r / 2)
        return quat_mul(turn, np.stack([c * np.cos(theta), c * np.sin(theta),
                                        s * np.cos(phi), s * np.sin(phi)],
                                       axis=-1))

    def chart_to_sphere(curve):
        return chart(curve[:, 0], curve[:, 1], curve[:, 2])

    flip = np.array([1.0, 1.0, 1.0, -1.0])
    classical = lambda theta, r, phi: classical_hopf(chart(theta, r, phi))
    reflected = lambda theta, r, phi: classical_hopf(chart(theta, r, phi)
                                                     * flip)
    assert hopf_invariant(classical, CFG, to_sphere=chart_to_sphere) == 1
    assert hopf_invariant(reflected, CFG, to_sphere=chart_to_sphere) == -1


def test_linking_golden_values():
    # lk(f_m) = -4m, computed by counting chain crossings in five-space
    for twice in (-2, -1, 1, 2, 3):
        m = HalfInteger(twice)
        assert lk_of_family(m, CFG) == -2 * twice
        # the framing used for the pushoff satisfies the nullhomology
        # condition: each shifted preimage circle has total linking zero
        # with the preimage link
        assert _framing_null_homologous(FamilyMap(m, config=CFG),
                                        -twice, CFG)
    assert lk_of_family(HalfInteger(-1), CFG) == 2


def test_preimage_link_structure():
    # half-odd m: one circle double-covering the double-point circle,
    # forming a (2m, 2) torus knot; its strand pushoffs link 2 * 2m times
    for twice in (1, 3):
        fam = FamilyMap(HalfInteger(twice), config=CFG)
        curves = solve_self_intersection(fam, CFG)
        assert len(curves) == 1
        assert curves[0].merged_cover
        assert len(curves[0].preimage_components) == 1
        theta = np.linspace(0, 4 * np.pi, 6000, endpoint=False)
        push = [fam.preimage_branch(theta, off) for off in (0.4, -0.4)]
        assert projected_link(push[0], push[1], CFG) == 2 * twice
    # integer m: two circles with pairwise linking m
    for twice in (2, 4):
        fam = FamilyMap(HalfInteger(twice), config=CFG)
        curves = solve_self_intersection(fam, CFG)
        assert len(curves) == 1
        assert not curves[0].merged_cover
        assert len(curves[0].preimage_components) == 2
        u, v = fam.preimage_components(2048)
        assert projected_link(u, v, CFG) == twice // 2


def test_embedding_obstruction_kernel():
    # (lambda, beta) = (2n mod 3, bn mod 8) has kernel 24Z for every odd
    # unit b, is injective on Z_24, and sigma = omega / 24 on the kernel
    for b in (1, 3, 5, 7):
        cfg = dataclasses.replace(CFG, beta_generator=b)
        rows = {n: embedding_test(n, cfg) for n in range(-48, 49)}
        kernel = [n for n, r in rows.items() if (r.lambda3, r.beta) == (0, 0)]
        assert kernel == [-48, -24, 0, 24, 48]
        for n, r in rows.items():
            assert r.embeddable == (n % 24 == 0)
        assert len({(rows[n].lambda3, rows[n].beta) for n in range(24)}) == 24
        for n in kernel:
            assert rows[n].sigma == cfg.sigma_sign * (n // 24)


def test_projective_double_cover_fixture():
    state = rp3_fixture()
    assert euler(state.surface) == 1
    assert state.Q == 1
    assert check_parity_link(state)
    assert beta_surface(state.surface, CFG) % 2 == 1
    assert mu(state, CFG) == 1


def test_first_order_jump_calculus():
    start = time.monotonic()
    initials = [family_state("1/2", CFG), family_state("-2", CFG),
                ImmersionState5(-2, -4, (Component5(True, 1),
                                         Component5(False, 2),
                                         Component5(True, 3)))]
    paths = []
    for k, init in enumerate(initials):
        paths.extend(strata.random_paths(init, events_per_path=2,
                                         n_paths=6000, seed=11 + k))
    assert len(paths) >= 10_000
    # the ensemble hits every two-wall configuration, and both tangency
    # branches appear so the degenerate-tangency identification is active
    def shape(event):
        return "triple" if event.kind == strata.TRIPLE5 else "tangency"

    combos = Counter(tuple(sorted(shape(e) for e in p.events)) for p in paths)
    assert combos[("tangency", "tangency")] > 0
    assert combos[("tangency", "triple")] > 0
    assert combos[("triple", "triple")] > 0
    kinds = {e.kind for p in paths for e in p.events}
    assert {strata.ELLIPTIC_TANGENCY, strata.HYPERBOLIC_TANGENCY} <= kinds

    for invariant in (J, L, St):
        report = strata.verify_first_order(invariant, paths)
        assert report.ok
        assert report.checked >= 10_000
    # a planted second-order quantity is caught by the same sweep
    bad = strata.verify_first_order(lambda s: s.lk ** 2, paths)
    assert not bad.ok
    assert time.monotonic() - start < 30.0


def random_quadratic_space(rng, max_dim=4):
    while True:
        d = int(rng.integers(1, max_dim + 1))
        upper = np.triu(rng.integers(0, 2, size=(d, d)))
        mat = upper + np.triu(upper, 1).T
        q = [(int(mat[i, i]) + 2 * int(rng.integers(0, 2))) % 4
             for i in range(d)]
        try:
            return qform.QuadraticSpace(mat.tolist(), q)
        except ValueError:
            continue


def test_homomorphism_and_invariance_suite():
    rng = np.random.default_rng(23)
    ends5 = [list(p.states())[-1]
             for init in (family_state("1/2", CFG), family_state("-3/2", CFG))
             for p in strata.random_paths(init, 4, 60, seed=29)]
    # connected sums add omega, lk, tau (mod 4) and St
    for _ in range(200):
        a, b = (ends5[i] for i in rng.integers(0, len(ends5), size=2))
        s = connected_sum5(a, b)
        assert s.omega == a.omega + b.omega
        assert s.lk == a.lk + b.lk
        assert tau(s) == (tau(a) + tau(b)) % 4
        assert St(s) == St(a) + St(b)
        assert J(s) == J(a) + J(b)
    # ... and the mod-2 quadruple count adds for sums in 4-space
    base4 = [rp3_fixture(), connected_sum4(rp3_fixture(), rp3_fixture())]
    ends4 = [list(p.states())[-1] for init in base4
             for p in strata.random_paths(init, 4, 60, seed=31)]
    for _ in range(200):
        a, b = (ends4[i] for i in rng.integers(0, len(ends4), size=2))
        total = connected_sum4(a, b, new_spheres=int(rng.integers(0, 3)))
        assert mu(total, CFG) == (mu(a, CFG) + mu(b, CFG)) % 2
    # residues are constant along generic paths
    paths5 = strata.random_paths(family_state("1/2", CFG), 4, 1000, seed=37)
    report = strata.invariance_along_paths(lambda_, paths5)
    assert report.ok and report.checked >= 1000
    paths4 = list(strata.random_paths(rp3_fixture(), 4, 1000, seed=41))
    for residue in (lambda s: s.Q % 2, lambda s: s.D % 2):
        report = strata.invariance_along_paths(residue, paths4)
        assert report.ok and report.checked >= 1000
    # the Gauss-sum invariant is additive on direct sums
    for _ in range(200):
        a = random_quadratic_space(rng)
        b = random_quadratic_space(rng)
        assert a.dim + b.dim <= 8
        total = qform.brown(qform.direct_sum(a, b), CFG)
        assert total == (qform.brown(a, CFG) + qform.brown(b, CFG)) % 8
    # orientation reversal negates St and fixes J
    for state in ends5[:50]:
        rev = reverse_orientation(state)
        assert St(rev) == -St(state)
        assert J(rev) == J(state)
        assert reverse_orientation(rev) == state


def test_numerics_cross_validation():
    # the traced double curve coincides with the closed form
    fam = FamilyMap(HalfInteger(1), config=CFG)
    si = solve_self_intersection(fam, CFG)[0]
    closed = fam.preimage_components(8192)[0]
    assert hausdorff_distance(si.preimage_components[0], closed) < 1e-4
    assert hausdorff_distance(si.image_curve,
                              fam.self_intersection_image(4096)) < 1e-4
    # degree is blind to the regular value and to the search grid
    fn, jac = frame_map(-1)
    other = np.array([0.3, -0.2, 0.8, 0.4])
    other /= np.linalg.norm(other)
    assert degree_S3(fn, (0.0, 0.0, 1.0, 0.0), CFG, jac_fn=jac).value == 3
    assert degree_S3(fn, tuple(other), CFG, jac_fn=jac).value == 3
    coarse = dataclasses.replace(CFG, degree_grid=48)
    assert degree_S3(fn, (0.0, 0.0, 1.0, 0.0), coarse, jac_fn=jac).value == 3
    # Hopf is blind to the pair of regular values
    fam1 = FamilyMap(HalfInteger(1), config=CFG)

    def to_sphere(curve):
        return fam1.params.torus_chart(curve[:, 0], curve[:, 1], curve[:, 2])

    for values in (((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)),
                   ((0.2, 0.5, np.sqrt(0.71)), (-0.3, 0.4, -np.sqrt(0.75)))):
        assert hopf_invariant(column_n1, CFG, to_sphere=to_sphere,
                              values=values) == -1
    # and to the box grid, which seeds the fibers as it seeds the degree
    assert second_column_hopf(coarse) == -1
    # the five-space crossing count is blind to the curtain direction and
    # the seed draw, both of which the config seed moves
    assert lk_of_family(HalfInteger(1), CFG) == -2
    moved = dataclasses.replace(CFG, seed=12)
    assert lk_of_family(HalfInteger(1), moved) == -2
    # ... as the three-space engines are to the pole and apex
    t = np.linspace(0, 2 * np.pi, 800, endpoint=False)
    a = np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], axis=1)
    b = np.stack([0 * t, 0 * t, np.cos(t), np.sin(t)], axis=1)
    poles = [np.array([0.5, 0.5, 0.5, 0.5]), np.array([-0.3, 0.6, -0.2, 0.7])]
    assert {projected_link(a, b, CFG, pole=p) for p in poles} == {1}
    apexes = [np.array([0.9, 0.7, 1.1, 1.3]), np.array([-0.2, 0.8, 0.5, -0.6])]
    assert {spherical_cone_link(a, b, CFG, apex=z) for z in apexes} == {1}

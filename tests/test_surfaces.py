"""Surface descriptors, their invariants, and the projective-space fixture."""

import json

import numpy as np
import pytest

from genimm import qform
from genimm.surfaces import (ImmersionState4, KLEIN, RP2, SPHERE,
                             StrataCounts, SurfaceComponent,
                             SurfaceDescriptor, TORUS, beta_surface,
                             check_parity_link, connected_sum4, euler, mu,
                             prune_spheres, rp3_fixture)


def test_component_euler_values():
    assert SPHERE.euler == 2
    assert TORUS.euler == 0
    assert RP2.euler == 1
    assert KLEIN.euler == 0
    assert SurfaceComponent(True, 3).euler == -4
    assert SurfaceComponent(False, 5).euler == -3


def test_component_validation():
    with pytest.raises(ValueError):
        SurfaceComponent(False, 0)
    with pytest.raises(ValueError):
        SurfaceComponent(True, -1)


def test_h1_rank_matches_quad_data_requirement():
    quad = qform.direct_sum(qform.t_zero(), qform.p_plus())
    desc = SurfaceDescriptor((TORUS, RP2), quad_data=quad)
    assert euler(desc) == 1
    with pytest.raises(ValueError):
        SurfaceDescriptor((TORUS,), quad_data=quad)


def test_orientable_descriptor_has_brown_divisible_by_four():
    # all parity-consistent refinements on hyperbolic summands
    for qb in (0, 2):
        for qc in (0, 2):
            quad = qform.QuadraticSpace([[0, 1], [1, 0]], [qb, qc])
            desc = SurfaceDescriptor((TORUS,), quad_data=quad)
            assert beta_surface(desc) % 4 == 0


def test_brown_parity_equals_euler_parity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        comps = []
        blocks = []
        for _ in range(int(rng.integers(1, 4))):
            if rng.integers(0, 2):
                g = int(rng.integers(0, 3))
                comps.append(SurfaceComponent(True, g))
                for _ in range(g):
                    blocks.append(qform.QuadraticSpace(
                        [[0, 1], [1, 0]],
                        [2 * int(rng.integers(0, 2)), 2 * int(rng.integers(0, 2))]))
            else:
                k = int(rng.integers(1, 4))
                comps.append(SurfaceComponent(False, k))
                for _ in range(k):
                    blocks.append(qform.QuadraticSpace(
                        [[1]], [1 + 2 * int(rng.integers(0, 2))]))
        quad = qform.direct_sum_many(blocks) if blocks else None
        desc = SurfaceDescriptor(tuple(comps), quad_data=quad)
        if quad is not None:
            assert beta_surface(desc) % 2 == euler(desc) % 2


def test_mu_on_a_hundred_crosscap_state():
    # H_1 of rank 100, far beyond the enumeration cap of the config
    quad = qform.direct_sum_many([qform.p_plus()] * 60
                                 + [qform.p_minus()] * 40)
    desc = SurfaceDescriptor((SurfaceComponent(False, 100),),
                             StrataCounts(quadruple_points=2), quad)
    state = ImmersionState4(desc, Q=2, T=0, D=-98)
    assert beta_surface(desc) == (60 + 7 * 40) % 8
    assert mu(state) == 0


def test_state_validation():
    desc = SurfaceDescriptor((SPHERE,), StrataCounts(quadruple_points=2))
    ImmersionState4(desc, Q=2, T=1, D=2)
    with pytest.raises(ValueError):
        ImmersionState4(desc, Q=2, T=1, D=3)   # wrong Euler characteristic
    with pytest.raises(ValueError):
        ImmersionState4(desc, Q=1, T=1, D=2)   # Q mismatch


def test_mu_and_parity_link():
    state = rp3_fixture()
    assert check_parity_link(state)
    assert mu(state) == 1
    even = ImmersionState4(SurfaceDescriptor((SPHERE,)), Q=0, T=0, D=2)
    assert mu(even) == 0
    # an inconsistent hand-built state is rejected by mu
    odd_q = SurfaceDescriptor((SPHERE,), StrataCounts(quadruple_points=1))
    bad = ImmersionState4(odd_q, Q=1, T=0, D=2)
    assert not check_parity_link(bad)
    with pytest.raises(ValueError):
        mu(bad)


def test_rp3_fixture_golden_values():
    state = rp3_fixture()
    assert [c.orientable for c in state.surface.components] == [True, False]
    assert euler(state.surface) == 1
    assert state.Q == 1
    assert state.surface.strata.triple_arcs == 4
    assert state.surface.strata.stratum_points_f0 == 6
    assert state.surface.strata.stratum_arcs_f1 == 12
    assert beta_surface(state.surface) % 2 == 1
    assert mu(state) == 1


def test_rp3_local_model_counts():
    """The two local sheet families around the deepest stratum.

    x-sheets: (x1, x2, (e + d sin a) cos 2a, (e + d sin a) sin 2a)
    y-sheets: ((e + d sin w) cos 2w, (e + d sin w) sin 2w, y1, y2)
    The point (e, 0, e, 0) has exactly four sheet preimages, and the four
    triple arcs all limit onto it.
    """
    eps, delta = 0.5, 0.05
    target = np.array([eps, 0.0, eps, 0.0])

    def circle(t):
        return (eps + delta * np.sin(t)) * np.array([np.cos(2 * t),
                                                     np.sin(2 * t)])

    angles = np.linspace(0, 2 * np.pi, 40000, endpoint=False)
    hits = [t for t in angles
            if np.linalg.norm(circle(t) - target[2:]) < 1e-3]
    clusters = []
    for t in hits:
        gaps = [min(abs(t - c), 2 * np.pi - abs(t - c)) for c in clusters]
        if not clusters or min(gaps) > 0.1:
            clusters.append(t)
    # alpha in {0, pi} on the x-family; by symmetry two more on the y-family
    assert len(clusters) == 2
    for branch_offset in (0.0, np.pi):
        end = circle(branch_offset + 1e-6)
        assert np.linalg.norm(end - target[2:]) < 1e-3


def test_connected_sum_adds_counts():
    a = rp3_fixture()
    b = rp3_fixture()
    s = connected_sum4(a, b, new_spheres=2)
    assert s.Q == 2 and s.T == 4
    assert s.D == a.D + b.D + 4
    assert euler(s.surface) == s.D
    assert mu(s) == 0
    assert beta_surface(s.surface) == (beta_surface(a.surface)
                                       + beta_surface(b.surface)) % 8


def test_prune_spheres():
    a = rp3_fixture()
    s = connected_sum4(a, a, new_spheres=2)
    pruned = prune_spheres(s.surface)
    assert SPHERE not in pruned.components
    assert euler(pruned) == euler(s.surface) - 4


def test_json_round_trip():
    desc = rp3_fixture().surface
    back = SurfaceDescriptor.from_json(desc.to_json())
    assert back == desc
    bare = SurfaceDescriptor((KLEIN,))
    assert SurfaceDescriptor.from_json(bare.to_json()) == bare


@pytest.mark.parametrize("change", [
    lambda d: d.update(components=[1]),
    lambda d: d.update(components={"orientable": True}),
    lambda d: d["components"][0].pop("orientable"),
    lambda d: d["components"][0].update(handles=1),
    lambda d: d.update(strata=[0]),
    lambda d: d["strata"].update(quintuple_points=0),
    lambda d: d.update(quad_data=3),
    lambda d: d.update(extra=1),
    lambda d: d["strata"].update(quadruple_points="2"),
    lambda d: d["strata"].update(triple_arcs=None),
    lambda d: d["strata"].update(triple_circles=False),
    lambda d: d["components"][0].update(orientable="false"),
    lambda d: d["components"][0].update(genus_or_crosscaps=1.5),
    lambda d: d["quad_data"]["q"].__setitem__(0, str(d["quad_data"]["q"][0])),
    lambda d: d["quad_data"]["pairing"][0].__setitem__(0, True),
])
def test_json_rejects_malformed_records(change):
    data = json.loads(rp3_fixture().surface.to_json())
    change(data)
    with pytest.raises(ValueError):
        SurfaceDescriptor.from_json(json.dumps(data))
    with pytest.raises(ValueError):
        SurfaceDescriptor.from_json("[]")

"""Invariants of immersed 3-spheres in 5-space and the kinked family."""

import dataclasses
import json

import pytest

from genimm import numtopo, qform
from genimm.config import DEFAULT
from genimm.geometry import HalfInteger
from genimm.invariants import (Component5, EmbeddingTest, ImmersionState5,
                               J, L, LEFT_TWIST, RIGHT_TWIST,
                               RegularHomotopyClass, SPIN_NONTRIVIAL,
                               SPIN_TRIVIAL, St, beta_mod4_check,
                               connected_sum5, embedding_test, family_state,
                               lambda_, lk_of_family, reverse_orientation,
                               smale_of_family, tau)
from genimm.invariants import (_framing_curves, _framing_null_homologous,
                               _pushoff_curve, second_column_hopf)
from genimm.geometry import FamilyMap
from genimm.numtopo import (_unit, choose_pole, gauss_link, projected_link,
                            stereographic)
from genimm.surfaces import (ImmersionState4, RP2, StrataCounts,
                             SurfaceDescriptor, TORUS, rp3_fixture)


EMBEDDING = ImmersionState5(0, 0, ())
F_HALF = family_state("1/2")
F_MINUS_HALF = family_state("-1/2")
F_THREE_HALVES = family_state("3/2")


# ---------------------------------------------------------------------------
# state validation


def test_component_twist_connectivity_pairing():
    Component5(True, RIGHT_TWIST)
    Component5(True, LEFT_TWIST)
    Component5(False, SPIN_NONTRIVIAL)
    Component5(False, SPIN_TRIVIAL)
    with pytest.raises(ValueError):
        Component5(False, RIGHT_TWIST)
    with pytest.raises(ValueError):
        Component5(True, SPIN_TRIVIAL)


def test_component_twist_normalized_mod_four():
    assert Component5(True, -1).twist_class == LEFT_TWIST
    assert Component5(False, 6).twist_class == SPIN_NONTRIVIAL


def test_state_requires_lk_plus_omega_divisible_by_three():
    ImmersionState5(1, 2, (Component5(True, 1),))
    with pytest.raises(ValueError):
        ImmersionState5(1, 1, ())
    with pytest.raises(ValueError):
        ImmersionState5(0, 2, ())


def test_state_rejects_non_component_entries():
    with pytest.raises(TypeError):
        ImmersionState5(0, 0, ({"preimage_connected": True},))


def test_state_json_round_trip():
    state = ImmersionState5(-3, 6, (Component5(True, 1), Component5(False, 2)))
    data = json.loads(state.to_json())
    assert data["schema"] == 1
    assert ImmersionState5.from_json(state.to_json()) == state


def test_state_json_rejects_malformed_input():
    with pytest.raises(ValueError):
        ImmersionState5.from_json("not json")
    with pytest.raises(ValueError):
        ImmersionState5.from_json(json.dumps({"schema": 1, "omega": 0}))
    good = json.loads(EMBEDDING.to_json())
    good["schema"] = 2
    with pytest.raises(ValueError):
        ImmersionState5.from_json(json.dumps(good))


@pytest.mark.parametrize("change", [
    lambda d: d.update(components=[1]),
    lambda d: d.update(components={"twist_class": 1}),
    lambda d: d["components"][0].pop("twist_class"),
    lambda d: d["components"][0].update(sheets=2),
    lambda d: d.update(extra=1),
    lambda d: d["components"][0].update(twist_class=None),
    lambda d: d["components"][0].update(twist_class=1.0),
    lambda d: d["components"][0].update(preimage_connected="false"),
    lambda d: d["components"][0].update(preimage_connected=1),
    lambda d: d.update(omega=True),
    lambda d: d.update(lk="-2"),
    lambda d: d.update(schema=True),
])
def test_state_json_rejects_malformed_records(change):
    data = json.loads(F_HALF.to_json())
    change(data)
    with pytest.raises(ValueError):
        ImmersionState5.from_json(json.dumps(data))
    with pytest.raises(ValueError):
        ImmersionState5.from_json("3")


def test_regular_homotopy_classes_form_a_group():
    a, b = RegularHomotopyClass(3), RegularHomotopyClass(-5)
    assert (a + b).omega == -2
    assert (-a).omega == -3
    assert (a + -a).omega == 0


# ---------------------------------------------------------------------------
# the arithmetic invariants on states


def test_lambda_values():
    assert lambda_(F_MINUS_HALF) == 2
    assert lambda_(EMBEDDING) == 0
    assert lambda_(F_THREE_HALVES) == 0


def test_tau_values():
    assert tau(F_HALF) == 1
    assert tau(EMBEDDING) == 0
    both = ImmersionState5(0, 0, (Component5(True, RIGHT_TWIST),
                                  Component5(True, LEFT_TWIST)))
    assert tau(both) == 0
    spin = ImmersionState5(0, 0, (Component5(False, SPIN_NONTRIVIAL),))
    assert tau(spin) == 2


def test_tau_of_half_kink_generates_z4():
    t = tau(F_HALF)
    assert sorted((t * k) % 4 for k in range(4)) == [0, 1, 2, 3]


def test_counting_invariants():
    assert (J(F_MINUS_HALF), L(F_MINUS_HALF), St(F_MINUS_HALF)) == (1, 0, 1)
    assert (J(EMBEDDING), L(EMBEDDING), St(EMBEDDING)) == (0, 0, 0)
    assert St(F_THREE_HALVES) == -3
    assert L(F_THREE_HALVES) == -2


def test_connected_sum_identity_and_additivity():
    assert connected_sum5(F_HALF, EMBEDDING) == F_HALF
    double = connected_sum5(F_HALF, F_HALF)
    assert double.omega == -2
    assert double.lk == -4
    assert tau(double) == 2
    assert J(double) == 2


def test_invariants_additive_under_connected_sum():
    states = [F_HALF, F_MINUS_HALF, F_THREE_HALVES, family_state(2),
              ImmersionState5(4, 5, (Component5(False, 0),))]
    for s1 in states:
        for s2 in states:
            s = connected_sum5(s1, s2)
            assert lambda_(s) == (lambda_(s1) + lambda_(s2)) % 3
            assert tau(s) == (tau(s1) + tau(s2)) % 4
            assert J(s) == J(s1) + J(s2)
            assert St(s) == St(s1) + St(s2)


def test_orientation_reversal_action():
    for state in (F_HALF, F_THREE_HALVES, family_state(-2)):
        rev = reverse_orientation(state)
        assert St(rev) == -St(state)
        assert J(rev) == J(state)
        assert lambda_(rev) == (-lambda_(state)) % 3
        assert reverse_orientation(rev) == state


# ---------------------------------------------------------------------------
# the index-24 embedding test


def test_embedding_test_at_multiples_of_24():
    full = embedding_test(24)
    assert full.embeddable and full.sigma == DEFAULT.sigma_sign * 1
    zero = embedding_test(RegularHomotopyClass(0))
    assert zero.embeddable and zero.sigma == 0
    assert embedding_test(-48).sigma == DEFAULT.sigma_sign * -2


def test_embedding_test_generator_has_order_24():
    for b in (1, 3, 5, 7):
        config = dataclasses.replace(DEFAULT, beta_generator=b)
        one = embedding_test(1, config)
        assert not one.embeddable and one.sigma is None
        assert (one.lambda3, one.beta) == (2, b)
        hits = {(embedding_test(n, config).lambda3,
                 embedding_test(n, config).beta) for n in range(24)}
        assert len(hits) == 24


def test_embedding_test_rejects_even_convention_unit():
    with pytest.raises(ValueError):
        dataclasses.replace(DEFAULT, beta_generator=2)


# ---------------------------------------------------------------------------
# closed-form family states


def test_family_state_of_trivial_member_is_embedding_state():
    assert family_state(0) == EMBEDDING


def test_family_state_component_structure():
    assert F_HALF.components == (Component5(True, RIGHT_TWIST),)
    assert F_MINUS_HALF.components == (Component5(True, LEFT_TWIST),)
    assert family_state(1).components == (Component5(False, SPIN_NONTRIVIAL),)
    assert family_state(2).components == (Component5(False, SPIN_TRIVIAL),)


def test_family_lk_is_twice_omega():
    for twice in range(-4, 5):
        state = family_state(HalfInteger(twice))
        assert state.lk == 2 * state.omega
        assert St(state) == state.omega
        assert lambda_(state) == (2 * state.omega) % 3


# ---------------------------------------------------------------------------
# the mod-4 bridge to 4-space pushdowns


def test_beta_mod4_check_on_projective_pushdown():
    assert beta_mod4_check(F_HALF, rp3_fixture())


def test_beta_mod4_check_requires_odd_quadruple_count():
    surface = SurfaceDescriptor((RP2,), StrataCounts(), qform.p_plus())
    even_q = ImmersionState4(surface, Q=0, T=0, D=1)
    assert not beta_mod4_check(F_HALF, even_q)


def test_beta_mod4_check_trivial_pushdown():
    empty = qform.QuadraticSpace([], [])
    surface = SurfaceDescriptor((), StrataCounts(), empty)
    state4 = ImmersionState4(surface, Q=0, T=0, D=0)
    assert beta_mod4_check(EMBEDDING, state4)


def test_beta_mod4_check_flags_orientable_pushdown_with_nonzero_tau():
    spin = ImmersionState5(0, 0, (Component5(False, SPIN_NONTRIVIAL),))
    quad = qform.QuadraticSpace([[0, 1], [1, 0]], [2, 2])
    surface = SurfaceDescriptor((TORUS,), StrataCounts(), quad)
    pushdown = ImmersionState4(surface, Q=0, T=0, D=0)
    assert not beta_mod4_check(spin, pushdown)


def test_beta_mod4_check_needs_quadratic_data():
    surface = SurfaceDescriptor((RP2,))
    pushdown = ImmersionState4(surface, Q=0, T=0, D=1)
    with pytest.raises(ValueError):
        beta_mod4_check(F_HALF, pushdown)


# ---------------------------------------------------------------------------
# numerical recomputation on the kinked family


def test_smale_invariant_of_family_members():
    # v is one value for every member: computed once, then passed in
    v = second_column_hopf()
    assert v == -1
    assert smale_of_family("-1/2", hopf=v).omega == 1
    assert smale_of_family(0, hopf=v).omega == 0
    assert smale_of_family("3/2", hopf=v).omega == -3
    # a passed-in v is still checked against its closed form
    with pytest.raises(ArithmeticError, match=r"\(u, v\) = \(2, 1\)"):
        smale_of_family(0, hopf=1)


def test_second_column_hopf_checks_its_two_linking_engines(monkeypatch):
    real = numtopo.spherical_cone_link
    monkeypatch.setattr(numtopo, "spherical_cone_link",
                        lambda *args, **kwargs: real(*args, **kwargs) + 1)
    with pytest.raises(ArithmeticError, match="linking engines disagree"):
        second_column_hopf()


def test_self_intersection_framing_admissibility():
    fam = FamilyMap(HalfInteger(1))
    assert _framing_null_homologous(fam, -1.0, DEFAULT)
    assert not _framing_null_homologous(fam, 0.0, DEFAULT)
    assert not _framing_null_homologous(fam, 1.0, DEFAULT)


def test_framing_admissibility_of_both_handedness_candidates():
    # -2m turns per sweep are admissible and +2m are not, as the Gauss sum
    # over all segment pairs found for 2m = 1..4
    for twice in (1, 2, 3, 4):
        fam = FamilyMap(HalfInteger(twice))
        assert _framing_null_homologous(fam, -twice, DEFAULT)
        assert not _framing_null_homologous(fam, twice, DEFAULT)


def test_framing_check_crossing_count_matches_gauss_sum():
    # m = 1 and m = 2: two preimage circles of 1024 points and their two
    # shifts, both handedness candidates, linked on one projection
    values = []
    for twice in (2, 4):
        fam = FamilyMap(HalfInteger(twice))
        for rot in (-twice, twice):
            curves, shifted = _framing_curves(fam, rot, DEFAULT)
            for base in curves:
                for shift in shifted:
                    a, b = _unit(shift), _unit(base)
                    pole = choose_pole([a, b], DEFAULT)
                    gauss = gauss_link(stereographic(a, pole),
                                       stereographic(b, pole), DEFAULT)
                    assert projected_link(shift, base, DEFAULT,
                                          pole=pole) == gauss
                    values.append(gauss)
    assert len(values) == 16 and len(set(values)) > 2


def test_self_intersection_linking_of_family_members():
    assert lk_of_family(0) == 0
    assert lk_of_family("-1/2") == 2
    assert lk_of_family(1) == -4


def test_trivial_member_general_lk_path_matches_its_shortcut():
    # lk_of_family(0) returns 0 without computing; the general path frames
    # FamilyMap(0)'s double circle with rotation 0 and counts its curtain
    fam = FamilyMap(0)
    assert _framing_null_homologous(fam, 0, DEFAULT)
    curve = _pushoff_curve(fam, 0, DEFAULT)
    assert (numtopo.link_1cycle_3manifold(curve, fam, DEFAULT)
            == lk_of_family(0) == 0)


def test_numerical_invariants_match_closed_form_state():
    state = family_state("-1/2")
    assert smale_of_family("-1/2").omega == state.omega
    assert lk_of_family("-1/2") == state.lk

"""The wall-crossing event calculus and its first-order verification."""

import collections
import dataclasses
import json
import math
import os
import random
import subprocess
import sys

import pytest

from genimm import strata, surfaces
from genimm.invariants import (Component5, ImmersionState5, J, L,
                               LEFT_TWIST, RIGHT_TWIST, SPIN_NONTRIVIAL,
                               SPIN_TRIVIAL, St, family_state, lambda_)
from genimm.strata import (CalculusReport, ELLIPTIC_TANGENCY,
                           HYPERBOLIC_TANGENCY, InapplicableEventError,
                           Path, QUADRUPLE4, QUINTUPLE4, StratumEvent,
                           TANGENCY4, TRIPLE4, TRIPLE5, apply,
                           invariance_along_paths, random_paths, reverse,
                           verify_first_order)
from genimm.surfaces import mu, rp3_fixture

BASE5 = ImmersionState5(1, 2, (Component5(True, LEFT_TWIST),))
RICH5 = ImmersionState5(-2, -4, (Component5(True, RIGHT_TWIST),
                                 Component5(False, SPIN_NONTRIVIAL),
                                 Component5(False, SPIN_TRIVIAL)))


def birth(at=None):
    return StratumEvent(ELLIPTIC_TANGENCY, 1,
                        () if at is None else (at,), "birth")


# ---------------------------------------------------------------------------
# event construction


def test_event_validation():
    with pytest.raises(ValueError):
        StratumEvent("septuple", 1)
    with pytest.raises(ValueError):
        StratumEvent(TRIPLE5, 2)
    with pytest.raises(ValueError):
        StratumEvent(ELLIPTIC_TANGENCY, -1, (), "birth")
    with pytest.raises(ValueError):
        StratumEvent(TANGENCY4, 1, (0,), "handle-attach")
    with pytest.raises(ValueError):
        StratumEvent(TRIPLE5, 1, (), "birth")
    with pytest.raises(ValueError):
        StratumEvent(ELLIPTIC_TANGENCY, 1, (), "slide")


def test_event_json_round_trip():
    event = StratumEvent(HYPERBOLIC_TANGENCY, -1, (2, 0), "merge")
    data = json.loads(event.to_json())
    assert data["schema"] == 1
    assert StratumEvent.from_json(event.to_json()) == event
    with pytest.raises(ValueError):
        StratumEvent.from_json("[")
    with pytest.raises(ValueError):
        StratumEvent.from_json(json.dumps({"kind": TRIPLE5}))


@pytest.mark.parametrize("change", [
    lambda d: d.update(sign="-1"),
    lambda d: d.update(sign=True),
    lambda d: d.update(kind=["merge"]),
    lambda d: d.update(operand="20"),
    lambda d: d.update(operand=[2, "0"]),
    lambda d: d.update(operand=[2, False]),
    lambda d: d.update(detail=1),
])
def test_event_json_rejects_wrong_value_types(change):
    data = json.loads(
        StratumEvent(HYPERBOLIC_TANGENCY, -1, (2, 0), "merge").to_json())
    change(data)
    with pytest.raises(ValueError):
        StratumEvent.from_json(json.dumps(data))


# ---------------------------------------------------------------------------
# wall crossings in 5-space


def test_tangency_birth_adds_a_circle_and_keeps_lk():
    after = apply(BASE5, birth())
    assert J(after) == 2
    assert after.lk == 2 and after.omega == BASE5.omega
    assert after.components[-1] == Component5(False, SPIN_TRIVIAL)


def test_triple_wall_moves_lk_by_three():
    assert apply(BASE5, StratumEvent(TRIPLE5, 1)).lk == 5
    assert apply(BASE5, StratumEvent(TRIPLE5, -1)).lk == -1
    with pytest.raises(InapplicableEventError):
        apply(ImmersionState5(0, 0, ()), StratumEvent(TRIPLE5, 1))


def test_death_requires_a_trivial_circle():
    with pytest.raises(InapplicableEventError):
        apply(BASE5, StratumEvent(ELLIPTIC_TANGENCY, -1, (0,), "death"))
    grown = apply(BASE5, birth())
    assert apply(grown, StratumEvent(ELLIPTIC_TANGENCY, -1, (1,),
                                     "death")) == BASE5


def test_merge_adds_twists_and_split_undoes_it():
    merged = apply(RICH5, StratumEvent(ELLIPTIC_TANGENCY, -1, (2, 0),
                                       "merge"))
    assert J(merged) == 2
    # twists 0 and 1 merge to 1, landing where the first operand sat
    assert merged.components == (Component5(False, SPIN_NONTRIVIAL),
                                 Component5(True, RIGHT_TWIST))


def test_events_reverse_exactly():
    states = [BASE5, RICH5, rp3_fixture()]
    count = 0
    for initial in states:
        for path in random_paths(initial, events_per_path=6, n_paths=40,
                                 seed=3):
            s = path.initial
            for event in path.events:
                after = apply(s, event)
                assert apply(after, reverse(event, s)) == s
                count += 1
                s = after
    assert count == 3 * 40 * 6


def test_reversing_a_merge_needs_the_state():
    merge = StratumEvent(ELLIPTIC_TANGENCY, -1, (0, 1), "merge")
    with pytest.raises(ValueError):
        reverse(merge)


def test_space_mismatch_is_inapplicable():
    with pytest.raises(InapplicableEventError):
        apply(BASE5, StratumEvent(TRIPLE4, 1))
    with pytest.raises(InapplicableEventError):
        apply(rp3_fixture(), StratumEvent(TRIPLE5, 1))


# ---------------------------------------------------------------------------
# wall crossings in 4-space


def test_quadruple_wall_moves_q_by_two_and_keeps_mu():
    state = rp3_fixture()
    after = apply(state, StratumEvent(QUADRUPLE4, 1))
    assert after.Q == 3
    assert mu(after) == mu(state) == 1
    with pytest.raises(InapplicableEventError):
        apply(state, StratumEvent(QUADRUPLE4, -1))


def test_triple4_wall_moves_t_by_one():
    state = rp3_fixture()
    assert apply(state, StratumEvent(TRIPLE4, 1)).T == 3
    assert apply(state, StratumEvent(TRIPLE4, -1)).T == 1


def test_tangency4_moves_d_by_two():
    state = rp3_fixture()
    up = apply(state, StratumEvent(TANGENCY4, 1, (), "sphere-birth"))
    assert up.D == state.D + 2
    down = apply(state, StratumEvent(TANGENCY4, -1, (0,), "handle-attach"))
    assert down.D == state.D - 2
    assert mu(up) == mu(down) == mu(state)


def test_quintuple_wall_changes_nothing():
    state = rp3_fixture()
    assert apply(state, StratumEvent(QUINTUPLE4, 1)) == state
    assert apply(state, StratumEvent(QUINTUPLE4, -1)) == state


def test_handle_remove_needs_a_matching_handle():
    state = rp3_fixture()
    with pytest.raises(InapplicableEventError):
        # the projective-plane component has a single crosscap
        apply(state, StratumEvent(TANGENCY4, 1, (1,), "handle-remove"))
    attached = apply(state, StratumEvent(TANGENCY4, -1, (1,),
                                         "handle-attach"))
    assert apply(attached, StratumEvent(TANGENCY4, 1, (1,),
                                        "handle-remove")) == state


# ---------------------------------------------------------------------------
# path generation


def test_random_paths_are_deterministic_and_applicable():
    a = [p.to_json() for p in random_paths(RICH5, 5, 10, seed=11)]
    b = [p.to_json() for p in random_paths(RICH5, 5, 10, seed=11)]
    assert a == b
    c = [p.to_json() for p in random_paths(RICH5, 5, 10, seed=12)]
    assert a != c


def eager_random_paths(initial, events_per_path, n_paths, seed=0):
    """Reference draw: one wall uniform over the walls available at the
    state, then that wall's fields, every wall built as a validated event
    and each path checked by the public constructor.  random_paths, which
    shares records and applies each pair once, must reproduce it draw for
    draw."""
    rng = random.Random(seed)

    def pick(seq):
        return seq[rng.randrange(len(seq))]

    def tangency5(sign, detail, operand):
        def build():
            kind = pick((ELLIPTIC_TANGENCY, HYPERBOLIC_TANGENCY))
            return StratumEvent(kind, sign, operand(), detail)
        return build

    def merge_pair(n):
        i = rng.randrange(n)
        return i, pick([k for k in range(n) if k != i])

    def split_fields(n):
        i, handed = rng.randrange(n), rng.randrange(4)
        return i, rng.randrange(n + 1), handed

    def wall5(state):
        comps = state.components
        n = len(comps)
        trivial = [i for i, c in enumerate(comps)
                   if c == Component5(False, SPIN_TRIVIAL)]
        walls = [tangency5(1, "birth", lambda: (rng.randrange(n + 1),))]
        if trivial:
            walls.append(tangency5(-1, "death", lambda: (pick(trivial),)))
        if n >= 2:
            walls.append(tangency5(-1, "merge", lambda: merge_pair(n)))
        if n:
            walls.append(tangency5(1, "split", lambda: split_fields(n)))
            walls.append(lambda: StratumEvent(TRIPLE5, pick((1, -1))))
        return pick(walls)()

    def wall4(state):
        comps = state.surface.components
        spheres = [i for i, c in enumerate(comps) if c == surfaces.SPHERE]
        handled = [i for i, c in enumerate(comps)
                   if c.genus_or_crosscaps >= (1 if c.orientable else 3)]
        walls = [lambda: StratumEvent(TANGENCY4, 1,
                                      (rng.randrange(len(comps) + 1),),
                                      "sphere-birth"),
                 lambda: StratumEvent(TRIPLE4, 1),
                 lambda: StratumEvent(QUADRUPLE4, 1),
                 lambda: StratumEvent(QUINTUPLE4, pick((1, -1)))]
        if spheres:
            walls.append(lambda: StratumEvent(
                TANGENCY4, -1, (pick(spheres),), "sphere-death"))
        if comps:
            walls.append(lambda: StratumEvent(
                TANGENCY4, -1, (rng.randrange(len(comps)),),
                "handle-attach"))
        if handled:
            walls.append(lambda: StratumEvent(
                TANGENCY4, 1, (pick(handled),), "handle-remove"))
        if state.T >= 1:
            walls.append(lambda: StratumEvent(TRIPLE4, -1))
        if state.Q >= 2:
            walls.append(lambda: StratumEvent(QUADRUPLE4, -1))
        return pick(walls)()

    wall = wall5 if isinstance(initial, ImmersionState5) else wall4
    for _ in range(n_paths):
        state, events = initial, []
        while len(events) < events_per_path:
            event = wall(state)
            try:
                state = apply(state, event)
            except InapplicableEventError:
                continue
            events.append(event)
        yield Path(initial, tuple(events))


STREAM_STARTS = {"RICH5": RICH5, "BASE5": BASE5,
                 "family-1/2": family_state("1/2"), "rp3": rp3_fixture()}
# twelve walls from RICH5 reach the larger component counts
STREAM_CASES = [(length, start) for length in (2, 6)
                for start in STREAM_STARTS] + [(12, "RICH5")]


@pytest.mark.parametrize("length,start", STREAM_CASES,
                         ids=[f"{n}-{start}" for n, start in STREAM_CASES])
def test_random_paths_keep_the_eager_random_stream(length, start):
    initial = STREAM_STARTS[start]
    for seed in range(10):
        got = [p.to_json() for p in random_paths(initial, length, 30, seed)]
        want = [p.to_json()
                for p in eager_random_paths(initial, length, 30, seed)]
        assert got == want, f"seed {seed}"


def every_wall(state):
    """Every wall at the state, named, with the set of all the
    (kind, sign, operand, detail) fields it can be drawn with."""
    tangencies = (ELLIPTIC_TANGENCY, HYPERBOLIC_TANGENCY)
    if isinstance(state, ImmersionState5):
        comps = state.components
        n = len(comps)
        walls = {
            "birth": {(k, 1, (at,), "birth")
                      for k in tangencies for at in range(n + 1)},
            "death": {(k, -1, (i,), "death")
                      for k in tangencies for i in range(n)
                      if comps[i] == Component5(False, SPIN_TRIVIAL)},
            "merge": {(k, -1, (i, j), "merge") for k in tangencies
                      for i in range(n) for j in range(n) if i != j},
            "split": {(k, 1, (i, at, h), "split") for k in tangencies
                      for i in range(n) for at in range(n + 1)
                      for h in range(4)},
            "triple": {(TRIPLE5, s, (), None)
                       for s in (1, -1) if n},
        }
    else:
        comps = state.surface.components
        n = len(comps)
        walls = {
            "sphere-birth": {(TANGENCY4, 1, (at,), "sphere-birth")
                             for at in range(n + 1)},
            "triple+": {(TRIPLE4, 1, (), None)},
            "quadruple+": {(QUADRUPLE4, 1, (), None)},
            "quintuple": {(QUINTUPLE4, s, (), None) for s in (1, -1)},
            "sphere-death": {(TANGENCY4, -1, (i,), "sphere-death")
                             for i in range(n) if comps[i] == surfaces.SPHERE},
            "handle-attach": {(TANGENCY4, -1, (i,), "handle-attach")
                              for i in range(n)},
            "handle-remove": {(TANGENCY4, 1, (i,), "handle-remove")
                              for i in range(n)
                              if comps[i].genus_or_crosscaps
                              >= (1 if comps[i].orientable else 3)},
            "triple-": {(TRIPLE4, -1, (), None)} if state.T >= 1 else set(),
            "quadruple-": ({(QUADRUPLE4, -1, (), None)} if state.Q >= 2
                           else set()),
        }
    return {name: fields for name, fields in walls.items() if fields}


@pytest.mark.parametrize("initial,k", [(RICH5, 5), (BASE5, 3),
                                       (rp3_fixture(), 7)],
                         ids=["RICH5", "BASE5", "rp3"])
def test_each_wall_is_drawn_uniformly_then_its_fields(initial, k):
    walls = every_wall(initial)
    assert len(walls) == k
    draw = (strata._draw_wall_5 if isinstance(initial, ImmersionState5)
            else strata._draw_wall_4)
    rng, n = random.Random(1), 40_000
    fields = collections.Counter(draw(initial, rng) for _ in range(n))
    assert set(fields) == set().union(*walls.values())

    def within_binomial_bound(count, trials, p):
        # five standard deviations: a fair draw misses by more with
        # probability below 6e-7 per comparison
        return abs(count - trials * p) <= 5 * math.sqrt(trials * p * (1 - p))

    for name, wall in walls.items():
        drawn = sum(fields[f] for f in wall)
        assert within_binomial_bound(drawn, n, 1 / k), name
        for f in wall:
            assert within_binomial_bound(fields[f], drawn, 1 / len(wall)), f


def test_path_bytes_do_not_depend_on_the_hash_seed():
    code = ("from genimm.strata import random_paths\n"
            "from genimm.invariants import family_state\n"
            "from genimm.surfaces import rp3_fixture\n"
            "for start in (family_state('1/2'), rp3_fixture()):\n"
            "    for p in random_paths(start, 6, 50, seed=3):\n"
            "        print(p.to_json())\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(strata.__file__)))
    out = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        out.append(done.stdout)
    assert out[0] == out[1] and out[0].count(b"\n") == 100


def test_random_paths_reject_negative_counts():
    with pytest.raises(ValueError):
        list(random_paths(RICH5, -1, 3))
    with pytest.raises(ValueError):
        list(random_paths(RICH5, 2, -1))
    assert list(random_paths(RICH5, 2, 0)) == []
    # random.Random(-s) is random.Random(s); numpy took no negative seed
    with pytest.raises(ValueError):
        list(random_paths(RICH5, 2, 3, seed=-1))


@pytest.mark.parametrize("initial", [RICH5, rp3_fixture()],
                         ids=["5-space", "4-space"])
def test_path_states_are_the_events_applied_in_turn(initial):
    for path in random_paths(initial, 6, 40, seed=4):
        state, expected = path.initial, [path.initial]
        for event in path.events:
            state = apply(state, event)
            expected.append(state)
        assert list(path.states()) == expected
        assert path.final == expected[-1]
        rebuilt = Path(path.initial, path.events)
        assert rebuilt == path
        assert list(rebuilt.states()) == expected


def test_verify_first_order_applies_at_most_twice_per_path(monkeypatch):
    paths = list(paths5(300))
    calls = 0
    counted = strata.apply

    def counting_apply(state, event):
        nonlocal calls
        calls += 1
        return counted(state, event)

    monkeypatch.setattr(strata, "apply", counting_apply)
    report = verify_first_order(J, paths)
    assert report.ok and report.checked > 0
    assert 0 < calls <= 2 * len(paths)


def record_apply_pairs(monkeypatch):
    """Route strata.apply through a recorder of its (state, event) pairs."""
    pairs = []
    counted = strata.apply

    def recording_apply(state, event):
        pairs.append((state, event))
        return counted(state, event)

    monkeypatch.setattr(strata, "apply", recording_apply)
    return pairs


def test_verify_first_order_applies_each_pair_once(monkeypatch):
    paths = list(paths5(300))
    pairs = record_apply_pairs(monkeypatch)
    report = verify_first_order(J, paths)
    assert report.ok and report.checked > 0
    assert pairs and len(pairs) == len(set(pairs))
    # the memo lives for one call: a second sweep applies just as often
    first = len(pairs)
    assert verify_first_order(J, paths) == report
    assert len(pairs) == 2 * first


def test_random_paths_apply_each_pair_once_per_call(monkeypatch):
    pairs = record_apply_pairs(monkeypatch)
    first = [p.to_json() for p in random_paths(RICH5, 6, 200, seed=2)]
    assert pairs and len(pairs) == len(set(pairs))
    n = len(pairs)
    assert [p.to_json() for p in random_paths(RICH5, 6, 200, seed=2)] == first
    assert len(pairs) == 2 * n


@pytest.mark.parametrize("initial", [RICH5, rp3_fixture()],
                         ids=["5-space", "4-space"])
def test_invariance_evaluates_once_per_state_record(initial):
    paths = list(random_paths(initial, 6, 150, seed=8))
    records = {id(s): s for p in paths for s in p.states()}
    seen = []

    def invariant(state):
        seen.append(id(state))
        return lambda_(state) if initial is RICH5 else mu(state)

    for _ in range(2):
        seen.clear()
        report = invariance_along_paths(invariant, paths)
        assert report.ok and report.checked == len(paths)
        assert sorted(seen) == sorted(records)


def reference_first_order(invariant, paths):
    """Memo-free first-order check: every state applied and evaluated
    afresh for every path."""
    checked = skipped = 0
    violations = []
    for path in paths:
        if len(path.events) < 2:
            skipped += 1
            continue
        s0 = path.initial
        e1, e2 = path.events[:2]
        s1 = apply(s0, e1)
        s12 = apply(s1, e2)
        try:
            s2 = apply(s0, e2)
        except InapplicableEventError:
            skipped += 1
            continue
        checked += 1
        second = ((invariant(s12) - invariant(s1))
                  - (invariant(s2) - invariant(s0)))
        if second != 0:
            violations.append((path, f"second difference {second} across "
                                     f"{e1.kind}/{e2.kind}"))
    return checked, skipped, violations


@pytest.mark.parametrize("label", ["J", "L", "St", "lk^2", "J^2"])
def test_first_order_reports_match_a_memo_free_reference(label):
    invariant = {"J": J, "L": L, "St": St, "lk^2": lambda s: s.lk ** 2,
                 "J^2": lambda s: J(s) ** 2}[label]
    paths = list(paths5(400))
    checked, skipped, violations = reference_first_order(invariant, paths)
    report = verify_first_order(invariant, paths)
    assert (report.checked, report.skipped) == (checked, skipped)
    assert [(v.path, v.description) for v in report.violations] == violations
    assert bool(violations) == label.endswith("^2")


def test_random_paths_share_equal_records_and_keep_them_frozen():
    paths = list(random_paths(RICH5, 2, 200, seed=3))
    events = [e for p in paths for e in p.events]
    states = [s for p in paths for s in p.states()]
    for records in (events, states):
        shared = {}
        for r in records:
            assert shared.setdefault(r, r) is r
        assert len(shared) < len(records)
    event, state = events[0], paths[0].final
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.sign = -event.sign
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.lk = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.components[0].twist_class = 0
    assert StratumEvent.from_json(event.to_json()) == event


def test_path_validates_applicability():
    with pytest.raises(InapplicableEventError):
        Path(ImmersionState5(0, 0, ()), (StratumEvent(TRIPLE5, 1),))


def test_path_transcript_shape():
    path = next(iter(random_paths(rp3_fixture(), 3, 1, seed=2)))
    data = json.loads(path.to_json())
    assert data["schema"] == 1
    assert data["initial"]["space"] == 4
    assert len(data["events"]) == 3


# ---------------------------------------------------------------------------
# the first-order calculus


def paths5(n, seed=5, length=2):
    yield from random_paths(RICH5, length, n, seed=seed)
    yield from random_paths(BASE5, length, n, seed=seed + 1)


def test_first_order_invariants_have_zero_second_difference():
    for invariant in (J, L, St):
        report = verify_first_order(invariant, paths5(400))
        assert report.ok, report.summary()
        assert report.checked > 500


def test_affine_combinations_stay_first_order():
    for a, b, c in ((2, -3, 7), (0, 1, 0), (-5, 4, 1)):
        inv = lambda s: a * J(s) + b * L(s) + c
        assert verify_first_order(inv, paths5(150)).ok


def test_squared_linking_is_not_first_order():
    report = verify_first_order(lambda s: s.lk ** 2, paths5(400))
    assert not report.ok
    assert any("triple5/triple5" in v.description for v in report.violations)


def test_elliptic_and_hyperbolic_branches_jump_alike():
    e = StratumEvent(ELLIPTIC_TANGENCY, 1, (), "birth")
    h = StratumEvent(HYPERBOLIC_TANGENCY, 1, (), "birth")
    assert J(apply(RICH5, e)) == J(apply(RICH5, h))


def test_a_state_does_not_record_the_tangency_branch():
    # verify_first_order compares no elliptic and hyperbolic twins: both
    # branches of a tangency wall reach one state.  A state that records
    # the branch fails here, and the check then needs its twin comparison.
    swap = {ELLIPTIC_TANGENCY: HYPERBOLIC_TANGENCY,
            HYPERBOLIC_TANGENCY: ELLIPTIC_TANGENCY}
    tangencies = 0
    for path in paths5(400):
        for state, event in zip(path.states(), path.events):
            if event.kind in swap:
                tangencies += 1
                twin = dataclasses.replace(event, kind=swap[event.kind])
                assert apply(state, event) == apply(state, twin)
    assert tangencies > 500


def test_lambda_is_invariant_along_paths():
    report = invariance_along_paths(lambda_, paths5(200, length=6))
    assert report.ok and report.checked == 400


def test_mu_is_invariant_along_4_space_paths():
    report = invariance_along_paths(
        mu, random_paths(rp3_fixture(), 6, 200, seed=9))
    assert report.ok


def test_component_count_is_not_invariant():
    report = invariance_along_paths(J, paths5(100, length=6))
    assert not report.ok
    assert isinstance(report, CalculusReport)

"""Event calculus for generic one-parameter families of immersed spheres.

A generic path of immersions crosses the discriminant walls transversally,
and each wall crossing changes the invariant-level state in a prescribed
way: a self-tangency creates, kills, merges or splits a double circle; a
triple-point wall moves the self-intersection linking number by three; in
4-space the walls change the double surface by a Morse move, the resolved
triple curve by a Morse move, or the quadruple count by two.  States stay
combinatorial; the module verifies the resulting first-order calculus
(jumps of a first-order invariant depend on the wall, never on the state
it is crossed from) by brute force over random event paths.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from . import qform
from . import surfaces
from .invariants import Component5, ImmersionState5, SPIN_TRIVIAL
from .surfaces import ImmersionState4, StrataCounts, SurfaceComponent, \
    SurfaceDescriptor

ELLIPTIC_TANGENCY = "elliptic-tangency"
HYPERBOLIC_TANGENCY = "hyperbolic-tangency"
TRIPLE5 = "triple5"
TANGENCY4 = "tangency4"
TRIPLE4 = "triple4"
QUADRUPLE4 = "quadruple4"
QUINTUPLE4 = "quintuple4"

KINDS_5 = frozenset({ELLIPTIC_TANGENCY, HYPERBOLIC_TANGENCY, TRIPLE5})
KINDS_4 = frozenset({TANGENCY4, TRIPLE4, QUADRUPLE4, QUINTUPLE4})

# details of the Morse-type events; sign is forced by the detail
_TANGENCY5_DETAILS = {"birth": 1, "split": 1, "death": -1, "merge": -1}
_TANGENCY4_DETAILS = {"sphere-birth": 1, "handle-remove": 1,
                      "sphere-death": -1, "handle-attach": -1}

State = Union[ImmersionState5, ImmersionState4]


class InapplicableEventError(ValueError):
    """The event's preconditions fail at the given state."""


@dataclasses.dataclass(frozen=True, slots=True)
class StratumEvent:
    """One transversal wall crossing.

    sign is the coorientation direction: positive self-tangencies increase
    the number of double circles, positive triple walls increase lk, and in
    4-space positive crossings increase D, T or Q.  operand carries the
    indices the event acts on; a split also records the twist handed to the
    new component.
    """

    kind: str
    sign: int
    operand: tuple = ()
    detail: Optional[str] = None

    def __post_init__(self):
        if self.kind not in KINDS_5 | KINDS_4:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "operand", tuple(int(v) for v in self.operand))
        if self.kind in (ELLIPTIC_TANGENCY, HYPERBOLIC_TANGENCY):
            if self.detail not in _TANGENCY5_DETAILS:
                raise ValueError(f"tangency detail {self.detail!r} must be "
                                 "birth, death, merge or split")
            if self.sign != _TANGENCY5_DETAILS[self.detail]:
                raise ValueError(f"{self.detail} events have sign "
                                 f"{_TANGENCY5_DETAILS[self.detail]:+d}")
        elif self.kind == TANGENCY4:
            if self.detail not in _TANGENCY4_DETAILS:
                raise ValueError(f"tangency detail {self.detail!r} must name "
                                 "a sphere or handle Morse move")
            if self.sign != _TANGENCY4_DETAILS[self.detail]:
                raise ValueError(f"{self.detail} events have sign "
                                 f"{_TANGENCY4_DETAILS[self.detail]:+d}")
        elif self.detail is not None:
            raise ValueError(f"{self.kind} events carry no detail")

    def to_json(self) -> str:
        return json.dumps({"schema": 1, "kind": self.kind, "sign": self.sign,
                           "operand": list(self.operand),
                           "detail": self.detail})

    @staticmethod
    def from_json(text: str) -> "StratumEvent":
        data = qform.loads_record(
            text, {"kind": str, "sign": int},
            {"operand": list, "detail": (str, type(None))})
        operand = tuple(data.get("operand", ()))
        if not all(type(v) is int for v in operand):
            raise ValueError("key 'operand' must be a JSON array of integers")
        return StratumEvent(data["kind"], data["sign"], operand,
                            data.get("detail"))


# ---------------------------------------------------------------------------
# event application


def _check_index(i: int, n: int) -> int:
    if not 0 <= i < n:
        raise InapplicableEventError(f"component index {i} out of range")
    return i


# the double circle of each twist class; _apply_5 shares these records
_COMPONENTS5 = tuple(Component5(t % 2 == 1, t) for t in range(4))
_TRIVIAL5 = _COMPONENTS5[SPIN_TRIVIAL]


def _apply_5(state: ImmersionState5, event: StratumEvent) -> ImmersionState5:
    comps = list(state.components)
    if event.kind == TRIPLE5:
        if not comps:
            raise InapplicableEventError(
                "a triple wall needs an existing double circle")
        return ImmersionState5(state.omega, state.lk + 3 * event.sign,
                               tuple(comps))
    if event.detail == "birth":
        at = event.operand[0] if event.operand else len(comps)
        if not 0 <= at <= len(comps):
            raise InapplicableEventError("birth position out of range")
        comps.insert(at, _TRIVIAL5)
    elif event.detail == "death":
        i = _check_index(event.operand[0], len(comps))
        if comps[i] != _TRIVIAL5:
            raise InapplicableEventError(
                "only a trivial double circle can die")
        del comps[i]
    elif event.detail == "merge":
        i, j = event.operand
        if i == j:
            raise InapplicableEventError("merge needs two distinct circles")
        _check_index(i, len(comps))
        _check_index(j, len(comps))
        # merge j into i so a later split can restore both positions
        comps[i] = _COMPONENTS5[(comps[i].twist_class
                                 + comps[j].twist_class) % 4]
        del comps[j]
    elif event.detail == "split":
        i, at, handed = event.operand
        _check_index(i, len(comps))
        if not 0 <= at <= len(comps):
            raise InapplicableEventError("split position out of range")
        comps[i] = _COMPONENTS5[(comps[i].twist_class - handed) % 4]
        comps.insert(at, _COMPONENTS5[handed % 4])
    return ImmersionState5(state.omega, state.lk, tuple(comps))


_HANDLE_ORIENTABLE = qform.t_zero()
_HANDLE_CROSSCAPS = qform.direct_sum(qform.p_plus(), qform.p_minus())


def _attach_block(quad, block):
    if quad is None:
        return None
    return qform.direct_sum(quad, block)


def _detach_block(quad, block):
    """Remove a trailing canonical block, verifying it is really there."""
    if quad is None:
        return None
    k = block.dim
    if quad.dim < k:
        raise InapplicableEventError("refinement too small to detach from")
    mat = quad.matrix()
    if (not np.array_equal(mat[-k:, -k:], block.matrix())
            or mat[:-k, -k:].any()
            or quad.basis_q[-k:] != block.basis_q):
        raise InapplicableEventError(
            "refinement does not end in the canonical handle block")
    return qform.QuadraticSpace(mat[:-k, :-k], quad.basis_q[:-k])


def _apply_4(state: ImmersionState4, event: StratumEvent) -> ImmersionState4:
    surf = state.surface
    if event.kind == QUINTUPLE4:
        return state
    if event.kind == TRIPLE4:
        if state.T + event.sign < 0:
            raise InapplicableEventError("no triple circle left to remove")
        return ImmersionState4(surf, state.Q, state.T + event.sign, state.D)
    if event.kind == QUADRUPLE4:
        dq = 2 * event.sign
        if state.Q + dq < 0:
            raise InapplicableEventError("quadruple count cannot go negative")
        try:
            strata = dataclasses.replace(
                surf.strata,
                quadruple_points=surf.strata.quadruple_points + dq,
                stratum_points_f0=surf.strata.stratum_points_f0 + 6 * dq)
        except ValueError as exc:
            raise InapplicableEventError(str(exc)) from exc
        surf = SurfaceDescriptor(surf.components, strata, surf.quad_data)
        return ImmersionState4(surf, state.Q + dq, state.T, state.D)

    comps = list(surf.components)
    quad = surf.quad_data
    if event.detail == "sphere-birth":
        at = event.operand[0] if event.operand else len(comps)
        if not 0 <= at <= len(comps):
            raise InapplicableEventError("birth position out of range")
        comps.insert(at, surfaces.SPHERE)
    elif event.detail == "sphere-death":
        i = _check_index(event.operand[0], len(comps))
        if comps[i] != surfaces.SPHERE:
            raise InapplicableEventError("component is not a sphere")
        del comps[i]
    elif event.detail == "handle-attach":
        i = _check_index(event.operand[0], len(comps))
        c = comps[i]
        comps[i] = SurfaceComponent(c.orientable, c.genus_or_crosscaps
                                    + (1 if c.orientable else 2))
        quad = _attach_block(quad, _HANDLE_ORIENTABLE if c.orientable
                             else _HANDLE_CROSSCAPS)
    elif event.detail == "handle-remove":
        i = _check_index(event.operand[0], len(comps))
        c = comps[i]
        drop = 1 if c.orientable else 2
        if c.genus_or_crosscaps - drop < (0 if c.orientable else 1):
            raise InapplicableEventError("no handle left to remove")
        comps[i] = SurfaceComponent(c.orientable, c.genus_or_crosscaps - drop)
        quad = _detach_block(quad, _HANDLE_ORIENTABLE if c.orientable
                             else _HANDLE_CROSSCAPS)
    surf = SurfaceDescriptor(tuple(comps), surf.strata, quad)
    return ImmersionState4(surf, state.Q, state.T, surfaces.euler(surf))


def apply(state: State, event: StratumEvent) -> State:
    """The state after crossing the wall; raises when inapplicable."""
    if isinstance(state, ImmersionState5):
        if event.kind not in KINDS_5:
            raise InapplicableEventError(f"{event.kind} is a 4-space wall")
        return _apply_5(state, event)
    if isinstance(state, ImmersionState4):
        if event.kind not in KINDS_4:
            raise InapplicableEventError(f"{event.kind} is a 5-space wall")
        return _apply_4(state, event)
    raise TypeError("state must be a 5-space or 4-space immersion state")


# what _apply_once records for an event that does not apply at the state
_INAPPLICABLE = object()


def _apply_once(memo: dict, state: State, event: StratumEvent):
    """apply(state, event), or _INAPPLICABLE, computed once per memo.

    The memo belongs to one call of a sweep.  It is looked up by the
    identity of the two records first (random_paths shares equal records,
    so this is the usual hit) and then by their value, so equal pairs are
    applied once.  An identity entry keeps its records alive, so their ids
    cannot be reused while the memo lives.
    """
    hit = memo.get((id(state), id(event)))
    if hit is None:
        after = memo.get((state, event))
        if after is None:
            try:
                after = apply(state, event)
            except InapplicableEventError:
                after = _INAPPLICABLE
            memo[(state, event)] = after
        hit = memo[(id(state), id(event))] = (after, state, event)
    return hit[0]


def reverse(event: StratumEvent, state: Optional[State] = None) -> StratumEvent:
    """The event undoing this one: apply(apply(s, e), reverse(e, s)) == s.

    Merges and unpositioned births lose information the reverse needs (the
    twist handed to the vanished circle, the append position), so for those
    the state the event was applied to must be supplied.
    """
    if event.kind in (ELLIPTIC_TANGENCY, HYPERBOLIC_TANGENCY):
        if event.detail == "birth":
            if event.operand:
                at = event.operand[0]
            elif isinstance(state, ImmersionState5):
                at = len(state.components)
            else:
                raise ValueError("reversing an append birth needs the state")
            return StratumEvent(event.kind, -1, (at,), "death")
        if event.detail == "death":
            return StratumEvent(event.kind, 1, (event.operand[0],), "birth")
        if event.detail == "split":
            i, at, _ = event.operand
            i2 = i + 1 if at <= i else i
            return StratumEvent(event.kind, -1, (i2, at), "merge")
        if event.detail == "merge":
            if not isinstance(state, ImmersionState5):
                raise ValueError("reversing a merge needs the state")
            i, j = event.operand
            handed = state.components[j].twist_class
            p = i - 1 if j < i else i
            return StratumEvent(event.kind, 1, (p, j, handed), "split")
    if event.kind == TANGENCY4:
        if event.detail == "sphere-birth":
            if event.operand:
                at = event.operand[0]
            elif isinstance(state, ImmersionState4):
                at = len(state.surface.components)
            else:
                raise ValueError("reversing an append birth needs the state")
            return StratumEvent(TANGENCY4, -1, (at,), "sphere-death")
        if event.detail == "sphere-death":
            return StratumEvent(TANGENCY4, 1, event.operand, "sphere-birth")
        if event.detail == "handle-attach":
            return StratumEvent(TANGENCY4, 1, event.operand, "handle-remove")
        if event.detail == "handle-remove":
            return StratumEvent(TANGENCY4, -1, event.operand, "handle-attach")
    return StratumEvent(event.kind, -event.sign, event.operand, event.detail)


# ---------------------------------------------------------------------------
# paths


@dataclasses.dataclass(frozen=True, slots=True)
class Path:
    """An initial state and the ordered walls a family crosses.

    The states along the path are applied once, when the path is built,
    and kept.
    """

    initial: State
    events: tuple[StratumEvent, ...]
    _states: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        events = tuple(self.events)
        states = [self.initial]
        for e in events:  # validates applicability up front
            states.append(apply(states[-1], e))
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "_states", tuple(states))

    @classmethod
    def _applied(cls, initial: State, events: tuple, states: tuple) -> "Path":
        """A path whose states the caller has already applied."""
        path = object.__new__(cls)
        object.__setattr__(path, "initial", initial)
        object.__setattr__(path, "events", events)
        object.__setattr__(path, "_states", states)
        return path

    def states(self) -> Iterator[State]:
        return iter(self._states)

    @property
    def final(self) -> State:
        return self._states[-1]

    def to_json(self) -> str:
        if isinstance(self.initial, ImmersionState5):
            init = {"space": 5, "state": json.loads(self.initial.to_json())}
        else:
            init = {"space": 4,
                    "surface": json.loads(self.initial.surface.to_json()),
                    "Q": self.initial.Q, "T": self.initial.T,
                    "D": self.initial.D}
        return json.dumps({"schema": 1, "initial": init,
                           "events": [json.loads(e.to_json())
                                      for e in self.events]})


# The random stream of random_paths: numpy's bounded integers without
# numpy's per-call cost.

_WORDS_PER_BLOCK = 4096
_UINT32 = 1 << 32


class _Draws:
    """The bounded integers of np.random.default_rng(seed), draw for draw.

    The PCG64 words are read in blocks and split into their low, then
    their high 32 bits, the order of numpy's next_uint32.  below(n) maps
    one such half to [0, n) by numpy's rule (Lemire, ACM TOMACS 29, 2019):
    m = x * n, redrawn while m mod 2^32 falls below (2^32 - n) mod n.
    """

    __slots__ = ("_bit_generator", "_halves")

    def __init__(self, seed: int):
        self._bit_generator = np.random.default_rng(seed).bit_generator
        self._halves = iter(())

    def _half(self) -> int:
        x = next(self._halves, None)
        if x is None:
            words = self._bit_generator.random_raw(_WORDS_PER_BLOCK)
            halves = np.stack((words & 0xFFFFFFFF, words >> 32), axis=1)
            self._halves = iter(halves.ravel().tolist())
            x = next(self._halves)
        return x

    def below(self, n: int) -> int:
        """rng.integers(0, n) for 1 <= n < 2**32; n = 1 draws nothing."""
        if n == 1:
            return 0
        if not 1 < n < _UINT32:
            raise ValueError(f"below(n) needs 1 <= n < 2**32, got {n}")
        m = self._half() * n
        if m & 0xFFFFFFFF < n:
            threshold = (_UINT32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._half() * n
        return m >> 32


# The candidate walls at a state, as (kind, sign, operand, detail) fields in
# the order random_paths draws them; only the chosen one becomes an event.
# Every draw is a _Draws.below call, which consumes the random stream exactly
# as the rng.integers and rng.choice calls it replaces.


def _distinct_pair(draws: _Draws, n: int) -> tuple[int, int]:
    """Draw for draw rng.choice(n, size=2, replace=False), for n >= 2:
    Floyd's algorithm over the last two slots, then the final shuffle."""
    i = draws.below(n - 1)
    j = draws.below(n)
    if j == i:
        j = n - 1
    if draws.below(2) == 0:
        i, j = j, i
    return i, j


def _random_sign(draws: _Draws) -> int:
    """Draw for draw rng.choice((1, -1))."""
    return (1, -1)[draws.below(2)]


def _candidate_events_5(state: ImmersionState5, draws: _Draws) -> list[tuple]:
    comps = state.components
    kind = (ELLIPTIC_TANGENCY, HYPERBOLIC_TANGENCY)[draws.below(2)]
    out = [(kind, 1, (draws.below(len(comps) + 1),), "birth")]
    trivial = [i for i, c in enumerate(comps) if c == _TRIVIAL5]
    if trivial:
        out.append((kind, -1, (trivial[draws.below(len(trivial))],),
                    "death"))
    if len(comps) >= 2:
        out.append((kind, -1, _distinct_pair(draws, len(comps)), "merge"))
    if comps:
        i = draws.below(len(comps))
        handed = draws.below(4)
        at = draws.below(len(comps) + 1)
        out.append((kind, 1, (i, at, handed), "split"))
        out.append((TRIPLE5, _random_sign(draws), (), None))
    return out


def _candidate_events_4(state: ImmersionState4, draws: _Draws) -> list[tuple]:
    comps = state.surface.components
    out = [(TANGENCY4, 1, (draws.below(len(comps) + 1),), "sphere-birth"),
           (TRIPLE4, 1, (), None),
           (QUADRUPLE4, 1, (), None),
           (QUINTUPLE4, _random_sign(draws), (), None)]
    spheres = [i for i, c in enumerate(comps) if c == surfaces.SPHERE]
    if spheres:
        out.append((TANGENCY4, -1, (spheres[draws.below(len(spheres))],),
                    "sphere-death"))
    if comps:
        out.append((TANGENCY4, -1, (draws.below(len(comps)),),
                    "handle-attach"))
    handled = [i for i, c in enumerate(comps)
               if c.genus_or_crosscaps >= (1 if c.orientable else 3)]
    if handled:
        out.append((TANGENCY4, 1, (handled[draws.below(len(handled))],),
                    "handle-remove"))
    if state.T >= 1:
        out.append((TRIPLE4, -1, (), None))
    if state.Q >= 2:
        out.append((QUADRUPLE4, -1, (), None))
    return out


def random_paths(initial: State, events_per_path: int, n_paths: int,
                 seed: int = 0) -> Iterator[Path]:
    """Random event paths, every event applicable where it occurs.

    Equal events and equal states drawn by one call are one shared record,
    and each (state, event) pair is applied once per call.  A negative
    count raises ValueError.
    """
    if events_per_path < 0 or n_paths < 0:
        raise ValueError("events_per_path and n_paths must be non-negative")
    draws = _Draws(seed)
    candidates = (_candidate_events_5 if isinstance(initial, ImmersionState5)
                  else _candidate_events_4)
    events_seen: dict[tuple, StratumEvent] = {}
    states_seen: dict[State, State] = {initial: initial}
    applied: dict = {}
    for _ in range(n_paths):
        events, states = [], [initial]
        while len(events) < events_per_path:
            cands = candidates(states[-1], draws)
            fields = cands[draws.below(len(cands))]
            event = events_seen.get(fields)
            if event is None:
                event = events_seen[fields] = StratumEvent(*fields)
            state = _apply_once(applied, states[-1], event)
            if state is _INAPPLICABLE:
                continue
            events.append(event)
            states.append(states_seen.setdefault(state, state))
        yield Path._applied(initial, tuple(events), tuple(states))


# ---------------------------------------------------------------------------
# verification reports


@dataclasses.dataclass(frozen=True)
class Violation:
    path: Path
    description: str


@dataclasses.dataclass(frozen=True)
class CalculusReport:
    checked: int
    skipped: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if not self.ok:
            word = f"{len(self.violations)} violations"
        else:
            word = "ok" if self.checked else "nothing was checked"
        return (f"{self.checked} configurations checked "
                f"({self.skipped} skipped): {word}")


def _evaluate_once(invariant: Callable[[State], object]):
    """The invariant, evaluated once per distinct state while it lives.

    As in _apply_once, a state is looked up by identity, then by value.
    """
    by_id: dict[int, tuple] = {}
    by_value: dict[State, object] = {}

    def value(state: State):
        hit = by_id.get(id(state))
        if hit is None:
            if state in by_value:
                v = by_value[state]
            else:
                v = by_value[state] = invariant(state)
            hit = by_id[id(state)] = (v, state)
        return hit[0]

    return value


def verify_first_order(invariant: Callable[[State], int],
                       paths: Iterable[Path]) -> CalculusReport:
    """Brute-force check that an invariant is first order.

    For every two-event path the jump of the second wall is compared at the
    base state and after the first wall: first-order invariants jump by an
    amount depending on the wall alone, so the second difference must
    vanish.  A state does not record whether a self-tangency was elliptic
    or hyperbolic, so both branches of a tangency wall reach the same state
    and need no check of their own.  Within one call each (state, event)
    pair is applied once and the invariant is evaluated once per distinct
    state.
    """
    value = _evaluate_once(invariant)
    applied: dict = {}
    checked = skipped = 0
    violations = []
    for path in paths:
        if len(path.events) < 2:
            skipped += 1
            continue
        s0, s1, s12 = path._states[:3]
        e1, e2 = path.events[:2]
        s2 = _apply_once(applied, s0, e2)
        if s2 is _INAPPLICABLE:
            skipped += 1
            continue
        checked += 1
        second = (value(s12) - value(s1)) - (value(s2) - value(s0))
        if second != 0:
            violations.append(Violation(
                path, f"second difference {second} across "
                      f"{e1.kind}/{e2.kind}"))
    return CalculusReport(checked, skipped, tuple(violations))


def invariance_along_paths(invariant: Callable[[State], object],
                           paths: Iterable[Path]) -> CalculusReport:
    """Check an invariant is constant along every path.

    Within one call the invariant is evaluated once per distinct state.
    """
    value = _evaluate_once(invariant)
    checked = 0
    violations = []
    for path in paths:
        checked += 1
        values = [value(s) for s in path.states()]
        for k in range(1, len(values)):
            if values[k] != values[0]:
                violations.append(Violation(
                    path, f"value changed from {values[0]} to {values[k]} "
                          f"at step {k} ({path.events[k - 1].kind})"))
                break
    return CalculusReport(checked, 0, tuple(violations))

"""Self-intersection surfaces of generic maps of 3-spheres into 4-space.

A generic map has a closed self-intersection surface F (the double-point
set resolved in the source), a closed curve collection C resolving the
triple-point curves, and isolated quadruple points.  The combinatorial
descriptor below records the pieces together with an optional quadratic
refinement on H_1(F; Z2), from which the Z8 surface invariant is computed
exactly.  The mod-2 reduction mu ties the quadruple-point count to the
Euler characteristic of F.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional

from . import qform
from .config import Config, DEFAULT


@dataclasses.dataclass(frozen=True)
class SurfaceComponent:
    """One closed surface component: orientable genus-g or k crosscaps."""

    orientable: bool
    genus_or_crosscaps: int

    def __post_init__(self):
        n = int(self.genus_or_crosscaps)
        if n < 0:
            raise ValueError("genus / crosscap count must be >= 0")
        if not self.orientable and n == 0:
            raise ValueError("a nonorientable component needs >= 1 crosscap")
        object.__setattr__(self, "genus_or_crosscaps", n)

    @property
    def euler(self) -> int:
        n = self.genus_or_crosscaps
        return 2 - 2 * n if self.orientable else 2 - n

    @property
    def h1_rank(self) -> int:
        """Rank of H_1 over Z2: 2g orientable, k crosscaps otherwise."""
        n = self.genus_or_crosscaps
        return 2 * n if self.orientable else n


SPHERE = SurfaceComponent(True, 0)
TORUS = SurfaceComponent(True, 1)
RP2 = SurfaceComponent(False, 1)
KLEIN = SurfaceComponent(False, 2)


@dataclasses.dataclass(frozen=True)
class StrataCounts:
    """Counts of the deeper double-point strata carried by the surface."""

    quadruple_points: int = 0
    triple_arcs: int = 0
    triple_circles: int = 0
    stratum_points_f0: int = 0   # preimages of quadruple points in F
    stratum_arcs_f1: int = 0     # preimage arcs of triple curves in F

    def __post_init__(self):
        for name in ("quadruple_points", "triple_arcs", "triple_circles",
                     "stratum_points_f0", "stratum_arcs_f1"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclasses.dataclass(frozen=True)
class SurfaceDescriptor:
    components: tuple[SurfaceComponent, ...]
    strata: StrataCounts = StrataCounts()
    quad_data: Optional[qform.QuadraticSpace] = None

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if self.quad_data is not None:
            rank = sum(c.h1_rank for c in comps)
            if self.quad_data.dim != rank:
                raise ValueError(
                    f"quad_data dimension {self.quad_data.dim} != H1 rank {rank}")

    @property
    def orientable(self) -> bool:
        return all(c.orientable for c in self.components)

    def to_json(self) -> str:
        data = {
            "schema": 1,
            "components": [{"orientable": c.orientable,
                            "genus_or_crosscaps": c.genus_or_crosscaps}
                           for c in self.components],
            "strata": dataclasses.asdict(self.strata),
        }
        if self.quad_data is not None:
            data["quad_data"] = json.loads(self.quad_data.to_json())
        return json.dumps(data)

    @staticmethod
    def from_json(text: str) -> "SurfaceDescriptor":
        data = qform.loads_record(
            text, {"components": list},
            {"strata": dict, "quad_data": (dict, type(None))})
        comps = tuple(SurfaceComponent(c["orientable"],
                                       c["genus_or_crosscaps"])
                      for c in qform.json_records(
                          data["components"],
                          {"orientable": bool, "genus_or_crosscaps": int}))
        strata = StrataCounts(**qform.json_record(
            data.get("strata", {}), {},
            {f.name: int for f in dataclasses.fields(StrataCounts)}))
        quad = None
        if data.get("quad_data") is not None:
            quad = qform.QuadraticSpace.from_json(json.dumps(data["quad_data"]))
        return SurfaceDescriptor(comps, strata, quad)


def euler(surface: SurfaceDescriptor) -> int:
    return sum(c.euler for c in surface.components)


def beta_surface(surface: SurfaceDescriptor, config: Config = DEFAULT) -> int:
    """The Z8 invariant of the quadratic refinement on H_1(F; Z2)."""
    if surface.quad_data is None:
        raise ValueError("descriptor carries no quadratic refinement")
    return qform.brown(surface.quad_data, config)


@dataclasses.dataclass(frozen=True)
class ImmersionState4:
    """Invariant-level state of a generic map into 4-space.

    Q: number of quadruple points, T: components of the resolved triple
    curve, D: Euler characteristic of the self-intersection surface.
    """

    surface: SurfaceDescriptor
    Q: int
    T: int
    D: int

    def __post_init__(self):
        if self.Q < 0 or self.T < 0:
            raise ValueError("counts must be >= 0")
        if self.D != euler(self.surface):
            raise ValueError(f"D = {self.D} but the surface has Euler "
                             f"characteristic {euler(self.surface)}")
        if self.Q != self.surface.strata.quadruple_points:
            raise ValueError("Q must match the surface's quadruple count")


def check_parity_link(state: ImmersionState4) -> bool:
    """Quadruple points and Euler characteristic share parity (always, for
    states arising from generic maps); False flags an inconsistent state."""
    return state.Q % 2 == state.D % 2


def mu(state: ImmersionState4, config: Config = DEFAULT) -> int:
    """Mod-2 invariant: Q mod 2 (= D mod 2 = surface invariant mod 2)."""
    if not check_parity_link(state):
        raise ValueError("state violates the quadruple/Euler parity link")
    value = state.Q % 2
    if state.surface.quad_data is not None:
        if beta_surface(state.surface, config) % 2 != value:
            raise ValueError("quadratic refinement parity contradicts Q")
    return value


def prune_spheres(surface: SurfaceDescriptor) -> SurfaceDescriptor:
    """Drop sphere components; they carry no H_1 and only shift D by 2."""
    comps = tuple(c for c in surface.components if c != SPHERE)
    return SurfaceDescriptor(comps, surface.strata, surface.quad_data)


def connected_sum4(a: ImmersionState4, b: ImmersionState4,
                   new_spheres: int = 0) -> ImmersionState4:
    """Invariant-level connected sum of two states in 4-space.

    Joining two maps along embedded balls adds the strata; the connecting
    tube may introduce up to two new embedded sphere components of the
    self-intersection surface (``new_spheres`` in {0, 1, 2}).
    """
    if new_spheres not in (0, 1, 2):
        raise ValueError("new_spheres must be 0, 1 or 2")
    comps = (a.surface.components + b.surface.components
             + (SPHERE,) * new_spheres)
    quad = None
    if a.surface.quad_data is not None and b.surface.quad_data is not None:
        quad = qform.direct_sum(a.surface.quad_data, b.surface.quad_data)
    sa, sb = a.surface.strata, b.surface.strata
    strata = StrataCounts(
        quadruple_points=sa.quadruple_points + sb.quadruple_points,
        triple_arcs=sa.triple_arcs + sb.triple_arcs,
        triple_circles=sa.triple_circles + sb.triple_circles,
        stratum_points_f0=sa.stratum_points_f0 + sb.stratum_points_f0,
        stratum_arcs_f1=sa.stratum_arcs_f1 + sb.stratum_arcs_f1,
    )
    surface = SurfaceDescriptor(comps, strata, quad)
    return ImmersionState4(surface, a.Q + b.Q, a.T + b.T,
                           a.D + b.D + 2 * new_spheres)


def rp3_fixture() -> ImmersionState4:
    """The composite of a double cover with a generic projective-space
    immersion into 4-space: the standard odd example.

    Self-intersection surface torus + projective plane (Euler 1), one
    quadruple point, four triple arcs all closing through it (two resolved
    circles), six quadruple preimage points and twelve arc preimages in F.
    The refinement is pinned to the minimal odd representative T0 + P+.
    """
    quad = qform.direct_sum(qform.t_zero(), qform.p_plus())
    strata = StrataCounts(quadruple_points=1, triple_arcs=4,
                          triple_circles=0, stratum_points_f0=6,
                          stratum_arcs_f1=12)
    surface = SurfaceDescriptor((TORUS, RP2), strata, quad)
    return ImmersionState4(surface, Q=1, T=2, D=1)

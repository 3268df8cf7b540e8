"""Invariants of immersed and generically immersed 3-spheres in 5-space.

An immersion S^3 -> R^5 is classified up to regular homotopy by a single
integer omega, assembled from two frame-map invariants: the degree u of
the first normalized frame column over S^3 and the Hopf invariant v of
the second, combined as omega = u + 2 v.  The generator convention is
fixed so that the kinked sphere with m = -1/2 has omega = +1.

A generic immersion carries one further integer, lk: the class of a
pushoff of the self-intersection circle in the first homology of the
image complement, with the pushoff direction prescribed along the
double-point preimages by framings whose shifted preimage link is
null homologous in the domain.  Everything else is arithmetic in the
pair (omega, lk) and in the list of double circles: lambda = lk mod 3,
the twist class count tau in Z_4, the component count J, and the two
integer lifts L = (lk - lambda) / 3 and St = (lk + omega) / 3.  The
embedding test implements the index-24 kernel: a regular homotopy class
contains an embedding exactly when 24 divides omega.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from . import numtopo, qform, surfaces
from .config import Config, DEFAULT
from .geometry import (FamilyMap, HalfInteger, KinkParams, column_m1,
                       column_m1_jacobian, column_n1, column_n1_jacobian,
                       domain_constraint)

RIGHT_TWIST = 1
LEFT_TWIST = 3
SPIN_NONTRIVIAL = 2
SPIN_TRIVIAL = 0


@dataclasses.dataclass(frozen=True)
class Component5:
    """One double-point circle of a generic immersion S^3 -> R^5.

    preimage_connected records whether the two branches over the circle
    close up into a single preimage circle.  twist_class in Z_4 encodes the
    framed cover type: 1 right and 3 left for connected preimages, 2 and 0
    for the nontrivial and trivial spin classes of disconnected ones.  The
    parity of twist_class is forced by the connectivity.
    """

    preimage_connected: bool
    twist_class: int

    def __post_init__(self):
        object.__setattr__(self, "twist_class", int(self.twist_class) % 4)
        if (self.twist_class % 2 == 1) != bool(self.preimage_connected):
            raise ValueError(
                f"twist class {self.twist_class} is incompatible with "
                f"preimage_connected={self.preimage_connected}")


@dataclasses.dataclass(frozen=True)
class ImmersionState5:
    """Discrete state of a generic immersion S^3 -> R^5.

    omega is the regular homotopy class, lk the self-intersection linking
    invariant, components the double circles.  lk + omega is divisible by
    3 for every generic immersion (St is an integer), which is validated.
    """

    omega: int
    lk: int
    components: tuple = ()

    def __post_init__(self):
        comps = tuple(self.components)
        for comp in comps:
            if not isinstance(comp, Component5):
                raise TypeError("components must be Component5 records")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "omega", int(self.omega))
        object.__setattr__(self, "lk", int(self.lk))
        if (self.lk + self.omega) % 3 != 0:
            raise ValueError(
                f"lk={self.lk} and omega={self.omega} violate the "
                "divisibility of lk + omega by 3")

    def to_json(self) -> str:
        return json.dumps({
            "schema": 1,
            "omega": self.omega,
            "lk": self.lk,
            "components": [{"preimage_connected": c.preimage_connected,
                            "twist_class": c.twist_class}
                           for c in self.components],
        })

    @staticmethod
    def from_json(text: str) -> "ImmersionState5":
        data = qform.loads_record(text, {"omega": int, "lk": int},
                                  {"components": list})
        comps = tuple(Component5(c["preimage_connected"], c["twist_class"])
                      for c in qform.json_records(
                          data.get("components", []),
                          {"preimage_connected": bool, "twist_class": int}))
        return ImmersionState5(data["omega"], data["lk"], comps)


@dataclasses.dataclass(frozen=True)
class RegularHomotopyClass:
    """Regular homotopy class of an immersion S^3 -> R^5: one integer."""

    omega: int

    def __post_init__(self):
        object.__setattr__(self, "omega", int(self.omega))

    def __add__(self, other: "RegularHomotopyClass") -> "RegularHomotopyClass":
        return RegularHomotopyClass(self.omega + other.omega)

    def __neg__(self) -> "RegularHomotopyClass":
        return RegularHomotopyClass(-self.omega)


@dataclasses.dataclass(frozen=True)
class EmbeddingTest:
    """Result row of the index-24 embedding test for one omega."""

    omega: int
    embeddable: bool
    sigma: int | None
    lambda3: int
    beta: int


# ---------------------------------------------------------------------------
# arithmetic invariants of a state


def lambda_(state: ImmersionState5) -> int:
    """lambda = lk mod 3, the residue that survives generic deformations."""
    return state.lk % 3


def tau(state: ImmersionState5) -> int:
    """tau = r + 2n - l mod 4 from the twist classes of the double circles.

    r, l and n count the components of right, left and nontrivial-spin
    class; trivial-spin components do not contribute.
    """
    counts = {0: 0, 1: 0, 2: 0, 3: 0}
    for comp in state.components:
        counts[comp.twist_class] += 1
    return (counts[RIGHT_TWIST] + 2 * counts[SPIN_NONTRIVIAL]
            - counts[LEFT_TWIST]) % 4


def J(state: ImmersionState5) -> int:
    """Number of double circles."""
    return len(state.components)


def L(state: ImmersionState5) -> int:
    """Integer lift (lk - lambda) / 3 with lambda lifted into {0, 1, 2}."""
    return (state.lk - lambda_(state)) // 3


def St(state: ImmersionState5) -> int:
    """The integer (lk + omega) / 3: additive, sign-reversed with
    orientation, and a first-order invariant independent of J."""
    return (state.lk + state.omega) // 3


def connected_sum5(s1: ImmersionState5, s2: ImmersionState5) -> ImmersionState5:
    """Connected sum: omega and lk add, double circles concatenate."""
    return ImmersionState5(s1.omega + s2.omega, s1.lk + s2.lk,
                           s1.components + s2.components)


def reverse_orientation(state: ImmersionState5) -> ImmersionState5:
    """State of the same immersion with the domain orientation reversed.

    omega and lk both change sign.  The component records are carried over
    unchanged; how reversal acts on the individual cover classes is not
    modeled, only the counts survive.
    """
    return ImmersionState5(-state.omega, -state.lk, state.components)


def embedding_test(cls, config: Config = DEFAULT) -> EmbeddingTest:
    """Index-24 test: which regular homotopy classes contain embeddings.

    A class omega contains an embedding exactly when omega = 0 mod 24; the
    quotient Z_24 is detected faithfully by the pair (lambda, beta) in
    Z_3 + Z_8 with lambda = 2 omega mod 3 and beta = b omega mod 8 for the
    odd convention unit b = config.beta_generator.  When embeddable, the
    Seifert-surface signature invariant is sigma = omega / 24 up to the
    config.sigma_sign convention.  The order of (lambda, beta) is checked
    against 24 / gcd(24, omega) before returning.
    """
    omega = cls.omega if isinstance(cls, RegularHomotopyClass) else int(cls)
    b = config.beta_generator
    if b % 2 != 1:
        raise ValueError("beta_generator must be odd to generate Z_8")
    lam = (2 * omega) % 3
    beta = (b * omega) % 8
    order = math.lcm(3 // math.gcd(3, lam), 8 // math.gcd(8, beta))
    if order != 24 // math.gcd(24, omega):
        raise ArithmeticError(
            f"(lambda, beta) order {order} is inconsistent for omega={omega}")
    embeddable = omega % 24 == 0
    sigma = config.sigma_sign * (omega // 24) if embeddable else None
    return EmbeddingTest(omega=omega, embeddable=embeddable, sigma=sigma,
                         lambda3=lam, beta=beta)


def beta_mod4_check(state: ImmersionState5, pushdown: surfaces.ImmersionState4,
                    config: Config = DEFAULT) -> bool:
    """Mod-4 bridge between a 5-space state and a 4-space pushdown.

    Three relations tie a generic immersion in R^5 to a generic projection
    of it into R^4: the Brown invariant of the pushdown's quadruple-point
    form reduces mod 4 to plus-or-minus tau (sign fixed by
    config.beta_tau_sign); the number of double circles with connected
    preimage is odd exactly when the quadruple point count is odd; and a
    nonzero tau forces the pushdown surface to be nonorientable.  Returns
    True when all three hold.
    """
    if pushdown.surface.quad_data is None:
        raise ValueError("pushdown carries no quadruple-point data")
    beta = surfaces.beta_surface(pushdown.surface, config)
    t = tau(state)
    ok = (beta - config.beta_tau_sign * t) % 4 == 0
    odd_connected = sum(1 for c in state.components
                        if c.preimage_connected) % 2
    ok = ok and odd_connected == pushdown.Q % 2
    if t != 0:
        ok = ok and not pushdown.surface.orientable
    return ok


# ---------------------------------------------------------------------------
# the kinked sphere family, closed form


def family_state(m, config: Config = DEFAULT) -> ImmersionState5:
    """Closed-form invariant state of the family member with parameter m.

    omega = -2m and lk = -4m.  For m = 0 the member is an embedding.  For
    every other m the self-intersection is a single circle; its preimage
    is connected exactly when m is a half-odd-integer, and its twist class
    is 2m mod 4 under the config.psi_sign convention.
    """
    m = HalfInteger.parse(m)
    if m.twice == 0:
        return ImmersionState5(0, 0, ())
    comp = Component5(preimage_connected=not m.is_integer,
                      twist_class=(config.psi_sign * m.twice) % 4)
    return ImmersionState5(omega=-m.twice, lk=-2 * m.twice, components=(comp,))


def first_column_degree(m, config: Config = DEFAULT) -> numtopo.SignedCount:
    """Signed preimages of the first frame column of member m over S^3.

    The target value is (0, 0, 1, 0) except at m = 1, the one member whose
    first column is not surjective; there the missed value (0, 1, 0, 0)
    certifies degree zero directly.  Closed form: 2 - 2m.
    """
    m = HalfInteger.parse(m)
    mval = m.value
    value = (0.0, 1.0, 0.0, 0.0) if m.twice == 2 else (0.0, 0.0, 1.0, 0.0)
    return numtopo.degree_S3(
        lambda theta, r, phi: column_m1(mval, theta, r, phi), value, config,
        jac_fn=lambda theta, r, phi: column_m1_jacobian(mval, theta, r, phi))


def second_column_hopf(config: Config = DEFAULT) -> int:
    """Hopf invariant v of the second frame column, by fibers.

    column_n1 and the torus chart take no m, so v is one value for every
    member.  The fibers over the poles (0, 0, +-1) are traced in torus
    coordinates and carried onto the domain by the chart.  Closed form: -1.
    """
    chart = KinkParams.from_config(config).torus_chart
    return numtopo.hopf_invariant(
        column_n1, config,
        to_sphere=lambda curve: chart(curve[:, 0], curve[:, 1], curve[:, 2]),
        values=((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)), jac_fn=column_n1_jacobian)


def smale_of_family(m, config: Config = DEFAULT,
                    hopf: int | None = None) -> RegularHomotopyClass:
    """Regular homotopy class of the family member, computed numerically.

    u is the degree of the first normalized frame column over the domain
    sphere and v the Hopf invariant of the second; omega = u + 2v.  v is
    the same for every member: pass second_column_hopf(config), computed
    once, as hopf to check several.  Both are checked against the closed
    forms u = -2m + 2 and v = -1, so a drifted tolerance or geometry
    regression raises instead of returning a wrong class.
    """
    m = HalfInteger.parse(m)
    u = first_column_degree(m, config).value
    v = second_column_hopf(config) if hopf is None else hopf
    if u != 2 - m.twice or v != -1:
        raise ArithmeticError(
            f"frame-map invariants (u, v) = ({u}, {v}) disagree with the "
            f"closed forms ({2 - m.twice}, -1) for m = {m}")
    return RegularHomotopyClass(u + 2 * v)


# ---------------------------------------------------------------------------
# the linking invariant of the family, by chain crossing count


def _branch_frames(fam: FamilyMap, u, offset: float):
    """Point, disk-radial direction and second framing axis of a branch.

    Along the double-point preimage branch at sweep parameter u the
    tangent space of the domain is spanned by the disk-radial direction
    d_r, the disk-angular direction d_phi and the sweep direction tau_s.
    The branch tangent is m c d_phi + h tau_s; the unit normal to it
    inside the tangent plane it spans with tau_s is e2.  (d_r, e2) frame
    the normal bundle of the branch inside the domain hypersurface.
    """
    u = np.asarray(u, dtype=float)
    mval = fam.m.value
    c = fam.params.kink_scale
    h = fam.params.cap_height
    phi = mval * u + offset
    zero = np.zeros_like(u)
    d_r = np.stack([np.cos(phi), np.sin(phi), zero, zero], axis=-1)
    d_phi = np.stack([-np.sin(phi), np.cos(phi), zero, zero], axis=-1)
    tau_s = np.stack([zero, zero, -np.sin(u), np.cos(u)], axis=-1)
    point = fam.preimage_branch(u, offset)
    e2 = (h * d_phi - mval * c * tau_s) / np.hypot(h, mval * c)
    return point, d_r, e2


def _framing_field(fam: FamilyMap, u, offset: float, rot: float):
    """Normal framing along a branch, rotated rot times per sweep turn."""
    point, d_r, e2 = _branch_frames(fam, u, offset)
    ang = rot * np.asarray(u, dtype=float)
    w = np.cos(ang)[..., None] * d_r + np.sin(ang)[..., None] * e2
    return point, w


def _framing_curves(fam: FamilyMap, rot: float, config: Config):
    """The preimage circles and their shifts along the framing field.

    Returns (curves, shifted): one circle of 2 * curve_points vertices for
    a half-odd m, two of curve_points vertices for an integer m.
    """
    delta = 8e-3
    n = config.curve_points
    if fam.m.is_integer:
        grids = [(np.linspace(0, 2 * np.pi, n, endpoint=False), 0.0),
                 (np.linspace(0, 2 * np.pi, n, endpoint=False), np.pi)]
    else:
        grids = [(np.linspace(0, 4 * np.pi, 2 * n, endpoint=False), 0.0)]
    curves = [fam.preimage_branch(g, off) for g, off in grids]
    shifted = []
    for g, off in grids:
        point, w = _framing_field(fam, g, off, rot)
        shifted.append(point + delta * w)
    return curves, shifted


def _framing_null_homologous(fam: FamilyMap, rot: float,
                             config: Config) -> bool:
    """Check the defining condition on a preimage framing.

    The framing is admissible when the union of shifted preimage circles
    is null homologous in the complement of the preimage link, i.e. when
    for every component the total linking of all shifted components with
    it vanishes.  Curves live on the domain hypersurface, star shaped
    about the origin, so ray linking applies directly.
    """
    curves, shifted = _framing_curves(fam, rot, config)
    for base in curves:
        total = 0
        for shift in shifted:
            total += numtopo.projected_link(shift, base, config)
        if total != 0:
            return False
    return True


def _pushoff_curve(fam: FamilyMap, rot: float, config: Config) -> np.ndarray:
    """Pushoff of the image double circle along the framed sheet field.

    At each point of the double circle the pushoff direction is the sum of
    the two sheet images of the branch framings, v = df(w_1) + df(w_2).
    The polyline returned is oriented by the orientation the two ordered
    sheets induce on the double circle (independent of their order since
    the codimension is even).
    """
    n = config.curve_points
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    if fam.m.is_integer:
        legs = [(theta, 0.0), (theta, np.pi)]
    else:
        legs = [(theta, 0.0), (theta + 2 * np.pi, 0.0)]
    v = np.zeros((n, 5))
    points = []
    for g, off in legs:
        point, w = _framing_field(fam, g, off, rot)
        jac = fam.ambient_jacobian(point)
        v += np.einsum("nij,nj->ni", jac, w)
        points.append(point)
    norms = np.linalg.norm(v, axis=1)
    if norms.min() < 1e-3:
        raise ArithmeticError("sheet pushoff directions nearly cancel; "
                              "the framing field is degenerate")
    rho = fam.double_point_radius
    zero = np.zeros_like(theta)
    circle = np.stack([zero, zero, rho * np.cos(theta), rho * np.sin(theta),
                       zero], axis=-1)
    curve = circle + config.push_distance * v / norms[:, None]
    if _induced_circle_sign(fam, points, theta, config) < 0:
        curve = curve[::-1]
    return curve


def _induced_circle_sign(fam: FamilyMap, sheet_points, theta,
                         config: Config) -> int:
    """Sign of the induced orientation of the image double circle.

    The two sheets through the double circle each carry the domain
    orientation; the circle is oriented so that its tangent followed by
    completing frames of the ordered sheets is a positive frame of R^5.
    Returns +1 when that orientation is the increasing-theta direction of
    the circle in the x3 x4 plane, -1 otherwise.
    """
    def constraint(x):
        return domain_constraint(x, fam.params)

    rho = fam.double_point_radius
    probes = range(0, len(theta), max(1, len(theta) // 7))
    signs = set()
    for i in probes:
        qdot = np.array([0.0, 0.0, -rho * np.sin(theta[i]),
                         rho * np.cos(theta[i]), 0.0])
        cols = [qdot]
        for pts in sheet_points:
            x = pts[i]
            frame = fam.ambient_jacobian(x) @ numtopo.positive_tangent_basis(
                constraint, x, config)
            kappa, residual, *_ = np.linalg.lstsq(frame, qdot, rcond=None)
            if np.linalg.norm(frame @ kappa - qdot) > 1e-5:
                raise ArithmeticError("double-circle tangent is not tangent "
                                      "to a sheet; geometry inconsistency")
            cols.extend((frame @ numtopo.oriented_complement(kappa)).T)
        signs.add(1 if np.linalg.det(np.column_stack(cols)) > 0 else -1)
    if len(signs) != 1:
        raise ArithmeticError("induced orientation probes disagree along "
                              "the double circle")
    return signs.pop()


def _family_domain_seeds(fam: FamilyMap) -> np.ndarray:
    """Torus-chart sample of the kink region, for crossing-solver seeding."""
    p = fam.params
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    r = np.unique(np.concatenate([
        np.linspace(0.05, np.pi - 0.05, 18),
        np.linspace(max(p.double_point_r - 0.3, 0.02),
                    p.double_point_r + 0.3, 12)]))
    phi = np.linspace(0, 2 * np.pi, 48, endpoint=False)
    T, R, P = np.meshgrid(theta, r, phi, indexing="ij")
    return fam.params.torus_chart(T.ravel(), R.ravel(), P.ravel())


def _family_pushoff_link(fam: FamilyMap, rot: float, config: Config) -> int:
    curve = _pushoff_curve(fam, rot, config)
    return numtopo.link_1cycle_3manifold(curve, fam, config,
                                         domain_seeds=_family_domain_seeds(fam))


def lk_of_family(m, config: Config = DEFAULT) -> int:
    """Linking invariant of the family member with parameter m.

    The double-point preimage branches are framed inside the domain by the
    disk-radial direction rotated -2m times per sweep turn, the unique
    rotation count (up to the handedness of the rotation plane, resolved
    by checking) for which the shifted preimage link is null homologous in
    the domain; both handedness candidates are tried and the admissibility
    condition is verified by ray linking before use.  The image double
    circle is then pushed off along the sum of the two framed sheet
    directions and its class in the homology of the image complement is
    the signed count of image crossings through the curtain that the
    pushoff sweeps along a projection direction near e5.  Closed form: -4m.
    """
    m = HalfInteger.parse(m)
    if m.twice == 0:
        return 0
    fam = FamilyMap(m, config=config)
    for rot in (-m.twice, m.twice):
        if _framing_null_homologous(fam, rot, config):
            return _family_pushoff_link(fam, rot, config)
    raise ArithmeticError("no admissible preimage framing found; the "
                          "null-homology self-check failed both handedness "
                          "candidates")

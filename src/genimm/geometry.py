"""Closed-form geometry of the twisted-kink immersion family.

The domain 3-sphere is swept by a one-parameter family of 2-disks B(theta):
B is a unit hemisphere flattened near its pole, embedded by

    E_theta(z1, z2, z3, z4) = (z1, z2, z3 cos theta, z3 sin theta, z4),

so the union over theta in [0, 2pi) is a smooth hypersurface M in R^4 x {0}
diffeomorphic to the round sphere.  The family member f_m restricts to
B(theta) as L_{m theta} o K o R_{-m theta}: a planar double-point kink K is
planted in the flat polar cap and spun m times while the cap sweeps once
around.  Everything needed downstream is available in closed form: the
kink, its differential, the self-intersection circle and its preimages, the
first column of the associated frame maps into S^3 and S^2, and the printed
frame of the swept standard embedding (whose third column fails
orthonormality; the defect is reported, not repaired).
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Sequence

import numpy as np

from .config import Config, DEFAULT


# ---------------------------------------------------------------------------
# exact half-integer bookkeeping


@dataclasses.dataclass(frozen=True, order=True)
class HalfInteger:
    """m = twice / 2 kept exact; the family is defined for half-integers."""

    twice: int

    def __post_init__(self):
        object.__setattr__(self, "twice", int(self.twice))

    @staticmethod
    def parse(text) -> "HalfInteger":
        if isinstance(text, HalfInteger):
            return text
        if isinstance(text, int):
            return HalfInteger(2 * text)
        frac = Fraction(str(text).strip())
        if frac.denominator not in (1, 2):
            raise ValueError(f"{text!r} is not a half-integer")
        return HalfInteger(int(frac * 2))

    @property
    def value(self) -> float:
        return self.twice / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __neg__(self) -> "HalfInteger":
        return HalfInteger(-self.twice)


# ---------------------------------------------------------------------------
# central differences


def fd_jacobian(fn, x, step):
    """Central-difference derivative of fn at the points x, shape (..., n).

    Column j is (fn(x + h e_j) - fn(x - h e_j)) / 2h with h = step; all 2n
    shifted copies of x go through fn in one batched call.  Returns shape
    (..., k, n) when fn maps (..., n) to (..., k), and (..., n) when fn is
    scalar valued, mapping (..., n) to (...).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    shift = step * np.eye(n).reshape((n,) + (1,) * (x.ndim - 1) + (n,))
    vals = fn(np.concatenate([x + shift, x - shift]))
    return np.moveaxis((vals[:n] - vals[n:]) / (2 * step), 0, -1)


# ---------------------------------------------------------------------------
# the planar Whitney kink and its smooth compactly supported version


def whitney_kink(x, y):
    """Immersion of the plane into 4-space with a single double point.

    g(1, 0) = g(-1, 0) = (0, 0, 1/2, 0); approaches the flat plane
    (x, y, 0, 0) at infinity.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = (1 + x**2) * (1 + y**2)
    return np.stack([x - 2 * x / u, y, 1 / u, x * y / u], axis=-1)


def whitney_kink_jacobian(x, y):
    """Exact differential, shape (..., 4, 2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = (1 + x**2) * (1 + y**2)
    dx = (1 + x**2) * u
    dy = (1 + y**2) * u
    rows = [
        [1 - 2 * (1 - x**2) / dx, 4 * x * y / dy],
        [np.zeros_like(u), np.ones_like(u)],
        [-2 * x / dx, -2 * y / dy],
        [y * (1 - x**2) / dx, x * (1 - y**2) / dy],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def smooth_step(t):
    """C-infinity step: identically 0 for t <= 0, identically 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    def bump(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out
    a = bump(t)
    b = bump(1.0 - t)
    return a / (a + b)


def blended_kink(x, y, config: Config = DEFAULT):
    """The kink interpolated to the flat plane across a fixed annulus.

    Equals the kink for radius <= r1 and the inclusion (x, y, 0, 0) for
    radius >= r2, with a C-infinity radial blend in between, preserving the
    symmetry L o g o R = g under the simultaneous half-turns.  With no point
    of radius > r1 the blend weight is exactly 0 and the kink alone is
    returned: equal values, though a zero may keep a sign that the general
    path's "+ 0 * flat" would turn.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho = np.hypot(x, y)
    if not (rho > config.kink_r1).any():
        return whitney_kink(x, y)
    s = smooth_step((rho - config.kink_r1) / (config.kink_r2 - config.kink_r1))
    g = whitney_kink(x, y)
    flat = np.stack([x, y, np.zeros_like(x), np.zeros_like(x)], axis=-1)
    return (1 - s)[..., None] * g + s[..., None] * flat


# ---------------------------------------------------------------------------
# parameters and coordinates


@dataclasses.dataclass(frozen=True)
class KinkParams:
    """Geometry of the planted kink.

    a: radius of the kink disk inside the flat polar cap (flat cap radius
    2a, round part resumes at 4a, so a < 1/4); epsilon/delta: tube radius
    and perturbation amplitude for the local double-cover model, with
    delta << epsilon.
    """

    a: float = DEFAULT.cap_a
    r1: float = DEFAULT.kink_r1
    r2: float = DEFAULT.kink_r2
    epsilon: float = 0.5
    delta: float = 0.05

    def __post_init__(self):
        if not (0 < self.a < 0.25):
            raise ValueError("a must lie in (0, 1/4)")
        if not (0 < self.r1 < self.r2):
            raise ValueError("need 0 < r1 < r2")
        if not (0 < self.delta < self.epsilon):
            raise ValueError("need 0 < delta < epsilon")

    @property
    def cap_height(self) -> float:
        """Height of the flat polar cap: sqrt(1 - 9 a^2)."""
        return float(np.sqrt(1 - 9 * self.a**2))

    @property
    def kink_scale(self) -> float:
        """Scale factor mapping kink coordinates onto the disk of radius a."""
        return self.a / self.r2

    @property
    def double_point_r(self) -> float:
        """Radial torus coordinate of the double-point preimages: pi / r2."""
        return np.pi / self.r2

    @staticmethod
    def from_config(config: Config) -> "KinkParams":
        return KinkParams(a=config.cap_a, r1=config.kink_r1, r2=config.kink_r2)

    def torus_chart(self, theta, r, phi) -> np.ndarray:
        """Domain point of M for torus coordinates, shape (..., 4), any m."""
        theta, r, phi = (np.asarray(v, dtype=float) for v in (theta, r, phi))
        rad = r * self.a / np.pi
        h = self.cap_height
        return np.stack([rad * np.cos(phi), rad * np.sin(phi),
                         h * np.cos(theta), h * np.sin(theta)], axis=-1)


@dataclasses.dataclass(frozen=True)
class TorusPoint:
    """Coordinates on the solid torus swept by the kink disks.

    theta in [0, 2pi): sweep angle; r in [0, pi]: scaled radius on the kink
    disk (r = pi is the boundary, where the family equals the swept
    embedding); phi in [0, 2pi): angular coordinate on the disk.
    """

    theta: float
    r: float
    phi: float

    def __post_init__(self):
        if not (-1e-12 <= self.r <= np.pi + 1e-12):
            raise ValueError("coordinates out of range: r must be in [0, pi]")
        object.__setattr__(self, "theta", float(self.theta) % (2 * np.pi))
        object.__setattr__(self, "r", float(min(max(self.r, 0.0), np.pi)))
        object.__setattr__(self, "phi", float(self.phi) % (2 * np.pi))


def profile_height(s, params: KinkParams):
    """Height zeta(s) of the domain hypersurface over planar radius s.

    Flat at sqrt(1 - 9 a^2) for s <= 2a, round sqrt(1 - s^2) for s >= 4a,
    C-infinity blend between.  When every s <= 2a the blend weight is
    exactly 0, so the round part is skipped and the flat height returned.
    """
    s = np.asarray(s, dtype=float)
    h = params.cap_height
    if (s <= 2 * params.a).all():
        return np.full_like(s, h)
    round_part = np.sqrt(np.clip(1 - np.minimum(s, 1.0)**2, 0.0, None))
    sigma = smooth_step((s - 2 * params.a) / (2 * params.a))
    return (1 - sigma) * h + sigma * round_part


def domain_constraint(x, params: KinkParams):
    """Smooth defining function G with M = {G = 0}, G < 0 inside.

    G(x) = |x|^2 - R(s)^2 where R(s)^2 = s^2 + zeta(s)^2 and s = |(x1, x2)|;
    reduces to |x|^2 - 1 on the round part, so it is smooth across the
    equator where torus-style coordinates degenerate.
    """
    x = np.asarray(x, dtype=float)
    s = np.hypot(x[..., 0], x[..., 1])
    zeta = profile_height(s, params)
    return (x**2).sum(axis=-1) - (s**2 + zeta**2)


# ---------------------------------------------------------------------------
# the family


def _rot2(c, s, u, v):
    return c * u - s * v, s * u + c * v


class FamilyMap:
    """One member of the immersion family, evaluated in closed form."""

    def __init__(self, m, params: KinkParams | None = None,
                 config: Config = DEFAULT):
        self.m = HalfInteger.parse(m)
        self.config = config
        self.params = params or KinkParams.from_config(config)

    # -- evaluation ---------------------------------------------------------

    def ambient_eval(self, x) -> np.ndarray:
        """Evaluate at ambient domain coordinates (points of M in R^4).

        Accepts shape (..., 4); returns shape (..., 5).  Points with
        |(x1, x2)| >= a are fixed (the family equals the swept embedding
        there); inside, the spun kink formula applies.  The formula extends
        smoothly off M, which the constrained solvers rely on.  Batches
        wholly inside or outside skip a mixed batch's gather and scatter
        and get the same values.
        """
        x = np.asarray(x, dtype=float)
        inside = np.hypot(x[..., 0], x[..., 1]) < self.params.a
        if inside.all():
            return self._spun_kink(x)
        out = np.zeros(x.shape[:-1] + (5,))
        out[..., :4] = x
        if inside.any():
            out[inside] = self._spun_kink(x[inside])
        return out

    def _spun_kink(self, x) -> np.ndarray:
        """The spun kink formula at the points x, shape (..., 4)."""
        out = np.empty(x.shape[:-1] + (5,))
        c = self.params.kink_scale
        theta = np.arctan2(x[..., 3], x[..., 2])
        cm, sm = np.cos(self.m.value * theta), np.sin(self.m.value * theta)
        # R_{-m theta} on the disk
        xi_r, eta_r = _rot2(cm, -sm, x[..., 0], x[..., 1])
        g = blended_kink(xi_r / c, eta_r / c, self.config)
        # E_theta then L_{m theta}
        out[..., 0], out[..., 1] = _rot2(cm, sm, c * g[..., 0], c * g[..., 1])
        z3 = np.hypot(x[..., 2], x[..., 3]) - c * g[..., 2]
        out[..., 2] = z3 * np.cos(theta)
        out[..., 3] = z3 * np.sin(theta)
        out[..., 4] = c * g[..., 3]
        return out

    def torus_eval(self, theta, r, phi) -> np.ndarray:
        return self.ambient_eval(self.params.torus_chart(theta, r, phi))

    def exterior_point(self, theta, s, chi) -> np.ndarray:
        """Domain point outside the solid torus: planar radius s >= a."""
        theta = np.asarray(theta, dtype=float)
        s = np.asarray(s, dtype=float)
        chi = np.asarray(chi, dtype=float)
        zeta = profile_height(s, self.params)
        return np.stack([s * np.cos(chi), s * np.sin(chi),
                         zeta * np.cos(theta), zeta * np.sin(theta)], axis=-1)

    def eval(self, p) -> np.ndarray:
        """Evaluate at a TorusPoint or at an ambient 5-vector on the domain."""
        if isinstance(p, TorusPoint):
            return self.torus_eval(p.theta, p.r, p.phi)
        p = np.asarray(p, dtype=float)
        if p.shape != (5,):
            raise ValueError("coordinates out of range: expected a "
                             "TorusPoint or a 5-vector on the domain")
        if abs(p[4]) > 1e-8:
            raise ValueError("coordinates out of range: domain lies in the "
                             "hyperplane x5 = 0")
        x = p[:4]
        if abs(domain_constraint(x, self.params)) > 1e-8:
            raise ValueError("coordinates out of range: point is not on the "
                             "domain hypersurface")
        return self.ambient_eval(x)

    def ambient_jacobian(self, x) -> np.ndarray:
        """df in ambient coordinates, shape (..., 5, 4), central differences."""
        return fd_jacobian(self.ambient_eval, x, self.config.fd_step)

    # -- the self-intersection in closed form -------------------------------

    @property
    def double_point_radius(self) -> float:
        """Radius of the image self-intersection circle in the 34-plane."""
        return self.params.cap_height - self.params.kink_scale * 0.5

    def self_intersection_image(self, n: int | None = None) -> np.ndarray:
        """The image double-point circle, shape (n, 5)."""
        n = n if n is not None else self.config.curve_points
        theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
        rho = self.double_point_radius
        zeros = np.zeros_like(theta)
        return np.stack([zeros, zeros, rho * np.cos(theta),
                         rho * np.sin(theta), zeros], axis=-1)

    def preimage_branch(self, theta, offset: float) -> np.ndarray:
        """Double-point preimage points at sweep angle theta, in domain R^4.

        The two kink preimages sit at disk radius a/r2 and disk angle
        m theta + offset, offset in {0, pi}.
        """
        theta = np.asarray(theta, dtype=float)
        c = self.params.kink_scale
        h = self.params.cap_height
        phi = self.m.value * theta + offset
        return np.stack([c * np.cos(phi), c * np.sin(phi),
                         h * np.cos(theta), h * np.sin(theta)], axis=-1)

    def preimage_components(self, n: int | None = None) -> list[np.ndarray]:
        """Closed preimage curves in domain R^4.

        One curve (the two branches join after a full sweep) when 2m is odd,
        two disjoint circles when m is an integer.
        """
        n = n if n is not None else self.config.curve_points
        if self.m.twice % 2 == 1:
            theta = np.linspace(0, 4 * np.pi, 2 * n, endpoint=False)
            return [self.preimage_branch(theta, 0.0)]
        theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
        return [self.preimage_branch(theta, 0.0),
                self.preimage_branch(theta, np.pi)]

    def double_point_pair(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        return (self.preimage_branch(theta, 0.0),
                self.preimage_branch(theta, np.pi))


# ---------------------------------------------------------------------------
# closed-form frame columns of the associated sphere maps


def column_m1(m, theta, r, phi) -> np.ndarray:
    """First frame column as a map of the solid torus into S^3.

    Unit 4-vector for coordinates inside the solid torus; the map is
    (1, 0, 0, 0) outside, matching the value at r = pi.
    """
    mval = HalfInteger.parse(m).value
    theta = np.asarray(theta, dtype=float)
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    A = (mval - 1) * theta
    cr, sr = np.cos(r), np.sin(r)
    cA, sA = np.cos(A), np.sin(A)
    return np.stack([
        -cA**2 * cr + sA**2,
        0.5 * (cr + 1) * np.sin(2 * A),
        cA * sr * np.sin(phi - mval * theta),
        -cA * sr * np.cos(phi - mval * theta),
    ], axis=-1)


def column_m1_jacobian(m, theta, r, phi) -> np.ndarray:
    """Exact derivative of column_m1 in (theta, r, phi), shape (..., 4, 3)."""
    mval = HalfInteger.parse(m).value
    theta = np.asarray(theta, dtype=float)
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    k = mval - 1
    A = k * theta
    B = phi - mval * theta
    cr, sr = np.cos(r), np.sin(r)
    cA, sA = np.cos(A), np.sin(A)
    s2A, c2A = np.sin(2 * A), np.cos(2 * A)
    cB, sB = np.cos(B), np.sin(B)
    z = np.zeros_like(theta + r + phi)
    J = np.empty(z.shape + (4, 3))
    J[..., 0, 0] = k * s2A * (cr + 1)
    J[..., 0, 1] = cA**2 * sr
    J[..., 0, 2] = z
    J[..., 1, 0] = k * (cr + 1) * c2A
    J[..., 1, 1] = -0.5 * sr * s2A
    J[..., 1, 2] = z
    J[..., 2, 0] = -k * sA * sr * sB - mval * cA * sr * cB
    J[..., 2, 1] = cA * cr * sB
    J[..., 2, 2] = cA * sr * cB
    J[..., 3, 0] = k * sA * sr * cB - mval * cA * sr * sB
    J[..., 3, 1] = -cA * cr * cB
    J[..., 3, 2] = cA * sr * sB
    return J


def column_n1(theta, r, phi) -> np.ndarray:
    """First column of the stabilized frame as a map into S^2.

    Independent of m; equal to (1, 0, 0) outside the solid torus.
    """
    theta = np.asarray(theta, dtype=float)
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    sr = np.sin(r)
    return np.stack([-np.cos(r), sr * np.cos(phi - theta),
                     sr * np.sin(phi - theta)], axis=-1)


def column_n1_jacobian(theta, r, phi) -> np.ndarray:
    """Exact derivative of column_n1 in (theta, r, phi), shape (..., 3, 3)."""
    theta = np.asarray(theta, dtype=float)
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    B = phi - theta
    cr, sr = np.cos(r), np.sin(r)
    cB, sB = np.cos(B), np.sin(B)
    z = np.zeros_like(theta + r + phi)
    J = np.empty(z.shape + (3, 3))
    J[..., 0, 0] = z
    J[..., 0, 1] = sr
    J[..., 0, 2] = z
    J[..., 1, 0] = sr * sB
    J[..., 1, 1] = cr * cB
    J[..., 1, 2] = -sr * sB
    J[..., 2, 0] = -sr * cB
    J[..., 2, 1] = cr * sB
    J[..., 2, 2] = sr * cB
    return J


def frame_columns(theta: float) -> np.ndarray:
    """The printed frame of the swept standard embedding along the core.

    Returns the 5x5 matrix with the five printed columns at sweep angle
    theta.  Column 3 as printed is not orthogonal to columns 1, 2 and 5 for
    generic theta; see frame_defect.  The closed-form maps column_m1 and
    column_n1 are the authoritative continuations.
    """
    c, s = np.cos(theta), np.sin(theta)
    cols = np.array([
        [0, 0, s, -c, 0],     # S1
        [-c, -s, 0, 0, 0],    # S2
        [-s, 0, c, 0, 0],     # S3 as printed
        [0, 0, 0, 0, 1],      # S4
        [0, 0, c, s, 0],      # S5
    ], dtype=float).T
    return cols


def frame_defect(theta: float) -> dict:
    """Gram-matrix defect of the printed frame.

    The subframe (S1, S2, S4, S5) is orthonormal for every theta; the
    printed third column spoils orthonormality except where cos(theta) = 0.
    """
    S = frame_columns(theta)
    gram = S.T @ S
    defect = gram - np.eye(5)
    entries = {}
    for i in range(5):
        for j in range(i, 5):
            if abs(defect[i, j]) > 1e-12:
                entries[(i + 1, j + 1)] = float(defect[i, j])
    sub = S[:, [0, 1, 3, 4]]
    sub_ok = bool(np.allclose(sub.T @ sub, np.eye(4), atol=1e-12))
    return {"entries": entries, "subframe_orthonormal": sub_ok,
            "orthonormal": not entries}


# ---------------------------------------------------------------------------
# quaternions


def quat_mul(p, q) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a1, b1, c1, d1 = (p[..., i] for i in range(4))
    a2, b2, c2, d2 = (q[..., i] for i in range(4))
    return np.stack([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ], axis=-1)


QUAT_I = np.array([0.0, 1.0, 0.0, 0.0])
QUAT_J = np.array([0.0, 0.0, 1.0, 0.0])
QUAT_K = np.array([0.0, 0.0, 0.0, 1.0])


def quaternion_frame(x) -> np.ndarray:
    """Orthonormal tangent frame (x i, x j, x k) of S^3 at unit x."""
    x = np.asarray(x, dtype=float)
    return np.stack([quat_mul(x, QUAT_I), quat_mul(x, QUAT_J),
                     quat_mul(x, QUAT_K)], axis=-1)


def quat_conj(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., 1:] *= -1
    return out


def classical_hopf(x) -> np.ndarray:
    """The fibration q -> q i conj(q), landing in the unit 2-sphere.

    This is the rotation action of a unit quaternion on the imaginary unit
    i, the map the frame columns are assembled from.  Fibers are the right
    circle orbits q -> q e^{i theta}; the fiber over (1, 0, 0) is the unit
    complex circle through 1 and i.  Under the sign normalization used by
    hopf_invariant this map has Hopf invariant +1.
    """
    x = np.asarray(x, dtype=float)
    prod = quat_mul(quat_mul(x, QUAT_I), quat_conj(x))
    return prod[..., 1:]

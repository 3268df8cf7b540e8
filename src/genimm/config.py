"""Shared configuration: tolerances, grid sizes, geometry parameters, conventions.

Every field here is read by some engine, and a config file naming a key
that is not a field is rejected.  Some engines still hard-code
constants: the 0.35/0.2 grid thresholds of the box finder
(``numtopo._box_seeds``, ``numtopo.degree_S3``),
the 1e-6 dedupe radius of converged solutions, the 60 bisection steps
of ``geometry.radial_point`` in the blend annulus, the 13-neighbour
query of the double-curve seed grid, the 0.08 projected distance within
which a kink-disk grid point seeds a curtain crossing, the 1e-5 vertex
margin and the 0.06 tilt from e5 of the curtain directions of
``numtopo.link_1cycle_3manifold``, the 1e-6 vertex and
parallel margin of the projected crossings of ``numtopo.crossing_link``,
the 8e-3 framing shift, the 6 step halvings of the batched Newton
``numtopo._newton``, the 1% by which the curve tracer's coarse step
falls short of ``trace_coarse_factor`` steps, the dim 6 up to which
``qform.brown`` certifies its splitting by the Gauss sum and the 1e-12
bound on |det[rows; complement]| below which
``numtopo.oriented_complement`` calls its rows rank deficient.  A config
can be loaded from a flat ``key = value`` file; the ``GENIMM_CONFIG``
environment variable overrides the default config path only, never
individual values.
"""

from __future__ import annotations

import dataclasses
import math
import os

ENV_CONFIG_PATH = "GENIMM_CONFIG"


@dataclasses.dataclass(frozen=True)
class Config:
    # exact-arithmetic enumeration cap
    max_qform_dim: int = 24          # q_table enumerates 2**dim vectors

    # generic numerical engines
    degree_grid: int = 64            # box grid points per axis: seeds the
                                     # degree preimages and the Hopf fibers
    newton_tol: float = 1e-10        # residual target for Newton/Gauss-Newton
    newton_max_iter: int = 60
    jacobian_min_det: float = 1e-6   # regular-value check threshold
    fd_step: float = 1e-6            # central-difference step for a
                                     # box map given without its Jacobian

    # curve tracing: a coarse walk, then chords bisected down to the step
    # (trace_step for Hopf fibers, double_trace_step for double curves)
    trace_step: float = 1e-2         # longest chord of a traced fiber
    trace_coarse_factor: int = 8     # coarse walk at about this many steps
    trace_corrector_tol: float = 1e-8
    trace_closure_tol: float = 1e-4  # closing gap, times the coarse factor
    trace_max_steps: int = 20000     # steps of one walk: a coarse walk or
                                     # the re-trace of a rejected chord

    # curve-curve linking
    min_image_separation: float = 1e-4   # pushed cycle vs immersed image
    integer_rounding_margin: float = 0.25

    # 1-cycle vs 3-manifold linking in 5-space
    apex_retries: int = 5            # projection directions, spherical-cone apexes

    # self-intersection solver
    pair_seed_radius: float = 0.08   # largest image gap of a seed pair
    double_seed_rings: int = 12      # kink-disk grid: rings, 4x as many
                                     # sweep angles; seeds the double-curve
                                     # pairs and the curtain crossings
    min_preimage_separation: float = 5e-2
    double_trace_step: float = 5e-3

    # family geometry (kink cap radius and transition annulus, kink coords)
    cap_a: float = 0.2               # must satisfy 0 < a < 1/4
    kink_r1: float = 3.0
    kink_r2: float = 5.0

    # discretisation of closed-form curves
    curve_points: int = 1024
    push_distance: float = 4e-3

    # conventions (the invariants are pinned only up to these global choices)
    psi_sign: int = 1                # +1: right-framed kink circle for m = 1/2
    beta_generator: int = 3          # value of the surface invariant on the generator, odd
    beta_tau_sign: int = 1           # +1: surface invariant mod 4 equals +tau
    sigma_sign: int = 1              # sign of sigma = omega / 24 for embeddings

    seed: int = 7

    def __post_init__(self):
        # an infinite step, tolerance or radius passes every bound below
        # and sends an engine into an endless walk or a wrong integer
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not (0.0 < self.cap_a < 0.25):
            raise ValueError("cap_a must lie in (0, 1/4)")
        if not (0.0 < self.kink_r1 < self.kink_r2):
            raise ValueError("kink transition annulus must satisfy 0 < r1 < r2")
        if self.beta_generator % 2 == 0:
            raise ValueError("beta_generator must be odd")
        if self.psi_sign not in (-1, 1) or self.beta_tau_sign not in (-1, 1):
            raise ValueError("sign conventions must be +-1")
        if self.sigma_sign not in (-1, 1):
            raise ValueError("sigma_sign must be +-1")
        # numpy's generators take no negative seed
        if (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                or self.seed < 0):
            raise ValueError("seed must be a non-negative integer")
        # at a margin of 1/2 every sum is within it of an integer, so the
        # "not near an integer" check of numtopo.gauss_link could not fire
        if not (0.0 < self.integer_rounding_margin < 0.5):
            raise ValueError("integer_rounding_margin must lie in (0, 1/2)")
        for key, least in (("max_qform_dim", 0),
                           ("trace_coarse_factor", 1),
                           ("double_seed_rings", 1), ("degree_grid", 1),
                           ("curve_points", 3), ("apex_retries", 1),
                           ("newton_max_iter", 1), ("trace_max_steps", 1)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be at least {least}")
        for key in ("fd_step", "trace_step", "pair_seed_radius",
                    "min_preimage_separation", "double_trace_step",
                    "newton_tol", "trace_corrector_tol", "trace_closure_tol",
                    "min_image_separation", "jacobian_min_det",
                    "push_distance"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive")

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)


DEFAULT = Config()

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(Config)}


def _coerce(name: str, raw: str):
    typ = _FIELD_TYPES[name]
    raw = raw.strip()
    if typ in ("int", int):
        return int(raw)
    if typ in ("float", float):
        return float(raw)
    return raw


def loads(text: str) -> Config:
    """Parse a flat ``key = value`` config (``#`` comments, blank lines ok)."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    return Config(**values)


def load(path: str | None = None) -> Config:
    """Load a config file; falls back to GENIMM_CONFIG, then to defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH)
    if path is None:
        return DEFAULT
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())

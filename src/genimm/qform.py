"""Z4-valued quadratic refinements of Z2-intersection forms, exactly.

A quadratic space is a finite dimensional Z2 vector space V with a
nonsingular symmetric pairing ``.`` and a function q: V -> Z4 obeying

    q(x + y) = q(x) + q(y) + 2 (x . y)   (mod 4).

The law forces q(x) = x . x (mod 2).  Every such space splits orthogonally
into copies of P+, P- (dim 1, q = 1, 3), T0 and T4 (hyperbolic planes with
q = 0, 0 and 2, 2), and the Brown invariant in Z8 is the sum of their values
1, 7, 0 and 4 (Brown, *Generalizations of the Kervaire invariant*, Ann.
Math. 95, 1972; Kirby-Taylor, *Pin structures on low-dimensional
manifolds*, 1990).  :func:`brown` finds such a splitting by elimination over
Z2 in O(dim**3) bit operations.  V is split, i.e. has a half-dimensional
subspace on which q vanishes, exactly when its Brown invariant is 0.

The Gauss sum

    sum_{x in V} i**q(x) = sqrt(2)**dim * zeta**brown,   zeta = exp(i pi / 4),

lies in the Gaussian integers Z[i], since each term i**q(x) does, and is
computed as the pair (re, im) by enumerating all 2**dim vectors; it is kept
as an independent certificate of the splitting on small spaces, and the
enumeration serves ``qform table``.  Everything here is exact integer
arithmetic; no floats.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Iterable, Sequence

import numpy as np

from .config import Config, DEFAULT


class DimensionCapError(ValueError):
    """A space is too large for an enumeration cap of the config."""


# ---------------------------------------------------------------------------
# JSON records, shared by the from_json readers of the package


def json_record(data, required: dict, optional: dict = {}) -> dict:
    """data, checked to be a JSON object with every required key, no other
    key, and each value of the type (or tuple of types) that required or
    optional maps its key to, where a bool is no int; else ValueError."""
    if not isinstance(data, dict):
        raise ValueError(
            f"expected a JSON object, got {type(data).__name__}")
    for key in required:
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    for key, value in data.items():
        kind = required.get(key, optional.get(key))
        if kind is None:
            raise ValueError(f"unknown key {key!r}")
        if type(value) not in (kind if isinstance(kind, tuple) else (kind,)):
            raise ValueError(f"key {key!r} has the wrong JSON type: "
                             f"{json.dumps(value)}")
    return data


def json_records(data, required: dict, optional: dict = {}) -> list:
    """data, checked to be a JSON list of json_record objects."""
    if not isinstance(data, list):
        raise ValueError(
            f"expected a JSON list, got {type(data).__name__}")
    return [json_record(item, required, optional) for item in data]


def loads_record(text: str, required: dict, optional: dict = {}) -> dict:
    """JSON text parsed into a json_record, which may also carry an integer
    "schema" key; the only schema read is 1."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    json_record(data, required, {**optional, "schema": int})
    if data.get("schema", 1) != 1:
        raise ValueError(f"unsupported schema {data['schema']!r}")
    return data


# ---------------------------------------------------------------------------
# quadratic spaces


def _as_matrix(pairing) -> np.ndarray:
    mat = np.asarray(pairing, dtype=np.int64) % 2
    if mat.size == 0:
        mat = mat.reshape(0, 0)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("pairing must be a square matrix")
    if not np.array_equal(mat, mat.T):
        raise ValueError("pairing must be symmetric")
    return mat


def _det_mod2(mat: np.ndarray) -> int:
    """Determinant of a 0/1 matrix over Z2 by Gaussian elimination."""
    m = mat.copy() % 2
    n = m.shape[0]
    for col in range(n):
        pivot_rows = np.nonzero(m[col:, col])[0]
        if pivot_rows.size == 0:
            return 0
        pivot = col + pivot_rows[0]
        if pivot != col:
            m[[col, pivot]] = m[[pivot, col]]
        below = np.nonzero(m[col + 1:, col])[0] + col + 1
        m[below] = (m[below] + m[col]) % 2
    return 1


@dataclasses.dataclass(frozen=True)
class QuadraticSpace:
    """Nonsingular Z2-pairing with a Z4-quadratic refinement on basis vectors.

    ``pairing`` is a symmetric 0/1 matrix with unit determinant over Z2 and
    ``basis_q`` assigns q to each basis vector.  The quadratic law then
    determines q on all of V; see :func:`extend_q`.
    """

    pairing: tuple[tuple[int, ...], ...]
    basis_q: tuple[int, ...]

    def __init__(self, pairing, basis_q):
        mat = _as_matrix(pairing)
        q = tuple(int(v) % 4 for v in basis_q)
        if len(q) != mat.shape[0]:
            raise ValueError("basis_q length must match pairing dimension")
        if _det_mod2(mat) != 1:
            raise ValueError("pairing is singular over Z2")
        for i, qi in enumerate(q):
            # q(e) = e.e mod 2 is forced by q(0) = q(e+e)
            if qi % 2 != mat[i, i] % 2:
                raise ValueError(
                    f"basis_q[{i}] = {qi} violates q(x) = x.x mod 2")
        object.__setattr__(self, "pairing",
                           tuple(tuple(int(v) for v in row) for row in mat))
        object.__setattr__(self, "basis_q", q)

    @property
    def dim(self) -> int:
        return len(self.basis_q)

    def matrix(self) -> np.ndarray:
        return np.asarray(self.pairing, dtype=np.int64)

    # -- JSON round trip ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"schema": 1, "dim": self.dim,
                           "pairing": [list(r) for r in self.pairing],
                           "q": list(self.basis_q)})

    @staticmethod
    def from_json(text: str) -> "QuadraticSpace":
        data = loads_record(text, {"dim": int, "pairing": list, "q": list})
        rows = data["pairing"]
        if any(type(row) is not list for row in rows) or any(
                type(v) is not int for v in [*data["q"], *sum(rows, [])]):
            raise ValueError("pairing and q entries must be JSON integers")
        space = QuadraticSpace(data["pairing"], data["q"])
        if space.dim != data["dim"]:
            raise ValueError("dim field does not match pairing size")
        return space


def extend_q(space: QuadraticSpace, vector: Sequence[int]) -> int:
    """q on an arbitrary vector, built up one support element at a time.

    Well defined independently of the accumulation order because the pairing
    is symmetric; tests check both this and agreement with the closed form
    q(x) = sum x_i q(e_i) + 2 sum_{i<j} x_i x_j (e_i . e_j).
    """
    vec = [int(v) % 2 for v in vector]
    if len(vec) != space.dim:
        raise ValueError("vector length must match dimension")
    mat = space.matrix()
    total = 0
    partial = np.zeros(space.dim, dtype=np.int64)
    for i, bit in enumerate(vec):
        if not bit:
            continue
        cross = int(partial @ mat[i]) % 2
        total = (total + space.basis_q[i] + 2 * cross) % 4
        partial[i] = 1
    return total


def q_table(space: QuadraticSpace, config: Config = DEFAULT) -> np.ndarray:
    """q on all 2**dim vectors (row index = bit pattern, LSB = e_0)."""
    n = space.dim
    if n > config.max_qform_dim:
        raise DimensionCapError(f"dimension {n} exceeds enumeration cap "
                         f"{config.max_qform_dim}")
    mat = space.matrix()
    upper = np.triu(mat, k=1)
    qvals = np.asarray(space.basis_q, dtype=np.int64)
    out = np.empty(1 << n, dtype=np.int64)
    chunk = 1 << 20
    for start in range(0, 1 << n, chunk):
        idx = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint64)
        bits = ((idx[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(np.int64)
        linear = bits @ qvals
        cross = np.einsum("vi,ij,vj->v", bits, upper, bits)
        out[start:start + len(idx)] = (linear + 2 * cross) % 4
    return out


def gauss_sum(space: QuadraticSpace,
              config: Config = DEFAULT) -> tuple[int, int]:
    """sum over V of i**q(x), exactly, as the Gaussian integer (re, im)."""
    n0, n1, n2, n3 = (int(c) for c in
                      np.bincount(q_table(space, config), minlength=4))
    return n0 - n2, n1 - n3


# Spaces up to this dim (at most 64 vectors) have their Brown invariant
# certified by the Gauss sum as well.
_CERTIFY_MAX_DIM = 6

# zeta**m * sqrt(2)**(m % 2) as (re, im), m = 0..7
_ZETA_UNITS = ((1, 0), (1, 1), (0, 1), (-1, 1),
               (-1, 0), (-1, -1), (0, -1), (1, -1))


def _brown_by_splitting(space: QuadraticSpace) -> int:
    """Brown invariant by orthogonal splitting into P+, P-, T0 and T4.

    Each basis vector is held as bitmasks (w, M w) with its value q(w), so
    x . y is the parity of x & M y.  Splitting off a block replaces every
    other w by its projection to the block's orthogonal complement, and the
    quadratic law gives q of the projection; no vector is enumerated.
    """
    rows = [sum(bit << j for j, bit in enumerate(row)) for row in space.pairing]
    basis = [(1 << i, rows[i], q) for i, q in enumerate(space.basis_q)]
    total = 0
    while basis:
        odd = next((v for v in basis if (v[0] & v[1]).bit_count() & 1), None)
        if odd is not None:
            # P+ or P-; w -> w + (w.e) e, q -> q + q(e) + 2
            e, me, qe = odd
            total += 1 if qe == 1 else 7
            basis = [(w ^ e, mw ^ me, (qw + qe + 2) % 4)
                     if (w & me).bit_count() & 1 else (w, mw, qw)
                     for w, mw, qw in basis if w != e]
            continue
        (e, me, qe), rest = basis[0], basis[1:]
        pos = next((k for k, v in enumerate(rest)
                    if (v[0] & me).bit_count() & 1), None)
        if pos is None:
            raise ValueError("no hyperbolic partner: the pairing is singular")
        f, mf, qf = rest.pop(pos)
        if qe == 2 and qf == 2:
            total += 4
        # T0 or T4; w -> w + a e + b f with a = w.f, b = w.e
        basis = []
        for w, mw, qw in rest:
            a = (w & mf).bit_count() & 1
            b = (w & me).bit_count() & 1
            if a:
                w, mw = w ^ e, mw ^ me
            if b:
                w, mw = w ^ f, mw ^ mf
            basis.append((w, mw, (qw + a * qe + b * qf + 2 * a * b) % 4))
    return total % 8


def brown(space: QuadraticSpace, config: Config = DEFAULT) -> int:
    """Brown invariant in Z8, by orthogonal splitting in O(dim**3).

    Spaces of dim at most 6 are certified independently, whatever
    ``max_qform_dim`` is: their Gauss sum must equal sqrt(2)**dim * zeta**m
    for the value m found by splitting, or ``ValueError`` names both.
    Larger spaces are never enumerated, so no dimension cap applies and
    ``config`` bounds nothing here.
    """
    m = _brown_by_splitting(space)
    if space.dim <= _CERTIFY_MAX_DIM:
        # at most 64 vectors, within the default enumeration cap
        g = gauss_sum(space)
        shift = space.dim // 2
        re, im = _ZETA_UNITS[m]
        if g != (re << shift, im << shift):
            raise ValueError(
                f"Brown invariant {m} by splitting disagrees with the Gauss "
                f"sum {g[0]} + {g[1]}i of the dim-{space.dim} space")
    return m


def direct_sum(a: QuadraticSpace, b: QuadraticSpace) -> QuadraticSpace:
    na, nb = a.dim, b.dim
    mat = np.zeros((na + nb, na + nb), dtype=np.int64)
    mat[:na, :na] = a.matrix()
    mat[na:, na:] = b.matrix()
    return QuadraticSpace(mat, a.basis_q + b.basis_q)


def direct_sum_many(spaces: Iterable[QuadraticSpace]) -> QuadraticSpace:
    spaces = list(spaces)
    if not spaces:
        raise ValueError("need at least one summand")
    out = spaces[0]
    for s in spaces[1:]:
        out = direct_sum(out, s)
    return out


def is_split(space: QuadraticSpace, config: Config = DEFAULT) -> bool:
    """True if V has a half-dimensional subspace on which q vanishes.

    That holds exactly when the Brown invariant is 0 (Kirby-Taylor 1990).
    A space is determined up to isomorphism by its dim, the parity of its
    pairing and its Brown invariant, so Brown 0 makes it a sum of T0 and
    P+ + P- blocks, each with a q-null half; conversely a q-null half L
    gives the Gauss sum 2**(dim/2), i.e. Brown 0.  Odd dims have odd Brown
    invariant.
    """
    return brown(space, config) == 0


# ---------------------------------------------------------------------------
# standard spaces and the Witt group


def p_plus() -> QuadraticSpace:
    return QuadraticSpace([[1]], [1])


def p_minus() -> QuadraticSpace:
    return QuadraticSpace([[1]], [3])


def t_zero() -> QuadraticSpace:
    return QuadraticSpace([[0, 1], [1, 0]], [0, 0])


def t_four() -> QuadraticSpace:
    return QuadraticSpace([[0, 1], [1, 0]], [2, 2])


@dataclasses.dataclass(frozen=True)
class WittClass:
    """Stable equivalence class of quadratic spaces: the group is Z8."""

    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", int(self.value) % 8)

    @staticmethod
    def of(space: QuadraticSpace, config: Config = DEFAULT) -> "WittClass":
        return WittClass(brown(space, config))

    def __add__(self, other: "WittClass") -> "WittClass":
        return WittClass(self.value + other.value)

    def __neg__(self) -> "WittClass":
        return WittClass(-self.value)

    def __sub__(self, other: "WittClass") -> "WittClass":
        return WittClass(self.value - other.value)

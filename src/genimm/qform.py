"""Z4-valued quadratic refinements of Z2-intersection forms, exactly.

A quadratic space is a finite dimensional Z2 vector space V with a
nonsingular symmetric pairing ``.`` and a function q: V -> Z4 obeying

    q(x + y) = q(x) + q(y) + 2 (x . y)   (mod 4).

The law forces q(x) = x . x (mod 2).  The Gauss sum

    sum_{x in V} i**q(x)

always has absolute value sqrt(2)**dim and its argument, an eighth root of
unity, classifies (V, q) up to stable equivalence: the Z8-valued exponent is
the Brown invariant.  Everything here is computed in exact integer
arithmetic in Z[zeta], zeta = exp(i pi / 4); no floats.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from typing import Iterable, Sequence

import numpy as np

from .config import Config, DEFAULT


class DimensionCapError(ValueError):
    """A space is too large for an enumeration cap of the config."""


# ---------------------------------------------------------------------------
# exact arithmetic in Z[zeta], zeta**4 = -1


@dataclasses.dataclass(frozen=True)
class CyclotomicEight:
    """Element a0 + a1 zeta + a2 zeta**2 + a3 zeta**3 with integer ai."""

    coeffs: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.coeffs) != 4:
            raise ValueError("need exactly 4 coefficients")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @staticmethod
    def zero() -> "CyclotomicEight":
        return CyclotomicEight((0, 0, 0, 0))

    @staticmethod
    def one() -> "CyclotomicEight":
        return CyclotomicEight((1, 0, 0, 0))

    @staticmethod
    def from_int(n: int) -> "CyclotomicEight":
        return CyclotomicEight((n, 0, 0, 0))

    @staticmethod
    def zeta_power(k: int) -> "CyclotomicEight":
        """zeta**k, reduced by zeta**4 = -1."""
        k = k % 8
        sign = 1 if k < 4 else -1
        c = [0, 0, 0, 0]
        c[k % 4] = sign
        return CyclotomicEight(tuple(c))

    def __add__(self, other: "CyclotomicEight") -> "CyclotomicEight":
        a, b = self.coeffs, other.coeffs
        return CyclotomicEight(tuple(a[i] + b[i] for i in range(4)))

    def __sub__(self, other: "CyclotomicEight") -> "CyclotomicEight":
        a, b = self.coeffs, other.coeffs
        return CyclotomicEight(tuple(a[i] - b[i] for i in range(4)))

    def __neg__(self) -> "CyclotomicEight":
        return CyclotomicEight(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "CyclotomicEight") -> "CyclotomicEight":
        a, b = self.coeffs, other.coeffs
        out = [0, 0, 0, 0]
        for i in range(4):
            if a[i] == 0:
                continue
            for j in range(4):
                if b[j] == 0:
                    continue
                k = i + j
                if k < 4:
                    out[k] += a[i] * b[j]
                else:
                    out[k - 4] -= a[i] * b[j]
        return CyclotomicEight(tuple(out))

    def __pow__(self, n: int) -> "CyclotomicEight":
        if n < 0:
            raise ValueError("negative powers not supported")
        result = CyclotomicEight.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "CyclotomicEight":
        """Complex conjugate: zeta -> zeta**-1 = -zeta**3."""
        a0, a1, a2, a3 = self.coeffs
        return CyclotomicEight((a0, -a3, -a2, -a1))

    def norm_squared(self) -> "CyclotomicEight":
        return self * self.conjugate()

    def is_rational(self) -> bool:
        return self.coeffs[1] == self.coeffs[2] == self.coeffs[3] == 0

    def complex(self) -> complex:
        z = np.exp(1j * np.pi / 4)
        return sum(c * z**i for i, c in enumerate(self.coeffs))


SQRT2 = CyclotomicEight((0, 1, 0, -1))  # zeta - zeta**3 = sqrt(2)
I_UNIT = CyclotomicEight.zeta_power(2)


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
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON: {exc}") from exc
        for key in ("dim", "pairing", "q"):
            if key not in data:
                raise ValueError(f"missing key {key!r}")
        if "schema" in data and data["schema"] != 1:
            raise ValueError(f"unsupported schema {data['schema']!r}")
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


def gauss_sum(space: QuadraticSpace, config: Config = DEFAULT) -> CyclotomicEight:
    """sum over V of i**q(x), exactly, as an element of Z[zeta]."""
    counts = np.bincount(q_table(space, config), minlength=4)
    # i**q = zeta**(2q); zeta**0, zeta**2, zeta**4, zeta**6 = 1, i, -1, -i
    n0, n1, n2, n3 = (int(c) for c in counts)
    return CyclotomicEight((n0 - n2, 0, n1 - n3, 0))


def brown(space: QuadraticSpace, config: Config = DEFAULT) -> int:
    """Brown invariant in Z8: the exact argument of the Gauss sum.

    The Gauss sum must factor as sqrt(2)**dim * zeta**m for a unique m in
    Z8; the factorization is verified exactly rather than read off from a
    floating-point argument.
    """
    g = gauss_sum(space, config)
    scale = SQRT2 ** space.dim
    for m in range(8):
        if scale * CyclotomicEight.zeta_power(m) == g:
            return m
    raise ValueError("Gauss sum does not factor as sqrt(2)**dim * zeta**m; "
                     "the pairing is singular or q is inconsistent")


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

    On a subspace where q = 0 the law forces the pairing to vanish as well,
    so a depth-first search over q-null vectors orthogonal to the partial
    basis is exhaustive.  Exponential; capped by max_split_search_dim.
    """
    n = space.dim
    if n % 2 != 0:
        return False
    if n > config.max_split_search_dim:
        raise DimensionCapError(f"dimension {n} exceeds split-search cap "
                         f"{config.max_split_search_dim}")
    if n == 0:
        return True
    mat = space.matrix()
    qs = q_table(space, config)
    vectors = np.arange(1, 1 << n, dtype=np.int64)
    null = [int(v) for v in vectors[qs[1:] == 0]]
    if not null:
        return False

    shifts = np.arange(n)

    def pairs_to_zero(v: int, w: int) -> bool:
        vb = (v >> shifts) & 1
        wb = (w >> shifts) & 1
        return int(vb @ mat @ wb) % 2 == 0

    def search(depth: int, span: frozenset[int], candidates: list[int]) -> bool:
        if depth == n // 2:
            return True
        for pos, v in enumerate(candidates):
            if v in span:
                continue
            keep = [w for w in candidates[pos + 1:] if pairs_to_zero(v, w)]
            new_span = span | frozenset(s ^ v for s in span)
            if search(depth + 1, new_span, keep):
                return True
        return False

    return search(0, frozenset({0}), null)


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


STANDARD = {"P+": p_plus, "P-": p_minus, "T0": t_zero, "T4": t_four}


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

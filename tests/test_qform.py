"""Exact quadratic-space arithmetic: golden values and algebraic laws."""

import numpy as np
import pytest

from genimm import qform
from genimm.config import Config
from genimm.qform import (QuadraticSpace, WittClass, brown, direct_sum,
                          direct_sum_many, extend_q, gauss_sum, is_split,
                          p_minus, p_plus, q_table, t_four, t_zero)

RNG = np.random.default_rng(20240811)


def random_space(dim, rng=RNG):
    """Random nonsingular pairing with a parity-consistent refinement."""
    while True:
        mat = rng.integers(0, 2, size=(dim, dim))
        mat = (mat + mat.T) % 2
        diag = rng.integers(0, 2, size=dim)
        mat[np.arange(dim), np.arange(dim)] = diag
        if qform._det_mod2(mat) == 1:
            break
    q = [int(mat[i, i] + 2 * rng.integers(0, 2)) % 4 for i in range(dim)]
    return QuadraticSpace(mat, q)


# ---------------------------------------------------------------------------
# construction validation


def test_rejects_singular_pairing():
    with pytest.raises(ValueError):
        QuadraticSpace([[0]], [0])
    with pytest.raises(ValueError):
        QuadraticSpace([[1, 1], [1, 1]], [1, 1])


def test_rejects_parity_violation():
    # q(e) must equal e.e mod 2
    with pytest.raises(ValueError):
        QuadraticSpace([[1]], [0])
    with pytest.raises(ValueError):
        QuadraticSpace([[0, 1], [1, 0]], [1, 0])


def test_rejects_asymmetric_pairing():
    with pytest.raises(ValueError):
        QuadraticSpace([[1, 1], [0, 1]], [1, 1])


# ---------------------------------------------------------------------------
# the quadratic extension


def test_extend_q_on_basis_vectors():
    s = random_space(5)
    for i in range(5):
        e = [0] * 5
        e[i] = 1
        assert extend_q(s, e) == s.basis_q[i]


def test_extend_q_order_independent_and_closed_form():
    # independent oracle: the closed form over the support
    rng = np.random.default_rng(11)
    for _ in range(30):
        dim = int(rng.integers(1, 7))
        s = random_space(dim, rng)
        mat = s.matrix()
        vec = rng.integers(0, 2, size=dim)
        support = np.nonzero(vec)[0]
        linear = sum(s.basis_q[i] for i in support)
        cross = sum(int(mat[i, j]) for k, i in enumerate(support)
                    for j in support[k + 1:])
        assert extend_q(s, vec) == (linear + 2 * cross) % 4


def test_quadratic_law_holds_on_all_pairs():
    s = random_space(4)
    mat = s.matrix()
    for x_bits in range(16):
        for y_bits in range(16):
            x = [(x_bits >> i) & 1 for i in range(4)]
            y = [(y_bits >> i) & 1 for i in range(4)]
            xy = [(a + b) % 2 for a, b in zip(x, y)]
            dot = int(np.array(x) @ mat @ np.array(y)) % 2
            assert extend_q(s, xy) == (extend_q(s, x) + extend_q(s, y)
                                       + 2 * dot) % 4


def test_q_table_matches_extend_q():
    s = random_space(6)
    table = q_table(s)
    for bits in range(64):
        vec = [(bits >> i) & 1 for i in range(6)]
        assert table[bits] == extend_q(s, vec)


def test_q_table_honours_the_config_cap():
    # the cap binds the enumeration only; brown and is_split enumerate
    # nothing beyond their dim-6 certificate, which ignores the cap
    s = direct_sum_many([p_plus()] * 4)
    with pytest.raises(qform.DimensionCapError, match="cap 3"):
        q_table(s, Config(max_qform_dim=3))
    with pytest.raises(qform.DimensionCapError, match="cap 3"):
        gauss_sum(s, Config(max_qform_dim=3))
    assert brown(s, Config(max_qform_dim=3)) == 4
    assert not is_split(s, Config(max_qform_dim=3))
    assert len(q_table(s, Config(max_qform_dim=4))) == 16


# ---------------------------------------------------------------------------
# Gauss sums and the Brown invariant: golden table


def test_gauss_sum_p_plus_is_one_plus_i():
    assert gauss_sum(p_plus()) == (1, 1)


def test_brown_golden_table():
    assert brown(p_plus()) == 1
    assert brown(p_minus()) == 7
    assert brown(t_zero()) == 0
    assert brown(t_four()) == 4


def test_t4_offdiagonal_value():
    # q(b + c) = 2 + 2 + 2*1 = 6 = 2 mod 4
    assert extend_q(t_four(), [1, 1]) == 2


def test_gauss_sum_magnitude_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_space(int(rng.integers(1, 8)), rng)
        re, im = gauss_sum(s)
        assert re * re + im * im == 2 ** s.dim


def gauss_exponent(space):
    """The m with gauss_sum = sqrt(2)**dim * zeta**m, read off the complex
    value: its argument is m pi / 4."""
    re, im = gauss_sum(space)
    m = round(np.angle(complex(re, im)) / (np.pi / 4)) % 8
    assert np.isclose(complex(re, im),
                      np.sqrt(2) ** space.dim * np.exp(1j * np.pi * m / 4))
    return m


def test_brown_matches_gauss_sum_exponent():
    # the splitting checked against the 2**dim enumeration; dims above 6
    # are not certified inside brown, so this is their only oracle
    rng = np.random.default_rng(23)
    dims = [1 + k % 12 for k in range(1200)]
    for dim in dims:
        s = random_space(dim, rng)
        assert brown(s) == gauss_exponent(s), s.to_json()


def test_brown_invariant_under_change_of_basis():
    # a random block sum in a random basis: nowhere block diagonal, and of
    # dims far beyond the enumeration cap
    rng = np.random.default_rng(29)
    blocks = (p_plus, p_minus, t_zero, t_four)
    values = (1, 7, 0, 4)
    for dim_target in (40, 71, 100):
        kinds = []
        while sum(blocks[k]().dim for k in kinds) < dim_target:
            kinds.append(int(rng.integers(0, 4)))
        block = direct_sum_many([blocks[k]() for k in kinds])
        n = block.dim
        while True:
            change = rng.integers(0, 2, size=(n, n))
            if qform._det_mod2(change) == 1:
                break
        mat = change @ block.matrix() @ change.T % 2
        q = [extend_q(block, row) for row in change]
        s = QuadraticSpace(mat, q)
        expected = sum(values[k] for k in kinds) % 8
        assert n > qform.DEFAULT.max_qform_dim
        assert np.count_nonzero(mat[: n // 2, n // 2:]) > 0
        assert brown(s) == expected
        assert is_split(s) == (expected == 0)


def test_brown_certificate_disagreement_raises(monkeypatch):
    s = direct_sum(t_four(), p_plus())
    monkeypatch.setattr(qform, "_brown_by_splitting", lambda space: 1)
    with pytest.raises(ValueError, match="Brown invariant 1 by splitting "
                                         "disagrees with the Gauss sum"):
        brown(s)
    # beyond the certified dims nothing is enumerated to disagree with
    big = direct_sum_many([p_plus()] * 7)
    assert brown(big) == 1


@pytest.mark.parametrize("cap", [0, 2, 4])
def test_brown_certifies_small_spaces_whatever_the_cap(monkeypatch, cap):
    # max_qform_dim caps q_table only; a low cap must not switch off the
    # Gauss-sum certificate of a dim-5 space
    s = direct_sum_many([t_four(), t_zero(), p_plus()])
    assert brown(s, Config(max_qform_dim=cap)) == 5
    monkeypatch.setattr(qform, "_brown_by_splitting", lambda space: 1)
    with pytest.raises(ValueError, match="dim-5 space"):
        brown(s, Config(max_qform_dim=cap))


def test_brown_additive_under_direct_sum():
    rng = np.random.default_rng(9)
    for _ in range(25):
        a = random_space(int(rng.integers(1, 5)), rng)
        b = random_space(int(rng.integers(1, 5)), rng)
        assert brown(direct_sum(a, b)) == (brown(a) + brown(b)) % 8


def test_brown_parity_is_dimension_parity():
    rng = np.random.default_rng(13)
    for _ in range(25):
        s = random_space(int(rng.integers(1, 8)), rng)
        assert brown(s) % 2 == s.dim % 2


def test_eight_copies_of_p_plus_vanish():
    s = direct_sum_many([p_plus()] * 8)
    assert brown(s) == 0


def test_witt_relations():
    # 4 [P+] = [T4], [P+] + [P-] = 0, 8 [P+] = 0
    four = direct_sum_many([p_plus()] * 4)
    assert brown(four) == brown(t_four())
    assert brown(direct_sum(p_plus(), p_minus())) == 0
    w = WittClass.of(p_plus())
    assert (w + w + w + w) == WittClass.of(t_four())
    assert sum([w] * 8, WittClass(0)) == WittClass(0)
    assert -WittClass.of(p_plus()) == WittClass.of(p_minus())


def test_witt_group_is_cyclic_of_order_eight():
    w = WittClass.of(p_plus())
    seen = set()
    acc = WittClass(0)
    for _ in range(8):
        seen.add(acc.value)
        acc = acc + w
    assert acc == WittClass(0)
    assert len(seen) == 8


# ---------------------------------------------------------------------------
# splitness


def split_by_search(space):
    """True if V has a half-dimensional subspace on which q vanishes.

    On a subspace where q = 0 the law forces the pairing to vanish as well,
    so a depth-first search over q-null vectors orthogonal to the partial
    basis is exhaustive.  Exponential: the reference for small dims.
    """
    n = space.dim
    if n % 2 != 0:
        return False
    if n == 0:
        return True
    mat = space.matrix()
    qs = q_table(space)
    vectors = np.arange(1, 1 << n, dtype=np.int64)
    null = [int(v) for v in vectors[qs[1:] == 0]]
    if not null:
        return False

    shifts = np.arange(n)

    def pairs_to_zero(v, w):
        vb = (v >> shifts) & 1
        wb = (w >> shifts) & 1
        return int(vb @ mat @ wb) % 2 == 0

    def search(depth, span, candidates):
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


def test_is_split_matches_exhaustive_search():
    rng = np.random.default_rng(31)
    seen = set()
    for dim in (2, 4, 6) * 40:
        s = random_space(dim, rng)
        expected = split_by_search(s)
        seen.add(expected)
        assert is_split(s) == expected, s.to_json()
    assert seen == {True, False}


def test_t_zero_splits_t_four_does_not():
    assert is_split(t_zero())
    assert not is_split(t_four())
    assert not is_split(p_plus())  # odd dimension


def test_split_implies_brown_zero():
    rng = np.random.default_rng(17)
    found_split = 0
    for _ in range(60):
        s = random_space(int(rng.integers(1, 4)) * 2, rng)
        if is_split(s):
            found_split += 1
            assert brown(s) == 0
    assert found_split > 0


def test_t4_plus_t4_splits():
    # brown = 0 and a null half-dimensional subspace exists: (b1+b2, c1+c2)
    s = direct_sum(t_four(), t_four())
    assert brown(s) == 0
    assert is_split(s)


# ---------------------------------------------------------------------------
# JSON round trip


def test_json_round_trip():
    s = direct_sum(t_four(), p_plus())
    t = QuadraticSpace.from_json(s.to_json())
    assert t == s


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        QuadraticSpace.from_json("{not json")
    with pytest.raises(ValueError):
        QuadraticSpace.from_json('{"dim": 1, "pairing": [[1]]}')
    with pytest.raises(ValueError):
        QuadraticSpace.from_json(
            '{"dim": 2, "pairing": [[1]], "q": [1]}')


@pytest.mark.parametrize("record", [
    '{"dim": 1, "pairing": [["1"]], "q": [1]}',
    '{"dim": 1, "pairing": [[true]], "q": [1]}',
    '{"dim": 1, "pairing": [[1.0]], "q": [1]}',
    '{"dim": 1, "pairing": [[1]], "q": [1.5]}',
    '{"dim": 1, "pairing": [[1]], "q": ["1"]}',
    '{"dim": 1, "pairing": [1], "q": [1]}',
])
def test_json_rejects_entries_that_are_not_integers(record):
    with pytest.raises(ValueError, match="JSON integers"):
        QuadraticSpace.from_json(record)

"""Exact linear algebra over GF(p).

Hand-worked fixtures pin the canonical forms; seeded sweeps check the
algebraic laws; the packed GF(2) path is differential-tested against
the generic eliminator it shadows.
"""

import random

import pytest
from hypothesis import given, strategies as st

from cyclicideals import gf


# ---------------------------------------------------------------------------
# hand-worked canonical forms


def test_rref_gf3_hand():
    # over GF(3): 2*(2,1) = (1,2) and (1,2) spans both rows, rank 1
    m = gf.Mat.from_rows(3, [(2, 1), (1, 2)], 2)
    assert gf.rref(m).rows == ((1, 2),)


def test_rref_gf2_hand():
    got = gf.rref_rows([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 2, 3)
    assert got == ((1, 0, 1), (0, 1, 1))


def test_rref_pivots_monic_and_cleared():
    rows = gf.rref_rows([(2, 1, 1, 0), (1, 2, 0, 1), (0, 0, 2, 2)], 3, 4)
    pivots = [next(j for j, c in enumerate(r) if c) for r in rows]
    assert pivots == sorted(pivots)
    for r, piv in zip(rows, pivots):
        assert r[piv] == 1
        # every pivot column is zero in the other rows
        assert all(s[piv] == 0 for s in rows if s is not r)


def test_kernel_hand_gf2():
    # v0+v1 = 0 and v1+v2 = 0 force v0 = v1 = v2
    m = gf.Mat.from_rows(2, [(1, 1, 0), (0, 1, 1)], 3)
    assert gf.kernel(m).rows == ((1, 1, 1),)


def test_kernel_hand_gf3():
    m = gf.Mat.from_rows(3, [(1, 2)], 2)
    assert gf.kernel(m).rows == ((1, 1),)  # 1 + 2*1 = 3 = 0


def test_left_kernel_rows_kill_matrix():
    m = gf.Mat.from_rows(2, [(1, 1, 0), (1, 1, 0), (0, 1, 1)], 3)
    lk = gf.left_kernel(m)
    assert lk.dim == 1
    for a in lk.rows:
        combo = [0, 0, 0]
        for c, row in zip(a, m.rows):
            combo = [(x + c * y) % 2 for x, y in zip(combo, row)]
        assert not any(combo)


def test_affine_meet_hand():
    w = gf.Subspace.span(2, 3, [(0, 1, 0)])
    u = gf.Subspace.span(2, 3, [(1, 1, 0)])
    got = gf.affine_meet((1, 0, 0), w, u)
    assert got == (1, 1, 0)


def test_affine_meet_miss():
    w = gf.Subspace.span(2, 3, [(0, 1, 0)])
    u = gf.Subspace.span(2, 3, [(0, 0, 1)])
    assert gf.affine_meet((1, 0, 0), w, u) is None


def test_split_components_hand():
    parts = [gf.Subspace.span(2, 3, [(1, 0, 0)]),
             gf.Subspace.span(2, 3, [(0, 1, 0), (0, 0, 1)])]
    got = gf.split_components((1, 1, 1), parts)
    assert got == [(1, 0, 0), (0, 1, 1)]


def test_split_components_outside():
    parts = [gf.Subspace.span(2, 3, [(1, 0, 0)])]
    assert gf.split_components((1, 1, 0), parts) is None


def test_solve_combination_hand():
    got = gf.solve_combination([(1, 2), (0, 1)], (2, 2), 3)
    assert got == (2, 1)
    assert gf.solve_combination([(1, 0)], (0, 1), 2) is None
    # empty row list spans only zero
    assert gf.solve_combination([], (0, 0), 5) == ()
    assert gf.solve_combination([], (1,), 5) is None


def test_subspace_sum_and_intersect_hand():
    e1 = (1, 0, 0)
    e2 = (0, 1, 0)
    e3 = (0, 0, 1)
    a = gf.Subspace.span(2, 3, [e1, e2])
    b = gf.Subspace.span(2, 3, [e2, e3])
    assert gf.subspace_sum(a, b).dim == 3
    assert gf.subspace_intersect(a, b).rows == (e2,)
    c = gf.Subspace.span(2, 3, [(0, 1, 1)])
    assert gf.subspace_intersect(a, c).dim == 0


def test_subspace_ambient_mismatch():
    a = gf.Subspace.span(2, 3, [(1, 0, 0)])
    b = gf.Subspace.span(2, 2, [(1, 0)])
    with pytest.raises(ValueError):
        gf.subspace_sum(a, b)


# ---------------------------------------------------------------------------
# packed GF(2) path vs the generic eliminator


def _generic_rref(vectors, p, ncols):
    basis = []  # (pivot, row) pairs
    for v in vectors:
        gf._insert_generic(basis, gf.normalize_vec(v, p), p)
    return tuple(row for _, row in basis)


def test_packed_matches_generic_gf2():
    rng = random.Random(20260814)
    for _ in range(400):
        n = rng.randrange(1, 9)
        k = rng.randrange(0, 7)
        vecs = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(k)]
        assert gf.rref_rows(vecs, 2, n) == _generic_rref(vecs, 2, n)


def test_gf2_insert_reports_dependence():
    rows = []
    assert gf.gf2_insert(rows, 0b011)
    assert gf.gf2_insert(rows, 0b110)
    assert not gf.gf2_insert(rows, 0b101)  # xor of the first two
    assert not gf.gf2_insert(rows, 0)


@given(st.integers(min_value=0, max_value=2 ** 12 - 1), st.integers(min_value=12, max_value=16))
def test_pack_unpack_roundtrip(m, n):
    assert gf.pack_vec(gf.unpack_vec(m, n)) == m


@given(st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
                max_size=5),
       st.sampled_from([2, 3, 5]))
def test_rref_idempotent(vectors, p):
    once = gf.rref_rows(vectors, p, 3)
    assert gf.rref_rows(once, p, 3) == once


@given(st.lists(st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
                max_size=5),
       st.lists(st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
                max_size=5))
def test_rref_span_invariance_gf3(u, v):
    # the canonical basis depends on the span only, not its presentation
    both = gf.rref_rows(u + v, 3, 4)
    assert gf.rref_rows(list(both), 3, 4) == both
    assert gf.rref_rows(v + u, 3, 4) == both


# ---------------------------------------------------------------------------
# seeded law sweeps (the large acceptance sweep lives in test_acceptance)


def _random_subspace(rng, p, n):
    k = rng.randrange(0, n + 1)
    vecs = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]
    return gf.Subspace.span(p, n, vecs)


@pytest.mark.parametrize("p", [2, 3])
def test_rank_nullity_sweep(p):
    rng = random.Random(1000 + p)
    for _ in range(300):
        nrows = rng.randrange(0, 6)
        ncols = rng.randrange(1, 7)
        m = gf.Mat.from_rows(p, [[rng.randrange(p) for _ in range(ncols)]
                                 for _ in range(nrows)], ncols)
        rank = len(gf.rref_rows(m.rows, p, ncols))
        ker = gf.kernel(m)
        assert rank + ker.dim == ncols
        for v in ker.rows:
            for row in m.rows:
                assert sum(a * b for a, b in zip(row, v)) % p == 0


@pytest.mark.parametrize("p", [2, 3])
def test_modular_dimension_law_sweep(p):
    rng = random.Random(2000 + p)
    for _ in range(300):
        n = rng.randrange(1, 7)
        a = _random_subspace(rng, p, n)
        b = _random_subspace(rng, p, n)
        s = gf.subspace_sum(a, b)
        i = gf.subspace_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        assert a.contains_subspace(i) and b.contains_subspace(i)
        assert s.contains_subspace(a) and s.contains_subspace(b)


@pytest.mark.parametrize("p", [2, 3])
def test_direct_sum_sweep(p):
    """direct_sum agrees with summing the parts and adding their dims."""
    rng = random.Random(2500 + p)
    for _ in range(300):
        n = rng.randrange(1, 7)
        parts = [_random_subspace(rng, p, n) for _ in range(rng.randrange(0, 4))]
        total = gf.Subspace.zero(p, n)
        for s in parts:
            total = gf.subspace_sum(total, s)
        direct = total.dim == sum(s.dim for s in parts)
        assert gf.direct_sum(p, n, parts) == (total if direct else None)


@pytest.mark.parametrize("p", [2, 3])
def test_affine_meet_sweep(p):
    """Returned points satisfy both memberships; None answers are
    re-checked by brute force over the (small) u."""
    rng = random.Random(3000 + p)
    for _ in range(200):
        n = rng.randrange(1, 5)
        w = _random_subspace(rng, p, n)
        u = _random_subspace(rng, p, n)
        point = tuple(rng.randrange(p) for _ in range(n))
        got = gf.affine_meet(point, w, u)
        if got is not None:
            assert u.contains(got)
            diff = tuple((a - b) % p for a, b in zip(got, point))
            assert w.contains(diff)
        else:
            for coeffs in _all_vectors(p, u.dim):
                v = _combine(coeffs, u.rows, p, n)
                diff = tuple((a - b) % p for a, b in zip(v, point))
                assert not w.contains(diff)


def _all_vectors(p, k):
    if k == 0:
        yield ()
        return
    for rest in _all_vectors(p, k - 1):
        for c in range(p):
            yield (c,) + rest


def _combine(coeffs, rows, p, n):
    out = [0] * n
    for c, r in zip(coeffs, rows):
        for j, x in enumerate(r):
            out[j] = (out[j] + c * x) % p
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3])
def test_split_components_sweep(p):
    # independent parts built from disjoint pivot groups of one RREF basis
    rng = random.Random(4000 + p)
    for _ in range(200):
        n = rng.randrange(2, 6)
        s = _random_subspace(rng, p, n)
        if s.dim < 2:
            continue
        cut = rng.randrange(1, s.dim)
        parts = [gf.Subspace.span(p, n, s.rows[:cut]),
                 gf.Subspace.span(p, n, s.rows[cut:])]
        coeffs = [rng.randrange(p) for _ in range(s.dim)]
        v = _combine(coeffs, s.rows, p, n)
        got = gf.split_components(v, parts)
        assert got is not None
        total = [0] * n
        for comp, part in zip(got, parts):
            assert part.contains(comp)
            total = [(a + b) % p for a, b in zip(total, comp)]
        assert tuple(total) == v


@pytest.mark.parametrize("p", [2, 3])
def test_solve_combination_sweep(p):
    rng = random.Random(5000 + p)
    for _ in range(200):
        n = rng.randrange(1, 6)
        k = rng.randrange(1, 5)
        rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]
        coeffs = [rng.randrange(p) for _ in range(k)]
        target = _combine(coeffs, rows, p, n)
        got = gf.solve_combination(rows, target, p)
        assert got is not None
        assert _combine(got, rows, p, n) == target

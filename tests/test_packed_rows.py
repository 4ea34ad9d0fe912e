"""Packed GF(p) rows for odd p against the tuple reference kernels.

`cyclicideals.gf` keeps every row as one int, coordinate j in a W-bit
field, and reduces all fields mod p at once with a multiply, a mask, a
shift and a subtract.  These tests check that reduction on every field
value it must handle, the Subspace operations built on it against the
coordinate-at-a-time kernels of tests/reference_kernels.py over small
and word-sized primes and ambients of a few hundred coordinates, the
ideal closure and M*I of quotient algebras (whose generators' images
overlap in a field), power_form against the multiplication-matrix loop
it replaced, and Element arithmetic and mult_map, all with products
from the tuple reference.  Every hypothesis test here is derandomized.
"""

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_kernels as ref
from conftest import QuotientAlgebra, maximal_ideal_elements, presentations
from cyclicideals import (Ideal, find_m_decomposition, gf,
                          ideal_from_generators, maximal_ideal, module_times_ideal)
from reference_kernels import NotExpressibleError, power_form
from cyclicideals.rings import Algebra, RingPresentation, _is_prime, build_algebra

PRIMES = (3, 5, 7, 251, 65521, 2 ** 31 - 1)
SMALL_PRIMES = tuple(p for p in range(3, 102) if _is_prime(p))


def _pack_raw(xs, w):
    """Field values, unreduced, one per W-bit field."""
    return int("".join(format(x, f"0{w}b") for x in reversed(xs)) or "0", 2)


# ---------------------------------------------------------------------------
# the field-wise reduction


@pytest.mark.parametrize("p", SMALL_PRIMES + PRIMES[3:])
def test_field_layout_bounds(p):
    f = gf.PackedField(p)
    assert 2 ** f.s >= p ** 3 > 2 ** (f.s - 1)
    assert f.m == -(-2 ** f.s // p)
    assert (p * p - 1) * f.m < 2 ** f.w
    assert gf.packed_field(p).w == f.w


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_mod_is_exact_on_every_value_below_p_squared(p):
    f = gf.PackedField(p)  # a fresh layout, so its mask widens from nothing
    values = list(range(p * p))
    for start in range(0, len(values), 1024):
        chunk = values[start:start + 1024]
        got = f.unpack(f.mod(_pack_raw(chunk, f.w)), len(chunk))
        assert got == tuple(x % p for x in chunk)
    # one int holding every value at once, in reverse order too
    assert f.unpack(f.mod(_pack_raw(values[::-1], f.w)), p * p) == \
        tuple(x % p for x in values[::-1])


@pytest.mark.parametrize("p", PRIMES[3:])
def test_mod_is_exact_on_random_values_of_large_primes(p):
    f = gf.PackedField(p)
    rng = random.Random(p)
    edges = [0, 1, p - 1, p, p + 1, p * p - 1, p * p - p, (p - 1) ** 2, p * (p - 1) - 1]
    for _ in range(40):
        n = rng.randrange(1, 300)
        xs = [rng.choice(edges) if rng.random() < 0.3 else rng.randrange(p * p)
              for _ in range(n)]
        for k in range(1, p if p < 1000 else 1000, max(1, p // 97)):
            xs.append(k * p - 1)
        assert f.unpack(f.mod(_pack_raw(xs, f.w)), len(xs)) == tuple(x % p for x in xs)


def test_apply_matches_the_matrix_product():
    # columns that overlap in every field, up to all entries p - 1: the
    # image must come out reduced however many terms meet in one field
    rng = random.Random(5)
    for p in PRIMES:
        f = gf.packed_field(p)
        for _ in range(30):
            n, k = rng.randrange(1, 100), rng.randrange(1, 100)
            fill = rng.choice((None, p - 1))
            cols = [[fill if fill is not None else rng.randrange(p) for _ in range(n)]
                    for _ in range(k)]
            v = [fill if fill is not None else rng.randrange(p) for _ in range(k)]
            want = [sum(c * col[i] for c, col in zip(v, cols)) % p for i in range(n)]
            got = f.apply([f.pack(col) for col in cols], f.pack(v))
            assert f.unpack(got, n) == tuple(want) and got >> n * f.w == 0


def test_pack_reduces_and_unpack_inverts():
    rng = random.Random(7)
    for p in PRIMES:
        f = gf.packed_field(p)
        for _ in range(20):
            n = rng.randrange(0, 40)
            v = [rng.randrange(-3 * p, 3 * p) for _ in range(n)]
            assert f.unpack(f.pack(v), n) == ref.normalize(v, p)


# ---------------------------------------------------------------------------
# Subspace operations against the tuple reference


@st.composite
def odd_cases(draw):
    """An odd prime, an ambient of up to 300 coordinates, and vectors for
    two subspaces that share a random part, so their meet is seldom 0."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, 300)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    density = rng.choice((0.05, 0.3, 1.0))

    def vec():
        # unreduced entries too: the packers reduce them
        return tuple(rng.randrange(-p, 2 * p) if rng.random() < density else 0
                     for _ in range(n))

    def combo(vs):
        out = [0] * n
        for v in vs:
            c = rng.randrange(p)
            out = [a + c * b for a, b in zip(out, v)]
        return tuple(out)

    shared = [vec() for _ in range(rng.randrange(0, 4))]
    a = [vec() for _ in range(rng.randrange(0, 5))] + shared
    b = [vec() for _ in range(rng.randrange(0, 5))] + shared
    a += [combo(a) for _ in range(rng.randrange(0, 3))]  # dependent rows
    rng.shuffle(a)
    inside = combo(a + b)
    return p, n, a, b, [inside, vec(), combo(a), tuple([0] * n)]


def _solve(rows, target, p):
    """ref.solve_packed on tuple rows and target."""
    f = gf.packed_field(p)
    got = ref.solve_packed(p, len(target), [f.pack(r) for r in rows], f.pack(target))
    return None if got is None else f.unpack(got, len(rows))


def _rows(basis):
    return tuple(r for _, r in basis)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(odd_cases())
def test_odd_subspace_operations_match_the_reference(case):
    p, n, avecs, bvecs, probes = case
    a, b = gf.Subspace.span(p, n, avecs), gf.Subspace.span(p, n, bvecs)
    ra, rb = ref.echelon(avecs, p), ref.echelon(bvecs, p)
    assert a.rows == _rows(ra) and b.rows == _rows(rb)
    assert a.pivots == tuple(piv for piv, _ in ra)
    for v in probes:
        red = ref.reduce_rows(ref.normalize(v, p), ra, p)
        assert a.reduce(v) == red
        assert a.contains(v) == (not any(red))
    assert all(a.contains(v) for v in avecs)
    assert gf.subspace_sum(a, b).rows == _rows(ref.echelon(a.rows + b.rows, p))
    meet = gf.subspace_intersect(a, b)
    assert meet.rows == ref.intersect(a.rows, b.rows, n, p)
    assert a.contains_subspace(meet) and b.contains_subspace(meet)
    rows = [ref.normalize(v, p) for v in avecs]
    f = gf.packed_field(p)
    for v in probes:
        want = ref.split_components(v, [a.rows, b.rows], n, p)
        assert gf.split_components(f.pack(v), [a, b]) == (want and [f.pack(c) for c in want])
        got = _solve(rows, v, p)
        assert got == ref.solve_combination(rows, v, p)
        if got is not None:
            total = [sum(c * r[j] for c, r in zip(got, rows)) % p for j in range(n)]
            assert tuple(total) == ref.normalize(v, p)


# ---------------------------------------------------------------------------
# action masks


def _overlapping(alg):
    """True when two columns of one generator's action share a field."""
    w = gf.packed_field(alg.p).w
    for masks in alg.action_masks():
        seen = set()
        for col in masks:
            fields = {j // w for j in range(col.bit_length()) if col >> j & 1}
            if fields & seen:
                return True
            seen |= fields
    return False


@settings(derandomize=True, max_examples=60, deadline=None)
@given(presentations(), st.sampled_from(PRIMES[:5]))
def test_odd_monomial_action_masks_are_the_successor_maps(pres, p):
    alg = build_algebra(RingPresentation.make(p, pres.vars, pres.relations, pres.truncate))
    masks = alg.action_masks()
    # the generic construction multiplies out every product
    assert masks == Algebra._action_masks(alg)
    assert not _overlapping(alg)


# ---------------------------------------------------------------------------
# quotient algebras: generator images overlap in a field


def test_odd_quotient_closure_matches_the_tuple_path():
    seen = Counter()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(presentations(), st.sampled_from(PRIMES[:5]), st.data())
    def check(pres, p, data):
        alg = build_algebra(RingPresentation.make(p, pres.vars, pres.relations,
                                                  pres.truncate))
        assume(4 <= alg.dim <= 30)
        # R/I for I generated by elements of M^2, so the quotient keeps
        # every variable and its products get mixed coefficients
        msq = module_times_ideal(alg, maximal_ideal(alg))
        assume(msq.dim >= 2)
        rels = []
        for _ in range(data.draw(st.integers(1, 2))):
            cs = data.draw(st.lists(st.integers(0, p - 1), min_size=msq.dim,
                                    max_size=msq.dim))
            rels.append(alg.element([sum(c * r[j] for c, r in zip(cs, msq.rows))
                                     for j in range(alg.dim)]))
        killed = ideal_from_generators(alg, rels)
        assume(killed.dim < msq.dim)
        q = QuotientAlgebra(alg, killed)
        f = gf.packed_field(p)
        assert q.action_masks() == [
            [f.pack(ref.product(q, g.coeffs, q.basis_element(k).coeffs)) for k in range(q.dim)]
            for g in q.gens]
        gens = maximal_ideal_elements(q, data, data.draw(st.integers(1, 3)))
        j = ideal_from_generators(q, gens)
        assert j.rows == ref.closure(q, [g.coeffs for g in gens])
        assert Ideal(q, j.space) == j  # the checked constructor accepts it
        prods = [ref.product(q, g.coeffs, r) for g in q.gens for r in j.rows]
        assert module_times_ideal(q, j).rows == _rows(ref.echelon(prods, p))
        # a line outside M*J that J does not absorb is refused
        v = next((g for g in gens if not g.is_zero()), None)
        if v is not None and any(not gf.Subspace.span(p, q.dim, [v.coeffs]).contains(
                ref.product(q, g.coeffs, v.coeffs)) for g in q.gens):
            with pytest.raises(ValueError):
                Ideal(q, gf.Subspace.span(p, q.dim, [v.coeffs]))
            seen["refused"] += 1
        seen["overlap" if _overlapping(q) else "disjoint"] += 1
        seen[p] += 1

    check()
    assert seen["overlap"] >= 30 and seen["refused"] >= 30, seen
    assert min(seen[p] for p in PRIMES[:5]) >= 5, seen


# ---------------------------------------------------------------------------
# power_form against the multiplication-matrix loop


def _mult_rows(alg, z):
    """Rows e_k * z of the multiplication matrix of the tuple z."""
    return [ref.product(alg, alg.basis_element(k).coeffs, z) for k in range(alg.dim)]


def _reference_power_form(alg, x, z):
    # one multiplication matrix of x^n per power, all on tuples
    if z.is_zero():
        raise NotExpressibleError("not expressible")
    rx = gf.Subspace.span(alg.p, alg.dim, _mult_rows(alg, x.coeffs))
    if not rx.contains(z.coeffs):
        raise NotExpressibleError("not expressible")
    n = 0
    xn = alg.unit().coeffs
    while n < alg.dim:
        n += 1
        xn = ref.product(alg, xn, x.coeffs)
        if not any(xn):
            break
        a = _solve(_mult_rows(alg, xn), z.coeffs, alg.p)
        if a is not None and a[0] != 0:
            return alg.element(a), n
    raise NotExpressibleError("not expressible")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotExpressibleError:
        return "not expressible"


def test_power_form_matches_the_matrix_loop():
    seen = Counter()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(presentations(), st.sampled_from((2, 3, 5)), st.integers(0, 2 ** 32 - 1))
    def check(pres, p, seed):
        alg = build_algebra(RingPresentation.make(p, pres.vars, pres.relations,
                                                  pres.truncate))
        assume(alg.dim <= 30)
        dec = find_m_decomposition(alg)
        assume(dec is not None)
        rng = random.Random(seed)

        def element(rows, start=()):
            cs = [rng.randrange(p) for _ in rows]
            return alg.element([sum(c * r[j] for c, r in zip(cs, rows)) + (j in start)
                                for j in range(alg.dim)])

        m = maximal_ideal(alg).rows
        for axis, rg in ((dec.x, dec.rx), (dec.y, dec.ry)):
            if axis is None:
                continue
            if rng.random() < 0.5:
                # a unit multiple spans the same Rg, and its multiplication
                # map mixes coordinates, where a variable's only moves them
                axis = element(m, start=(0,)) * axis
                seen["unit multiple"] += 1
            # a member of the axis, a vector of M that is seldom one, 0, g
            for z in (element(rg.rows), element(m), alg.zero(), axis):
                got = _outcome(power_form, alg, axis, z)
                assert got == _outcome(_reference_power_form, alg, axis, z)
                seen["not expressible" if got == "not expressible" else "expressed"] += 1
        seen[p] += 1

    check()
    assert seen["expressed"] >= 200 and seen["not expressible"] >= 80, seen
    assert seen["unit multiple"] >= 40 and min(seen[p] for p in (2, 3, 5)) >= 40, seen


# ---------------------------------------------------------------------------
# Element arithmetic and mult_map against the tuple product


def test_element_arithmetic_matches_the_tuple_reference():
    seen = Counter()

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(presentations(), st.sampled_from((2, 3, 5)), st.booleans(), st.data())
    def check(pres, p, quotient, data):
        alg = build_algebra(RingPresentation.make(p, pres.vars, pres.relations,
                                                  pres.truncate))
        assume(alg.dim <= 30)
        if quotient:
            # R/I for I generated by random products of two elements of M,
            # which keeps the variables and mixes the coefficients
            k = data.draw(st.integers(1, 2))
            gens = [u * v for u, v in zip(maximal_ideal_elements(alg, data, k),
                                          maximal_ideal_elements(alg, data, k))]
            alg = QuotientAlgebra(alg, ideal_from_generators(alg, gens))
            seen["overlap" if p > 2 and _overlapping(alg) else "quotient"] += 1
        f, dim = alg.field, alg.dim
        coeffs = st.lists(st.integers(-p, 2 * p), min_size=dim, max_size=dim)
        a, b = data.draw(coeffs), data.draw(coeffs)
        c, n = data.draw(st.integers(-2 * p, 2 * p)), data.draw(st.integers(0, 4))
        x, y = alg.element(a), alg.element(b)
        ra, rb = ref.normalize(a, p), ref.normalize(b, p)
        assert x.coeffs == ra and x.vec == f.pack(ra)
        assert (x + y).coeffs == tuple((u + v) % p for u, v in zip(ra, rb))
        assert (x - y).coeffs == tuple((u - v) % p for u, v in zip(ra, rb))
        assert (-x).coeffs == tuple(-u % p for u in ra)
        scaled = tuple(c * u % p for u in ra)
        assert x.scale(c).coeffs == (x * c).coeffs == (c * x).coeffs == scaled
        prod = ref.product(alg, ra, rb)
        assert (x * y).coeffs == (y * x).coeffs == prod
        power = alg.unit().coeffs
        for _ in range(n):
            power = ref.product(alg, power, ra)
        assert (x ** n).coeffs == power
        twin = alg.element(list(ra))
        assert x == twin and hash(x) == hash(twin)
        assert (x == y) == (ra == rb)
        # column k of the map is e_k * y, every field reduced mod p and
        # nothing above the last coordinate
        cols = alg.mult_map(y)
        assert [f.unpack(col, dim) for col in cols] == [
            ref.product(alg, alg.basis_element(k).coeffs, rb) for k in range(dim)]
        assert all(col == f.pack(f.unpack(col, dim)) for col in cols)
        # read lazily, in any order, the columns are the same
        lazy, order = alg.columns(y), data.draw(st.permutations(range(dim)))
        assert {k: lazy[k] for k in order} == dict(enumerate(cols))
        seen[p, quotient] += 1

    check()
    assert seen["overlap"] >= 20 and seen["quotient"] >= 20, seen
    assert min(seen[p, q] for p in (2, 3, 5) for q in (False, True)) >= 15, seen

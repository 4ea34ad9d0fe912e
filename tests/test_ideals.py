"""Ideal arithmetic, annihilators, quotients, and the packed caches."""

import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclicideals import (Ideal, annihilator, build_algebra, cyclic,
                          ideal_from_generators,
                          ideal_intersect, ideal_product, ideal_sum, is_simple,
                          maximal_ideal, min_generators, module_times_ideal,
                          parse_element, unit_ideal, zero_ideal)
from cyclicideals import gf, ideals
from cyclicideals import oracle
from cyclicideals.ideals import InfeasibleSizeError, packed_closure, packed_cyclic_table
from cyclicideals.rings import RingPresentation
import reference_kernels
from conftest import (AXIS_SOCLE, CHAIN5, PAIR_N3, SQUARE_ZERO_N2,
                      SQUARE_ZERO_N3, TRIPLE, QuotientAlgebra, build,
                      maximal_ideal_elements, presentations)


def span_of(alg, *texts):
    """Subspace spanned by parsed elements, as an Ideal (checked closed)."""
    vecs = [parse_element(alg, t).coeffs for t in texts]
    return Ideal(alg, gf.Subspace.span(alg.p, alg.dim, vecs))


# ---------------------------------------------------------------------------
# construction and closure


def test_cyclic_pair_n3(pair_n3):
    x, y = pair_n3.gens
    assert cyclic(pair_n3, x) == span_of(pair_n3, "x", "x^2")
    assert cyclic(pair_n3, x + y) == span_of(pair_n3, "x+y", "x^2", "y^2")


def test_cyclic_closes_once_per_algebra():
    a, b = build(PAIR_N3), build(PAIR_N3)
    with mock.patch.object(ideals, "ideal_from_generators",
                           wraps=ideals.ideal_from_generators) as closures:
        ra = cyclic(a, a.gens[0])
        assert cyclic(a, a.gens[0]) is ra
        assert cyclic(a, parse_element(a, "x")) is ra  # an equal element
        rb = cyclic(b, b.gens[0])
    # two algebras from one text keep separate memos
    assert closures.call_count == 2
    assert rb is not ra and ra.algebra is a and rb.algebra is b
    assert rb.rows == ra.rows


def test_a_foreign_element_is_refused():
    alg = build("field 2 / vars x y / rel x^3 / rel y^2 / rel x*y")
    foreign = [build(CHAIN5).gens[0] ** 3,  # x^3 of GF(2)[x]/(x^5)
               build("field 3 / vars x y / rel x^3 / rel y^2 / rel x*y").gens[0],
               build("field 2 / vars x y / rel x^3 / rel y^2 / rel x*y").gens[0]]
    for z in foreign:
        with pytest.raises(ValueError, match="algebra mismatch"):
            cyclic(alg, z)
        with pytest.raises(ValueError, match="algebra mismatch"):
            ideal_from_generators(alg, [alg.gens[1], z])


def test_ideal_from_generators_unit_short_circuit(pair_n3):
    one = pair_n3.unit()
    assert ideal_from_generators(pair_n3, [one + pair_n3.gens[0]]) == unit_ideal(pair_n3)
    assert ideal_from_generators(pair_n3, []) == zero_ideal(pair_n3)


def test_non_ideal_subspace_rejected(pair_n3):
    # span{x} is not closed: x*x = x^2 falls outside
    with pytest.raises(ValueError, match="not closed"):
        span_of(pair_n3, "x")
    with pytest.raises(ValueError, match="unit coordinate"):
        span_of(pair_n3, "1 + x")


def test_contains_refuses_another_algebra(pair_n3):
    # x of GF(2)[x]/(x^3) has the coordinates of x in pair_n3's basis
    small = build("field 2 / vars x / rel x^3")
    with pytest.raises(ValueError, match="algebra mismatch"):
        maximal_ideal(pair_n3).contains(small.gens[0])
    # over GF(3) the shorter vector used to overrun the basis rows
    big = build("field 3 / vars x y / rel x^3 / rel y^3 / rel x*y")
    small3 = build("field 3 / vars x / rel x^3")
    with pytest.raises(ValueError, match="algebra mismatch"):
        maximal_ideal(big).contains(small3.gens[0])


def test_lattice_operations(pair_n3):
    x, y = pair_n3.gens
    rx, ry = cyclic(pair_n3, x), cyclic(pair_n3, y)
    m = maximal_ideal(pair_n3)
    assert ideal_sum(rx, ry) == m
    assert ideal_product(rx, ry) == zero_ideal(pair_n3)  # x*y is a relation
    assert ideal_intersect(rx, ry) == zero_ideal(pair_n3)
    socle = span_of(pair_n3, "x^2", "y^2")
    assert ideal_intersect(rx, socle) == span_of(pair_n3, "x^2")
    assert ideal_product(m, m) == socle
    assert ideal_product(socle, m) == zero_ideal(pair_n3)
    assert rx <= m and not m <= rx


def test_module_times_ideal(pair_n3):
    m = maximal_ideal(pair_n3)
    assert module_times_ideal(pair_n3, m) == span_of(pair_n3, "x^2", "y^2")
    assert module_times_ideal(pair_n3, zero_ideal(pair_n3)).is_zero()


@pytest.mark.parametrize("text", [PAIR_N3, TRIPLE, "field 3 / vars x y / rel x^3 / rel y^2"])
def test_m_and_m_times_i_are_built_without_a_closure_check(text):
    # M and M*I are ideals by construction, so neither is re-checked
    alg = build(text)
    want_m = ideal_from_generators(alg, alg.gens)
    want_m2 = ideal_from_generators(alg, [g * h for g in alg.gens for h in alg.gens])
    with mock.patch.object(Ideal, "_check_closed",
                           side_effect=AssertionError("closure re-checked")):
        m = maximal_ideal(alg)
        m2 = module_times_ideal(alg, m)
    assert m == want_m and m2 == want_m2


def _tuple_module_times_ideal(alg, i):
    # every generator times every basis row of i, on coefficient tuples
    prods = [reference_kernels.product(alg, g.coeffs, row) for g in alg.gens for row in i.rows]
    return gf.Subspace.span(alg.p, alg.dim, prods)


def test_module_times_ideal_matches_the_tuple_path():
    # M*I is computed on packed rows for every prime; it must agree with
    # the tuple products, and with the product ideal M*I; each prime gets
    # its own run, so each gets its floor of rings
    primes = Counter()
    for p in (2, 3, 5):

        @settings(max_examples=150, deadline=None)
        @given(presentations(), st.data())
        def check(pres, data):
            alg = build_algebra(RingPresentation.make(p, pres.vars, pres.relations,
                                                      pres.truncate))
            assume(alg.dim <= 40)
            m = maximal_ideal(alg)
            gens = maximal_ideal_elements(alg, data, data.draw(st.integers(1, 3)))
            for i in (m, ideal_from_generators(alg, gens)):
                mi = module_times_ideal(alg, i)
                assert mi.space == _tuple_module_times_ideal(alg, i)
                assert mi == ideal_product(m, i)
            primes[p] += 1

        check()
    assert min(primes[p] for p in (2, 3, 5)) >= 20, primes


# ---------------------------------------------------------------------------
# annihilators


def test_annihilator_diagonal_exact(pair_n3):
    x, y = pair_n3.gens
    assert annihilator(pair_n3, x + y) == span_of(pair_n3, "x^2", "y^2")


def test_annihilator_of_generator(pair_n3):
    x, y = pair_n3.gens
    assert annihilator(pair_n3, x) == span_of(pair_n3, "y", "x^2", "y^2")


def test_annihilator_of_ideal(pair_n3):
    # Ann(M) is the socle
    assert annihilator(pair_n3, maximal_ideal(pair_n3)) == span_of(pair_n3, "x^2", "y^2")
    assert annihilator(pair_n3, zero_ideal(pair_n3)) == unit_ideal(pair_n3)


def test_annihilator_is_maximal_exhaustive():
    """Brute-force cross-check: Ann(z) contains exactly the killers of z."""
    alg = build("field 2 / vars x y / rel x^3 / rel y^2 / rel x*y")
    all_vectors = [alg.element(gf.unpack_vec(m, alg.dim))
                   for m in range(1 << alg.dim)]
    rng = random.Random(3)
    for _ in range(20):
        z = all_vectors[rng.randrange(len(all_vectors))]
        ann = annihilator(alg, z)
        for v in all_vectors:
            assert ann.contains(v) == (v * z).is_zero()


# ---------------------------------------------------------------------------
# generator counts and simplicity


def test_min_generators(pair_n3):
    assert min_generators(pair_n3, maximal_ideal(pair_n3)) == 2
    assert min_generators(pair_n3, cyclic(pair_n3, pair_n3.gens[0])) == 1
    assert min_generators(pair_n3, zero_ideal(pair_n3)) == 0
    chain = build(CHAIN5)
    assert min_generators(chain, maximal_ideal(chain)) == 1


def test_is_simple(pair_n3):
    assert is_simple(pair_n3, span_of(pair_n3, "x^2"))
    assert is_simple(pair_n3, span_of(pair_n3, "x^2 + y^2"))
    assert not is_simple(pair_n3, cyclic(pair_n3, pair_n3.gens[0]))
    assert not is_simple(pair_n3, zero_ideal(pair_n3))
    two_axes = build(SQUARE_ZERO_N2)
    assert is_simple(two_axes, cyclic(two_axes, two_axes.gens[0]))


# ---------------------------------------------------------------------------
# quotient algebras


def test_quotient_dims_and_pir(pair_n3):
    x, y = pair_n3.gens
    q = QuotientAlgebra(pair_n3, annihilator(pair_n3, x))
    assert q.dim == 2  # classes of 1 and x
    assert min_generators(q, maximal_ideal(q)) == 1

    q2 = QuotientAlgebra(pair_n3, annihilator(pair_n3, x + y))
    assert q2.dim == 3
    assert min_generators(q2, maximal_ideal(q2)) == 2


def test_quotient_map_is_a_ring_map(pair_n3):
    q = QuotientAlgebra(pair_n3, span_of(pair_n3, "x^2", "y^2"))
    rng = random.Random(5)
    for _ in range(40):
        a = pair_n3.element([rng.randrange(2) for _ in range(pair_n3.dim)])
        b = pair_n3.element([rng.randrange(2) for _ in range(pair_n3.dim)])
        assert q.project(a * b) == q.project(a) * q.project(b)
        assert q.project(a + b) == q.project(a) + q.project(b)


def test_quotient_section_roundtrip(pair_n3):
    q = QuotientAlgebra(pair_n3, cyclic(pair_n3, pair_n3.gens[1]))
    for k in range(q.dim):
        e = q.basis_element(k)
        assert q.project(q.lift(e)) == e


def test_quotient_rejects_improper(pair_n3):
    with pytest.raises(ValueError, match="not proper"):
        QuotientAlgebra(pair_n3, unit_ideal(pair_n3))


# ---------------------------------------------------------------------------
# packed cyclic table


def test_packed_cyclic_table_matches_cyclic():
    alg = build(PAIR_N3)  # a fresh table: nothing closed yet
    table = packed_cyclic_table(alg)
    assert table == {0: ()}
    for m in range(1, 1 << (alg.dim - 1)):
        vec = m << 1
        z = alg.element(gf.unpack_vec(vec, alg.dim))
        assert table[vec] == tuple(gf.pack_vec(r) for r in cyclic(alg, z).rows)
    assert len(table) == 1 << (alg.dim - 1)
    assert packed_cyclic_table(alg) is table


@pytest.mark.parametrize("text, closures", [
    ("field 2 / vars x y / rel x^3 / rel y^3", 6),
    (TRIPLE, 19),
])
def test_cover_of_m_closes_each_cyclic_module_once(text, closures):
    # R(v + m) = Rv for m in Mv, so one closure fills the coset v + Mv
    alg = build(text)
    calls = []

    def counting(alg, rows, seeds):
        calls.append(seeds)
        return packed_closure(alg, rows, seeds)

    with mock.patch.object(ideals, "packed_closure", counting):
        reference_kernels.packed_first_cover(alg, maximal_ideal(alg).space.basis)
    table = packed_cyclic_table(alg)
    assert len(calls) == len(set(table.values()) - {()}) == closures
    for vec, rows in table.items():
        z = alg.element(gf.unpack_vec(vec, alg.dim))
        assert rows == cyclic(alg, z).space.basis


def test_packed_cyclic_table_refuses_vectors_outside_m(pair_n3):
    table = packed_cyclic_table(pair_n3)
    for vec in (1, 0b11, 1 << pair_n3.dim, -2):
        with pytest.raises(KeyError):
            table[vec]
        assert vec not in table


def test_packed_cyclic_table_guard():
    wide = build("field 2 / vars x / truncate 23")  # dim M = 22
    with pytest.raises(InfeasibleSizeError, match="infeasible"):
        packed_cyclic_table(wide)
    assert not hasattr(wide, "_cyclic_table")


def test_cyclic_table_and_cover_refuse_odd_p():
    # a typed refusal before any work, not an assertion or a KeyError
    alg = build("field 3 / vars x y / rel x^2 / rel y^2 / rel x*y")
    with pytest.raises(InfeasibleSizeError, match=r"GF\(2\) only, not GF\(3\)"):
        packed_cyclic_table(alg)
    with pytest.raises(InfeasibleSizeError, match=r"GF\(2\) only, not GF\(3\)"):
        reference_kernels.packed_first_cover(alg, maximal_ideal(alg).space.basis)
    assert not hasattr(alg, "_cyclic_table")


def test_packed_cyclic_table_refusal_is_the_oracle_refusal():
    # one typed refusal for every size limit, caught under either name
    assert oracle.InfeasibleSizeError is InfeasibleSizeError
    wide = build("field 2 / vars x / truncate 22")  # dim M = 21
    with pytest.raises(oracle.InfeasibleSizeError, match="dim M = 21"):
        packed_cyclic_table(wide)


# ---------------------------------------------------------------------------
# packed socle, kept as a reference in reference_kernels


@pytest.mark.parametrize("text", [PAIR_N3, TRIPLE, AXIS_SOCLE, SQUARE_ZERO_N3])
def test_packed_socle_is_the_socle_of_the_quotient(text):
    # by the definition: every v in M off the pivots of I whose images
    # under the generators all lie in I
    alg = build(text)
    actions = alg.action_masks()
    for e in oracle.enumerate_ideals(alg).entries[:-1]:
        pivots = {r & -r for r in e.key}
        free = [1 << k for k in range(1, alg.dim) if 1 << k not in pivots]
        kept = []
        for combo in range(1, 1 << len(free)):
            v = sum(bit for b, bit in enumerate(free) if combo >> b & 1)
            if not any(gf.gf2_reduce(gf.gf2_apply(m, v), e.ideal.space.echelon)
                       for m in actions):
                kept.append(v)
        assert reference_kernels.packed_socle(alg, e.key) == gf.packed_field(2).rref(kept)
    # and the socle of R itself as the intersection of M with the left
    # kernels of the generators' multiplication matrices, rows e_k * g
    soc = maximal_ideal(alg).space
    for g in alg.gens:
        rows = [reference_kernels.product(alg, alg.basis_element(k).coeffs, g.coeffs)
                for k in range(alg.dim)]
        kernel = gf.left_kernel(2, alg.dim, [gf.pack_vec(r) for r in rows])
        soc = gf.subspace_intersect(soc, kernel)
    assert reference_kernels.packed_socle(alg, ()) == list(soc.basis)


@pytest.mark.parametrize("text", [
    "field 3 / vars x y / rel x^2 / rel y^3 / rel x*y^2",
    "field 3 / vars x y / rel x^2 / rel y^2",
    "field 5 / vars x y / rel x^3 / rel y^3 / rel x*y",
])
def test_packed_socle_over_odd_primes(text):
    # the same definition over GF(p): every v in M off the pivots of I,
    # enumerated coordinate by coordinate, whose images all lie in I
    alg = build(text)
    f = alg.field
    for gens in ([], ["x"], ["y^2"], ["x + y"]):
        i = ideal_from_generators(alg, [parse_element(alg, g) for g in gens])
        free = [k for k in range(1, alg.dim) if k not in i.space.pivots]
        kept = []
        for digits in range(alg.p ** len(free)):
            v = 0
            for k in free:
                digits, c = divmod(digits, alg.p)
                v |= c << k * f.w
            if not any(f.reduce(f.apply(m, v), i.space.echelon) for m in alg.action_masks()):
                kept.append(v)
        assert reference_kernels.packed_socle(alg, i.space.basis) == f.rref(kept)

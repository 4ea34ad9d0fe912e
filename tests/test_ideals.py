"""Ideals as closed subspaces: closure, cyclic modules, M times an ideal,
generator counts, quotients, and the packed caches."""

import importlib
import pkgutil
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import cyclicideals
from cyclicideals import (Element, Ideal, MDecomposition, build_algebra, cyclic,
                          ideal_from_generators, is_simple, maximal_ideal,
                          min_generators, module_times_ideal, parse_element,
                          unit_ideal, zero_ideal)
from cyclicideals import gf, ideals
from cyclicideals import oracle
from cyclicideals.ideals import InfeasibleSizeError, packed_closure, packed_cyclic_table
from cyclicideals.rings import RingPresentation, mono_divides
import reference_kernels
from conftest import (AXIS_SOCLE, CHAIN5, PAIR_N3, SQUARE_ZERO_N2,
                      SQUARE_ZERO_N3, TRIPLE, QuotientAlgebra, build,
                      maximal_ideal_elements, presentations,
                      reference_annihilator)


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


@pytest.mark.parametrize("p", [2, 3])
def test_the_unit_ideal_is_the_closure_of_1_unchecked(p):
    # the whole space is an ideal, so R is not re-checked
    alg = build_algebra(RingPresentation.make(p, ("x", "y"), [(3, 0), (1, 1), (0, 4)]))
    with mock.patch.object(Ideal, "_check_closed",
                           side_effect=AssertionError("closure re-checked")):
        r = unit_ideal(alg)
    assert r.space.basis == tuple(packed_closure(alg, (), [alg.unit().vec]))
    assert Ideal(alg, r.space) == r and r.dim == alg.dim


def test_multiples_are_the_standard_monomials_divisible_by_one():
    for text in (PAIR_N3, TRIPLE, AXIS_SOCLE, "field 2 / vars x y z / rel x^2*y / rel y*z^2"
                 " / rel x*z / truncate 5"):
        alg = build(text)
        for ks in ([], [0], *([k] for k in range(alg.dim)), [1, alg.dim - 1], [2, 3, 2]):
            want = [j for j in range(alg.dim)
                    if any(mono_divides(alg.basis[k], alg.basis[j]) for k in ks)]
            assert alg.multiples(ks) == want, (text, ks)


@pytest.mark.parametrize("p", [5, 2 ** 31 - 1])
def test_a_monomial_with_a_unit_coefficient_generates_its_chain(p):
    alg = build_algebra(RingPresentation.make(p, ("x", "y"), [(1, 1)], truncate=6))
    three_x2 = parse_element(alg, "3*x^2")
    with mock.patch.object(ideals, "packed_closure",
                           side_effect=AssertionError("monomials eliminated")):
        chain = ideal_from_generators(alg, [three_x2, alg.zero()])
        assert cyclic(alg, three_x2) == chain
    assert [alg.el_str(r) for r in chain.space.basis] == ["x^2", "x^3", "x^4", "x^5"]


def test_monomial_generators_close_as_packed_closure():
    """Generators c * m_k, c a unit, close off the successor maps to the
    rows of the elimination; a set with a row of two nonzero fields
    goes to packed_closure, as does a zero generator beside it.  Rows
    are compared with packed_closure and the tuple reference."""
    seen = Counter()

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(presentations(primes=(2, 3, 5, 2 ** 31 - 1)), st.data())
    def check(pres, data):
        alg = build_algebra(pres)
        assume(3 <= alg.dim <= 40)
        f, p = alg.field, alg.p
        index = st.integers(1, alg.dim - 1)
        unit = st.integers(1, p - 1)
        terms = data.draw(st.lists(st.tuples(index, unit), max_size=4))
        gens = [Element.packed(alg, f.addmul(0, c, 1 << k * f.w)) for k, c in terms]
        if data.draw(st.booleans()):
            gens.insert(data.draw(st.integers(0, len(gens))), alg.zero())
        mixed = data.draw(st.booleans())
        if mixed:
            a, b = data.draw(st.lists(index, min_size=2, max_size=2, unique=True))
            two = f.addmul(f.addmul(0, data.draw(unit), 1 << a * f.w), data.draw(unit),
                           1 << b * f.w)
            gens.insert(data.draw(st.integers(0, len(gens))), Element.packed(alg, two))
        with mock.patch.object(ideals, "packed_closure",
                               wraps=ideals.packed_closure) as closures:
            got = ideal_from_generators(alg, gens)
        assert closures.called == mixed
        seeds = [g.vec for g in gens]
        assert got.space.basis == tuple(packed_closure(alg, (), seeds))
        want = reference_kernels.closure(alg, [f.unpack(v, alg.dim) for v in seeds])
        assert got.rows == want
        seen[p] += 1
        seen["mixed" if mixed else "monomial"] += 1
        seen["zero"] += any(g.is_zero() for g in gens)
        seen["coefficient"] += any(c > 1 for _, c in terms)

    check()
    assert min(seen[k] for k in (2, 3, 5, 2 ** 31 - 1, "mixed", "monomial", "zero",
                                 "coefficient")) >= 20, seen


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


def test_ideals_are_ordered_by_inclusion(pair_n3):
    rx, ry = cyclic(pair_n3, pair_n3.gens[0]), cyclic(pair_n3, pair_n3.gens[1])
    m = maximal_ideal(pair_n3)
    assert rx <= m and not m <= rx
    assert not rx <= ry and not ry <= rx
    assert zero_ideal(pair_n3) <= rx <= rx


def test_no_ideal_arithmetic_is_left_in_the_package():
    # no decision procedure, command or benchmark reached these, so the
    # package offers none of them; the tests read annihilators and
    # kernels off tests/reference_kernels.py
    gone = {"ideal_sum", "ideal_product", "ideal_intersect", "annihilator", "left_kernel"}
    modules = [cyclicideals] + [importlib.import_module(f"cyclicideals.{m.name}")
                                for m in pkgutil.iter_modules(cyclicideals.__path__)]
    assert len(modules) == 9
    for mod in modules:
        assert not gone & (set(vars(mod)) | set(getattr(mod, "__all__", ()))), mod.__name__
    for cls, names in ((Ideal, ("__add__", "__mul__", "__and__")),
                       (Element, ("is_unit",)), (MDecomposition, ("summand_count",))):
        assert not any(hasattr(cls, n) for n in names), cls


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
    # the tuple products; each prime gets its own run, so each gets its
    # floor of rings
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
            primes[p] += 1

        check()
    assert min(primes[p] for p in (2, 3, 5)) >= 20, primes


def test_packed_closure_matches_the_tuple_closure():
    """packed_closure queues only the nonzero products, and its rows are
    those of the tuple loop, which queues every product.  The seeds are
    random elements of M, socle monomials (every image of which
    vanishes), a zero seed, or none at all; half the time the closure
    starts from the rows of a cyclic ideal.  No zero row reaches
    field.insert."""
    seen = Counter()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(presentations(), st.sampled_from((2, 3, 5)), st.data())
    def check(pres, p, data):
        alg = build_algebra(RingPresentation.make(p, pres.vars, pres.relations,
                                                  pres.truncate))
        assume(alg.dim <= 40)
        f = alg.field
        socle = [k for k in range(1, alg.dim) if all(step[k] < 0 for step in alg.succ)]
        drawn = maximal_ideal_elements(alg, data, data.draw(st.integers(0, 2)))
        socle_seeds = [f.addmul(0, data.draw(st.integers(1, p - 1)), 1 << k * f.w)
                       for k in data.draw(st.lists(st.sampled_from(socle), max_size=2))]
        seeds = [z.vec for z in drawn] + socle_seeds
        if data.draw(st.booleans()):
            seeds.insert(data.draw(st.integers(0, len(seeds))), 0)
        start = ()
        if data.draw(st.booleans()):
            start = cyclic(alg, maximal_ideal_elements(alg, data, 1)[0]).space.basis
        inserted, insert = [], f.insert

        def spy(e, v):
            inserted.append(v)
            return insert(e, v)

        with mock.patch.object(f, "insert", spy):
            rows = packed_closure(alg, start, seeds)
        assert all(inserted)
        want = reference_kernels.closure(alg, [f.unpack(r, alg.dim) for r in (*start, *seeds)])
        assert tuple(f.unpack(r, alg.dim) for r in rows) == want
        seen[p] += 1
        seen["empty"] += not seeds
        seen["zero"] += 0 in seeds
        seen["socle"] += bool(socle_seeds) and not drawn
        seen["start"] += bool(start)

    check()
    assert min(seen[k] for k in (2, 3, 5, "empty", "zero", "socle", "start")) >= 20, seen


def test_killed_by_m_is_m_times_i_vanishing():
    # the early-exit test against the eliminated M*i, on a drawn ideal and
    # on every M^k i below it: M kills the last nonzero one, and only the
    # nonzero ones are counted
    seen = Counter()
    for p in (2, 3, 5):

        @settings(derandomize=True, max_examples=60, deadline=None)
        @given(presentations(), st.data())
        def check(pres, data):
            alg = build_algebra(RingPresentation.make(p, pres.vars, pres.relations,
                                                      pres.truncate))
            assume(alg.dim <= 40)
            gens = maximal_ideal_elements(alg, data, data.draw(st.integers(1, 3)))
            i = ideal_from_generators(alg, gens)
            while not i.is_zero():
                mi = module_times_ideal(alg, i)
                assert ideals.killed_by_m(alg, i) == (mi.dim == 0)
                seen[p, mi.dim == 0] += 1
                i = mi
            assert ideals.killed_by_m(alg, i)

        check()
    assert len(seen) == 6 and min(seen.values()) >= 5, seen


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


def _sparse_element(alg, rng):
    """A scalar times a basis element of M, plus another such term half
    the time: sparse generators keep both outcomes of directness common."""
    coeffs = [0] * alg.dim
    for _ in range(rng.choice((1, 2))):
        coeffs[rng.randrange(1, alg.dim)] = rng.randrange(1, alg.p)
    return Element(alg, coeffs)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_direct_onto_agrees_with_the_direct_sum(p):
    """direct_onto(gens, i) says exactly that the closures of gens sum
    directly to i: on random generator sets, against their own sum (where
    only directness is in question) and against a random ideal."""
    rng = random.Random(p)
    seen = Counter()
    for text in ("field {} / vars x y / rel x^3 / rel y^4 / rel x*y",
                 "field {} / vars x y / truncate 4",
                 "field {} / vars x y w / rel x^3 / rel y^2 / rel x*y / rel w^2"
                 " / rel x*w / rel y*w"):
        alg = build(text.format(p))
        for _ in range(60):
            gens = [_sparse_element(alg, rng) for _ in range(rng.randint(1, 3))]
            others = [_sparse_element(alg, rng) for _ in range(rng.randint(0, 2))]
            i = ideal_from_generators(alg, gens if rng.random() < 0.6 else others)
            direct = gf.direct_sum(p, alg.dim, [cyclic(alg, g).space for g in gens]) == i.space
            assert ideals.direct_onto(alg, gens, i) == direct, (text, gens, i)
            seen[direct] += 1
    assert seen[True] >= 20 and seen[False] >= 20, seen


# ---------------------------------------------------------------------------
# quotient algebras


def test_quotient_dims_and_pir(pair_n3):
    x, y = pair_n3.gens
    q = QuotientAlgebra(pair_n3, reference_annihilator(pair_n3, x))
    assert q.dim == 2  # classes of 1 and x
    assert min_generators(q, maximal_ideal(q)) == 1

    q2 = QuotientAlgebra(pair_n3, reference_annihilator(pair_n3, x + y))
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
        kernel = reference_kernels.left_kernel(rows, alg.dim, 2)
        soc = gf.subspace_intersect(soc, gf.Subspace.span(2, alg.dim, kernel))
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

"""Acceptance gate: eight binding criteria, one test (one report line) each.

Run `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  Tolerances are zero throughout (exact algebra over GF(p));
the only numeric slack is the wall-clock budget each criterion carries.
"""

import random
import time
from functools import lru_cache
from itertools import product

from cyclicideals import (brute_decompose, build_algebra, classify_dsc,
                          complete_census, cyclic, decompose_ideal,
                          enumerate_ideals, find_m_decomposition, gf,
                          ideal_from_generators, length_invariance,
                          maximal_ideal, min_generators,
                          oracle_dsc, spec_classify, verify_decomposition)
from cyclicideals.corpus import CASES, load_case, sweep_presentations
import reference_kernels
from reference_kernels import is_principal_ideal_ring, power_form
from conftest import (AXIS_SOCLE, PAIR_N3, POWER_SERIES, SQUARE_ZERO_N2,
                      TRIPLE, TWO_AXES, QuotientAlgebra, build, build_pres,
                      reference_annihilator)


def test_criterion_1_worked_example_exact_values():
    t0 = time.perf_counter()
    alg = build(PAIR_N3)  # GF(2)[x,y]/(x^3, y^3, x*y)
    assert alg.dim == 5

    verdict = classify_dsc(alg)
    assert verdict.answer == "yes"
    assert verdict.witness is not None
    assert len(verdict.witness.summands()) == 2

    x, y = alg.gens
    ann = reference_annihilator(alg, x + y)
    assert ann == ideal_from_generators(alg, [x ** 2, y ** 2])

    bar = QuotientAlgebra(alg, ann)
    assert min_generators(bar, maximal_ideal(bar)) == 2
    assert not is_principal_ideal_ring(bar)

    split = decompose_ideal(alg, verdict.witness, cyclic(alg, x + y))
    assert split.length == 1
    assert verify_decomposition(alg, cyclic(alg, x + y), split)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_three_axis_ring_refuted():
    t0 = time.perf_counter()
    alg = build(TRIPLE)  # GF(2)[x1,x2,x3]/(xi^3, xi*xj)
    assert alg.dim == 7

    x1, x2, x3 = alg.gens
    locked = ideal_from_generators(alg, [x1 + x2, x1 + x3])
    assert brute_decompose(alg, locked) is None

    verdict = classify_dsc(alg)
    assert verdict.answer == "no"
    assert verdict.counterexample == locked
    assert oracle_dsc(alg).answer == "no"
    assert time.perf_counter() - t0 < 30.0


def test_criterion_3_spectra_of_the_model_rings():
    expected = [
        (POWER_SERIES, "b", {"(0)", "M"}, 1),      # truncated power series
        (AXIS_SOCLE, "c", {"M", "Ry"}, 1),         # chain axis + square-zero y
        (TWO_AXES, "e", {"M", "Rx", "Ry"}, 1),     # two non-nilpotent axes
        (SQUARE_ZERO_N2, "a", {"M"}, 0),           # all products vanish
        (PAIR_N3, "a", {"M"}, 0),                  # the worked example again
    ]
    for text, case, primes, krull in expected:
        pres, alg = build_pres(text)
        report = spec_classify(pres, find_m_decomposition(alg))
        assert report.case == case, text
        assert set(report.primes) == primes, text
        assert len(report.primes) == len(primes), text
        assert report.krull_dim == krull, text


@lru_cache(maxsize=1)
def _sweep_family():
    return [(label, build_algebra(pres))
            for label, pres in sweep_presentations(max_vars=3, exponents=(2, 3),
                                                   max_mdim=8)]


def test_criterion_4_classifier_matches_oracle_everywhere():
    t0 = time.perf_counter()
    family = _sweep_family()
    assert len(family) == 49
    verified_ideals = 0
    for label, alg in family:
        verdict = classify_dsc(alg)
        truth = oracle_dsc(alg)
        assert verdict.answer == truth.answer, label
        assert verdict.answer in ("yes", "no"), label
        if verdict.answer != "yes":
            continue
        bound = len(verdict.witness.summands())
        for entry in enumerate_ideals(alg).entries:
            if entry.ideal.dim == alg.dim:
                continue
            split = decompose_ideal(alg, verdict.witness, entry.ideal)
            assert verify_decomposition(alg, entry.ideal, split), label
            assert split.length <= bound, label
            verified_ideals += 1
    assert verified_ideals == 274
    assert time.perf_counter() - t0 < 600.0


def test_criterion_5_decomposition_length_is_invariant():
    for label, alg in _sweep_family():
        census = complete_census(enumerate_ideals(alg))
        assert length_invariance(census), label
        for entry in census.entries:
            assert entry.lengths is not None and len(entry.lengths) <= 1, label


def test_criterion_6_every_element_of_a_chain_axis_is_unit_times_power():
    checked = 0
    for text in ("field 2 / vars x / rel x^5", PAIR_N3):
        alg = build(text)
        x = alg.gens[0]
        axis = cyclic(alg, x)
        for combo in product(range(alg.p), repeat=axis.dim):
            if not any(combo):
                continue
            coeffs = [0] * alg.dim
            for c, row in zip(combo, axis.rows):
                if c:
                    coeffs = [a + c * b for a, b in zip(coeffs, row)]
            z = alg.element(coeffs)
            a, n = power_form(alg, x, z)
            assert a.vec & alg.field.one and n >= 1  # a is a unit
            assert a * x ** n == z
            checked += 1
    assert checked == 15 + 3  # nonzero vectors of the two axes


def _brute_principal(alg, i) -> bool:
    for combo in product(range(alg.p), repeat=i.dim):
        coeffs = [0] * alg.dim
        for c, row in zip(combo, i.rows):
            if c:
                coeffs = [a + c * b for a, b in zip(coeffs, row)]
        if cyclic(alg, alg.element(coeffs)) == i:
            return True
    return i.dim == 0


def test_criterion_7_principality_is_a_ring_level_property():
    pir_keys = set()
    for case in CASES:
        _, alg = load_case(case.key)
        census = enumerate_ideals(alg, max_dim=10)
        all_principal = all(_brute_principal(alg, e.ideal) for e in census.entries)
        m_principal = _brute_principal(alg, maximal_ideal(alg))
        assert all_principal == m_principal == is_principal_ideal_ring(alg), case.key
        if all_principal:
            pir_keys.add(case.key)
    assert pir_keys == {"power-series"}  # both sides of the equivalence occur


def test_criterion_8_kernel_laws_hold_on_random_instances():
    instances = 0
    for p in (2, 3):
        rng = random.Random(97 * p)
        for _ in range(5200):
            ncols = rng.randrange(1, 7)
            rows = [[rng.randrange(p) for _ in range(ncols)]
                    for _ in range(rng.randrange(0, 6))]
            canon = gf.rref_rows(rows, p, ncols)
            assert gf.rref_rows(canon, p, ncols) == canon
            # rank-nullity: the packed rank against the tuple null space
            assert len(canon) + len(reference_kernels.kernel(rows, ncols, p)) == ncols

            a = gf.Subspace.span(p, ncols, [r for r in rows if rng.random() < 0.5])
            b = gf.Subspace.span(p, ncols,
                                 [[rng.randrange(p) for _ in range(ncols)]
                                  for _ in range(rng.randrange(0, 4))])
            meet = gf.subspace_intersect(a, b)
            join = gf.Subspace.span(p, ncols, a.rows + b.rows)
            assert join.dim + meet.dim == a.dim + b.dim
            instances += 1
    assert instances >= 10 ** 4

"""Brute-force ground truth: censuses, exhaustive decompositions, lengths.

The frozen census counts below were derived by hand before the census
code existed, by listing ideals per dimension.  Worked example for
GF(2)[x,y]/(x^3, y^3, x*y), where M = Rx + Ry and soc = {x^2, y^2}:

    dim 0: (0)                                                   -> 1
    dim 1: the three lines of soc                                -> 3
    dim 2: Rx, Ry, R(x+y^2), R(y+x^2), soc                       -> 5
    dim 3: R(x+y), Rx + Ry^2, Ry + Rx^2                          -> 3
    dim 4: M                                                     -> 1
    dim 5: R                                                     -> 1
                                                          total     14

The other counts follow the same bookkeeping; the square-zero rings are
the easy sanity anchors (every subspace of M is an ideal there, so the
count is the Gaussian subspace count plus one for R).
"""

import pytest

from cyclicideals import (InfeasibleSizeError, brute_decompose,
                          classify_dsc, complete_census, cyclic,
                          decomposition_lengths, enumerate_ideals,
                          enumerate_ideals_subsets, find_m_decomposition,
                          ideal_from_generators, is_simple, length_invariance,
                          module_times_ideal, oracle_dsc,
                          three_summand_counterexample, unit_ideal, zero_ideal)
from conftest import (AXIS_SOCLE, GF3_UNDECIDED, PAIR_N3, PAIR_N4,
                      POWER_SERIES, SQUARE_ZERO_N2, SQUARE_ZERO_N3, TRIPLE,
                      TWO_AXES, build)

FROZEN_COUNTS = [
    (PAIR_N3, 14),
    (PAIR_N4, 26),
    (TRIPLE, 80),
    (POWER_SERIES, 7),
    (SQUARE_ZERO_N2, 6),
    (SQUARE_ZERO_N3, 17),
    (AXIS_SOCLE, 18),
]


@pytest.mark.parametrize("text,count", FROZEN_COUNTS)
def test_census_counts(text, count):
    assert enumerate_ideals(build(text)).count == count


def test_census_order_and_extremes(pair_n3):
    census = enumerate_ideals(pair_n3)
    dims = [e.ideal.dim for e in census.entries]
    assert dims == sorted(dims)
    assert census.entries[0].ideal.is_zero()
    assert census.entries[-1].ideal == unit_ideal(pair_n3)
    assert len({e.key for e in census.entries}) == census.count


def test_census_entries_are_ideals(pair_n3):
    for e in enumerate_ideals(pair_n3).entries:
        assert module_times_ideal(pair_n3, e.ideal) <= e.ideal


@pytest.mark.parametrize("text", [PAIR_N3, SQUARE_ZERO_N2, SQUARE_ZERO_N3])
def test_subset_enumeration_agrees(text):
    # independent route: filter all subspaces of M for closure
    alg = build(text)
    census = enumerate_ideals(alg)
    assert set(enumerate_ideals_subsets(alg)) == {e.key for e in census.entries}


def test_subset_enumeration_needs_tiny_m(chain4):
    alg = build(TRIPLE)  # dim M = 6
    with pytest.raises(InfeasibleSizeError, match="dim M"):
        enumerate_ideals_subsets(alg)
    assert len(enumerate_ideals_subsets(chain4)) == 5


# ---------------------------------------------------------------------------
# exhaustive decomposition


def test_brute_decomposes_maximal_ideal(pair_n3):
    m = ideal_from_generators(pair_n3, list(pair_n3.gens))
    dec = brute_decompose(pair_n3, m)
    assert dec is not None and dec.length == 2
    assert dec.trace.branch == "exhaustive"
    from cyclicideals import verify_decomposition
    assert verify_decomposition(pair_n3, m, dec)


def test_brute_finds_nothing_for_locked_ideal():
    alg = build(TRIPLE)
    x1, x2, x3 = alg.gens
    j = ideal_from_generators(alg, [x1 + x2, x1 + x3])
    assert j.dim == 5
    assert brute_decompose(alg, j) is None
    assert decomposition_lengths(alg, j) == ()


def test_brute_whole_ring_and_zero(pair_n3):
    dec = brute_decompose(pair_n3, unit_ideal(pair_n3))
    assert dec.generators == (pair_n3.unit(),)
    assert decomposition_lengths(pair_n3, unit_ideal(pair_n3)) == (1,)
    assert decomposition_lengths(pair_n3, zero_ideal(pair_n3)) == (0,)


def test_lengths_by_hand(pair_n3):
    x, y = pair_n3.gens
    cases = [
        ([x], (1,)),
        ([x ** 2, y ** 2], (2,)),         # any two of the three socle lines
        ([x, y], (2,)),                   # never 1 (not cyclic), never 3+
        ([x + y], (1,)),                  # every regenerator keeps the x+y head
    ]
    for gens, want in cases:
        assert decomposition_lengths(pair_n3, ideal_from_generators(pair_n3, gens)) == want


def test_length_invariance_holds(pair_n3):
    census = enumerate_ideals(pair_n3)
    with pytest.raises(ValueError, match="census incomplete"):
        length_invariance(census)
    complete_census(census)
    assert length_invariance(census)
    assert all(e.decomposable for e in census.entries)
    assert max(max(e.lengths) for e in census.entries) == 2


def test_census_lengths_stay_under_witness_bound(pair_n3):
    bound = find_m_decomposition(pair_n3).summand_count()
    census = complete_census(enumerate_ideals(pair_n3))
    for e in census.entries:
        if e.ideal.dim < pair_n3.dim:
            assert all(n <= bound for n in e.lengths)


# ---------------------------------------------------------------------------
# verdicts


def test_oracle_yes(pair_n3):
    v = oracle_dsc(pair_n3)
    assert v.answer == "yes"
    assert v.notes == ("all 14 ideals decompose",)


def test_oracle_no_names_a_culprit():
    alg = build(TRIPLE)
    v = oracle_dsc(alg)
    assert v.answer == "no"
    assert v.counterexample is not None
    assert brute_decompose(alg, v.counterexample) is None
    assert "exhaustive search" in v.counterexample_note
    assert v.notes == ("census of 80 ideals",)


def test_oracle_and_classifier_agree_on_corpus_rings():
    for text in (PAIR_N3, PAIR_N4, POWER_SERIES, SQUARE_ZERO_N2, AXIS_SOCLE):
        alg = build(text)
        assert oracle_dsc(alg).answer == classify_dsc(alg).answer == "yes"
    alg = build(TRIPLE)
    assert oracle_dsc(alg).answer == classify_dsc(alg).answer == "no"


def test_oracle_refuses_odd_fields_and_big_rings():
    with pytest.raises(InfeasibleSizeError, match=r"GF\(3\)"):
        oracle_dsc(build(GF3_UNDECIDED))
    wide = build(TWO_AXES)  # dim M = 10
    with pytest.raises(InfeasibleSizeError):
        enumerate_ideals(wide)
    assert oracle_dsc(wide, max_dim=10).answer == "yes"


def test_cached_census_still_checks_the_bound():
    alg = build(TRIPLE)  # dim M = 6
    assert enumerate_ideals(alg, 8).count == 80
    with pytest.raises(InfeasibleSizeError, match="exceeds the oracle bound 5"):
        enumerate_ideals(alg, 5)
    assert enumerate_ideals(alg, 6) is alg._census


def test_oracle_stops_at_the_cyclic_table_limit():
    alg = build("field 2 / vars x y / rel x^2 / rel y^12")  # dim M = 23
    for run in (enumerate_ideals, oracle_dsc):
        with pytest.raises(InfeasibleSizeError, match="table limit 20"):
            run(alg, 25)
    assert getattr(alg, "_census", None) is None
    assert getattr(alg, "_cyclic_table", None) is None


# ---------------------------------------------------------------------------
# the three-summand obstruction


def test_counterexample_construction():
    alg = build(TRIPLE)
    x1, x2, x3 = alg.gens
    j = three_summand_counterexample(alg, x1, x2, x3)
    assert j == ideal_from_generators(alg, [x1 + x2, x1 + x3])
    assert brute_decompose(alg, j) is None


def test_counterexample_checks_hypotheses(pair_n3):
    alg = build(TRIPLE)
    x1, x2, x3 = alg.gens
    with pytest.raises(ValueError, match="non-simple"):
        three_summand_counterexample(alg, x1, x2, x3 ** 2)
    x, y = pair_n3.gens
    with pytest.raises(ValueError, match="not direct"):
        three_summand_counterexample(pair_n3, x, y, x + y)


def test_counterexample_with_rest_summand():
    # pad a triple ring with one extra simple axis
    alg = build("field 2 / vars x1 x2 x3 w / rel x1^3 / rel x2^3 / rel x3^3"
                " / rel x1*x2 / rel x1*x3 / rel x2*x3 / rel w^2"
                " / rel x1*w / rel x2*w / rel x3*w")
    x1, x2, x3, w = alg.gens
    j = three_summand_counterexample(alg, x1, x2, x3, rest=cyclic(alg, w))
    assert is_simple(alg, cyclic(alg, w))
    assert brute_decompose(alg, j) is None

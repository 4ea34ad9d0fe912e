"""Constructive ideal decomposition: one test per branch, exact traces."""

import pytest

import random

from cyclicideals import (CyclicDecomposition, Trace, WitnessInvalidError,
                          cyclic, decompose_ideal, find_m_decomposition, gf,
                          ideal_from_generators, minimal_exponent,
                          parse_element, semisimple_decompose, unit_ideal,
                          verify_decomposition, zero_ideal)
from cyclicideals.decompose import _first_outside
from conftest import AXIS_SOCLE, POWER_SERIES, build


def ideal_of(alg, *texts):
    return ideal_from_generators(alg, [parse_element(alg, t) for t in texts])


def split(alg, i):
    dec = find_m_decomposition(alg)
    out = decompose_ideal(alg, dec, i)
    assert verify_decomposition(alg, i, out)
    return out


# ---------------------------------------------------------------------------
# the five branches


def test_two_axes_full_maximal_ideal(pair_n3):
    out = split(pair_n3, ideal_of(pair_n3, "x", "y"))
    assert out.trace.branch == "two_axes"
    assert (out.trace.n0, out.trace.m0) == (1, 1)
    assert out.generators == pair_n3.gens
    assert out.trace.dims == (2, 2)
    assert out.simple_flags == (False, False)


def test_diagonal_single_generator(pair_n3):
    out = split(pair_n3, ideal_of(pair_n3, "x+y"))
    assert out.trace.branch == "diagonal"
    assert (out.trace.n0, out.trace.m0) == (2, 2)
    assert out.length == 1
    assert out.generators == (parse_element(pair_n3, "x+y"),)
    assert out.trace.dims == (3,)


def test_diagonal_mixed_exponents(pair_n3):
    # R(x + y^2): the y-exponent bottoms out only at y^3 = 0
    out = split(pair_n3, ideal_of(pair_n3, "x + y^2"))
    assert out.trace.branch == "diagonal"
    assert (out.trace.n0, out.trace.m0) == (2, 3)
    assert out.length == 1
    assert out.generators == (parse_element(pair_n3, "x + y^2"),)


def test_semisimple_socle(pair_n3):
    out = split(pair_n3, ideal_of(pair_n3, "x^2", "y^2"))
    assert out.trace.branch == "semisimple"
    assert out.length == 2
    assert out.simple_flags == (True, True)


def test_semisimple_wins_inside_socle(pair_n3):
    # in the socle but in neither axis nor the simple span: still lines
    out = split(pair_n3, ideal_of(pair_n3, "x^2 + y^2"))
    assert out.trace.branch == "semisimple"
    assert out.length == 1


def test_semisimple_zero_ideal(pair_n3):
    out = split(pair_n3, zero_ideal(pair_n3))
    assert out.trace.branch == "semisimple"
    assert out.length == 0
    assert out.generators == ()


def test_principal_chain(chain4):
    x = chain4.gens[0]
    out = split(chain4, cyclic(chain4, x ** 3))
    assert out.trace.branch == "principal"
    assert out.trace.axis == "x"
    assert out.trace.n0 == 3
    assert out.generators == (x ** 3,)
    assert out.simple_flags == (True,)


def test_principal_recovers_power_from_disguise(chain4):
    x = chain4.gens[0]
    out = split(chain4, cyclic(chain4, x ** 2 + x ** 3))  # unit * x^2
    assert out.trace.branch == "principal"
    assert out.trace.n0 == 2
    assert out.generators == (x ** 2,)


def test_axis_with_correction():
    alg = build(AXIS_SOCLE)
    out = split(alg, ideal_of(alg, "x + y"))
    assert out.trace.branch == "axis"
    assert out.trace.axis == "x"
    assert out.trace.n0 == 1
    assert out.trace.l0 == "y"
    assert out.length == 1
    assert out.trace.dims == (5,)
    assert out.trace.truncated and out.trace.trusted


def test_axis_without_correction():
    alg = build(AXIS_SOCLE)
    out = split(alg, ideal_of(alg, "x^2", "y"))
    assert out.trace.branch == "axis"
    assert (out.trace.n0, out.trace.l0) == (2, "0")
    assert out.trace.dims == (4, 1)
    assert out.simple_flags == (False, True)
    assert out.generators[1] == alg.var("y")


# ---------------------------------------------------------------------------
# truncation honesty


def test_trusted_below_horizon():
    alg = build(POWER_SERIES)  # degree-6 truncation, horizon 5
    x = alg.gens[0]
    out = split(alg, cyclic(alg, x ** 4))
    assert out.trace.truncated and out.trace.trusted
    assert out.trace.n0 == 4


def test_untrusted_at_horizon():
    alg = build(POWER_SERIES)
    x = alg.gens[0]
    out = split(alg, cyclic(alg, x ** 5))
    assert out.trace.truncated and not out.trace.trusted


def test_untruncated_always_trusted(pair_n3):
    out = split(pair_n3, ideal_of(pair_n3, "x+y"))
    assert not out.trace.truncated and out.trace.trusted


# ---------------------------------------------------------------------------
# minimal exponents


def test_minimal_exponent_with_witness():
    alg = build("field 2 / vars x w / rel x^3 / rel x*w / rel w^2")
    dec = find_m_decomposition(alg)
    assert dec.x == alg.var("x") and dec.simples == (alg.var("w"),)
    i = ideal_of(alg, "x^2 + w")
    n, l = minimal_exponent(alg, dec, i, "x")
    assert (n, l) == (2, alg.var("w"))
    n, l = minimal_exponent(alg, dec, ideal_of(alg, "x"), "x")
    assert n == 1 and l.is_zero()
    with pytest.raises(ValueError, match="no such exponent"):
        minimal_exponent(alg, dec, i, "y")  # the witness has no y slot


def test_minimal_exponent_vacuous_at_nilpotency(pair_n3):
    # y^3 = 0 lands in any ideal, so the exponent never fails to exist
    dec = find_m_decomposition(pair_n3)
    i = ideal_of(pair_n3, "x + y^2")
    assert minimal_exponent(pair_n3, dec, i, "x")[0] == 2
    n, l = minimal_exponent(pair_n3, dec, i, "y")
    assert n == 3 and l.is_zero()


# ---------------------------------------------------------------------------
# guard rails


def test_witness_must_verify(pair_n3):
    from cyclicideals import MDecomposition
    x, y = pair_n3.gens
    broken = MDecomposition(pair_n3, x + y, y, ())
    with pytest.raises(WitnessInvalidError):
        decompose_ideal(pair_n3, broken, cyclic(pair_n3, x))


def test_rejects_improper_and_foreign(pair_n3, chain4):
    dec = find_m_decomposition(pair_n3)
    with pytest.raises(ValueError, match="not proper"):
        decompose_ideal(pair_n3, dec, unit_ideal(pair_n3))
    with pytest.raises(ValueError, match="mixed"):
        decompose_ideal(pair_n3, dec, zero_ideal(chain4))


def test_semisimple_decompose_requires_killed(pair_n3):
    with pytest.raises(ValueError, match="not semisimple"):
        semisimple_decompose(pair_n3, cyclic(pair_n3, pair_n3.gens[0]))


def test_verify_decomposition_counts_dimensions(pair_n3):
    x, y = pair_n3.gens
    m = ideal_of(pair_n3, "x", "y")
    # {x+y, x} spans M but 3 + 2 > 4: not a direct sum
    bad = CyclicDecomposition(m, (x + y, x), (False, False), Trace(branch="two_axes"))
    assert not verify_decomposition(pair_n3, m, bad)
    # right generators, wrong flags
    mislabeled = CyclicDecomposition(m, (x, y), (True, False), Trace(branch="two_axes"))
    assert not verify_decomposition(pair_n3, m, mislabeled)


def _first_outside_by_sweep(alg, i, avoid):
    """Reference: walk every combination sum d_k rows[k] of i's basis in
    the order of its p-adic code sum d_k p^k."""
    p, rows = alg.p, i.rows
    for code in range(1, p ** len(rows)):
        v = [0] * alg.dim
        c = code
        for r in rows:
            d = c % p
            c //= p
            if d:
                v = [(a + d * b) % p for a, b in zip(v, r)]
        if not avoid.contains(v):
            return alg.element(v)
    return None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_first_outside_matches_element_sweep(p):
    alg = build(f"field {p} / vars x y / rel x^3 / rel y^2")  # dim M = 5
    rng = random.Random(700 + p)

    def vec():
        return [0] + [rng.randrange(p) for _ in range(alg.dim - 1)]

    for _ in range(40):
        i = ideal_from_generators(
            alg, [alg.element(vec()) for _ in range(rng.randrange(1, 3))])
        avoid = gf.Subspace.span(p, alg.dim, [vec() for _ in range(rng.randrange(0, 5))])
        for a in (avoid, gf.subspace_sum(avoid, i.space)):
            got = _first_outside(alg, i, a)
            want = _first_outside_by_sweep(alg, i, a)
            assert (got is None) == (want is None)
            assert got is None or got.coeffs == want.coeffs


def test_length_never_exceeds_witness_bound(pair_n3):
    dec = find_m_decomposition(pair_n3)
    bound = dec.summand_count()
    for gens in (["x"], ["x+y"], ["x^2", "y^2"], ["x", "y"], ["x^2"], ["y"]):
        out = split(pair_n3, ideal_of(pair_n3, *gens))
        assert out.length <= bound


def test_as_dict_trace_payload(pair_n3):
    out = split(pair_n3, ideal_of(pair_n3, "x+y"))
    d = out.as_dict()
    assert d["length"] == 1
    assert d["generators"] == ["x + y"]
    assert d["trace"]["branch"] == "diagonal"
    assert d["trace"]["dims"] == [3]

"""The package's records: what a fresh import loads, and the value
semantics each record class keeps (construction with its defaults,
equality, hashing and, where frozen, immutability)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclicideals import (CyclicDecomposition, DscVerdict, IdealCensus, MDecomposition,
                          SpecReport, Trace, enumerate_ideals, gf,
                          maximal_ideal)
from cyclicideals.corpus import CASES, CorpusCase
from cyclicideals.oracle import CensusEntry, Lattice
from cyclicideals.rings import RingPresentation
from conftest import PAIR_N3, build

SRC = Path(__file__).resolve().parent.parent / "src"

# the modules an import adds, so that what site loads does not count
IMPORT_PROBE = ("import sys\n"
                "before = set(sys.modules)\n"
                "import {}\n"
                "print(*sorted(set(sys.modules) - before))\n")


@pytest.mark.parametrize("module", ["cyclicideals", "cyclicideals.cli"])
def test_import_loads_no_dataclass_machinery(module):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(module)],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                         text=True, check=True, timeout=60)
    added = set(out.stdout.split())
    assert module in added
    assert not added & {"dataclasses", "inspect"}


def assert_frozen_record(positional, keyword, other, field):
    """Equal fields give == and equal hashes, other differs, and no
    field can be assigned."""
    assert positional == keyword and hash(positional) == hash(keyword)
    assert positional != other
    for record in (positional, other):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(other, field))
    assert positional == keyword


def test_subspace_is_a_frozen_value_keyed_by_p_ambient_and_basis():
    s = gf.Subspace(2, 3, [0b001, 0b110])
    assert isinstance(s.basis, tuple) and s.basis == (0b001, 0b110)
    assert_frozen_record(s, gf.Subspace(p=2, ambient=3, basis=(0b001, 0b110)),
                         gf.Subspace(2, 4, (0b001, 0b110)), "basis")
    assert s != gf.Subspace(3, 3, s.basis) and s != gf.Subspace(2, 3, (0b001,))
    # the cached views live beside the fields and leave equality alone
    assert s.rows == ((1, 0, 0), (0, 1, 1)) and s.echelon.rows == [0b001, 0b110]
    assert s == gf.Subspace(2, 3, s.basis)
    assert repr(s) == "Subspace(p=2, ambient=3, basis=(1, 6))"


def test_ring_presentation_is_a_frozen_value():
    pres = RingPresentation.make(2, ["x", "y"], [(3, 0), (0, 3), (1, 1)])
    keyword = RingPresentation(p=2, vars=("x", "y"), relations=((0, 3), (1, 1), (3, 0)),
                               truncate=None, nonnilpotent=(False, False))
    other = RingPresentation.make(2, ["x", "y"], [(1, 1)], truncate=4)
    assert_frozen_record(pres, keyword, other, "truncate")
    assert RingPresentation(2, ("x",), ((2,),), None, (False,)).truncate is None


def test_m_decomposition_is_a_frozen_value_with_cached_closures():
    alg = build(PAIR_N3)
    x, y = alg.gens
    dec = MDecomposition(alg, x, y, ())
    other = MDecomposition(alg, x, None, ())
    assert_frozen_record(dec, MDecomposition(algebra=alg, x=x, y=y, simples=()), other, "y")
    assert dec.rx.dim == dec.ry.dim == 2 and dec.problems == ()
    assert dec == MDecomposition(alg, x, y, ())
    assert MDecomposition(alg, x, y, ()) != MDecomposition(build(PAIR_N3), x, y, ())


def test_verdicts_reports_and_traces_are_frozen_values_with_defaults():
    assert DscVerdict("yes") == DscVerdict("yes", None, None, None, ())
    assert_frozen_record(DscVerdict("no", None, None, "note", ("a",)),
                         DscVerdict(answer="no", counterexample_note="note", notes=("a",)),
                         DscVerdict("yes"), "answer")
    assert_frozen_record(SpecReport("a", ("M",), 0, False),
                         SpecReport(case="a", primes=("M",), krull_dim=0,
                                    truncated_model=False),
                         SpecReport("b", ("(0)", "M"), 1, False), "case")
    assert Trace("two_axes") == Trace("two_axes", None, None, None, None, None, None,
                                      (), False, True)
    assert_frozen_record(Trace("axis", "x", 2, None, "0", None, None, (2, 1)),
                         Trace(branch="axis", axis="x", n0=2, l0="0", dims=(2, 1)),
                         Trace("axis", "y", 2), "axis")
    case = CASES[0]
    assert_frozen_record(case, CorpusCase(key=case.key, filename=case.filename, dsc=case.dsc,
                                          spec_case=case.spec_case, census=case.census),
                         CASES[1], "census")


def test_cyclic_decomposition_is_a_frozen_value():
    alg = build(PAIR_N3)
    x, y = alg.gens
    m = maximal_ideal(alg)
    trace = Trace("two_axes", n0=1, m0=1, dims=(2, 2))
    dec = CyclicDecomposition(m, (x, y), (False, False), trace)
    assert dec.length == 2
    assert_frozen_record(dec, CyclicDecomposition(ideal=m, generators=(x, y),
                                                  simple_flags=(False, False), trace=trace),
                         CyclicDecomposition(m, (y, x), (False, False), trace), "generators")


def test_census_containers_stay_mutable_and_compare_by_value():
    alg = build(PAIR_N3)
    census = enumerate_ideals(alg)
    entry = census.entries[1]
    assert entry.decomposable is None and entry.lengths is None
    twin = CensusEntry(ideal=entry.ideal, key=entry.key)
    assert entry == twin and entry == CensusEntry(entry.ideal, entry.key, None, None)
    # complete_census fills these two in
    twin.decomposable, twin.lengths = True, (1,)
    assert entry != twin and (twin.decomposable, twin.lengths) == (True, (1,))
    with pytest.raises(TypeError):
        hash(entry)

    lat = census.lattice
    fields = (lat.keys, lat.index, lat.mj, lat.cyclic, lat.gens, lat.below)
    assert Lattice(*fields) == lat == Lattice(
        keys=lat.keys, index=lat.index, mj=lat.mj, cyclic=lat.cyclic, gens=lat.gens,
        below=lat.below)
    assert Lattice(*fields[:3], lat.cyclic ^ 1, *fields[4:]) != lat

    # the lattice is the walk's record, not part of the census's value
    same = IdealCensus(alg, census.entries, Lattice(*fields[:3], 0, *fields[4:]))
    assert same == census and same.count == census.count == 14
    assert IdealCensus(algebra=alg, entries=census.entries[1:], lattice=lat) != census
    census.entries = census.entries[:1]
    assert census.count == 1 and same != census

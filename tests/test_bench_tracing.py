"""The traced benchmark pass finds the functions it wraps.

`bench/tracing.py` names package functions in SPANNED and COUNTED and
patches them by name, so a renamed or deleted function would break only
the traced benchmark run.  It imports the standard library alone, so it
is loaded here by path and checked against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import cyclicideals as ci

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def _traced_names():
    spanned = [f"{layer}.{f}" for layer, fs in tracing.SPANNED.items() for f in fs]
    return spanned + list(tracing.COUNTED)


def test_every_traced_name_resolves():
    missing = []
    for name in _traced_names():
        layer, attr = name.split(".", 1)
        owner = importlib.import_module(f"cyclicideals.{layer}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # Tracer.install reads functions off the module and methods off
        # the class dict
        found = vars(owner).get(leaf) if owner is not None else None
        if not callable(found):
            missing.append(name)
    assert not missing


def test_traced_census_searches_each_ideal_once():
    alg = ci.build_algebra(ci.parse_presentation(
        "field 2 / vars x y / rel x^3 / rel y^3 / rel x*y"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        census = ci.complete_census(ci.enumerate_ideals(alg))
        ci.oracle_dsc(alg)
        after_census = tracer.stats()
        for _ in range(2):
            for e in census.entries:
                ci.brute_decompose(alg, e.ideal)
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    # the census has 14 ideals, 13 of them proper: complete_census reads
    # each ideal's cover off the census lattice the algebra caches, with
    # one call of decomposition_lengths per ideal, oracle_dsc reads the
    # cached covers, and neither calls brute_decompose nor reads the
    # packed cyclic table
    assert after_census["oracle.brute_decompose.calls"] == 0
    assert after_census["oracle.complete_census.calls"] == 1
    assert after_census["oracle.decomposition_lengths.calls"] == 14
    assert after_census["oracle.oracle_dsc.calls"] == 1
    assert after_census["ideals.packed_cyclic_table.calls"] == 0
    # brute_decompose builds each proper ideal's decomposition on its
    # first call and reads it back on the second; R is not counted
    assert stats["oracle.brute_decompose.calls"] == 28
    assert stats["oracle.brute_decompose.misses"] == 13
    assert stats["oracle.brute_decompose.hits"] == 13
    # each reads its ideal's cover from the census's cache, no table
    assert stats["ideals.packed_cyclic_table.calls"] == 0

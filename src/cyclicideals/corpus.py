"""Bundled presentations with frozen expected behavior, plus a sweep
generator for the randomized cross-checks.

The census counts below were derived by hand (counting subspaces closed
under the action, or the ideal shapes the decomposition theory allows)
before the enumeration code existed; they pin the oracle, not the other
way round.
"""

from __future__ import annotations

import os
from itertools import combinations, product
from typing import NamedTuple, Optional

from .oracle import enumerate_ideals
from .rings import (MonomialAlgebra, RingPresentation, build_algebra, mono_str,
                    parse_presentation)
from .structure import classify_dsc, spec_classify


class CorpusCase(NamedTuple):
    key: str
    filename: str
    dsc: str
    spec_case: Optional[str]
    census: Optional[int]


CASES: tuple[CorpusCase, ...] = (
    CorpusCase("nilpotent-pair-n3", "nilpotent-pair-n3.ring", "yes", "a", 14),
    CorpusCase("nilpotent-pair-n4", "nilpotent-pair-n4.ring", "yes", "a", 26),
    CorpusCase("nilpotent-triple", "nilpotent-triple.ring", "no", None, 80),
    CorpusCase("power-series", "power-series.ring", "yes", "b", 7),
    CorpusCase("square-zero-n2", "square-zero-n2.ring", "yes", "a", 6),
    CorpusCase("square-zero-n3", "square-zero-n3.ring", "yes", "a", 17),
    CorpusCase("axis-with-socle", "axis-with-socle.ring", "yes", "c", 18),
    CorpusCase("two-axes", "two-axes.ring", "yes", "e", None),
)


def case_by_key(key: str) -> CorpusCase:
    for c in CASES:
        if c.key == key:
            return c
    raise KeyError(key)


def matching_cases(selectors=None) -> list[CorpusCase]:
    """Cases whose key contains any selector substring, sorted by key."""
    cases = sorted(CASES, key=lambda c: c.key)
    if not selectors:
        return cases
    picked = [c for c in cases if any(s in c.key for s in selectors)]
    if not picked:
        raise KeyError(f"no corpus case matches {list(selectors)!r}")
    return picked


def corpus_text(key: str) -> str:
    path = os.path.join(os.path.dirname(__file__), "corpus", case_by_key(key).filename)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_case(key: str) -> tuple[RingPresentation, MonomialAlgebra]:
    pres = parse_presentation(corpus_text(key))
    return pres, build_algebra(pres)


def run_case(key: str, max_pair_dim: int = 12, max_oracle_dim: int = 8,
             use_oracle: bool = True) -> dict:
    """Classify one bundled case and compare against its frozen row.

    With use_oracle=False only the constructive checks run, and the
    census column stays empty.  max_pair_dim and max_oracle_dim do
    nothing (the census is bounded by its budget of ideals);
    bench/workloads.py passes them until ROADMAP item 1 drops them.
    """
    case = case_by_key(key)
    pres, alg = load_case(key)
    verdict = classify_dsc(alg)
    got_dsc = verdict.as_dict()["dsc"]
    spec_case = None
    if verdict.witness is not None:
        spec_case = spec_classify(pres, verdict.witness).case
    census = None
    if use_oracle and case.census is not None:
        census = enumerate_ideals(alg).count
    ok = (got_dsc == case.dsc and spec_case == case.spec_case
          and (census is None or census == case.census))
    return {
        "key": key,
        "dsc": got_dsc,
        "expected_dsc": case.dsc,
        "spec_case": spec_case,
        "expected_spec_case": case.spec_case,
        "census": census,
        "expected_census": case.census,
        "unverified_by_oracle": not use_oracle,
        "ok": ok,
    }


def run_corpus(selectors=None, use_oracle: bool = True) -> list[dict]:
    return [run_case(c.key, use_oracle=use_oracle) for c in matching_cases(selectors)]


_SWEEP_VARS = ("x", "y", "z")


def sweep_presentations(max_vars: int = 3, exponents: tuple[int, ...] = (2, 3),
                        max_mdim: int = 8) -> list[tuple[str, RingPresentation]]:
    """Every GF(2) monomial quotient with one pure power per variable
    (exponent drawn from `exponents`) and any set of pairwise products,
    filtered to dim M <= max_mdim.  Deterministic order."""
    out = []
    for nv in range(1, max_vars + 1):
        names = _SWEEP_VARS[:nv]
        for exps in product(exponents, repeat=nv):
            pure = []
            for i, e in enumerate(exps):
                m = [0] * nv
                m[i] = e
                pure.append(tuple(m))
            pair_pool = list(combinations(range(nv), 2))
            for mask in range(1 << len(pair_pool)):
                rels = list(pure)
                for b, (i, j) in enumerate(pair_pool):
                    if mask >> b & 1:
                        m = [0] * nv
                        m[i] = m[j] = 1
                        rels.append(tuple(m))
                pres = RingPresentation.make(2, names, rels, None)
                alg = build_algebra(pres)
                if alg.dim - 1 > max_mdim:
                    continue
                rel_str = ",".join(mono_str(m, names) for m in rels)
                out.append((f"F2[{','.join(names)}]/({rel_str})", pres))
    return out


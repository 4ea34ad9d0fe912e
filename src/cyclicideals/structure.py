"""Witness decompositions of the maximal ideal and the dsc classification.

A local algebra has the "every ideal is a direct sum of cyclic modules"
property (dsc, in the verdicts below) exactly when its maximal ideal
splits as M = Rx + Ry + (sum of simple Rw) with the sum direct; at most
two summands may be non-simple, and then R/Ann(x) and R/Ann(y) are
principal ideal rings.  This module
searches for such witnesses, refutes when three non-simple cyclic
summands show up, and classifies the prime spectrum (at most three
primes, Krull dimension at most one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import gf
from .ideals import (CYCLIC_TABLE_MAX_DIM, Ideal, InfeasibleSizeError, annihilator,
                     cyclic, ideal_sum, is_simple, maximal_ideal, min_generators,
                     module_times_ideal, packed_cyclic_table, quotient_algebra,
                     zero_ideal)
from .rings import Algebra, Element, MonomialAlgebra, RingPresentation, _mult_matrix


class SearchSpaceExceededError(RuntimeError):
    """Witness search bounds prevent an exhaustive pair sweep."""


def is_principal_ideal_ring(alg: Algebra) -> bool:
    """True when the maximal ideal needs at most one generator.

    For these finite-dimensional local algebras that is equivalent to
    every ideal being principal.  On a truncated model the verdict
    refers to the truncation.
    """
    return min_generators(alg, maximal_ideal(alg)) <= 1


@dataclass(frozen=True)
class MDecomposition:
    """Witness M = Rx + Ry + sum of simple Rw, all summands independent."""

    algebra: Algebra
    x: Optional[Element]
    y: Optional[Element]
    simples: tuple[Element, ...]

    def summands(self) -> list[Element]:
        out = [g for g in (self.x, self.y) if g is not None]
        out.extend(self.simples)
        return out

    def summand_count(self) -> int:
        return len(self.summands())

    def simple_span(self) -> gf.Subspace:
        alg = self.algebra
        return gf.Subspace.span(alg.p, alg.dim, [w.coeffs for w in self.simples])

    def as_dict(self) -> dict:
        alg = self.algebra
        return {
            "x": None if self.x is None else str(self.x),
            "y": None if self.y is None else str(self.y),
            "simples": [str(w) for w in self.simples],
            "dims": {
                "x": None if self.x is None else cyclic(alg, self.x).dim,
                "y": None if self.y is None else cyclic(alg, self.y).dim,
                "simples": [1] * len(self.simples),
                "maximal_ideal": alg.dim - 1,
            },
        }


def m_decomposition_problems(dec: MDecomposition) -> list[str]:
    """Why the witness fails to verify; empty list means it holds."""
    alg = dec.algebra
    problems = []
    parts = dec.summands()
    if any(g.is_zero() for g in parts):
        problems.append("zero summand")
        return problems
    total = gf.direct_sum(alg.p, alg.dim, [cyclic(alg, g).space for g in parts])
    if total is None:
        # overlapping summands never fill M directly: both problems hold
        problems.append("summands are not independent")
    if total != maximal_ideal(alg).space:
        problems.append("summands do not fill the maximal ideal")
    if dec.x is not None and dec.y is not None:
        if not (dec.x * dec.y).is_zero():
            problems.append("x*y is nonzero")
    for w in dec.simples:
        if not is_simple(alg, cyclic(alg, w)):
            problems.append(f"summand {w} is not simple")
    for g in (dec.x, dec.y):
        if g is None:
            continue
        ann = annihilator(alg, g)
        if not is_principal_ideal_ring(quotient_algebra(alg, ann).target):
            problems.append(f"R/Ann({g}) is not a principal ideal ring")
    return problems


def verify_m_decomposition(dec: MDecomposition) -> bool:
    return not m_decomposition_problems(dec)


def canonical_variable_split(alg: Algebra) -> Optional[list[tuple[Element, Ideal]]]:
    """The variable grouping: M as the direct sum of the Rv over distinct
    variable images, or None when that sum is not direct or falls short."""
    parts: list[tuple[Element, Ideal]] = []
    seen = set()
    for g in alg.gens:
        if g.is_zero():
            continue
        c = cyclic(alg, g)
        if c.space in seen:
            continue
        seen.add(c.space)
        parts.append((g, c))
    total = gf.direct_sum(alg.p, alg.dim, [c.space for _, c in parts])
    if total is not None and total.dim == alg.dim - 1:
        return parts
    return None


def _normalized_witness(alg: Algebra, nonsimple: Sequence[Element],
                        simples: Sequence[Element]) -> MDecomposition:
    x = nonsimple[0] if len(nonsimple) > 0 else None
    y = nonsimple[1] if len(nonsimple) > 1 else None
    dec = MDecomposition(alg, x, y, tuple(simples))
    problems = m_decomposition_problems(dec)
    if problems:
        raise RuntimeError("internal contradiction: witness failed verification: "
                           + "; ".join(problems))
    return dec


def _socle_rows(alg: Algebra) -> list[int]:
    """Packed RREF of {v in M-span : g*v = 0 for every generator}."""
    soc = maximal_ideal(alg).space
    for g in alg.gens:
        soc = gf.subspace_intersect(soc, gf.left_kernel(_mult_matrix(alg, g)))
    return list(soc.basis)


def _packed_fallback(alg: Algebra) -> Optional[MDecomposition]:
    """Exhaustive GF(2) sweep over single generators and generator pairs.

    Complete at this size: if any witness exists, the sweep finds the
    first one in canonical vector order.  A found vector v is a simple
    summand exactly when dim Rv = 1: then g*v = c*v for each generator
    g, and g nilpotent forces c = 0.
    """
    mdim = alg.dim - 1
    table = packed_cyclic_table(alg)
    soc = _socle_rows(alg)

    def complete(rows: list[int], dim: int) -> Optional[list[int]]:
        # grow with socle vectors to fill M; the added rows are the
        # simple summands (each new row is independent of what stands)
        work = list(rows)
        added = []
        for r in soc:
            if gf.gf2_reduce(r, work):
                gf.gf2_insert(work, r)
                added.append(r)
        if dim + len(added) != mdim:
            return None
        return added

    vectors = [m << 1 for m in range(1, 1 << mdim)]

    def build(found: list[int], krows: list[int]) -> MDecomposition:
        nonsimple, simples = [], []
        for v in found:
            elt = alg.element(gf.unpack_vec(v, alg.dim))
            if len(table[v]) == 1:
                simples.append(elt)
            else:
                nonsimple.append(elt)
        simples.extend(alg.element(gf.unpack_vec(r, alg.dim)) for r in krows)
        return _normalized_witness(alg, nonsimple, simples)

    for v in vectors:
        rows = list(table[v])
        added = complete(rows, len(rows))
        if added is not None:
            return build([v], added)
    dims = {v: len(table[v]) for v in vectors}
    for i, v in enumerate(vectors):
        dv = dims[v]
        for w in vectors[i + 1:]:
            if dv + dims[w] > mdim:
                continue
            merged = list(table[v])
            if not all(gf.gf2_insert(merged, r) for r in table[w]):
                continue
            added = complete(merged, dv + dims[w])
            if added is not None:
                return build([v, w], added)
    return None


def find_m_decomposition(alg: Algebra, max_pair_dim: int = 12) -> Optional[MDecomposition]:
    """Search for a witness decomposition of the maximal ideal.

    Tries the canonical variable grouping first, then (GF(2), bounded
    dimension) the exhaustive element-pair sweep.  Returns None when no
    witness exists at this size; raises SearchSpaceExceededError when
    the bounds prevent the sweep from running at all.
    """
    return _witness_search(alg, canonical_variable_split(alg), max_pair_dim)


def _witness_search(alg: Algebra, split: Optional[list[tuple[Element, Ideal]]],
                    max_pair_dim: int) -> Optional[MDecomposition]:
    """find_m_decomposition given the result of canonical_variable_split."""
    if split is not None:
        nonsimple = [g for g, c in split if not is_simple(alg, c)]
        simple = [g for g, c in split if is_simple(alg, c)]
        if len(nonsimple) <= 2:
            return _normalized_witness(alg, nonsimple, simple)
        # three independent non-simple cyclic summands refute any witness
        return None
    msq = module_times_ideal(alg, maximal_ideal(alg))
    if msq.dim - module_times_ideal(alg, msq).dim >= 3:
        # under any witness M^2 = Rx^2 + Ry^2, so M^2 never needs three
        # generators; no witness can exist
        return None
    if alg.p != 2 or alg.dim - 1 > min(max_pair_dim, CYCLIC_TABLE_MAX_DIM):
        raise SearchSpaceExceededError("search space exceeded")
    return _packed_fallback(alg)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class DscVerdict:
    """Outcome of the direct-sum-of-cyclics decision for one ring."""

    answer: str  # "yes" | "no" | "undecided_by_search"
    witness: Optional[MDecomposition] = None
    counterexample: Optional[Ideal] = None
    counterexample_note: Optional[str] = None
    notes: tuple[str, ...] = ()
    factors: Optional[tuple["DscVerdict", ...]] = None

    def as_dict(self) -> dict:
        short = {"yes": "yes", "no": "no", "undecided_by_search": "undecided"}[self.answer]
        ce = None
        if self.counterexample is not None:
            ce = self.counterexample.as_dict()
            ce["proof"] = self.counterexample_note
        return {
            "dsc": short,
            "witness": None if self.witness is None else self.witness.as_dict(),
            "counterexample": ce,
            "notes": list(self.notes),
        }


def classify_dsc(alg: Algebra, max_pair_dim: int = 12, max_oracle_dim: int = 8) -> DscVerdict:
    """Decide whether every ideal of alg splits into cyclic summands.

    yes comes with a verified witness decomposition of M; no comes with
    a concrete non-decomposable ideal (from the three-summand
    construction, confirmed by the oracle when its bounds allow, or from
    the oracle sweep); anything else is undecided_by_search.
    """
    from . import oracle as oracle_mod

    notes: list[str] = []
    split = canonical_variable_split(alg)
    if split is not None:
        nonsimple = [(g, c) for g, c in split if not is_simple(alg, c)]
        if len(nonsimple) >= 3:
            (x, _), (y, _), (z, _) = nonsimple[:3]
            rest = zero_ideal(alg)
            for g, c in split:
                if g not in (x, y, z):
                    rest = ideal_sum(rest, c)
            j = oracle_mod.three_summand_counterexample(alg, x, y, z, rest)
            note = ("sum of three independent non-simple cyclic summands: "
                    f"R({x} + {y}) + R({x} + {z}) admits no direct-sum cover")
            try:
                if oracle_mod.brute_decompose(alg, j, max_oracle_dim) is not None:
                    raise RuntimeError("internal contradiction: refutation ideal decomposed")
                notes.append("counterexample confirmed by exhaustive search")
            except InfeasibleSizeError:
                notes.append("oracle confirmation skipped: infeasible size")
            return DscVerdict("no", None, j, note, tuple(notes))

    exceeded = False
    try:
        dec = _witness_search(alg, split, max_pair_dim)
    except SearchSpaceExceededError:
        dec = None
        exceeded = True
        notes.append(f"witness search space exceeded (p={alg.p}, dim M={alg.dim - 1})")
    if dec is not None:
        return DscVerdict("yes", dec, None, None, tuple(notes))

    try:
        verdict = oracle_mod.oracle_dsc(alg, max_oracle_dim)
    except InfeasibleSizeError:
        notes.append("oracle infeasible at this size")
        return DscVerdict("undecided_by_search", None, None, None, tuple(notes))
    if verdict.answer == "no":
        return DscVerdict("no", None, verdict.counterexample,
                          verdict.counterexample_note, tuple(notes) + verdict.notes)
    if not exceeded:
        raise RuntimeError("internal contradiction: every ideal decomposes "
                           "yet the complete witness search found nothing")
    notes.append("oracle accepts every ideal but no witness was constructed")
    return DscVerdict("undecided_by_search", None, None, None, tuple(notes))


def classify_product(verdicts: Sequence[DscVerdict]) -> DscVerdict:
    """Combine per-factor verdicts for a finite product of rings.

    The product has the property iff every factor does.  The empty
    product is the zero ring, which holds vacuously.
    """
    verdicts = tuple(verdicts)
    if not verdicts:
        return DscVerdict("yes", None, None, None,
                          ("empty product: zero ring, vacuously yes",), ())
    for k, v in enumerate(verdicts):
        # one refuted factor settles the product, undecided factors or not
        if v.answer == "no":
            return DscVerdict("no", None, v.counterexample, v.counterexample_note,
                              (f"factor {k + 1} fails",) + v.notes, verdicts)
    for v in verdicts:
        if v.answer == "undecided_by_search":
            raise ValueError("factor undecided")
    return DscVerdict("yes", None, None, None,
                      ("all factors hold",), verdicts)


# ---------------------------------------------------------------------------
# prime spectrum


@dataclass(frozen=True)
class SpecReport:
    """Symbolic prime spectrum read off a verified witness decomposition."""

    case: str  # "a" .. "e"
    primes: tuple[str, ...]
    krull_dim: int
    truncated_model: bool

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "primes": list(self.primes),
            "krull_dim": self.krull_dim,
            "truncated_model": self.truncated_model,
        }


def _support_vars(alg: MonomialAlgebra, z: Element) -> set[int]:
    out: set[int] = set()
    for idx, c in enumerate(z.coeffs):
        if c:
            out.update(v for v, e in enumerate(alg.basis[idx]) if e)
    return out


def _symbolic_nilpotent(pres: RingPresentation, alg: MonomialAlgebra, z: Element) -> bool:
    # read from the untruncated presentation: a combination is nilpotent
    # iff every variable it involves is
    return all(not pres.nonnilpotent[v] for v in _support_vars(alg, z))


def _render_prime(gens: Sequence[Element]) -> str:
    if not gens:
        return "(0)"
    parts = []
    for g in gens:
        s = str(g)
        if all(ch.isalnum() or ch in "_^" for ch in s):
            parts.append(f"R{s}")
        else:
            parts.append(f"R({s})")
    return " ⊕ ".join(parts)


def spec_classify(pres: RingPresentation, dec: MDecomposition) -> SpecReport:
    """Classify Spec(R) from a verified decomposition of the maximal ideal.

    The spectrum has at most three members: M itself, plus one prime per
    non-nilpotent cyclic summand (drop that summand, keep the rest).  On
    truncated models the report is a symbolic claim about the
    untruncated ring; nilpotency is read from the presentation.
    """
    alg = dec.algebra
    if not isinstance(alg, MonomialAlgebra) or alg.presentation != pres:
        raise ValueError("presentation does not match the decomposition")
    if not verify_m_decomposition(dec):
        raise ValueError("decomposition not verified")

    slots = [g for g in (dec.x, dec.y) if g is not None]
    summands = slots + list(dec.simples)
    non_nil = [g for g in summands if not _symbolic_nilpotent(pres, alg, g)]
    nil_part = [g for g in summands if _symbolic_nilpotent(pres, alg, g)]
    truncated = pres.truncate is not None

    if len(non_nil) > 2:
        raise ValueError("decomposition not verified: more than two "
                         "non-nilpotent summands")
    if not non_nil:
        report = SpecReport("a", ("M",), 0, truncated)
    elif len(summands) == 1:
        report = SpecReport("b", ("(0)", "M"), 1, truncated)
    elif len(non_nil) == 1:
        label = "d" if dec.y is not None and non_nil[0] == dec.y else "c"
        report = SpecReport(label, ("M", _render_prime(nil_part)), 1, truncated)
    else:
        p1 = _render_prime([non_nil[0]] + nil_part)
        p2 = _render_prime([non_nil[1]] + nil_part)
        report = SpecReport("e", ("M", p1, p2), 1, truncated)
    assert len(report.primes) <= 3 and report.krull_dim <= 1
    return report

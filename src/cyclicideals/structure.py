"""Witness decompositions of the maximal ideal and the dsc classification.

A local algebra has the "every ideal is a direct sum of cyclic modules"
property (dsc, in the verdicts below) exactly when its maximal ideal
splits as M = Rx + Ry + (sum of simple Rw) with the sum direct; at most
two summands may be non-simple, and then R/Ann(x) and R/Ann(y) are
principal ideal rings.  This module decides that from one direct cyclic
cover of M (m_cover): none refutes with M itself, at most two non-simple
summands make a witness, and three refute with R(x+y) + R(x+z).  It
imports nothing from the oracle.  It also classifies the prime spectrum
(at most three primes, Krull dimension at most one).

Two counts rule a cover out before any search, over every field
(m_count_failure).  If M = Rg_1 + ... + Rg_n is direct, g_j g_k lies in
Rg_j meet Rg_k = 0, so Mg_k = Rg_k^2: each Rg_k is a chain with one
socle line, and n = mu(M) by Nakayama, so dim soc(M) = mu(M).  And M^j
is the direct sum of the Rg_k^j, so mu(M^j) = #{k : g_k^j != 0}, which
never grows with j.  A count that fails refutes with M itself.

R/Ann(g) is a principal ideal ring exactly when M*Rg needs at most one
generator: a -> ag maps R/Ann(g) onto Rg as R-modules, its maximal ideal
onto M*Rg and that ideal's square onto M^2*Rg.  So the witness's own Rg
decides it, and no annihilator or quotient algebra is built.  In a
direct M = Rx + Ry + L that always holds: xy lies in Rx meet Ry = 0 and
Lx = 0, so M*Rx = Mx = Rx^2, which is cyclic.  So every cyclic cover of
M with at most two non-simple summands is a witness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional, Sequence

from . import gf
from .ideals import (CYCLIC_TABLE_MAX_DIM, Ideal, cyclic, ideal_from_generators,
                     is_simple, maximal_ideal, min_generators,
                     module_times_ideal, packed_first_cover, packed_socle,
                     zero_ideal)
from .rings import Algebra, Element, MonomialAlgebra, RingPresentation


class SearchSpaceExceededError(RuntimeError):
    """Witness search bounds prevent an exhaustive search for a cyclic
    cover of M."""


def is_principal_ideal_ring(alg: Algebra) -> bool:
    """True when the maximal ideal needs at most one generator.

    For these finite-dimensional local algebras that is equivalent to
    every ideal being principal.  On a truncated model the verdict
    refers to the truncation.
    """
    return min_generators(alg, maximal_ideal(alg)) <= 1


@dataclass(frozen=True)
class MDecomposition:
    """Witness M = Rx + Ry + L, L the span of the simple Rw, all summands
    independent.  Its closures rx, ry (zero for a missing axis) and
    simple_span are cached fields, built once."""

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

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """m_decomposition_problems of this witness, computed once."""
        return tuple(m_decomposition_problems(self))

    @cached_property
    def rx(self) -> Ideal:
        return zero_ideal(self.algebra) if self.x is None else cyclic(self.algebra, self.x)

    @cached_property
    def ry(self) -> Ideal:
        return zero_ideal(self.algebra) if self.y is None else cyclic(self.algebra, self.y)

    @cached_property
    def simple_span(self) -> gf.Subspace:
        alg = self.algebra
        return gf.Subspace(alg.p, alg.dim, alg.field.rref(w.vec for w in self.simples))

    def as_dict(self) -> dict:
        return {
            "x": None if self.x is None else str(self.x),
            "y": None if self.y is None else str(self.y),
            "simples": [str(w) for w in self.simples],
            "dims": {
                "x": None if self.x is None else self.rx.dim,
                "y": None if self.y is None else self.ry.dim,
                "simples": [1] * len(self.simples),
                "maximal_ideal": self.algebra.dim - 1,
            },
        }


def m_decomposition_problems(dec: MDecomposition) -> list[str]:
    """Why the witness fails to verify; empty list means it holds."""
    alg = dec.algebra
    problems = []
    if any(g.is_zero() for g in dec.summands()):
        problems.append("zero summand")
        return problems
    simples = [cyclic(alg, w) for w in dec.simples]
    total = gf.direct_sum(alg.p, alg.dim, [c.space for c in [dec.rx, dec.ry] + simples])
    if total is None:
        # overlapping summands never fill M directly: both problems hold
        problems.append("summands are not independent")
    if total != maximal_ideal(alg).space:
        problems.append("summands do not fill the maximal ideal")
    if dec.x is not None and dec.y is not None:
        if not (dec.x * dec.y).is_zero():
            problems.append("x*y is nonzero")
    for w, c in zip(dec.simples, simples):
        if not is_simple(alg, c):
            problems.append(f"summand {w} is not simple")
    for g, rg in ((dec.x, dec.rx), (dec.y, dec.ry)):
        # R/Ann(g) ~ Rg: its maximal ideal needs one generator iff M*Rg does
        if g is not None and min_generators(alg, module_times_ideal(alg, rg)) > 1:
            problems.append(f"R/Ann({g}) is not a principal ideal ring")
    return problems


def verify_m_decomposition(dec: MDecomposition) -> bool:
    return not dec.problems


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
    if dec.problems:
        raise RuntimeError("internal contradiction: witness failed verification: "
                           + "; ".join(dec.problems))
    return dec


def m_count_failure(alg: Algebra) -> tuple[Optional[str], list[int]]:
    """Check the two counts that every direct cyclic cover of M fixes
    (the module docstring proves them): dim soc(M) = mu(M), and mu(M^j)
    never grows with j.  Returns (the failed count as a proof note, or
    None; the mu(M^j) read so far, from j = 1).  The socle count is the
    cheaper one, so the chain of powers is walked only after it passes.
    """
    power = module_times_ideal(alg, maximal_ideal(alg))
    mus = [alg.dim - 1 - power.dim]
    soc = len(packed_socle(alg, ()))
    if soc != mus[0]:
        return (f"dim soc(M) = {soc} but mu(M) = {mus[0]}: a direct cover of M by "
                "cyclic modules has mu(M) summands, each a chain with one socle "
                "line"), mus
    while power.dim:
        lower = module_times_ideal(alg, power)
        mus.append(power.dim - lower.dim)
        if mus[-1] > mus[-2]:
            j = len(mus)
            before = "M" if j == 2 else f"M^{j - 1}"
            return (f"mu(M^{j}) = {mus[-1]} but mu({before}) = {mus[-2]}: in a direct "
                    "cover of M by cyclic modules Rg_k, mu(M^j) counts the g_k with "
                    "g_k^j != 0, which never grows with j"), mus
        power = lower
    return None, mus


def m_cover(alg: Algebra, split: Optional[list[tuple[Element, Ideal]]], bound: int
            ) -> Optional[tuple[list[Element], list[Element]]]:
    """A direct cover of M by cyclic submodules, as (generators of the
    non-simple summands, generators of the simple ones), or None when M
    is no direct sum of cyclic modules.

    split is canonical_variable_split(alg): when it is direct, its pieces
    are the cover.  Otherwise the exhaustive cover search runs on M; it
    needs GF(2) and dim M <= min(bound, CYCLIC_TABLE_MAX_DIM), and raises
    SearchSpaceExceededError outside that.  Any one cover decides
    (Krull-Schmidt, see packed_first_cover).  Every cover fixes two
    counts, so callers check them first (m_count_failure): Mg_k = Rg_k^2
    makes each summand Rg_k a chain with one socle line, so
    dim soc(M) = mu(M), and mu(M^j) = #{k : g_k^j != 0} never grows.
    """
    if split is not None:
        return ([g for g, c in split if not is_simple(alg, c)],
                [g for g, c in split if is_simple(alg, c)])
    if alg.p != 2 or alg.dim - 1 > min(bound, CYCLIC_TABLE_MAX_DIM):
        raise SearchSpaceExceededError("search space exceeded")
    found = packed_first_cover(alg, maximal_ideal(alg).space.basis)
    if found is None:
        return None
    return tuple([Element.packed(alg, v) for v in vs] for vs in found)


def find_m_decomposition(alg: Algebra, max_pair_dim: int = 12) -> Optional[MDecomposition]:
    """A witness decomposition of the maximal ideal, read off m_cover
    (search bound max_pair_dim): a cover with at most two non-simple
    summands is one (Mx = Rx^2).  None when no witness exists: a failed
    count of m_count_failure, or mu(M^2) >= 3, the number of non-simple
    summands of any cover, settles that before any search.  Raises
    SearchSpaceExceededError when the bounds prevent the search.
    """
    split = canonical_variable_split(alg)
    if split is None:
        failure, mus = m_count_failure(alg)
        if failure is not None or len(mus) > 1 and mus[1] > 2:
            return None
    cover = m_cover(alg, split, max_pair_dim)
    if cover is None or len(cover[0]) > 2:
        return None  # three independent non-simple summands refute any witness
    return _normalized_witness(alg, *cover)


def three_summand_counterexample(alg: Algebra, x: Element, y: Element,
                                 z: Element, rest: Optional[Ideal] = None) -> Ideal:
    """The ideal R(x+y) + R(x+z), not a direct sum of cyclics whenever
    M = Rx + Ry + Rz + rest is direct with all three summands non-simple."""
    if rest is None:
        rest = zero_ideal(alg)
    parts = [cyclic(alg, g) for g in (x, y, z)]
    for g, c in zip((x, y, z), parts):
        if is_simple(alg, c) or c.is_zero():
            raise ValueError(f"hypothesis not satisfied: R{g} must be non-simple")
    total = gf.direct_sum(alg.p, alg.dim, [c.space for c in parts + [rest]])
    if total != maximal_ideal(alg).space:
        raise ValueError("hypothesis not satisfied: sum is not direct onto M")
    return ideal_from_generators(alg, [x + y, x + z])


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

    One direct cover of M decides (m_cover).  Unless the variables split
    M, two counts that every cover M = Rg_1 + ... + Rg_n fixes come first
    (m_count_failure): directness gives Mg_k = Rg_k^2, so each Rg_k is a
    chain with one socle line and n = mu(M), hence dim soc(M) = mu(M);
    and mu(M^j) counts the g_k with g_k^j != 0, so it never grows with j.
    A failed count or no cover: no, and M itself is the counterexample,
    its proof the failed count or the exhausted search.  At most two
    non-simple summands: yes, with the cover as a verified witness.
    Three or more: no, with the ideal R(x + y) + R(x + z) on three of
    them, confirmed by the exhaustive cover search where
    dim M <= min(max_oracle_dim, 20) over GF(2); that confirmation is all
    max_oracle_dim bounds.  The cover search of M runs up to
    max_pair_dim; past it the verdict is undecided_by_search.
    """
    split = canonical_variable_split(alg)
    if split is None:
        failure, _ = m_count_failure(alg)
        if failure is not None:
            return DscVerdict("no", None, maximal_ideal(alg), failure)
    try:
        cover = m_cover(alg, split, max_pair_dim)
    except SearchSpaceExceededError:
        return DscVerdict("undecided_by_search", None, None, None, (
            f"witness search space exceeded (p={alg.p}, dim M={alg.dim - 1})",))
    if cover is None:
        return DscVerdict("no", None, maximal_ideal(alg),
                          "exhaustive search over all families of cyclic "
                          "submodules found no direct-sum cover of M")
    nonsimple, simples = cover
    if len(nonsimple) <= 2:
        return DscVerdict("yes", _normalized_witness(alg, nonsimple, simples))
    x, y, z = nonsimple[:3]
    j = three_summand_counterexample(alg, x, y, z,
                                     ideal_from_generators(alg, nonsimple[3:] + simples))
    note = ("sum of three independent non-simple cyclic summands: "
            f"R({x} + {y}) + R({x} + {z}) admits no direct-sum cover")
    if alg.p != 2 or alg.dim - 1 > min(max_oracle_dim, CYCLIC_TABLE_MAX_DIM):
        return DscVerdict("no", None, j, note, ("oracle confirmation skipped: infeasible size",))
    if packed_first_cover(alg, j.space.basis) is not None:
        raise RuntimeError("internal contradiction: refutation ideal decomposed")
    return DscVerdict("no", None, j, note, ("counterexample confirmed by exhaustive search",))


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
        return {**asdict(self), "primes": list(self.primes)}


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

"""Split a concrete ideal into a direct sum of cyclic submodules.

Given a verified decomposition M = Rx + Ry + L (L a sum of simples), any
ideal i falls into one of a handful of shapes, each with an explicit
cyclic splitting:

  principal   i inside Rx (or Ry): i = R x^n.
  semisimple  M*i = 0: i splits into lines.
  axis        i inside Rx + L: i = R(x^n0 + l0) + (i meet L).
  two_axes    general position, i = Rx' + Ry' + (i meet L).
  diagonal    general position where the two-axis sum falls short; a
              single mixed generator z' = c x^(n0-1) + d y^(m0-1) + l
              carries both axes.

Directness gives Mx = Rx^2, so Rx is a chain whose nonzero submodules
are the R x^n, with dim R x^n = dim Rx - n + 1.  The principal exponent
is read off that count and the diagonal ones off products with the
powers of x, never solved for.

Every branch re-checks the identities it relies on, and
build_decomposition checks every split direct onto i with
ideals.direct_onto, the certificate of every cover; a failed check
raises InternalContradictionError rather than return an unverified one.

Work per ideal is what depends on i: the test M*i = 0, which applies
the generators to i's basis rows and stops at the first nonzero image
rather than eliminate M*i; i meet L; one splitter of [L, i], which
_general shares between its two exponent searches; and the closures
and certificate of the split.  Whatever depends on the witness alone is
read once per witness and kept on it (MDecomposition): the closures Rx,
Ry and L, the sums Rx + L and Ry + L, and the powers g, g^2, ... of
each axis up to the first zero, which give both the principal generator
g^n and the candidates of the exponent search.  Decomposing many ideals
on one witness therefore pays for those once.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import gf
from .ideals import Ideal, cyclic, direct_onto, is_simple, killed_by_m
from .rings import Element, mono_degree
from .structure import (InternalContradictionError, MDecomposition,
                        verify_m_decomposition)


class WitnessInvalidError(ValueError):
    """The supplied decomposition of M does not verify."""


class Trace(NamedTuple):
    """Which branch ran and the data it chose.

    n0/m0 are exponents along x/y (for principal and axis branches, n0
    is the exponent along `axis`).  l0 is the axis correction; l1/l2 are
    the x/y corrections in general position.  dims lists the summand
    dimensions in generator order.
    """

    branch: str
    axis: Optional[str] = None
    n0: Optional[int] = None
    m0: Optional[int] = None
    l0: Optional[str] = None
    l1: Optional[str] = None
    l2: Optional[str] = None
    dims: tuple[int, ...] = ()
    truncated: bool = False
    trusted: bool = True

    def as_dict(self) -> dict:
        return {"branch": self.branch, "axis": self.axis, "n0": self.n0, "m0": self.m0,
                "l0": self.l0, "l1": self.l1, "l2": self.l2, "dims": list(self.dims),
                "truncated": self.truncated, "trusted": self.trusted}


class CyclicDecomposition(NamedTuple):
    """i as the direct sum of the cyclic submodules R*g over generators."""

    ideal: Ideal
    generators: tuple[Element, ...]
    simple_flags: tuple[bool, ...]
    trace: Trace

    @property
    def length(self) -> int:
        return len(self.generators)

    def as_dict(self) -> dict:
        return {
            "generators": [str(g) for g in self.generators],
            "simple": list(self.simple_flags),
            "length": self.length,
            "trace": self.trace.as_dict(),
        }


def verify_decomposition(alg, i: Ideal, dec: CyclicDecomposition) -> bool:
    """Directness certificate: the summands are direct onto i
    (direct_onto), with the simplicity flags their closures give."""
    flags = [is_simple(alg, cyclic(alg, g)) for g in dec.generators]
    return list(dec.simple_flags) == flags and direct_onto(alg, dec.generators, i)


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise InternalContradictionError(msg)


def build_decomposition(alg, i: Ideal, gens, branch: str, **knobs
                        ) -> CyclicDecomposition:
    """The one constructor of a CyclicDecomposition, and a checked one.

    Reads each R gens[k] from cyclic, which closes a generator once per
    algebra, checks that those closures are direct onto i (raising
    InternalContradictionError otherwise), and reads the summand dims
    and simplicity flags off them, so the result passes
    verify_decomposition.  `knobs` are the branch's Trace fields (axis,
    n0, m0, l0, l1, l2).
    """
    gens = tuple(gens)
    _check(direct_onto(alg, gens, i), "decomposition failed verification")
    closures = [cyclic(alg, g) for g in gens]
    pres = getattr(alg, "presentation", None)
    exps = [knobs[k] for k in ("n0", "m0") if knobs.get(k) is not None]
    trace = Trace(branch=branch, dims=tuple(c.dim for c in closures),
                  truncated=pres is not None and pres.truncate is not None,
                  trusted=_trusted(alg, pres, gens, exps), **knobs)
    flags = tuple(is_simple(alg, c) for c in closures)
    return CyclicDecomposition(i, gens, flags, trace)


def semisimple_decompose(alg, i: Ideal) -> CyclicDecomposition:
    """Split an ideal killed by M into one line per basis row."""
    if not killed_by_m(alg, i):
        raise ValueError("not semisimple")
    return build_decomposition(alg, i, i.basis_elements(), "semisimple")


def minimal_exponent(alg, dec: MDecomposition, i: Ideal, which: str = "x"
                     ) -> tuple[int, Element, Element]:
    """Least n with g^n + l in i for some l in the simple span; returns
    (n, l, g^n) with l = 0 whenever g^n itself lies in i.  The first n
    with g^n = 0 qualifies vacuously (take l = 0), so the exponent
    always exists for a nilpotent axis.  Otherwise g^n + l is the
    i-component of g^n split over [simple span, i]."""
    return _exponent(alg, dec, i, which, gf.splitter([dec.simple_span, i.space]))


def _exponent(alg, dec: MDecomposition, i: Ideal, which: str, split
              ) -> tuple[int, Element, Element]:
    """minimal_exponent with split, the splitter of [simple span, i],
    given, so one splitter serves both axes of an ideal.  The powers
    g^n are the witness's, computed once per witness."""
    f, basis = alg.field, i.space.echelon
    for n, gn in enumerate(dec.x_powers if which == "x" else dec.y_powers, 1):
        if not gn or not f.reduce(gn, basis):
            return n, alg.zero(), Element.packed(alg, gn)
        comps = split(gn)
        if comps is not None:
            return n, Element.packed(alg, f.addmul(comps[1], -1, gn)), Element.packed(alg, gn)
    raise ValueError("no such exponent")


def _trusted(alg, pres, gens, exps) -> bool:
    """A truncated-model decomposition lifts to the full ring when its
    generators and exponents stay strictly below the horizon, the top
    degree the model still represents faithfully.  The ideal's tail may
    reach the horizon; only the chosen data must not.  pres is alg's
    presentation, None for an algebra without one."""
    if pres is None or pres.truncate is None:
        return True
    horizon = pres.truncate - 1
    return all(n < horizon for n in exps) and all(
        mono_degree(e) < horizon for g in gens for _, e in alg.terms(g.vec))


def _first_outside(alg, i: Ideal, avoid: gf.Subspace) -> Optional[Element]:
    """The first basis row of i outside avoid."""
    for r in i.space.basis:
        if avoid.field.reduce(r, avoid.echelon):
            return Element.packed(alg, r)
    return None


def _unit_times_power(alg, z, powers, m: int) -> bool:
    """Whether z, nonzero in the chain Rg, is a unit times g^m, for
    0 < m < L and powers g, g^2, ..., g^L = 0 of the witness axis.  On
    the chain z = u g^k with u a unit, and z g^j = 0 exactly when
    k + j >= L; so k = m exactly when z g^(L-m) = 0 and z g^(L-m-1) != 0,
    with g^0 = 1.  Two products, no closure of Rz."""
    f, cols, top = alg.field, alg.columns(z), len(powers)
    below = powers[top - m - 2] if top - m >= 2 else alg.unit().vec
    return not f.apply(cols, powers[top - m - 1]) and bool(f.apply(cols, below))


def decompose_ideal(alg, dec: MDecomposition, i: Ideal) -> CyclicDecomposition:
    """Decompose a proper ideal using a verified witness for M.

    Branches: principal, semisimple, axis, two_axes, diagonal.  The
    witness's closures Rx, Ry and L, its sums Rg + L and its axis powers
    are read off dec, never rebuilt, and the split comes from
    build_decomposition, so it is checked direct onto i.
    """
    if not verify_m_decomposition(dec):
        raise WitnessInvalidError("witness invalid")
    if i.algebra is not alg or dec.algebra is not alg:
        raise ValueError("mixed algebras")
    if i.dim == alg.dim:
        raise ValueError("not proper")

    if i.dim == 0:
        return semisimple_decompose(alg, i)
    # the witness's axes, in the order principal and axis are tried
    axes = [(which, rg) for which, rg in (("x", dec.rx), ("y", dec.ry)) if rg.dim]
    for which, rg in axes:
        if rg.space.contains_subspace(i.space):
            # Rg is a chain, so i = R g^n with dim i = dim Rg - n + 1
            n = rg.dim - i.dim + 1
            gn = (dec.x_powers if which == "x" else dec.y_powers)[n - 1]
            return build_decomposition(alg, i, [Element.packed(alg, gn)], "principal",
                                       axis=which, n0=n)
    if killed_by_m(alg, i):
        return semisimple_decompose(alg, i)
    # the simple part i keeps; the witness is direct onto M, so it is i meet L
    kept = gf.subspace_intersect(i.space, dec.simple_span)
    for which, _ in axes:
        if (dec.rx_plus_l if which == "x" else dec.ry_plus_l).contains_subspace(i.space):
            return _axis(alg, dec, i, which, kept)
    return _general(alg, dec, i, kept)


def _axis(alg, dec, i, which, kept) -> CyclicDecomposition:
    n0, l0, gn = minimal_exponent(alg, dec, i, which)
    gen = gn + l0
    _check(not gen.is_zero(), "axis generator vanished")
    if not l0.is_zero():
        # l0 = -comps[0] lies in L and ML = 0, so a (gn + l0) = a gn for
        # every a in M: the correction keeps the annihilator.  gn is
        # nonzero, or l0 would be 0, and so is gen, as Rg + L is direct.
        # All of it rests on M l0 = 0, checked on R l0, a single row
        _check(killed_by_m(alg, cyclic(alg, l0)), "axis correction outside L")
    gens = [gen] + [Element.packed(alg, r) for r in kept.basis]
    return build_decomposition(alg, i, gens, "axis", axis=which, n0=n0, l0=str(l0))


def _general(alg, dec, i, kept) -> CyclicDecomposition:
    split = gf.splitter([dec.simple_span, i.space])
    n0, l1, xn = _exponent(alg, dec, i, "x", split)
    m0, l2, ym = _exponent(alg, dec, i, "y", split)
    xp, yp = xn + l1, ym + l2
    axes = [cyclic(alg, xp), cyclic(alg, yp)]
    rest = [Element.packed(alg, r) for r in kept.basis]
    knobs = dict(n0=n0, m0=m0, l1=str(l1), l2=str(l2))

    if axes[0].dim + axes[1].dim + kept.dim == i.dim:
        # build_decomposition's certificate checks the sum direct onto i
        _check(not xp.is_zero() and not yp.is_zero(), "axis generator vanished")
        gens = (xp, yp, *rest)
        return build_decomposition(alg, i, gens, "two_axes", **knobs)

    # otherwise the two-axis sum, checked direct inside i, falls short: a
    # single diagonal generator c x^(n0-1) + d y^(m0-1) + l must close the gap
    s = gf.direct_sum(alg.p, alg.dim, [c.space for c in axes] + [kept])
    _check(s is not None, "axis summands overlap")
    _check(i.space.contains_subspace(s), "axis summands escape i")
    _check(n0 >= 2 and m0 >= 2, "diagonal branch with boundary exponent")
    zp = _first_outside(alg, i, s)
    _check(zp is not None, "no element outside the axis sum")
    comps = gf.split_components(zp.vec, [dec.rx.space, dec.ry.space, dec.simple_span])
    _check(comps is not None, "diagonal element escapes the witness sum")
    zx, zy = Element.packed(alg, comps[0]), Element.packed(alg, comps[1])
    _check(not zx.is_zero() and not zy.is_zero(), "diagonal element lost an axis")
    _check(_unit_times_power(alg, zx, dec.x_powers, n0 - 1)
           and _unit_times_power(alg, zy, dec.y_powers, m0 - 1),
           "diagonal exponents off the shelf")
    return build_decomposition(alg, i, [zp] + rest, "diagonal", **knobs)

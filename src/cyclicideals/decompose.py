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
is read off that count and the diagonal ones off the pivots of the
powers of x, never solved for.

The witness is read as coordinates.  The one that reaches decompose is
classify_dsc's variable split, whose Rx, Ry and L are monomial ideals:
their bases are unit rows, and the field masks of the three
(MDecomposition.field_masks) partition M's coordinates.  So whether i
lies in Rx, or in Rx + L, is read off the union of i's basis rows, and
a vector of M splits over Rx, Ry and L by masking.  A verified witness
whose closures are not coordinate raises WitnessInvalidError.

The diagonal branch checks the two-axis sum direct inside i on one
echelon of its rows, Rx', Ry' and i meet L, and takes the first basis
row of i outside that echelon as its generator.  An ideal killed by M
splits into lines on the semisimple branch of decompose_ideal, the
one semisimple path.

Every branch re-checks the identities it relies on, and
build_decomposition checks every split direct onto i with
ideals.direct_onto, the certificate of every cover; a failed check
raises InternalContradictionError rather than return an unverified one.

Work per ideal is what depends on i: the test M*i = 0, which applies
the generators to i's basis rows and stops at the first nonzero image
rather than eliminate M*i; one elimination of [L, i] (gf.splitter),
which gives i meet L and the split that both exponent searches read;
and the closures and certificate of the split.  Whatever depends on
the witness alone is read once per witness and kept on it
(MDecomposition): the closures Rx, Ry and L, their field masks, and
the powers g, g^2, ... of each axis up to the first zero, which give
both the principal generator g^n and the candidates of the exponent
search.  Decomposing many ideals on one witness therefore pays for
those once.
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


def minimal_exponent(alg, dec: MDecomposition, i: Ideal, which: str, split
                     ) -> tuple[int, Element, Element]:
    """Least n with g^n + l in i for some l in the simple span; returns
    (n, l, g^n) with l = 0 whenever g^n itself lies in i.  The first n
    with g^n = 0 qualifies vacuously (take l = 0), so the exponent
    always exists for a nilpotent axis.  Otherwise g^n + l is the
    i-component of g^n under split, the splitter of [simple span, i]
    (gf.splitter's first value), so one elimination serves both axes of
    an ideal.  The powers g^n are the witness's, computed once per
    witness."""
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


def _unit_times_power(alg, z, powers, m: int) -> bool:
    """Whether z, nonzero in the chain Rg, is a unit times g^m, for
    0 < m < L and powers g, g^2, ..., g^L = 0 of the witness axis.  On
    the chain z = u g^k with u a unit, so z = c g^k, c != 0, plus a
    combination of the higher powers.  The basis of a monomial algebra
    is ordered by degree and each power of g in M raises the least
    degree, so the pivots of g, g^2, ... strictly increase and z's
    lowest field is g^k's: k = m exactly when z's lowest field is
    g^m's.  No product, no closure of Rz."""
    w, z, gm = alg.field.w, z.vec, powers[m - 1]
    return ((z & -z).bit_length() - 1) // w == ((gm & -gm).bit_length() - 1) // w


def decompose_ideal(alg, dec: MDecomposition, i: Ideal) -> CyclicDecomposition:
    """Decompose a proper ideal using a verified coordinate witness for M.

    Branches: principal, semisimple, axis, two_axes, diagonal.  The
    witness's closures Rx, Ry and L, their field masks and its axis
    powers are read off dec, never rebuilt; which summands i reaches is
    read off the union of i's basis rows; and the split comes from
    build_decomposition, so it is checked direct onto i.
    """
    if not verify_m_decomposition(dec):
        raise WitnessInvalidError("witness invalid")
    if dec.field_masks is None:
        raise WitnessInvalidError("witness closures are not coordinate subspaces")
    if i.algebra is not alg or dec.algebra is not alg:
        raise ValueError("mixed algebras")
    if i.dim == alg.dim:
        raise ValueError("not proper")

    xmask, ymask, _ = dec.field_masks
    union = i.space.echelon.union
    # the witness's axes, in the order principal and axis are tried, each
    # with its own mask and the other axis's
    axes = [(which, own, other)
            for which, own, other in (("x", xmask, ymask), ("y", ymask, xmask)) if own]
    for which, own, _ in axes:
        if union and not union & ~own:
            # i lies in the chain Rg, so i = R g^n with dim i = dim Rg - n + 1
            n = (dec.rx if which == "x" else dec.ry).dim - i.dim + 1
            gn = (dec.x_powers if which == "x" else dec.y_powers)[n - 1]
            return build_decomposition(alg, i, [Element.packed(alg, gn)], "principal",
                                       axis=which, n0=n)
    if killed_by_m(alg, i):  # the zero ideal too
        return build_decomposition(alg, i, i.basis_elements(), "semisimple")
    # one elimination of [L, i]: the split both exponent searches read and
    # i meet L, the simple part i keeps, as the witness is direct onto M
    split, kept = gf.splitter([dec.simple_span, i.space])
    for which, _, other in axes:
        if not union & other:  # i inside Rg + L
            return _axis(alg, dec, i, which, split, kept)
    return _general(alg, dec, i, split, kept)


def _axis(alg, dec, i, which, split, kept) -> CyclicDecomposition:
    n0, l0, gn = minimal_exponent(alg, dec, i, which, split)
    gen = gn + l0
    _check(not gen.is_zero(), "axis generator vanished")
    # l0, minus the L-component of gn, lies in L and ML = 0, so
    # a (gn + l0) = a gn for every a in M: the correction keeps the
    # annihilator.  gn is nonzero, or l0 would be 0, and so is gen, as
    # Rg + L is direct.  All of it rests on l0 in L, read off L's mask
    _check(not l0.vec & ~dec.field_masks[2], "axis correction outside L")
    gens = [gen] + [Element.packed(alg, r) for r in kept.basis]
    return build_decomposition(alg, i, gens, "axis", axis=which, n0=n0, l0=str(l0))


def _general(alg, dec, i, split, kept) -> CyclicDecomposition:
    n0, l1, xn = minimal_exponent(alg, dec, i, "x", split)
    m0, l2, ym = minimal_exponent(alg, dec, i, "y", split)
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
    # single diagonal generator c x^(n0-1) + d y^(m0-1) + l must close the
    # gap.  The rows of Rx', Ry' and i meet L go into one echelon, and
    # none may drop out; the generator is i's first basis row outside it
    f, s = alg.field, gf.Echelon()
    rows = [*axes[0].space.basis, *axes[1].space.basis, *kept.basis]
    _check(all(f.insert(s, r) for r in rows), "axis summands overlap")
    _check(not any(f.reduce(r, i.space.echelon) for r in rows), "axis summands escape i")
    _check(n0 >= 2 and m0 >= 2, "diagonal branch with boundary exponent")
    row = next((r for r in i.space.basis if f.reduce(r, s)), None)
    _check(row is not None, "no element outside the axis sum")
    zp = Element.packed(alg, row)
    # zp lies in M, whose coordinates the witness's masks partition
    xmask, ymask, _ = dec.field_masks
    zx, zy = Element.packed(alg, zp.vec & xmask), Element.packed(alg, zp.vec & ymask)
    _check(not zx.is_zero() and not zy.is_zero(), "diagonal element lost an axis")
    _check(_unit_times_power(alg, zx, dec.x_powers, n0 - 1)
           and _unit_times_power(alg, zy, dec.y_powers, m0 - 1),
           "diagonal exponents off the shelf")
    return build_decomposition(alg, i, [zp] + rest, "diagonal", **knobs)

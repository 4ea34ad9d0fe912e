"""Split a concrete ideal into a direct sum of cyclic submodules.

Given a verified decomposition M = Rx + Ry + L (L a sum of simples), any
ideal i falls into one of a handful of shapes, each with an explicit
cyclic splitting:

  principal   i inside Rx (or Ry): i = R x^n.
  semisimple  M*i = 0: i splits into lines.
  axis        i inside Rx + L: i = R(x^n0 + l0) + (i meet J) with J the
              part of L that i projects onto.
  two_axes    general position, i = Rx' + Ry' + (i meet J).
  diagonal    general position where the two-axis sum falls short; a
              single mixed generator z' = c x^(n0-1) + d y^(m0-1) + l
              carries both axes.

Every branch re-checks the identities it relies on and raises
InternalContradictionError rather than return an unverified answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import gf
from .ideals import (Ideal, annihilator, cyclic, is_simple, module_times_ideal)
from .rings import Element, NotExpressibleError, mono_degree, power_form
from .structure import MDecomposition, verify_m_decomposition


class WitnessInvalidError(ValueError):
    """The supplied decomposition of M does not verify."""


class InternalContradictionError(RuntimeError):
    """A branch precondition held but its guaranteed identity failed."""


@dataclass(frozen=True)
class Trace:
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
        return {
            "branch": self.branch,
            "axis": self.axis,
            "n0": self.n0,
            "m0": self.m0,
            "l0": self.l0,
            "l1": self.l1,
            "l2": self.l2,
            "dims": list(self.dims),
            "truncated": self.truncated,
            "trusted": self.trusted,
        }


@dataclass(frozen=True)
class CyclicDecomposition:
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
    """Directness certificate: the summands are independent and fill i."""
    closures = [cyclic(alg, g) for g in dec.generators]
    if list(dec.simple_flags) != [is_simple(alg, c) for c in closures]:
        return False
    return gf.direct_sum(alg.p, alg.dim, [c.space for c in closures]) == i.space


def build_decomposition(alg, i: Ideal, gens, branch: str, **knobs
                        ) -> CyclicDecomposition:
    """The one constructor of a CyclicDecomposition.

    Closes each generator once and reads the summand dims and simplicity
    flags off those closures; `knobs` are the branch's Trace fields
    (axis, n0, m0, l0, l1, l2).  Checks nothing: callers that must
    return a verified split go through _finish.
    """
    gens = tuple(gens)
    closures = [cyclic(alg, g) for g in gens]
    pres = getattr(alg, "presentation", None)
    exps = [knobs[k] for k in ("n0", "m0") if knobs.get(k) is not None]
    trace = Trace(branch=branch, dims=tuple(c.dim for c in closures),
                  truncated=pres is not None and pres.truncate is not None,
                  trusted=_trusted(alg, gens, exps), **knobs)
    flags = tuple(is_simple(alg, c) for c in closures)
    return CyclicDecomposition(i, gens, flags, trace)


def semisimple_decompose(alg, i: Ideal) -> CyclicDecomposition:
    """Split an ideal killed by M into one line per basis row."""
    if module_times_ideal(alg, i).dim != 0:
        raise ValueError("not semisimple")
    return build_decomposition(alg, i, i.basis_elements(), "semisimple")


def minimal_exponent(alg, dec: MDecomposition, i: Ideal, which: str = "x"
                     ) -> tuple[int, Element]:
    """Least n with g^n + l in i for some l in the simple span; returns
    (n, l) with l = 0 whenever g^n itself lies in i.  The first n with
    g^n = 0 qualifies vacuously (take l = 0), so the exponent always
    exists for a nilpotent axis."""
    g = dec.x if which == "x" else dec.y
    if g is None:
        raise ValueError("no such exponent")
    span = dec.simple_span()
    gn = alg.unit()
    for n in range(1, alg.dim + 1):
        gn = gn * g
        if gn.is_zero() or i.space.contains(gn.coeffs):
            return n, alg.zero()
        met = gf.affine_meet(gn.coeffs, span, i.space)
        if met is not None:
            return n, alg.element(met) - gn
    raise ValueError("no such exponent")


def _trusted(alg, gens, exps) -> bool:
    """A truncated-model decomposition lifts to the full ring when its
    generators and exponents stay strictly below the horizon, the top
    degree the model still represents faithfully.  The ideal's tail may
    reach the horizon; only the chosen data must not."""
    pres = getattr(alg, "presentation", None)
    if pres is None or pres.truncate is None:
        return True
    horizon = pres.truncate - 1
    if any(n >= horizon for n in exps):
        return False
    for g in gens:
        for k, c in enumerate(g.coeffs):
            if c and mono_degree(alg.basis[k]) >= horizon:
                return False
    return True


def _first_outside(alg, i: Ideal, avoid: gf.Subspace) -> Optional[Element]:
    """First element of i not in avoid, in the order of the p-adic codes
    sum d_k p^k of the combinations sum d_k rows[k] of i's basis.

    That is the first basis row outside avoid: codes below p^k combine
    only rows[0..k-1], so while those rows lie in avoid so does every
    such code, and code p^k is rows[k] itself.
    """
    for r in i.rows:
        if not avoid.contains(r):
            return alg.element(r)
    return None


def decompose_ideal(alg, dec: MDecomposition, i: Ideal) -> CyclicDecomposition:
    """Decompose a proper ideal using a verified witness for M.

    Branches: principal, semisimple, axis, two_axes, diagonal.  The
    returned decomposition always passes verify_decomposition.
    """
    if not verify_m_decomposition(dec):
        raise WitnessInvalidError("witness invalid")
    if i.algebra is not alg or dec.algebra is not alg:
        raise ValueError("mixed algebras")
    if i.dim == alg.dim:
        raise ValueError("not proper")

    zero_sub = gf.Subspace.zero(alg.p, alg.dim)
    rx = cyclic(alg, dec.x).space if dec.x is not None else zero_sub
    ry = cyclic(alg, dec.y).space if dec.y is not None else zero_sub
    span = dec.simple_span()

    if i.dim == 0:
        return semisimple_decompose(alg, i)
    if rx.dim and rx.contains_subspace(i.space):
        return _principal(alg, dec, i, "x")
    if ry.dim and ry.contains_subspace(i.space):
        return _principal(alg, dec, i, "y")
    if module_times_ideal(alg, i).dim == 0:
        return semisimple_decompose(alg, i)
    rxl = gf.subspace_sum(rx, span)
    ryl = gf.subspace_sum(ry, span)
    if rx.dim and rxl.contains_subspace(i.space):
        return _axis(alg, dec, i, "x", rx, ry, span)
    if ry.dim and ryl.contains_subspace(i.space):
        return _axis(alg, dec, i, "y", rx, ry, span)
    return _general(alg, dec, i, rx, ry, span)


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise InternalContradictionError(msg)


def _finish(alg, i, gens, branch, **knobs) -> CyclicDecomposition:
    out = build_decomposition(alg, i, gens, branch, **knobs)
    _check(verify_decomposition(alg, i, out), "decomposition failed verification")
    return out


def _principal(alg, dec, i, which) -> CyclicDecomposition:
    g = dec.x if which == "x" else dec.y
    mi = module_times_ideal(alg, i)
    z = next(e for e in i.basis_elements() if not mi.contains(e))
    try:
        _, n = power_form(alg, g, z)
    except NotExpressibleError as exc:
        raise InternalContradictionError("principal branch generator "
                                         "not a power") from exc
    return _finish(alg, i, [g ** n], "principal", axis=which, n0=n)


def _ideal_simple_part(alg, i, rx, ry, span) -> gf.Subspace:
    # J = the portion of the simple span that i reaches: project each
    # basis row of i onto L along Rx + Ry
    lparts = []
    for r in i.rows:
        comps = gf.split_components(r, [rx, ry, span])
        _check(comps is not None, "ideal escapes the witness sum")
        lparts.append(comps[2])
    return gf.Subspace.span(alg.p, alg.dim, lparts)


def _axis(alg, dec, i, which, rx, ry, span) -> CyclicDecomposition:
    g = dec.x if which == "x" else dec.y
    n0, l0 = minimal_exponent(alg, dec, i, which)
    gen = g ** n0 + l0
    _check(not gen.is_zero(), "axis generator vanished")
    if not l0.is_zero():
        # the correction must not change the annihilator
        _check(annihilator(alg, gen) == annihilator(alg, g ** n0),
               "axis correction changed the annihilator")
    j = _ideal_simple_part(alg, i, rx, ry, span)
    gens = [gen] + [alg.element(r) for r in gf.subspace_intersect(i.space, j).rows]
    return _finish(alg, i, gens, "axis", axis=which, n0=n0, l0=str(l0))


def _general(alg, dec, i, rx, ry, span) -> CyclicDecomposition:
    n0, l1 = minimal_exponent(alg, dec, i, "x")
    m0, l2 = minimal_exponent(alg, dec, i, "y")
    xp = dec.x ** n0 + l1
    yp = dec.y ** m0 + l2
    j = _ideal_simple_part(alg, i, rx, ry, span)
    ij = gf.subspace_intersect(i.space, j)
    s = gf.direct_sum(alg.p, alg.dim,
                      [cyclic(alg, xp).space, cyclic(alg, yp).space, ij])
    _check(s is not None, "axis summands overlap")
    _check(i.space.contains_subspace(s), "axis summands escape i")
    rest = [alg.element(r) for r in ij.rows]
    knobs = dict(n0=n0, m0=m0, l1=str(l1), l2=str(l2))

    if s == i.space:
        _check(not xp.is_zero() and not yp.is_zero(), "axis generator vanished")
        return _finish(alg, i, [xp, yp] + rest, "two_axes", **knobs)

    # the two-axis sum falls short: a single diagonal generator
    # c x^(n0-1) + d y^(m0-1) + l must close the gap
    _check(n0 >= 2 and m0 >= 2, "diagonal branch with boundary exponent")
    zp = _first_outside(alg, i, s)
    _check(zp is not None, "no element outside the axis sum")
    comps = gf.split_components(zp.coeffs, [rx, ry, span])
    _check(comps is not None, "diagonal element escapes the witness sum")
    zx, zy = alg.element(comps[0]), alg.element(comps[1])
    _check(not zx.is_zero() and not zy.is_zero(), "diagonal element lost an axis")
    try:
        _, nx = power_form(alg, dec.x, zx)
        _, ny = power_form(alg, dec.y, zy)
    except NotExpressibleError as exc:
        raise InternalContradictionError("diagonal components are not "
                                         "unit powers") from exc
    _check(nx == n0 - 1 and ny == m0 - 1, "diagonal exponents off the shelf")
    return _finish(alg, i, [zp] + rest, "diagonal", **knobs)

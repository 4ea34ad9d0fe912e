"""Monomial quotient algebras GF(p)[x_1..x_v] / (monomial relations).

A presentation names a prime field, variables, a list of degree >= 2
monomial relations, and an optional total-degree truncation.  The
algebra it builds is spanned by the standard monomials (those divisible
by no relation and below the truncation degree), ordered by degree and
then lexicographically with earlier variables first, so position 0 is
always the unit monomial.  The standard monomials are closed under
division, so build_algebra grows them degree by degree from their own
divisors and never walks the exponent box: its work follows the
dimension, and max_dim refuses only a basis that really exceeds it.
Each degree is a contiguous range of the basis, and a new monomial is
tested only against the impure relations indexed under its variable
and exponent, so a child that none of them can divide costs no test.
RingPresentation.splits_untruncated runs the monomial test of
structure.classify_dsc's lemma on the ring without its truncation, so
spec_classify can tell a truncated model's witness that lifts.
Products of standard monomials are again
standard or zero, so multiplying by one variable is a lookup in that
variable's successor map, packed (see gf) as the algebra's action masks.
The same maps give the ideal that monomials generate: the standard
monomials reached from them (MonomialAlgebra.multiples), no field
arithmetic needed.
Elements are packed rows, and every product goes through one primitive,
Algebra.columns(z), the packed columns e_k * z.  A monomial algebra
computes column k when it is first read, as x_v times column j for
m_k = x_v * m_j, so v * z costs the parent chains of v's support only;
any other Algebra, such as the quotient models R/I of the tests,
supplies its own columns.  MonomialAlgebra.terms is the one map back from
a packed row to monomials: the (coefficient, exponents) pair of each
nonzero field, found from the row's lowest set bit, so rendering an
element or reading its degrees builds no coordinate tuple.
parse_element goes the other way, summing read_terms' pairs into a row.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import gf


class RingSyntaxError(ValueError):
    """Malformed ring file; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PresentationError(ValueError):
    """Structurally valid ring file describing a ring we reject."""


class DimensionLimitError(RuntimeError):
    """Basis enumeration exceeded the configured dimension guard."""


# ---------------------------------------------------------------------------
# monomials: exponent tuples over the presentation's variables


def mono_degree(e: Sequence[int]) -> int:
    return sum(e)


def mono_divides(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(map(operator.le, a, b))


def mono_str(e: Sequence[int], names: Sequence[str]) -> str:
    parts = []
    for name, k in zip(names, e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts) if parts else "1"


def pres_str(pres: "RingPresentation") -> str:
    base = f"GF({pres.p})[{','.join(pres.vars)}]"
    if pres.relations:
        rels = ",".join(mono_str(m, pres.vars) for m in pres.relations)
        base += f"/({rels})"
    if pres.truncate is not None:
        base += f" truncated at degree {pres.truncate}"
    return base


def _pure_power(relations: Iterable[Sequence[int]], i: int) -> Optional[int]:
    """The least k with x_i^k among the relations, None if there is none.
    A pure power of x_i lies in a monomial ideal exactly when some
    generator is itself a pure power of x_i, so x_i is nilpotent exactly
    when this is not None."""
    return min((r[i] for r in relations if 0 < r[i] == mono_degree(r)), default=None)


# a field size at or above this is refused before _is_prime, whose trial
# division up to sqrt(p) would stall on it
FIELD_BOUND = 2 ** 31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class RingPresentation(NamedTuple):
    """Validated ring description; relations are canonical exponent tuples."""

    p: int
    vars: tuple[str, ...]
    relations: tuple[tuple[int, ...], ...]
    truncate: Optional[int]
    nonnilpotent: tuple[bool, ...]

    @classmethod
    def make(cls, p: int, names: Sequence[str], relations: Iterable[Sequence[int]],
             truncate: Optional[int] = None) -> "RingPresentation":
        names = tuple(names)
        if p >= FIELD_BOUND:
            raise PresentationError("field size too large, must be below 2^31")
        if not _is_prime(p):
            raise PresentationError("field size not prime")
        if not names:
            raise PresentationError("no variables declared")
        if len(set(names)) != len(names):
            raise PresentationError("duplicate variable name")
        rels = sorted({tuple(r) for r in relations})
        nv = len(names)
        for r in rels:
            if len(r) != nv or any(k < 0 for k in r):
                raise PresentationError("bad relation exponent vector")
            degree = mono_degree(r)
            if degree == 0:
                raise PresentationError("constant relation makes the ring zero")
            if degree == 1:
                raise PresentationError("variable eliminated by degree-1 relation")
        if truncate is not None and truncate < 2:
            raise PresentationError("truncate bound must be at least 2")
        nonnil = tuple(_pure_power(rels, i) is None for i in range(nv))
        if truncate is None and any(nonnil):
            raise PresentationError("infinite dimensional without truncate")
        return cls(p, names, tuple(rels), truncate, nonnil)

    def var_index(self, name: str) -> int:
        return self.vars.index(name)

    def splits_untruncated(self) -> bool:
        """The monomial test of structure.classify_dsc's lemma on the ring
        without its truncation: every product of two distinct variables
        lies in the relations, and at most two variables have a square
        outside them.  Relations are distinct and of degree >= 2, so a
        quadratic monomial lies in the relations exactly when it is one,
        and the test counts the quadratic relations: all nv(nv - 1)/2
        mixed products, and at least nv - 2 squares."""
        quadratic = [r for r in self.relations if mono_degree(r) == 2]
        squares, nv = sum(2 in r for r in quadratic), len(self.vars)
        return len(quadratic) - squares == nv * (nv - 1) // 2 and squares >= nv - 2


# ---------------------------------------------------------------------------
# ring text: one term reader for rel lines and element expressions, and
# the ring file parser with one table of the declarations made at most
# once.  One declaration per line; '#' starts a comment;
# '/' is also accepted as a declaration separator so presentations can be
# written on a single line.


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|\S")


def read_terms(text: str, names: Sequence[str], line: int = 1, col0: int = 0
               ) -> list[tuple[int, tuple[int, ...]]]:
    """The signed terms of text, each an (integer coefficient, exponent
    tuple) pair over names.  The one grammar of ring text:

        expression = ['+' | '-'] term (('+' | '-') term)*
        term       = factor ('*' factor)*
        factor     = integer | name ['^' k]        with k >= 1

    Factors multiply into their term, so x*x*y reads as (1, (2, 1)).
    Errors are RingSyntaxErrors on the given line, their column counted
    from col0, the 0-based column where text starts in that line.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # the end

    def error(message: str, k: int) -> RingSyntaxError:  # positions are needed only here
        at = [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]
        return RingSyntaxError(message, line, col0 + at[k] + 1)

    terms, k = [], 0
    while True:
        coeff, exps = 1, [0] * len(names)
        if tokens[k] in ("+", "-"):
            coeff = -1 if tokens[k] == "-" else 1
            k += 1
        while True:  # the factors of one term
            tok = tokens[k]
            if tok in names:
                exp = 1
                if tokens[k + 1] == "^":
                    k += 2
                    exp = (_decimal(tokens[k], lambda message: error(message, k))
                           if tokens[k].isdecimal() else 0)
                    if exp < 1:
                        raise error("exponent must be a positive integer", k)
                exps[names.index(tok)] += exp
            elif tok.isdecimal():
                coeff *= _decimal(tok, lambda message: error(message, k))
            elif _NAME_RE.match(tok):
                raise error(f"unknown variable '{tok}'", k)
            else:
                raise error(f"unexpected '{tok}'" if tok else "empty monomial", k)
            k += 1
            if tokens[k] != "*":
                break
            k += 1
        terms.append((coeff, tuple(exps)))
        tok = tokens[k]
        if not tok:
            return terms
        if tok.isdecimal() or _NAME_RE.match(tok):
            raise error("expected '*' between factors", k)
        if tok not in ("+", "-"):
            raise error(f"unexpected '{tok}'", k)


def _decimal(token: str, error: Callable[[str], RingSyntaxError]) -> int:
    """The value of a decimal token: the one reader of integers in ring
    text.  int() refuses a string of more digits than
    sys.get_int_max_str_digits(), and that refusal is raised as
    error(message), the RingSyntaxError at the token's line and column."""
    try:
        return int(token)
    except ValueError:
        raise error(f"integer of {len(token)} digits is too long") from None


def _integer(rest: str, error: Callable[[str], RingSyntaxError]) -> Optional[int]:
    return _decimal(rest, error) if rest.isdecimal() else None


def _names(rest: str, error: Callable[[str], RingSyntaxError]) -> Optional[tuple[str, ...]]:
    got = tuple(rest.split())
    return got if got and all(_NAME_RE.fullmatch(n) for n in got) else None


# the declarations made at most once: keyword -> (what its argument must
# be, the reader of its value, which gives None for any other argument and
# raises error(message) for an integer too long to read)
_DECLARATIONS = {"field": ("an integer", _integer), "vars": ("variable names", _names),
                 "truncate": ("an integer", _integer)}


def parse_presentation(text: str, truncate: Optional[int] = None) -> RingPresentation:
    """Parse the ring file grammar.

    Declarations, one per line (or '/'-separated):
        field <prime>
        vars <name> [<name> ...]
        rel <monomial>          # repeatable
        truncate <N>            # optional total-degree truncation

    A rel reads with read_terms and must be one term of coefficient 1,
    such as x^2*y or x*x*y.  Error columns count from the start of the
    line as written.  A truncate argument overrides whatever the text
    declares, so an infinite-dimensional presentation can still be
    modelled.
    """
    declared: dict = {}
    rel_specs: list[tuple[str, int, int]] = []

    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        col = 0
        for chunk in line.split("/"):
            stripped = chunk.strip()
            start_col = col + chunk.index(stripped[0]) if stripped else col
            col += len(chunk) + 1
            if not stripped:
                continue
            fields = stripped.split(None, 1)
            keyword = fields[0]
            rest = fields[1] if len(fields) > 1 else ""
            rest_col = start_col + len(stripped) - len(rest)  # rest is a suffix of stripped
            if keyword == "rel":
                if "vars" not in declared:
                    raise RingSyntaxError("rel before vars", line_no, start_col + 1)
                rel_specs.append((rest, line_no, rest_col))
            elif keyword in _DECLARATIONS:
                if keyword in declared:
                    raise RingSyntaxError(f"duplicate {keyword} declaration", line_no, start_col + 1)
                expects, read = _DECLARATIONS[keyword]
                declared[keyword] = value = read(
                    rest, lambda message: RingSyntaxError(message, line_no, rest_col + 1))
                if value is None:
                    raise RingSyntaxError(f"{keyword} expects {expects}", line_no, rest_col + 1)
            else:
                raise RingSyntaxError(f"unknown declaration '{keyword}'", line_no, start_col + 1)

    for keyword in ("field", "vars"):
        if keyword not in declared:
            raise PresentationError(f"missing {keyword} declaration")
    names = declared["vars"]
    relations = []
    for spec, ln, col in rel_specs:
        terms = read_terms(spec, names, ln, col)
        if len(terms) != 1 or terms[0][0] != 1:
            raise RingSyntaxError("rel expects one monomial of coefficient 1", ln, col + 1)
        relations.append(terms[0][1])
    return RingPresentation.make(declared["field"], names, relations,
                                 declared.get("truncate") if truncate is None else truncate)


# ---------------------------------------------------------------------------
# elements


class Element:
    """An algebra element held as `vec`, the packed row (gf.packed_field) of
    its coordinates over the basis; `coeffs` is the tuple view."""

    __slots__ = ("algebra", "vec")

    def __init__(self, algebra: "Algebra", coeffs: Sequence[int]):
        if len(coeffs) != algebra.dim:
            raise ValueError("coefficient length does not match algebra dimension")
        self.algebra = algebra
        self.vec = algebra.field.pack(coeffs)

    @classmethod
    def packed(cls, algebra: "Algebra", vec: int) -> "Element":
        """The element whose packed row is vec, every field reduced mod p."""
        z = cls.__new__(cls)
        z.algebra, z.vec = algebra, vec
        return z

    @property
    def coeffs(self) -> gf.Vec:
        return self.algebra.field.unpack(self.vec, self.algebra.dim)

    def _require_same(self, other: "Element") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("algebra mismatch")

    def __add__(self, other: "Element") -> "Element":
        self._require_same(other)
        return Element.packed(self.algebra, self.algebra.field.addmul(self.vec, 1, other.vec))

    def __sub__(self, other: "Element") -> "Element":
        return self + -other

    def __neg__(self) -> "Element":
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._require_same(other)
            alg = self.algebra
            return Element.packed(alg, alg.field.apply(alg.columns(other), self.vec))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c: int) -> "Element":
        return Element.packed(self.algebra, self.algebra.field.addmul(0, c, self.vec))

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            raise ValueError("negative power")
        alg = self.algebra
        f, cols, v = alg.field, alg.columns(self), alg.unit().vec
        for _ in range(n):
            v = f.apply(cols, v)
            if not v:
                break  # every later power is zero too
        return Element.packed(alg, v)

    def is_zero(self) -> bool:
        return not self.vec

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and self.algebra is other.algebra
                and self.vec == other.vec)

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.vec))

    def __str__(self) -> str:
        return self.algebra.el_str(self.vec)

    def __repr__(self) -> str:
        return f"<{self}>"


class Algebra:
    """A finite-dimensional local algebra over GF(p), basis vector 0 its
    unit.  Elements are packed rows; concrete classes supply the one
    product primitive, columns, and el_str."""

    p: int
    dim: int
    gens: tuple[Element, ...]

    def columns(self, z: Element) -> Sequence[int]:
        """The packed columns e_k * z by basis index k, so field.apply(
        columns(z), v) is v * z; a column may be computed when first read."""
        raise NotImplementedError

    def mult_map(self, z: Element) -> list[int]:
        cols = self.columns(z)
        return [cols[k] for k in range(self.dim)]

    def el_str(self, vec: int) -> str:
        raise NotImplementedError

    @cached_property
    def field(self) -> gf.Field:
        """The packed layout and kernels of GF(p), looked up once."""
        return gf.packed_field(self.p)

    def element(self, coeffs: Sequence[int]) -> Element:
        return Element(self, coeffs)

    def zero(self) -> Element:
        return Element.packed(self, 0)

    def unit(self) -> Element:
        return Element.packed(self, 1)

    def basis_element(self, k: int) -> Element:
        if not 0 <= k < self.dim:
            raise IndexError("basis index out of range")
        return Element.packed(self, 1 << k * self.field.w)

    # packed image of each basis vector under multiplication by g, one
    # list per generator, for every p
    def action_masks(self) -> list[list[int]]:
        cached = getattr(self, "_actions", None)
        if cached is None:
            cached = self._actions = self._action_masks()
        return cached

    def _action_masks(self) -> list[list[int]]:
        return [self.mult_map(g) for g in self.gens]


class MonomialAlgebra(Algebra):
    """Standard-monomial model of a monomial quotient ring."""

    def __init__(self, presentation: RingPresentation, basis: Sequence[tuple[int, ...]],
                 parents: Sequence[tuple[int, int]]):
        """parents[k] = (v, j) for k >= 1, with m_k = x_v * m_j made from
        its canonical parent (v the last variable of m_k), as build_algebra
        makes every standard monomial; parents[0] = (0, 0)."""
        self.presentation = presentation
        self.p = presentation.p
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.index = dict(zip(self.basis, range(self.dim)))
        self._parents = parents = tuple(parents)
        # succ[v][k]: index of x_v * m_k, or -1 where that product vanishes,
        # which is exactly when it is no standard monomial.  The canonical
        # products, v at least the last variable of m_k, are the monomials
        # build_algebra made; it rejected the rest.  The others follow from
        # x_v * m_k = x_last * (x_v * m_j) for m_k = x_last * m_j: that
        # outer product is canonical, and x_v * m_j = 0 forces x_v * m_k = 0
        succ = self.succ = [[-1] * self.dim for _ in presentation.vars]
        for k in range(1, self.dim):
            v, j = parents[k]
            succ[v][j] = k
        for k in range(1, self.dim):
            last, j = parents[k]
            for v in range(last):
                i = succ[v][j]
                if i >= 0:
                    succ[v][k] = succ[last][i]
        # no degree-1 relation, so every variable is a standard monomial
        self.gens = tuple(self.basis_element(step[0]) for step in succ)
        self._mono_text: dict[tuple[int, ...], str] = {}  # el_str's mono_str, kept

    def columns(self, z: Element) -> "_Columns":
        return _Columns(self, z.vec)

    def multiples(self, ks: Iterable[int]) -> list[int]:
        """The indices of the standard monomials divisible by some m_k, k in
        ks, ascending: those reached from the ks through succ.  A product
        of standard monomials is standard or zero and a divisor of a
        standard monomial is standard, so m_k * m is either zero or
        reached from k by one variable at a time, each step standard."""
        succ, seen = self.succ, set(ks)
        todo = list(seen)
        for k in todo:  # grows as it is read
            for step in succ:
                i = step[k]
                if i >= 0 and i not in seen:
                    seen.add(i)
                    todo.append(i)
        return sorted(seen)

    def _action_masks(self) -> list[list[int]]:
        w = gf.packed_field(self.p).w
        return [[1 << w * k if k >= 0 else 0 for k in step] for step in self.succ]

    def terms(self, vec: int) -> list[tuple[int, tuple[int, ...]]]:
        """The (coefficient, exponents) pair of each nonzero field of the
        packed row vec, in basis order; parse_element sums such pairs
        back into a row.  The one map from a basis index to its monomial."""
        w, one, out = self.field.w, self.field.one, []
        while vec:
            k = ((vec & -vec).bit_length() - 1) // w
            c = vec >> k * w & one
            vec -= c << k * w
            out.append((c, self.basis[k]))
        return out

    def el_str(self, vec: int) -> str:
        names, text = self.presentation.vars, self._mono_text
        parts = []
        for c, e in self.terms(vec):
            mono = text.get(e)
            if mono is None:
                mono = text[e] = mono_str(e, names)
            if mono == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts) if parts else "0"

    def var(self, name: str) -> Element:
        return self.gens[self.presentation.var_index(name)]

    def __repr__(self) -> str:
        return f"MonomialAlgebra({pres_str(self.presentation)}, dim {self.dim})"


class _Columns(dict):
    """Basis index k -> e_k * z in a monomial algebra, column 0 being z;
    column k is x_v times its parent's (MonomialAlgebra._parents),
    computed when first read and kept."""

    def __init__(self, alg: MonomialAlgebra, z: int):
        super().__init__({0: z})
        self.alg = alg

    def __missing__(self, k: int) -> int:
        chain, parents = [], self.alg._parents
        while k not in self:
            chain.append(k)
            k = parents[k][1]
        col, apply, actions = self[k], self.alg.field.apply, self.alg.action_masks()
        for k in reversed(chain):
            col = self[k] = apply(actions[parents[k][0]], col)
        return col


def build_algebra(pres: RingPresentation, max_dim: int = 4096) -> MonomialAlgebra:
    """Enumerate the standard monomials and assemble the algebra.

    The standard monomials are closed under division, so those of degree
    d + 1 are the standard x_v * m over the standard m of degree d.  Each
    is made once, from its canonical parent: x_v * m with v at least the
    last variable of m.  A child x_v * m is standard when x_v stays below
    its cap (pure powers and the truncation) and no impure relation
    divides it; m is standard, so only the relations r with r_v equal to
    the child's v-exponent can.  Each impure relation r is indexed under
    (v, r_v) for every variable v it involves, and a child of v-exponent
    e is tested against the relations under (v, e) alone: none, for most
    children, and then no test is made.  Taken parent by parent in basis
    order, v ascending, each degree comes out in descending exponent
    order, the basis order, with no sort: the children of one m descend
    as v grows, and if parents m > m' of one degree first differ at i,
    then m' involves a variable past i, so every child of m' adds past i
    while every child of m adds at i or later, and it stays the larger
    at i.  So each degree is the contiguous range of the basis made from
    the one before.  Each monomial's canonical parent goes to the
    algebra, which reads its successor table off them.  The work is
    proportional to the basis times the variables, and
    DimensionLimitError is raised as soon as one parent's children take
    the basis past max_dim.
    """
    nv = len(pres.vars)
    # steps[v]: (v, cap, the impure relations under (v, e) by exponent e),
    # the exponent of x_v staying below cap; pure powers are enforced
    # through caps, and an impure relation can only newly divide x_v * m
    # through a variable v it involves.  A parent whose last variable is
    # v takes the steps from v on, sliced per parent: a table of every
    # suffix would take memory quadratic in the variables
    steps = []
    for v in range(nv):
        cap = _pure_power(pres.relations, v)
        if pres.truncate is not None:
            cap = pres.truncate if cap is None else min(cap, pres.truncate)
        under: dict[int, list[tuple[int, ...]]] = {}
        for r in pres.relations:
            if 0 < r[v] < mono_degree(r):
                under.setdefault(r[v], []).append(r)
        steps.append((v, cap, under))
    basis, parents = [(0,) * nv], [(0, 0)]  # (v, j): m_k = x_v * m_j
    start, end = 0, 1  # basis[start:end] is the current degree
    degree = 1
    while start < end and (pres.truncate is None or degree < pres.truncate):
        for j in range(start, end):
            m = basis[j]
            for v, cap, under in steps[parents[j][0]:]:
                e = m[v] + 1
                if e >= cap:
                    continue
                child = m[:v] + (e,) + m[v + 1:]
                rels = under.get(e)
                if rels and any(mono_divides(r, child) for r in rels):
                    continue
                basis.append(child)
                parents.append((v, j))
            if len(basis) > max_dim:
                raise DimensionLimitError("dimension exceeds configured limit")
        start, end = end, len(basis)
        degree += 1
    return MonomialAlgebra(pres, basis, parents)


def parse_element(alg: MonomialAlgebra, text: str) -> Element:
    """Parse an expression of read_terms over the ring variables, such as
    "x^2 + 2*x*y - 1", as the sum of c * e_k over its terms c * m_k:
    the reverse of MonomialAlgebra.terms.

    A monomial outside alg.index is no standard monomial, so it is zero
    and its term drops; nothing is multiplied.  Errors are
    RingSyntaxErrors on line 1 with the column in text.
    """
    f, vec = alg.field, 0
    for c, exps in read_terms(text, alg.presentation.vars):
        k = alg.index.get(exps)
        if k is not None:
            vec = f.addmul(vec, c, 1 << k * f.w)
    return Element.packed(alg, vec)

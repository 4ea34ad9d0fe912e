"""Exact linear algebra over prime fields GF(p).

Vectors are tuples of ints reduced mod p, matrices are tuples of such
rows, and a subspace is always stored as the unique reduced row echelon
basis of its row space, so equal subspaces compare equal structurally.

That basis is kept in the form elimination computes it, and converted
to tuples only at the API edge.  For p == 2 a row is one Python int (bit
j = column j, pivot = least significant set bit) and every row
operation is a single xor, after the packed GF(2) idioms of M4RI
(Albrecht and Bard, The M4RI Library).  For odd p a row is a (pivot,
tuple) pair, so no reduction searches for its pivots.  The packed and
generic paths compute the same canonical objects and are differential
tested against each other.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

Vec = tuple[int, ...]


def _inv(a: int, p: int) -> int:
    return pow(a, -1, p)


def normalize_vec(v: Sequence[int], p: int) -> Vec:
    return tuple([c % p for c in v])


# ---------------------------------------------------------------------------
# packed GF(2) kernel of the module

# byte -> ASCII digit of its parity; ASCII digit -> byte
_PARITY = bytes(0x30 | (b & 1) for b in range(256))
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def pack_vec(v: Sequence[int]) -> int:
    """Bit j of the result is v[j] mod 2."""
    try:
        raw = bytes(v)
    except ValueError:  # entries outside 0..255; parity survives mod 256
        raw = bytes(c % 256 for c in v)
    return int(raw.translate(_PARITY)[::-1], 2) if raw else 0


def unpack_vec(m: int, n: int) -> Vec:
    """The low n bits of m as a 0/1 tuple, bit j at position j."""
    return tuple(format(m, f"0{n}b")[::-1][:n].encode().translate(_DIGITS))


def gf2_reduce(v: int, rows: Sequence[int]) -> int:
    """Reduce v against rows in reduced echelon form (pivot = lowest bit)."""
    for r in rows:
        if v & (r & -r):
            v ^= r
    return v


def gf2_insert(rows: list[int], v: int) -> bool:
    """Insert v into a reduced echelon basis in place; False if dependent."""
    v = gf2_reduce(v, rows)
    if v == 0:
        return False
    piv = v & -v
    for i, r in enumerate(rows):
        if r & piv:
            rows[i] = r ^ v
    insort(rows, v, key=lambda r: r & -r)
    return True


def gf2_rref(vectors: Iterable[int]) -> list[int]:
    rows: list[int] = []
    for v in vectors:
        gf2_insert(rows, v)
    return rows


def gf2_apply(masks: Sequence[int], v: int) -> int:
    """Image of v under the linear map whose column j is masks[j]."""
    out = 0
    while v:
        low = v & -v
        out ^= masks[low.bit_length() - 1]
        v ^= low
    return out


# ---------------------------------------------------------------------------
# generic GF(p) rows: a reduced echelon basis is a list of (pivot, row)
# pairs sorted by pivot, each row monic at its pivot


def _reduce_generic(v: Sequence[int], basis: Sequence[tuple[int, Vec]], p: int) -> Vec:
    w = v
    for piv, r in basis:
        c = w[piv]
        if c:
            w = [(a - c * b) % p for a, b in zip(w, r)]
    return tuple(w)


def _insert_generic(basis: list[tuple[int, Vec]], v: Sequence[int], p: int) -> bool:
    """Insert v into a reduced echelon basis in place; False if dependent."""
    w = _reduce_generic(v, basis, p)
    piv = next((j for j, c in enumerate(w) if c), -1)
    if piv < 0:
        return False
    scale = _inv(w[piv], p)
    w = tuple([(scale * c) % p for c in w])
    for i, (q, r) in enumerate(basis):
        c = r[piv]
        if c:
            basis[i] = (q, tuple([(a - c * b) % p for a, b in zip(r, w)]))
    insort(basis, (piv, w))
    return True


def _echelon(vectors: Iterable[Sequence[int]], p: int) -> list:
    """Packed reduced echelon basis of the span of `vectors`."""
    if p == 2:
        return gf2_rref(map(pack_vec, vectors))
    basis: list[tuple[int, Vec]] = []
    for v in vectors:
        _insert_generic(basis, normalize_vec(v, p), p)
    return basis


def rref_rows(vectors: Iterable[Sequence[int]], p: int, ncols: int) -> tuple[Vec, ...]:
    """Canonical reduced row echelon basis of the span of `vectors`."""
    return Subspace.span(p, ncols, vectors).rows


# ---------------------------------------------------------------------------
# public matrix / subspace types


@dataclass(frozen=True)
class Mat:
    """A matrix over GF(p): tuple of row tuples, entries in [0, p)."""

    p: int
    rows: tuple[Vec, ...]
    ncols: int

    @classmethod
    def from_rows(cls, p: int, rows: Iterable[Sequence[int]], ncols: int) -> "Mat":
        out = tuple(normalize_vec(r, p) for r in rows)
        for r in out:
            if len(r) != ncols:
                raise ValueError("row length does not match ncols")
        return cls(p, out, ncols)


def rref(m: Mat) -> Mat:
    return Mat(m.p, rref_rows(m.rows, m.p, m.ncols), m.ncols)


def transpose(m: Mat) -> Mat:
    cols = tuple(tuple(r[j] for r in m.rows) for j in range(m.ncols))
    return Mat(m.p, cols, len(m.rows))


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(p)^ambient held as its canonical RREF basis.

    `basis` is that basis in packed form: ints for p == 2, (pivot, row)
    pairs for odd p, sorted by pivot either way.  `rows` is the tuple
    view, built on first use.
    """

    p: int
    ambient: int
    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))

    @classmethod
    def span(cls, p: int, ambient: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        return cls(p, ambient, _echelon(vectors, p))

    @classmethod
    def zero(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, ())

    @cached_property
    def rows(self) -> tuple[Vec, ...]:
        if self.p == 2:
            return tuple(unpack_vec(m, self.ambient) for m in self.basis)
        return tuple(r for _, r in self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        if self.p == 2:
            return tuple((m & -m).bit_length() - 1 for m in self.basis)
        return tuple(piv for piv, _ in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Sequence[int]) -> Vec:
        if self.p == 2:
            return unpack_vec(gf2_reduce(pack_vec(v), self.basis), self.ambient)
        return _reduce_generic(normalize_vec(v, self.p), self.basis, self.p)

    def contains(self, v: Sequence[int]) -> bool:
        if self.p == 2:
            return not gf2_reduce(pack_vec(v), self.basis)
        return not any(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.p == 2:
            return not any(gf2_reduce(m, self.basis) for m in other.basis)
        return not any(any(_reduce_generic(r, self.basis, self.p)) for r in other.rows)


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if a.p != b.p or a.ambient != b.ambient:
        raise ValueError("ambient mismatch")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
    basis = list(a.basis)
    if a.p == 2:
        for m in b.basis:
            gf2_insert(basis, m)
    else:
        for r in b.rows:
            _insert_generic(basis, r, a.p)
    return Subspace(a.p, a.ambient, basis)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus block elimination: rows [A|A] and [B|0]; rows whose left
    block vanishes carry the intersection in the right block, already in
    reduced echelon form."""
    _check_compatible(a, b)
    n, p = a.ambient, a.p
    if p == 2:
        mask = (1 << n) - 1
        block = gf2_rref([r | (r << n) for r in a.basis] + list(b.basis))
        return Subspace(p, n, [row >> n for row in block if not (row & mask)])
    block = [r + r for r in a.rows] + [r + (0,) * n for r in b.rows]
    return Subspace(p, n, [(piv - n, r[n:]) for piv, r in _echelon(block, p) if piv >= n])


def kernel(m: Mat) -> Subspace:
    """Right null space {v : each row of m dots v to zero}."""
    reduced = Subspace.span(m.p, m.ncols, m.rows)
    pivots = reduced.pivots
    pivot_set = set(pivots)
    basis = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        v = [0] * m.ncols
        v[f] = 1
        for r, piv in zip(reduced.rows, pivots):
            if r[f]:
                v[piv] = (-r[f]) % m.p
        basis.append(v)
    return Subspace.span(m.p, m.ncols, basis)


def left_kernel(m: Mat) -> Subspace:
    """{a : a . m = 0}, coefficients over the rows of m."""
    return kernel(transpose(m))


# ---------------------------------------------------------------------------
# tagged elimination: solve over a row list while tracking where each
# reduction came from.  Backbone of affine_meet / split_components / solve.


def _tagged_solve(rows: Sequence[tuple[Vec, Vec]], target: Vec, p: int,
                  tag_zero: Vec) -> Optional[Vec]:
    """Eliminate (vector, tag) pairs, then reduce target, accumulating tags.

    Tags are vectors over GF(p) too.  Returns the accumulated tag if
    target lies in the span, else None.  Row operations apply identically
    to vectors and tags, so any linear invariant relating a row to its
    tag is preserved.
    """
    work: list[tuple[int, Vec, list[int]]] = []  # (pivot, monic row, tag)
    for vec, tag in rows:
        vec = list(vec)
        for piv, wv, wt in work:
            c = vec[piv]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, wv)]
                tag = [(a - c * b) % p for a, b in zip(tag, wt)]
        piv = next((j for j, c in enumerate(vec) if c), -1)
        if piv >= 0:
            s = _inv(vec[piv], p)
            work.append((piv, tuple([(s * c) % p for c in vec]), [(s * c) % p for c in tag]))
    residual = list(target)
    acc = tag_zero
    for piv, wv, wt in work:
        c = residual[piv]
        if c:
            residual = [(a - c * b) % p for a, b in zip(residual, wv)]
            acc = [(a + c * b) % p for a, b in zip(acc, wt)]
    if any(residual):
        return None
    return tuple(acc)


def affine_meet(point: Sequence[int], w: Subspace, u: Subspace) -> Optional[Vec]:
    """Some v in (point + w) intersect u, or None if the coset misses u.

    Tags carry the u-component of every working row; the accumulated tag
    of point is then a member of u congruent to point mod w.
    """
    _check_compatible(w, u)
    p, n = w.p, w.ambient
    point = normalize_vec(point, p)
    if len(point) != n:
        raise ValueError("ambient mismatch")
    zero = (0,) * n
    rows = [(r, zero) for r in w.rows] + [(r, r) for r in u.rows]
    return _tagged_solve(rows, point, p, zero)


def split_components(v: Sequence[int], parts: Sequence[Subspace]) -> Optional[list[Vec]]:
    """Write v = sum of one component per part; None if v is outside the sum.

    The parts are expected to be independent; with overlap the returned
    components are still a valid splitting, just not the unique one.
    """
    if not parts:
        raise ValueError("no parts")
    p, n = parts[0].p, parts[0].ambient
    for s in parts[1:]:
        _check_compatible(parts[0], s)
    v = normalize_vec(v, p)
    k = len(parts)
    # one flat tag per row: its copy in the block of the part it came from
    rows = []
    for i, s in enumerate(parts):
        for r in s.rows:
            tag = [0] * (k * n)
            tag[i * n:(i + 1) * n] = r
            rows.append((r, tag))
    got = _tagged_solve(rows, v, p, (0,) * (k * n))
    return None if got is None else [got[i * n:(i + 1) * n] for i in range(k)]


def solve_combination(rows: Sequence[Sequence[int]], target: Sequence[int], p: int) -> Optional[Vec]:
    """Coefficients c with sum c_i * rows_i = target, or None."""
    if not rows:
        return None if any(c % p for c in target) else ()
    n = len(rows[0])
    k = len(rows)
    zero = (0,) * k
    tagged = []
    for i, r in enumerate(rows):
        tag = [0] * k
        tag[i] = 1
        tagged.append((normalize_vec(r, p), tuple(tag)))
    target = normalize_vec(target, p)
    if len(target) != n:
        raise ValueError("ambient mismatch")
    return _tagged_solve(tagged, target, p, zero)

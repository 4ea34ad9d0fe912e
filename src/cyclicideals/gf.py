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

Every row operation runs in one of two kernel pairs, gf2_reduce /
gf2_insert and _reduce_generic / _insert_generic.  Intersections,
kernels and solves eliminate block rows [left | right] on them, the
right block in the columns above the left one (for p == 2, the bits
above bit n).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

Vec = tuple[int, ...]


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
    scale = pow(w[piv], -1, p)
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


def direct_sum(p: int, ambient: int, parts: Iterable[Subspace]) -> Optional[Subspace]:
    """The sum of the parts when it is direct, None when they overlap."""
    total = Subspace.zero(p, ambient)
    for s in parts:
        grown = subspace_sum(total, s)
        if grown.dim != total.dim + s.dim:
            return None
        total = grown
    return total


def vanishing_block(p: int, n: int, rows: Sequence) -> list:
    """Zassenhaus block elimination over [left | right] rows, the left
    block n columns wide: the rows whose left block vanishes carry their
    right blocks out as a packed reduced echelon basis."""
    if p == 2:
        return [r >> n for r in gf2_rref(rows) if not r & ((1 << n) - 1)]
    return [(piv - n, r[n:]) for piv, r in _echelon(rows, p) if piv >= n]


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """a meet b, from the rows [A|A] and [B|0]."""
    _check_compatible(a, b)
    n, p = a.ambient, a.p
    if p == 2:
        rows = [r | r << n for r in a.basis] + list(b.basis)
    else:
        rows = [r + r for r in a.rows] + [r + (0,) * n for r in b.rows]
    return Subspace(p, n, vanishing_block(p, n, rows))


def left_kernel(m: Mat) -> Subspace:
    """{a : a . m = 0}, coefficients over the rows of m, from the rows
    [m_i | e_i]."""
    n, p, k = m.ncols, m.p, len(m.rows)
    if p == 2:
        rows = [pack_vec(r) | 1 << (n + i) for i, r in enumerate(m.rows)]
    else:
        rows = [r + tuple(int(j == i) for j in range(k)) for i, r in enumerate(m.rows)]
    return Subspace(p, k, vanishing_block(p, n, rows))


def kernel(m: Mat) -> Subspace:
    """Right null space {v : each row of m dots v to zero}."""
    return left_kernel(transpose(m))


# ---------------------------------------------------------------------------
# tagged elimination: solve over [vec | tag] rows while tracking where
# each reduction came from.  Backbone of affine_meet / split_components /
# solve_combination.


def _tagged_solve(rows: Sequence, target: Vec, p: int, n: int, width: int
                  ) -> Optional[Vec]:
    """The tag of target over the [vec | tag] rows, None when target is
    outside the span of their vecs.

    Rows are packed for the row kernels, the vec in the low n columns
    and a tag `width` columns wide above it (for p == 2, tag bits above
    bit n).  A row whose vec reduces to zero is dropped, so the kept
    rows are the greedy basis of the vecs in row order; target is then
    sum c_j vec_j over that basis in exactly one way, and the result is
    sum c_j tag_j, whatever order the elimination runs in.
    """
    if p == 2:
        mask = (1 << n) - 1
        basis: list = []
        for r in rows:
            r = gf2_reduce(r, basis)
            if r & mask:
                gf2_insert(basis, r)
        res = gf2_reduce(pack_vec(target), basis)
        return None if res & mask else unpack_vec(res >> n, width)
    basis = []
    for r in rows:
        r = _reduce_generic(r, basis, p)
        if any(r[:n]):
            _insert_generic(basis, r, p)
    # target - sum c_j (vec_j | tag_j) leaves -sum c_j tag_j in the tag
    res = _reduce_generic(target + (0,) * width, basis, p)
    return None if any(res[:n]) else tuple([-c % p for c in res[n:]])


def affine_meet(point: Sequence[int], w: Subspace, u: Subspace) -> Optional[Vec]:
    """Some v in (point + w) intersect u, or None if the coset misses u:
    the u-component of point split over [w, u]."""
    got = split_components(point, [w, u])
    return None if got is None else got[1]


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
    if len(v) != n:
        raise ValueError("ambient mismatch")
    k = len(parts)
    # each row's tag is its copy in the block of the part it came from
    if p == 2:
        rows = [r | r << (n * (i + 1)) for i, s in enumerate(parts) for r in s.basis]
    else:
        rows = [r + (0,) * (n * i) + r + (0,) * (n * (k - 1 - i))
                for i, s in enumerate(parts) for r in s.rows]
    got = _tagged_solve(rows, v, p, n, k * n)
    return None if got is None else [got[i * n:(i + 1) * n] for i in range(k)]


def solve_combination(rows: Sequence[Sequence[int]], target: Sequence[int], p: int) -> Optional[Vec]:
    """Coefficients c with sum c_i * rows_i = target, or None."""
    if not rows:
        return None if any(c % p for c in target) else ()
    n, k = len(rows[0]), len(rows)
    target = normalize_vec(target, p)
    if len(target) != n:
        raise ValueError("ambient mismatch")
    if p == 2:
        tagged = [pack_vec(r) | 1 << (n + i) for i, r in enumerate(rows)]
    else:
        tagged = [normalize_vec(r, p) + tuple(int(j == i) for j in range(k))
                  for i, r in enumerate(rows)]
    return _tagged_solve(tagged, target, p, n, k)

"""Exact linear algebra over prime fields GF(p) on packed rows.

A vector over GF(p) is one Python int, its packed row: coordinate j
sits in the W-bit field at bits [jW, (j + 1)W), W fixed per p, and every
field holds a value reduced mod p.  A linear map is the list of the
packed rows of its columns.  A subspace is always stored as the unique
reduced row echelon basis of its row space, packed rows sorted by
pivot, so equal subspaces compare equal structurally.  Tuples of ints
appear only at the API edge: pack and unpack convert, and rref_rows,
Subspace.span and the Subspace tuple views take or give them.

For p == 2, W = 1 and every row operation is a single xor, after the
packed GF(2) idioms of M4RI (Albrecht and Bard, The M4RI Library).

For odd p a row operation is v + (p - c) r, whose fields stay below
p^2, followed by one field-wise reduction mod p made of whole-int
operations: with m = ceil(2^s / p), the quotient floor(x / p) of each
field x is bits [s, W) of that field of v * m, and the reduction
subtracts p times it.  This is exact for every field x < p^2 once
2^s >= p^3: e = m p - 2^s lies in [0, p), so x m / 2^s = x / p +
x e / (p 2^s), and the second term is below p^2 / 2^s <= 1 / p, too
small to carry x / p past the next integer.  W holds (p^2 - 1) m, so no
field of v * m spills into the next one.

A row's pivot is its lowest nonzero field, read off its lowest set bit.
Basis rows are monic at their pivots, so their lowest set bits sort
them by pivot.  A basis that is reduced against or grown is an Echelon:
its rows, a pivot mask with each row's lowest set bit, the union of
the rows and, for odd p, the pivot fields' bits, mask * (2^W - 1).
Every row of a reduced echelon basis is zero at every other
pivot, so reducing v costs one row operation per pivot where v is
nonzero, the fields of v & fields; the row for a pivot is
found by counting the mask bits below it, and the rows v misses are
never visited.  Placing a reduced v rewrites only rows pivoted below
it, and none at all when the union is zero at v's pivot.  Every row
operation runs in one kernel pair per field: gf2_reduce / gf2_place for
p == 2 and PackedField.reduce / .place otherwise, insert being reduce
followed by place.  A splitting (splitter) eliminates block rows
[vec | tag] on them, each tag block in the fields above the vec block:
shifted by n W per block for a vec n coordinates wide.  The same
elimination yields the meet of the last part with the others, from the
tags of the rows whose vec drops out, so one pass both splits over
[L, i] and finds i meet L; it is the module's one block elimination,
and a meet of two subspaces is read from it too.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union

Vec = tuple[int, ...]


# ---------------------------------------------------------------------------
# echelon bases


class Echelon:
    """A reduced echelon basis of packed rows, grown in place by insert.

    `rows` are sorted by pivot, so tuple(rows) is the canonical basis.
    `mask` holds each row's pivot bit, its lowest set bit (bit jW for
    pivot j), so the row for pivot bit b is rows[(mask & (b - 1)).bit_count()].
    `union` is nonzero in field j exactly when some row is, the OR of the
    rows for p == 2.  `fields` is mask * (2^W - 1), every bit of the pivot
    fields, kept by the odd-p kernels alone: None until PackedField.reduce
    first forms it, then grown by PackedField.place, so a wide row pays
    for the product once per basis and the p == 2 kernels, whose mask is
    its own field mask, never form it.  Building one costs one pass over
    its rows, none for an empty basis.  Equal by rows, which fix the
    rest; unhashable, as it grows in place.
    """

    __slots__ = ("rows", "mask", "union", "fields")

    def __init__(self, rows: Iterable[int] = ()):
        self.rows = rows = list(rows)
        mask = union = 0
        for r in rows:
            mask |= r & -r
            union |= r
        self.mask, self.union, self.fields = mask, union, None

    def __eq__(self, other):
        return self.rows == other.rows if other.__class__ is Echelon else NotImplemented

    def copy(self) -> "Echelon":
        e = Echelon.__new__(Echelon)
        e.rows, e.mask, e.union, e.fields = self.rows[:], self.mask, self.union, self.fields
        return e


# ---------------------------------------------------------------------------
# packed GF(2) kernel of the module

def pack_vec(v: Sequence[int]) -> int:
    """Bit j of the result is v[j] mod 2."""
    out = 0
    for c in reversed(v):
        out = out << 1 | c & 1
    return out


def unpack_vec(m: int, n: int) -> Vec:
    """The low n bits of m as a 0/1 tuple, bit j at position j."""
    return tuple([m >> j & 1 for j in range(n)])


def gf2_reduce(v: int, e: Echelon) -> int:
    """Reduce v against the echelon basis: one xor per pivot v hits, as
    each row is zero at every other pivot."""
    mask, rows = e.mask, e.rows
    hit = v & mask
    while hit:
        b = hit & -hit
        v ^= rows[(mask & (b - 1)).bit_count()]
        hit ^= b
    return v


def gf2_place(e: Echelon, v: int) -> None:
    """Add v, nonzero and reduced against the echelon basis, to it."""
    piv = v & -v
    rows = e.rows
    at = (e.mask & (piv - 1)).bit_count()
    # only rows pivoted below v can have v's pivot bit, and none has it
    # unless the union does
    if e.union & piv:
        for i in range(at):
            if rows[i] & piv:
                rows[i] ^= v
    rows.insert(at, v)
    e.mask |= piv
    e.union |= v  # a bit a row loses to v is a bit of v


def gf2_insert(e: Echelon, v: int) -> bool:
    """Insert v into the echelon basis in place; False if dependent."""
    v = gf2_reduce(v, e)
    if v == 0:
        return False
    gf2_place(e, v)
    return True


def gf2_apply(masks: Sequence[int], v: int) -> int:
    """Image of v under the linear map whose column j is masks[j]."""
    out = 0
    while v:
        low = v & -v
        out ^= masks[low.bit_length() - 1]
        v ^= low
    return out


# ---------------------------------------------------------------------------
# one packed row layout per prime


class _Rows:
    """insert and rref on a field's reduce and place."""

    def insert(self, e: Echelon, v: int) -> bool:
        """Insert v into the echelon basis in place; False if dependent."""
        v = self.reduce(v, e)
        if not v:
            return False
        self.place(e, v)
        return True

    def rref(self, vectors: Iterable[int]) -> list[int]:
        """The rows of the reduced echelon basis of the span of vectors."""
        e = Echelon()
        for v in vectors:
            self.insert(e, v)
        return e.rows


class _GF2(_Rows):
    """The p == 2 kernels behind the PackedField interface, W = 1."""

    p, w, one = 2, 1, 1

    def pack(self, v: Sequence[int]) -> int:
        return pack_vec(v)

    def unpack(self, x: int, n: int) -> Vec:
        return unpack_vec(x, n)

    def reduce(self, v: int, e: Echelon) -> int:
        return gf2_reduce(v, e)

    def place(self, e: Echelon, v: int) -> None:
        gf2_place(e, v)

    def insert(self, e: Echelon, v: int) -> bool:
        return gf2_insert(e, v)

    def apply(self, masks: Sequence[int], v: int) -> int:
        return gf2_apply(masks, v)

    def addmul(self, x: int, c: int, y: int) -> int:
        return x ^ y if c & 1 else x


class PackedField(_Rows):
    """GF(p) rows for odd p, coordinate j in the W-bit field at bit jW
    (the module docstring states the layout and why mod is exact)."""

    def __init__(self, p: int):
        s = (p ** 3 - 1).bit_length()  # least s with 2^s >= p^3
        m = -(-(1 << s) // p)
        self.p, self.s, self.m = p, s, m
        self.w = w = ((p * p - 1) * m).bit_length()
        self.one = (1 << w) - 1  # the bits of field 0
        self._top = (1 << w) - (1 << s)  # bits [s, W) of field 0
        self._bits = 0
        self._quot = 0  # bits [s, W) of every field below bit _bits

    def _widen(self, bits: int) -> None:
        fields = max(-(-bits // self.w), 2 * self._bits // self.w, 64)
        self._bits = fields * self.w
        self._quot = self._top * (((1 << self._bits) - 1) // self.one)

    def mod(self, x: int) -> int:
        """Each field of x reduced mod p; every field must be below p^2."""
        if x >> self._bits:
            self._widen(x.bit_length())
        return x - ((x * self.m & self._quot) >> self.s) * self.p

    def pack(self, v: Sequence[int]) -> int:
        p, w = self.p, self.w
        out = 0
        for c in reversed(v):
            out = out << w | c % p
        return out

    def unpack(self, x: int, n: int) -> Vec:
        w, one = self.w, self.one
        return tuple([x >> (w * j) & one for j in range(n)])

    def reduce(self, v: int, e: Echelon) -> int:
        """Reduce v against the echelon basis: one row operation per
        pivot field where v is nonzero, as each row is zero at every
        other pivot."""
        mask, rows, fields = e.mask, e.rows, e.fields
        if fields is None:
            fields = e.fields = mask * self.one
        hit = v & fields  # v's pivot fields
        p, w, mod, n = self.p, self.w, self.mod, len(rows)
        while hit:  # top field first, so c needs no mask
            sh = hit.bit_length() - 1
            sh -= sh % w
            c = hit >> sh
            hit ^= c << sh
            v = mod(v + (p - c) * rows[n - (mask >> sh).bit_count()])
        return v

    def place(self, e: Echelon, v: int) -> None:
        """Add v, nonzero and reduced against the echelon basis, to it."""
        p, one, mod, rows = self.p, self.one, self.mod, e.rows
        sh = (v & -v).bit_length() - 1
        sh -= sh % self.w
        c = v >> sh & one
        if c != 1:
            v = mod(pow(c, -1, p) * v)
        piv = 1 << sh
        at = (e.mask & (piv - 1)).bit_count()
        # only rows pivoted below v can be nonzero at v's pivot, and none
        # is unless the union is
        if e.union >> sh & one:
            for i in range(at):
                c = rows[i] >> sh & one
                if c:
                    rows[i] = mod(rows[i] + (p - c) * v)
        rows.insert(at, v)
        e.mask |= piv
        e.union |= v  # a field a row loses to v is nonzero in v
        if e.fields is not None:
            e.fields |= one << sh

    def apply(self, masks: Sequence[int], v: int) -> int:
        """Image of v under the linear map whose column j is masks[j];
        reduced after every term, so no field reaches p^2."""
        w, one, mod = self.w, self.one, self.mod
        out = 0
        while v:
            j = ((v & -v).bit_length() - 1) // w
            c = v >> (j * w) & one
            v -= c << (j * w)
            out = mod(out + c * masks[j])
        return out

    def addmul(self, x: int, c: int, y: int) -> int:
        """x + c y for reduced rows x, y and any int c."""
        return self.mod(x + c % self.p * y)


Field = Union[_GF2, PackedField]
_FIELDS: dict[int, Field] = {2: _GF2()}


def packed_field(p: int) -> Field:
    """The packed row layout and kernels of GF(p), one per prime."""
    f = _FIELDS.get(p)
    if f is None:
        f = _FIELDS[p] = PackedField(p)
    return f


# nothing in the package calls it; it moves to tests/reference_kernels.py
# once bench/tracing.py no longer spans it
def rref_rows(vectors: Iterable[Sequence[int]], p: int, ncols: int) -> tuple[Vec, ...]:
    """Canonical reduced row echelon basis of the span of `vectors`."""
    return Subspace.span(p, ncols, vectors).rows


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of GF(p)^ambient held as its canonical RREF basis.

    `basis` is that basis as packed rows (see packed_field), sorted by
    pivot.  `rows` is the tuple view, built on first use.  Immutable,
    equal and hashed by (p, ambient, basis).
    """

    def __init__(self, p: int, ambient: int, basis: Iterable[int]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(basis))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Subspace")

    def _key(self) -> tuple:
        return self.p, self.ambient, self.basis

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Subspace(p={!r}, ambient={!r}, basis={!r})".format(*self._key())

    @classmethod
    def span(cls, p: int, ambient: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        f = packed_field(p)
        return cls(p, ambient, f.rref(map(f.pack, vectors)))

    @classmethod
    def zero(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, ())

    @property
    def field(self) -> Field:
        return packed_field(self.p)

    @cached_property
    def echelon(self) -> Echelon:
        """The basis as an Echelon to reduce against; shared, so copy it
        before inserting."""
        return Echelon(self.basis)

    @cached_property
    def rows(self) -> tuple[Vec, ...]:
        f = self.field
        return tuple(f.unpack(r, self.ambient) for r in self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        w = self.field.w
        return tuple(((r & -r).bit_length() - 1) // w for r in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Sequence[int]) -> Vec:
        f = self.field
        return f.unpack(f.reduce(f.pack(v), self.echelon), self.ambient)

    def contains(self, v: Sequence[int]) -> bool:
        f = self.field
        return not f.reduce(f.pack(v), self.echelon)

    def contains_subspace(self, other: "Subspace") -> bool:
        f, e = self.field, self.echelon
        return not any(f.reduce(r, e) for r in other.basis)


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if a.p != b.p or a.ambient != b.ambient:
        raise ValueError("ambient mismatch")


# nothing in the package calls it; it moves to tests/reference_kernels.py
# once bench/tracing.py no longer spans it
def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """a meet b: the meet of splitter's last part with the others."""
    return splitter([b, a])[1]


# ---------------------------------------------------------------------------
# tagged elimination: solve over [vec | tag] rows while tracking where
# each reduction came from.  The one block elimination of the module:
# splitter, and split_components and subspace_intersect through it.


def splitter(parts: Sequence[Subspace]
             ) -> tuple[Callable[[int], Optional[list[int]]], Subspace]:
    """Eliminate the parts' tagged rows once, and return the map from a
    packed row v to its packed components, one per part and summing to
    v, or to None when v is outside the sum of the parts; and the meet
    of the last part with the sum of the others.

    Each row [vec | tag] carries its vec again as its tag, in the block
    of the part it came from.  A row whose vec reduces to zero is
    dropped, so the kept rows are the greedy basis of the vecs in row
    order, and pivots and row choices depend on the vecs alone.  The
    parts are expected to be independent; with overlap the components
    are still a valid splitting, just not the unique one.  A row of the
    last part that drops out has tag blocks summing to its zero vec, so
    its last block lies in the last part and in the sum of the others:
    with the others independent those blocks span the meet, one per
    dimension of it.
    """
    if not parts:
        raise ValueError("no parts")
    for s in parts[1:]:
        _check_compatible(parts[0], s)
    f, last = parts[0].field, len(parts)
    shift = parts[0].ambient * f.w
    mask = (1 << shift) - 1
    basis, meet = Echelon(), []
    for i, s in enumerate(parts, 1):
        for r in s.basis:
            r = f.reduce(r | r << shift * i, basis)
            if r & mask:
                f.place(basis, r)
            elif i == last:
                meet.append(r >> shift * last)

    def split(v: int) -> Optional[list[int]]:
        if v >> shift:
            raise ValueError("ambient mismatch")
        # v - sum c_j (vec_j | tag_j) leaves -sum c_j tag_j in the tags
        res = f.reduce(v, basis)
        tags = f.addmul(0, -1, res >> shift)
        return None if res & mask else [tags >> shift * i & mask for i in range(last)]
    return split, Subspace(parts[0].p, parts[0].ambient, f.rref(meet))


# nothing in the package calls it; it moves to tests/reference_kernels.py
# once bench/tracing.py no longer spans it
def split_components(v: int, parts: Sequence[Subspace]) -> Optional[list[int]]:
    """Write the packed row v = sum of one packed component per part;
    None if v is outside the sum.  The splitter of the parts, applied once."""
    return splitter(parts)[0](v)

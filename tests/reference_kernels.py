"""Tuple row kernels over GF(p): the reference the packed kernels of
`cyclicideals.gf` and the packed products of `cyclicideals.rings` are
tested against.

A reduced echelon basis is a list of (pivot, row) pairs sorted by
pivot, each row a tuple monic at its pivot.  Every operation is plain
arithmetic mod p on one coordinate at a time, so nothing here shares a
layout or a reduction trick with the packed rows.  Products add
exponents over the monomial basis, so they share neither the successor
maps nor mult_map, and the ideal closure queues each of them, zero
products too.  The standard monomials come from a walk of the whole
exponent box and one sort, not from their divisors.  Element
expressions are read by recursive descent and multiplied out, each power
by repeated products, not summed off the monomial index, and rendered by
a walk over every coordinate of the unpacked row, not over its terms.
Two cover walks over the vectors of an ideal, the Gray-code walk that
left the package and the depth-first search that pins its pick, share
the packed rows and the cyclic table with the package instead.

The last section keeps helpers that left the package because no path of
it calls them: power_form with its packed solver, the principal ideal
ring test, the subset-closure census and the packed socle of R/I.
"""

import heapq
import re
from bisect import insort


def normalize(v, p):
    """v with every coordinate reduced mod p, as a tuple."""
    return tuple([c % p for c in v])


def reduce_rows(v, basis, p):
    """v reduced against the (pivot, row) basis."""
    w = v
    for piv, r in basis:
        c = w[piv]
        if c:
            w = [(a - c * b) % p for a, b in zip(w, r)]
    return tuple(w)


def insert_row(basis, v, p):
    """Insert v into a reduced echelon basis in place; False if dependent."""
    w = reduce_rows(v, basis, p)
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


def echelon(vectors, p):
    """The (pivot, row) reduced echelon basis of the span of vectors."""
    basis = []
    for v in vectors:
        insert_row(basis, tuple(c % p for c in v), p)
    return basis


def vanishing_block(n, rows, p):
    """Right blocks of the echelon rows of [left | right] whose left
    block, n coordinates wide, vanishes."""
    return tuple(r[n:] for piv, r in echelon(rows, p) if piv >= n)


def intersect(a_rows, b_rows, n, p):
    """Echelon rows of span(a) meet span(b), from [A|A] and [B|0]."""
    rows = [tuple(r) + tuple(r) for r in a_rows] + [tuple(r) + (0,) * n for r in b_rows]
    return vanishing_block(n, rows, p)


def left_kernel(m_rows, n, p):
    """Echelon rows of {a : a . m = 0}, from [m_i | e_i]."""
    k = len(m_rows)
    rows = [tuple(r) + tuple(int(j == i) for j in range(k)) for i, r in enumerate(m_rows)]
    return vanishing_block(n, rows, p)


def tagged_solve(rows, target, p, n, width):
    """The tag of target over the [vec | tag] rows, None when target is
    outside the span of their vecs; rows whose vec reduces to zero are
    dropped, so the answer is read over the greedy basis in row order."""
    basis = []
    for r in rows:
        r = reduce_rows(r, basis, p)
        if any(r[:n]):
            insert_row(basis, r, p)
    res = reduce_rows(tuple(target) + (0,) * width, basis, p)
    return None if any(res[:n]) else tuple([-c % p for c in res[n:]])


def split_components(v, parts_rows, n, p):
    """One component of v per part, or None when v is outside their sum."""
    k = len(parts_rows)
    rows = [tuple(r) + (0,) * (n * i) + tuple(r) + (0,) * (n * (k - 1 - i))
            for i, part in enumerate(parts_rows) for r in part]
    got = tagged_solve(rows, tuple(c % p for c in v), p, n, k * n)
    return None if got is None else [got[i * n:(i + 1) * n] for i in range(k)]


def solve_combination(rows, target, p):
    """Coefficients c with sum c_i rows_i = target, or None."""
    n, k = len(target), len(rows)
    tagged = [tuple(c % p for c in r) + tuple(int(j == i) for j in range(k))
              for i, r in enumerate(rows)]
    return tagged_solve(tagged, tuple(c % p for c in target), p, n, k)


def transpose(rows, ncols):
    """The columns of the matrix with the given rows, ncols wide."""
    return tuple(tuple(r[j] for r in rows) for j in range(ncols))


def kernel(m_rows, ncols, p):
    """Echelon rows of the right null space {v : each row of m dots v to
    zero}: the left kernel of the transpose."""
    return left_kernel(transpose(m_rows, ncols), len(m_rows), p)


def product(alg, a, b):
    """a * b on coefficient tuples.

    Over a monomial algebra, m_i * m_j is the basis monomial with
    exponent m_i + m_j, or zero when that is no standard monomial.  Over
    a quotient R/I, it is the product of the lifts in R, reduced modulo
    I and read off the non-pivot coordinates.
    """
    p = alg.p
    source = getattr(alg, "source", None)
    if source is not None:
        def lift(c):
            out = [0] * source.dim
            for x, j in zip(c, alg.nonpivot):
                out[j] = x
            return out
        prod = reduce_rows(product(source, lift(a), lift(b)), echelon(alg.ideal.rows, p), p)
        return tuple(prod[j] for j in alg.nonpivot)
    out = [0] * alg.dim
    terms_b = [(alg.basis[j], cb) for j, cb in enumerate(b) if cb % p]
    for i, ca in enumerate(a):
        if ca % p:
            for mb, cb in terms_b:
                k = alg.index.get(tuple(x + y for x, y in zip(alg.basis[i], mb)))
                if k is not None:
                    out[k] = (out[k] + ca * cb) % p
    return tuple(out)


def closure(alg, vectors):
    """The reduced echelon rows, as tuples, of the smallest ideal holding
    the coefficient tuples vectors: the closure loop one product at a
    time, every product queued, zero ones too."""
    basis = []
    queue = list(vectors)
    while queue:
        v = queue.pop()
        if insert_row(basis, v, alg.p):
            queue.extend(product(alg, g.coeffs, v) for g in alg.gens)
    return tuple(r for _, r in basis)


def el_str(alg, vec):
    """str of the element of a monomial algebra whose packed row is vec,
    read off its coordinate tuple: each nonzero coordinate names its
    basis monomial."""
    from cyclicideals.rings import mono_str

    names = alg.presentation.vars
    parts = []
    for i, c in enumerate(alg.field.unpack(vec, alg.dim)):
        if not c:
            continue
        mono = mono_str(alg.basis[i], names)
        if mono == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


def standard_monomials(pres, max_dim):
    """The basis of build_algebra(pres, max_dim) by walking the exponent
    box: every exponent tuple below the pure-power caps and the
    truncation, kept when no relation divides it, then sorted by degree
    and descending exponents.  Raises rings.DimensionLimitError when more
    than max_dim survive."""
    from cyclicideals.rings import DimensionLimitError, mono_degree, mono_divides

    nv = len(pres.vars)
    caps = []
    for i in range(nv):
        pure = [r[i] for r in pres.relations if r[i] > 0 and mono_degree(r) == r[i]]
        cap = min(pure) if pure else None
        if pres.truncate is not None:
            cap = pres.truncate if cap is None else min(cap, pres.truncate)
        caps.append(cap)
    basis = []
    bound = pres.truncate

    def extend(prefix, degree):
        if len(prefix) == nv:
            mono = tuple(prefix)
            if not any(mono_divides(r, mono) for r in pres.relations):
                basis.append(mono)
                if len(basis) > max_dim:
                    raise DimensionLimitError("dimension exceeds configured limit")
            return
        e = 0
        while e < caps[len(prefix)] and (bound is None or degree + e < bound):
            extend(prefix + [e], degree + e)
            e += 1

    extend([], 0)
    basis.sort(key=lambda m: (mono_degree(m), tuple(-k for k in m)))
    return tuple(basis)


def packed_first_cover(alg, rows):
    """A direct cover of the ideal I = span(rows) by cyclic submodules, as
    (generators of the non-simple summands, generators of the simple
    ones), each sorted by subset mask, or None when I is no direct sum of
    cyclic modules.  GF(2); rows is a packed reduced echelon basis.  It
    left the package when the oracle came to decide every ideal on the
    lattice below it; the tests keep it as the independent walk of the
    vectors of I that the lattice is checked against.

    Any one cover decides: Rg = R/Ann(g) is indecomposable over a local
    ring, so by Krull-Schmidt every direct cover of I has the same
    summands up to isomorphism.  Take any g_1, ..., g_n in I whose
    classes form a basis of I/MI.  Nakayama gives sum Rg_k = I, so
    sum dim Rg_k >= dim I, with equality exactly when the sum is direct.
    Every direct cover has that form: I/MI is the direct sum of the lines
    Rg_k/Mg_k, so the g_k lie outside MI, are independent modulo MI, and
    number mu(I).  So I is a direct sum of cyclic modules exactly when
    the minimum of sum w(c_k) over bases {c_k} of I/MI is dim I, where
    w(c) = min dim Rv over the lifts v in c + MI.  The bases of a vector
    space are those of a matroid, so taking classes greedily by weight
    finds a minimum-weight basis.  Each class keeps its lift of least
    (dim Rv, subset mask), and the classes are taken in that order.

    Lifts come from walking the subsets of rows in Gray-code order, one
    XOR for the vector and one for its class modulo MI per step
    (reduction against an echelon basis is linear).  Only vectors
    outside MI are read from the packed cyclic table, which refuses an
    odd p and a dim M past its limit.
    """
    from cyclicideals import gf
    from cyclicideals.ideals import _packed_times_m, packed_cyclic_table

    table = packed_cyclic_table(alg)
    mi = _packed_times_m(alg, rows)
    mi_basis = gf.Echelon(mi)
    classes = [gf.gf2_reduce(r, mi_basis) for r in rows]
    lightest = {}
    mask = v = cls = 0
    for s in range(1, 1 << len(rows)):
        b = (s & -s).bit_length() - 1
        mask ^= 1 << b
        v ^= rows[b]
        cls ^= classes[b]
        if cls:
            lift = (len(table[v]), mask, v, cls)
            if cls not in lightest or lift < lightest[cls]:
                lightest[cls] = lift
    heap = list(lightest.values())
    heapq.heapify(heap)  # cheaper than sorting every class
    basis = gf.Echelon()
    chosen = []
    while len(basis.rows) < len(rows) - len(mi):
        lift = heapq.heappop(heap)
        if gf.gf2_insert(basis, lift[3]):
            chosen.append(lift)
    if sum(lift[0] for lift in chosen) != len(rows):
        return None
    chosen.sort(key=lambda lift: lift[1])
    return ([v for d, _, v, _ in chosen if d > 1], [v for d, _, v, _ in chosen if d == 1])


def reference_first_cover(alg, rows):
    """The first cover of a depth-first search, as (non-simple, simple)
    generator lists: the reference that pins the cover the greedy
    minimum-weight basis of packed_first_cover picks.

    Unlike the kernels above it shares the packed rows and the cyclic
    table with the package.  It lists one generator per cyclic submodule
    (the smallest subset mask of rows), searches the non-simple ones
    depth-first in mask order, at most mu(MI) deep, and completes each
    node greedily from the reduced echelon basis of the simple ones.
    """
    from cyclicideals import gf
    from cyclicideals.ideals import _packed_times_m, packed_cyclic_table

    table = packed_cyclic_table(alg)
    mi = _packed_times_m(alg, rows)
    mi_basis = gf.Echelon(mi)
    classes = [gf.gf2_reduce(r, mi_basis) for r in rows]
    firsts: dict[tuple[int, ...], tuple[int, int]] = {}
    mask = v = cls = 0
    for s in range(1, 1 << len(rows)):
        b = (s & -s).bit_length() - 1
        mask ^= 1 << b
        v ^= rows[b]
        cls ^= classes[b]
        if cls:
            cyc = table[v]
            if cyc not in firsts or mask < firsts[cyc][0]:
                firsts[cyc] = (mask, v)
    soc = gf.packed_field(2).rref(v for cyc, (_, v) in firsts.items() if len(cyc) == 1)
    cands = sorted((mask, v, cyc) for cyc, (mask, v) in firsts.items() if len(cyc) > 1)
    depth = len(mi) - len(_packed_times_m(alg, mi))
    target = len(rows)

    def search(start: int, heads, span, chosen: list[int]):
        work = span.copy()
        simples = [r for r in soc if gf.gf2_insert(work, r)]
        if len(work.rows) == target:
            return chosen, simples
        if len(chosen) < depth:
            for idx in range(start, len(cands)):
                _, v, cyc = cands[idx]
                grown, merged = heads.copy(), span.copy()
                if (len(span.rows) + len(cyc) <= target and gf.gf2_insert(grown, v)
                        and all(gf.gf2_insert(merged, r) for r in cyc)):
                    found = search(idx + 1, grown, merged, chosen + [v])
                    if found is not None:
                        return found
        return None

    return search(0, gf.Echelon(mi), gf.Echelon(), [])


def parse_element(alg, text):
    """The element of a polynomial expression over alg's variables, read
    by recursive descent and multiplied out: every factor is an element,
    x^n is the power x ** n, and a term is the product of its factors.
    Exponents here may be 0; ValueError on a malformed expression."""
    tokens = re.findall(r"\d+|[A-Za-z_][A-Za-z0-9_]*|\^|\*|\+|-|\S", text)
    pos = 0

    def fail(msg: str):
        raise ValueError(f"bad element expression: {msg} (near token {pos})")

    def parse_factor():
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end")
        tok = tokens[pos]
        if tok.isdigit():
            pos += 1
            return alg.unit().scale(int(tok))
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            if tok not in alg.presentation.vars:
                fail(f"unknown variable '{tok}'")
            pos += 1
            base = alg.var(tok)
            if pos < len(tokens) and tokens[pos] == "^":
                pos += 1
                if pos >= len(tokens) or not tokens[pos].isdigit():
                    fail("exponent must be an integer")
                n = int(tokens[pos])
                pos += 1
                return base ** n
            return base
        fail(f"unexpected token '{tok}'")

    def parse_term():
        nonlocal pos
        out = parse_factor()
        while pos < len(tokens) and tokens[pos] == "*":
            pos += 1
            out = out * parse_factor()
        return out

    if not tokens:
        fail("empty expression")
    negate = False
    if tokens[pos] in "+-":
        negate = tokens[pos] == "-"
        pos += 1
    total = parse_term()
    if negate:
        total = -total
    while pos < len(tokens):
        op = tokens[pos]
        if op not in "+-":
            fail(f"unexpected token '{op}'")
        pos += 1
        term = parse_term()
        total = total - term if op == "-" else total + term
    return total


# ---------------------------------------------------------------------------
# helpers that left the package: no path of it calls them, and the tests
# keep them as references


class NotExpressibleError(ValueError):
    """power_form got an element outside unit * x^n form."""


def solve_packed(p, n, rows, target):
    """Packed coefficients c with sum c_i * rows_i = target, or None,
    over packed rows n coordinates wide."""
    from cyclicideals import gf

    f = gf.packed_field(p)
    mask = (1 << n * f.w) - 1
    basis = gf.Echelon()  # the rows [rows_i | e_i], eliminated
    for i, r in enumerate(rows):
        r = f.reduce(r | 1 << (n + i) * f.w, basis)
        if r & mask:
            f.place(basis, r)
    res = f.reduce(target, basis)
    return None if res & mask else f.addmul(0, -1, res >> n * f.w)


def power_form(alg, x, z):
    """Write z = a * x^n with a a unit and n >= 1.

    Every nonzero member of Rx has this form when Mx = Rx^2, that is,
    when x generates the maximal ideal of R/Ann(x) (the caller's
    responsibility to ensure; a witness axis always does).  R/Ann(x)
    being a principal ideal ring is not enough: in GF(2)[t]/(t^4) with
    x = t^2 it is GF(2)[t]/(t^2), yet t^3 in Rx is no unit times a power
    of x.  Raises NotExpressibleError when z has no such form, or is
    zero or outside Rx.

    Column k of mult_map(x^n) is e_k * x^n, so it is mult_map(x) applied
    to column k of mult_map(x^(n-1)).
    """
    from cyclicideals import gf
    from cyclicideals.rings import Element

    if z.is_zero():
        raise NotExpressibleError("not expressible")
    p, dim, f = alg.p, alg.dim, alg.field
    cols = alg.mult_map(x)
    target = z.vec
    if f.reduce(target, gf.Echelon(f.rref(cols))):
        raise NotExpressibleError("not expressible")  # z is outside Rx
    rows = cols
    for n in range(1, dim + 1):
        if not rows[0]:  # row 0 is x^n itself
            break
        a = solve_packed(p, dim, rows, target)
        # the solution coset is a + Ann(x^n) which sits inside the maximal
        # ideal whenever x^n != 0, so a unit solution exists iff a is one
        if a is not None and a & f.one:
            return Element.packed(alg, a), n
        rows = [f.apply(cols, r) for r in rows]
    raise NotExpressibleError("not expressible")


def is_principal_ideal_ring(alg):
    """True when the maximal ideal needs at most one generator.

    For these finite-dimensional local algebras that is equivalent to
    every ideal being principal.  On a truncated model the verdict
    refers to the truncation.
    """
    from cyclicideals.ideals import maximal_ideal, min_generators

    return min_generators(alg, maximal_ideal(alg)) <= 1


def enumerate_ideals_subsets(alg):
    """Independent re-enumeration of the census keys: close every subset
    of the nonzero vectors of M.  Exponential in 2^dim(M); the
    cross-check partner for the breadth-first census at very small
    sizes.  The keys come in the census order: by dim, then by their
    rows as 0/1 tuples read from coordinate 0, R last."""
    from cyclicideals.ideals import InfeasibleSizeError, packed_closure

    mdim = alg.dim - 1
    if alg.p != 2 or mdim > 4:
        raise InfeasibleSizeError("subset enumeration needs GF(2) and dim M <= 4")
    vectors = [m << 1 for m in range(1, 1 << mdim)]
    seen = set()
    for mask in range(1 << len(vectors)):
        seeds = [v for b, v in enumerate(vectors) if mask >> b & 1]
        seen.add(tuple(packed_closure(alg, (), seeds)))
    bits = range(alg.dim)
    ordered = sorted(seen, key=lambda key: (len(key), [[r >> j & 1 for j in bits] for r in key]))
    return ordered + [tuple(1 << j for j in bits)]


def packed_socle(alg, rows):
    """Packed RREF of the socle of R/I, for the ideal I = span(rows) in
    packed reduced echelon form: the v in M, zero at every pivot of I,
    with g*v in I for every generator g.  With rows = () it is soc(M).

    One elimination of the rows [images of e_k mod I, one block per
    generator | e_k] over the non-pivot coordinates k >= 1; the rows
    whose image blocks vanish carry the socle out in their e blocks.
    """
    from cyclicideals import gf

    f, actions = alg.field, alg.action_masks()
    n = alg.dim
    width = n * len(actions)
    e = gf.Echelon(rows)
    block = []
    for k in range(1, n):
        if not e.mask >> k * f.w & 1:
            images = 0
            for j, masks in enumerate(actions):
                images |= f.reduce(masks[k], e) << (n * j * f.w)
            block.append(images | 1 << (width + k) * f.w)
    shift = width * f.w
    return [r >> shift for r in f.rref(block) if not r & (1 << shift) - 1]

"""Exact integer matrix arithmetic and lattice algorithms.

Everything runs on Python's arbitrary-precision integers; no floating
point is used anywhere.  Matrices are immutable values, all functions are
pure, so concurrent use needs no locking.

Normal forms follow the usual conventions:

* ``sparse_echelon`` is the one integer row reduction; ``hnf``,
  ``hnf_basis``, ``rank`` and ``kernel_lattice`` read their answers off
  it.  ``hnf`` returns a row Hermite normal form: echelon shape, positive
  pivots, entries above each pivot reduced into ``[0, pivot)``.
* ``snf`` returns a Smith decomposition ``U A V = S`` with nonnegative
  diagonal and the divisibility chain ``d_i | d_{i+1}``.  It is
  two-sided, so it keeps its own elimination.

Returned lattice bases are always in Hermite form, so equal sublattices
compare equal entry-by-entry.  ``rref_mod`` is the one computation over a
finite field: the canonical reduced echelon form of a row space over F_p.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


class IntMatrix:
    """Dense integer matrix; entries stored row-major in one flat tuple."""

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(entries)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self.entries = data
        self._hash = None

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rows(rows_data: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows_data = [list(r) for r in rows_data]
        if rows_data:
            width = len(rows_data[0])
            if any(len(r) != width for r in rows_data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("declared column count does not match rows")
            cols = width
        elif cols is None:
            cols = 0
        flat = [e for r in rows_data for e in r]
        return IntMatrix(len(rows_data), cols, flat)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, (1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def vstack(mats: Sequence["IntMatrix"], cols: int | None = None) -> "IntMatrix":
        if not mats:
            if cols is None:
                raise ValueError("vstack of nothing needs an explicit column count")
            return IntMatrix(0, cols, ())
        width = mats[0].cols
        if any(m.cols != width for m in mats):
            raise ValueError("column counts differ")
        flat = []
        for m in mats:
            flat.extend(m.entries)
        return IntMatrix(sum(m.rows for m in mats), width, flat)

    @staticmethod
    def hstack(mats: Sequence["IntMatrix"]) -> "IntMatrix":
        if not mats:
            raise ValueError("hstack of nothing")
        height = mats[0].rows
        if any(m.rows != height for m in mats):
            raise ValueError("row counts differ")
        flat = []
        for i in range(height):
            for m in mats:
                flat.extend(m.row(i))
        return IntMatrix(height, sum(m.cols for m in mats), flat)

    # -- access --------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        c = self.cols
        return self.entries[i * c : (i + 1) * c]

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        n, k, m = self.rows, self.cols, other.cols
        out = [0] * (n * m)
        oent = other.entries
        for i in range(n):
            base = i * k
            obase = i * m
            for t in range(k):
                a = self.entries[base + t]
                if a:
                    rb = t * m
                    if a == 1:
                        for j in range(m):
                            out[obase + j] += oent[rb + j]
                    else:
                        for j in range(m):
                            out[obase + j] += a * oent[rb + j]
        return IntMatrix(n, m, out)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")
        return IntMatrix(self.rows, self.cols, (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")
        return IntMatrix(self.rows, self.cols, (a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, (-a for a in self.entries))

    def transpose(self) -> "IntMatrix":
        r, c = self.rows, self.cols
        return IntMatrix(c, r, (self.entries[i * c + j] for j in range(c) for i in range(r)))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        c = self.cols
        ent = self.entries
        out = []
        for i in range(self.rows):
            base = i * c
            s = 0
            for j in range(c):
                a = ent[base + j]
                if a:
                    s += a * vec[j]
            out.append(s)
        return tuple(out)

    def trace(self) -> int:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum(self.entry(i, i) for i in range(self.rows))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.row_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = m[k][k]
            for i in range(k + 1, n):
                row_i = m[i]
                row_k = m[k]
                fac = row_i[k]
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j] - fac * row_k[j]) // prev
                row_i[k] = 0
            prev = pivot
        return sign * m[n - 1][n - 1]

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        n = self.rows
        return all(self.entries[i * n + j] == (1 if i == j else 0) for i in range(n) for j in range(n))

    # -- value semantics ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.entries))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"IntMatrix({self.row_lists()!r})"


# -- echelon engine -----------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g = gcd(a, b) > 0 (for a, b not both 0)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _combine_rows(m, r1, r2, a11, a12, a21, a22):
    """Rows (r1, r2) <- (a11 r1 + a12 r2, a21 r1 + a22 r2)."""
    row1, row2 = m[r1], m[r2]
    m[r1] = [a11 * p + a12 * q for p, q in zip(row1, row2)]
    m[r2] = [a21 * p + a22 * q for p, q in zip(row1, row2)]


def _add_multiple(dst: dict, q: int, src: dict) -> None:
    """``dst += q * src`` on sparse vectors, dropping entries that cancel."""
    if not q:
        return
    for k, v in src.items():
        s = dst.get(k, 0) + q * v
        if s:
            dst[k] = s
        else:
            del dst[k]


def sparse_echelon(rows: dict) -> tuple[dict, list[dict]]:
    """Row echelon form of sparse integer rows, with its certificate.

    ``rows`` maps a label to a row ``{col: coeff}``.  Rows are inserted in
    the mapping's order, and each is reduced at its leading (smallest)
    column against the pivot there: by subtraction when the pivot divides
    the entry, otherwise by the extended-gcd two-row transform, which
    replaces the pivot by the gcd.  One transform per entry, never repeated
    remaindering: iterated Euclidean passes contaminate whole rows each
    round and make intermediate entries grow exponentially on unlucky
    dense inputs.

    Returns ``(pivots, relations)``.  ``pivots`` maps each pivot column to
    ``(row, combination)``, a row with a positive leading entry and its
    combination ``{label: coeff}`` of the input rows; the pivot rows are a
    basis of the row lattice.  ``relations`` holds, in insertion order, the
    combination of every row that reduced to zero.  Every step is
    unimodular, so the relations are a basis of the lattice of relations
    among the input rows (the left kernel).
    """
    pivots: dict[int, tuple[dict, dict]] = {}
    relations: list[dict] = []
    for label, row in rows.items():
        row = dict(row)
        combo = {label: 1}
        while row:
            c = min(row)
            b = row[c]
            hit = pivots.get(c)
            if hit is None:
                if b < 0:
                    row = {k: -v for k, v in row.items()}
                    combo = {k: -v for k, v in combo.items()}
                pivots[c] = (row, combo)
                break
            prow, pcombo = hit
            a = prow[c]
            if b % a == 0:
                _add_multiple(row, -(b // a), prow)
                _add_multiple(combo, -(b // a), pcombo)
            else:
                # (pivot, row) <- (x pivot + y row, (a/g) row - (b/g) pivot)
                g, x, y = _xgcd(a, b)
                ag, bg = a // g, b // g
                pairs = []
                for p, r in ((prow, row), (pcombo, combo)):
                    top: dict = {}
                    _add_multiple(top, x, p)
                    _add_multiple(top, y, r)
                    bottom = {k: v * ag for k, v in r.items()}
                    _add_multiple(bottom, -bg, p)
                    pairs.append((top, bottom))
                (prow, row), (pcombo, combo) = pairs
                pivots[c] = (prow, pcombo)
        else:
            relations.append(combo)
    return pivots, relations


def solve_echelon(pivots: dict, target: dict) -> dict | None:
    """Combination ``{label: coeff}`` of the input rows behind ``pivots``
    (as returned by ``sparse_echelon``) that equals the sparse ``target``,
    by back-substitution at the target's leading column; None when the
    target is outside the row lattice."""
    t = dict(target)
    out: dict = {}
    while t:
        c = min(t)
        hit = pivots.get(c)
        if hit is None:
            return None
        prow, pcombo = hit
        q, rem = divmod(t[c], prow[c])
        if rem:
            return None
        _add_multiple(t, -q, prow)
        _add_multiple(out, q, pcombo)
    return out


def _hermite(rows: dict) -> tuple[list[tuple[dict, dict]], list[dict]]:
    """``sparse_echelon`` of ``rows`` with the entries above each pivot
    reduced into ``[0, pivot)``, the combinations carried along.  Returns
    the pivot ``(row, combination)`` pairs in column order, which are the
    Hermite basis of the row lattice, and the relations."""
    pivots, relations = sparse_echelon(rows)
    done: list[tuple[dict, dict]] = []
    for c in sorted(pivots):
        row, combo = pivots[c]
        pivot = row[c]
        for above, above_combo in done:
            q = above.get(c, 0) // pivot
            if q:
                _add_multiple(above, -q, row)
                _add_multiple(above_combo, -q, combo)
        done.append((row, combo))
    return done, relations


def _sparse_rows(a: IntMatrix) -> dict:
    """Rows of ``a`` as sparse rows labelled by index."""
    c = a.cols
    rows: dict = {i: {} for i in range(a.rows)}
    for k, x in enumerate(a.entries):
        if x:
            rows[k // c][k % c] = x
    return rows


def _dense(vectors: Sequence[dict], cols: int) -> IntMatrix:
    """Sparse rows ``{col: coeff}`` as the rows of a matrix."""
    return IntMatrix(len(vectors), cols, [v.get(j, 0) for v in vectors for j in range(cols)])


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: returns ``(h, u)`` with ``u`` unimodular
    and ``u * a = h``.

    Only ``h`` is canonical.  The first rank rows of ``u`` express the
    Hermite rows; the rows past the rank are relations among the rows of
    ``a`` and span its left kernel.  For a square unimodular ``a`` the
    transform is unique, the inverse of ``a``.
    """
    basis, relations = _hermite(_sparse_rows(a))
    h = _dense([row for row, _ in basis] + [{}] * len(relations), a.cols)
    return h, _dense([combo for _, combo in basis] + relations, a.rows)


def hnf_basis(a: IntMatrix) -> IntMatrix:
    """Hermite form with zero rows dropped: a canonical basis of the row
    span of ``a``."""
    basis, _ = _hermite(_sparse_rows(a))
    return _dense([row for row, _ in basis], a.cols)


def rank(a: IntMatrix) -> int:
    """Rank over the integers (equivalently over the rationals)."""
    pivots, _ = sparse_echelon(_sparse_rows(a))
    return len(pivots)


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form ``u * a * v = s`` with unimodular ``u``, ``v``."""

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        k = min(self.s.rows, self.s.cols)
        return tuple(self.s.entry(i, i) for i in range(k))

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal() if d != 0)


def snf(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transforms.

    Per stage, the smallest nonzero entry of the working block moves to
    the corner, then the corner row and column are cleared by one
    extended-gcd transform per entry.  Row clearing can re-dirty the
    column; the corner then strictly divides its old value, so the
    alternation ends after at most log(corner) rounds.  A divisibility
    sweep (add an offending row to the corner row and re-clear) repairs
    the chain before the corner is frozen.  Intermediate entries still
    overflow fixed-width integers readily, which is why everything is a
    Python int.
    """
    s = a.row_lists()
    rows, cols = a.rows, a.cols
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, k, q):  # row_i -= q * row_k
        si, sk = s[i], s[k]
        for j in range(cols):
            si[j] -= q * sk[j]
        ui, uk = u[i], u[k]
        for j in range(rows):
            ui[j] -= q * uk[j]

    def combine_cols(j1, j2, a11, a12, a21, a22):
        for m in (s, v):
            for row in m:
                p, q = row[j1], row[j2]
                row[j1] = a11 * p + a12 * q
                row[j2] = a21 * p + a22 * q

    def swap_cols(j1, j2):
        for m in (s, v):
            for row in m:
                row[j1], row[j2] = row[j2], row[j1]

    t = 0
    while t < min(rows, cols):
        dirty = True
        while dirty:
            dirty = False
            # move the smallest nonzero entry of the block to the corner
            bi = bj = -1
            babs = 0
            for i in range(t, rows):
                si = s[i]
                for j in range(t, cols):
                    val = si[j]
                    if val and (bi == -1 or abs(val) < babs):
                        bi, bj, babs = i, j, abs(val)
            if bi == -1:
                break
            if bi != t:
                s[t], s[bi] = s[bi], s[t]
                u[t], u[bi] = u[bi], u[t]
            if bj != t:
                swap_cols(t, bj)
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
            # clear column t, one transform per entry
            for i in range(t + 1, rows):
                b = s[i][t]
                if not b:
                    continue
                pivot = s[t][t]
                if b % pivot == 0:
                    row_op(i, t, b // pivot)
                else:
                    g, x, y = _xgcd(pivot, b)
                    _combine_rows(s, t, i, x, y, -(b // g), pivot // g)
                    _combine_rows(u, t, i, x, y, -(b // g), pivot // g)
            # clear row t; this can re-dirty the column, shrinking the corner
            for j in range(t + 1, cols):
                b = s[t][j]
                if not b:
                    continue
                pivot = s[t][t]
                if b % pivot == 0:
                    q = b // pivot
                    combine_cols(j, t, 1, -q, 0, 1)
                else:
                    g, x, y = _xgcd(pivot, b)
                    combine_cols(t, j, x, y, -(b // g), pivot // g)
                    dirty = True  # column t regained entries from column j
            if dirty:
                continue
            if any(s[i][t] for i in range(t + 1, rows)):
                dirty = True
                continue
            # divisibility sweep over the untouched block
            pivot = s[t][t]
            for i in range(t + 1, rows):
                si = s[i]
                if any(si[j] % pivot for j in range(t + 1, cols)):
                    row_op(t, i, -1)  # pull the offending row into row t
                    dirty = True
                    break
        t += 1

    return SmithDecomposition(
        IntMatrix.from_rows(u, rows), IntMatrix.from_rows(s, cols), IntMatrix.from_rows(v, cols)
    )


def kernel_lattice(a: IntMatrix) -> IntMatrix:
    """Basis (as rows, Hermite form) of ``{v : a @ v = 0}``.

    The kernel of an integer matrix is automatically saturated: if a
    multiple of ``v`` is killed by ``a`` then so is ``v``.  It is the
    lattice of relations among the columns of ``a``, which the echelon
    form of ``a``'s columns returns as a basis; its Hermite form makes the
    basis canonical.
    """
    _, relations = sparse_echelon(_sparse_rows(a.transpose()))
    basis, _ = _hermite(dict(enumerate(relations)))
    return _dense([row for row, _ in basis], a.cols)


def common_fixed_lattice(mats: Sequence[IntMatrix], n: int) -> IntMatrix:
    """Saturated Hermite basis of the vectors fixed by every matrix in
    ``mats``: the kernel of the stacked ``g - I``.  With no matrices this
    is the whole of ``Z^n``."""
    if not mats:
        return IntMatrix.identity(n)
    ident = IntMatrix.identity(n)
    return kernel_lattice(IntMatrix.vstack([g - ident for g in mats], cols=n))


def rref_mod(rows: Iterable[Sequence[int]], p: int, base: tuple[bytes, ...] = ()) -> tuple[bytes, ...]:
    """Reduced row echelon form over F_p of ``base`` together with ``rows``.

    ``base`` must be such a form already, as this function returns it:
    nonzero rows with leading entry 1, ordered by pivot column, each pivot
    column zero in every other row.  The form is the canonical basis of
    the row space over F_p, so two spans are equal exactly when their
    forms are.  When ``rows`` add nothing to the span, ``base`` itself is
    returned, so callers can test for that by identity.  Rows are ``bytes``
    of residues in [0, p), compact and hashed once, so p must be below 256.
    """
    out = list(base)
    pivots = [r.index(1) for r in out]  # the leading entry is the first 1
    for row in rows:
        v = [x % p for x in row]
        for r, c in zip(out, pivots):
            f = v[c]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, r)]
        for c, x in enumerate(v):
            if x:
                break
        else:
            continue
        inv = pow(x, -1, p)
        v = bytes(a * inv % p for a in v)
        for k, r in enumerate(out):
            f = r[c]
            if f:
                out[k] = bytes((a - f * b) % p for a, b in zip(r, v))
        at = bisect_left(pivots, c)
        out.insert(at, v)
        pivots.insert(at, c)
    return base if len(out) == len(base) else tuple(out)


class QuotientInvariants(NamedTuple):
    """Structure of an ambient lattice modulo a row span."""

    factors: tuple[int, ...]  # nonzero Smith diagonal entries, ascending chain
    free_rank: int


def lattice_quotient_invariants(ambient_rank: int, sub_basis: IntMatrix) -> QuotientInvariants:
    """Invariant factors of ``Z^ambient / rowspan(sub_basis)``."""
    if sub_basis.rows and sub_basis.cols != ambient_rank:
        raise ValueError("sub-basis rows do not live in the ambient lattice")
    if sub_basis.rows == 0:
        return QuotientInvariants((), ambient_rank)
    dec = snf(sub_basis)
    factors = dec.invariant_factors()
    return QuotientInvariants(factors, ambient_rank - len(factors))


def unimodular_inverse(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix.

    The Hermite form of a unimodular matrix is the identity, so the left
    transform is the inverse.
    """
    h, u = hnf(a)
    if not h.is_identity():
        raise ValueError("matrix is not unimodular")
    return u


def quotient_transform(sub_basis: IntMatrix) -> IntMatrix:
    """The right Smith transform v of a saturated basis of k rows.

    The rows of v^-1 are a basis of the ambient lattice whose first k rows
    span ``rowspan(sub_basis)``, so the last n - k entries of the row
    vector x v are the coordinates of x in ``Z^n / rowspan(sub_basis)``.
    """
    dec = snf(sub_basis)
    if dec.invariant_factors() != (1,) * sub_basis.rows:
        raise ValueError("sub-basis is not saturated")
    return dec.v


def induced_on_quotient(sub_basis: IntMatrix, mats: Sequence[IntMatrix]) -> list[IntMatrix]:
    """Matrices of the induced action on ``Z^n / rowspan(sub_basis)``.

    ``sub_basis`` must be a saturated basis whose span is fixed pointwise
    by every matrix in ``mats``.  The basis is completed to a unimodular
    basis of the ambient lattice via the Smith transforms
    (:func:`quotient_transform`); in the completed coordinates each matrix
    is block upper triangular with an identity block on the fixed part,
    and the lower-right block is the quotient action.
    """
    n, k = sub_basis.cols, sub_basis.rows
    if k == 0:
        return list(mats)
    v = quotient_transform(sub_basis)
    p = unimodular_inverse(v)  # rows 0..k-1 of p span the sub-lattice
    pt = p.transpose()
    vt = v.transpose()  # equals inverse(p transpose)
    out = []
    for g in mats:
        gt = vt * g * pt
        for i in range(n):
            for j in range(k):
                expected = 1 if i == j else 0
                if gt.entry(i, j) != expected:
                    raise ValueError("matrix does not fix the sub-lattice pointwise")
        q = n - k
        out.append(IntMatrix(q, q, (gt.entry(k + i, k + j) for i in range(q) for j in range(q))))
    return out

"""Exact arithmetic in the Laurent group algebra and its invariants.

Elements are finite integer combinations of monomials x^m indexed by
lattice vectors m; the group acts by permuting exponents.  The invariant
subalgebra has the orbit sums as a basis, with the lexicographically
greatest orbit member as the canonical representative.

``verify_free_decomposition`` checks a claimed module decomposition of
the invariant ring inside a finite support window.  Products of the
algebra generators against the module generators are enumerated while
their Newton boxes stay inside the window.  Their coordinates in the
orbit basis form sparse integer rows, brought to echelon form with each
pivot row carrying its combination of the products: a row that reduces
to zero is a relation among the products, and a pivot other than 1
witnesses torsion, so the span is not saturated.  Every orbit sum whose
representative lies in an interior window (shrunk by the generator
support widths, so window-edge artifacts cannot produce false negatives)
must then be an exact integer combination of the products, read off by
back-substitution; the products are independent, so it is unique.

The products are multiplied in orbit coordinates and never expanded.
Write O(R) for the orbit sum of the representative R and rep(m) for the
representative of m's orbit.  For an invariant f = sum_R f_R O(R) and an
invariant a = sum_e a[e] x^e, the coefficient of f*a at the
representative r is

    (f*a)_r = (1/|O(r)|) sum_R f_R |O(R)| sum_{e in supp a, rep(R+e) = r} a[e].

Proof: O(R) = sum_{g in G/G_R} x^{gR}, and x^{gR} a = g(x^R a) since a is
invariant, so O(R) a = sum_{g in G/G_R} g(x^R a).  Each g permutes O(r),
so the coefficients of g(x^R a) on O(r) add up to those of x^R a, which
is the inner sum; and the invariant f*a has the same coefficient at all
|O(r)| members of O(r).  The division is exact; a remainder means the
invariance argument failed and raises TheoremViolation.

The inner sum depends on R and a only, so ``verify_free_decomposition``
keeps one product table per algebra generator a: R's entry holds the
pairs (r, |O(R)| sum a[e]) and is filled the first time R is multiplied
by a.  A product then costs one table read per term of f, and an orbit
lookup per term of a only on a new R: diag_sl at rank 4, bound 4 makes
5,370 orbit lookups, against 30,873 when every term of every product
looked its orbit up.  Orbits come from the group's
:meth:`~multinv.groups.FiniteMatrixGroup.action`, by index on a group of
signed permutations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, product as iter_product
from operator import add, index

from .errors import NotInvariant, ParityViolation, TheoremViolation, ValidationError
from .groups import FiniteMatrixGroup
from .intlinalg import IntMatrix, solve_echelon, sparse_echelon


class LaurentElement:
    """Finite map from exponent vectors to nonzero integer coefficients."""

    __slots__ = ("rank", "terms", "_hash")

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != rank:
                raise ValueError("exponent length does not match rank")
            coeff = index(coeff)  # a float or str raises TypeError, never truncated or parsed
            if coeff:
                clean[exp] = coeff
        self.terms = clean
        self._hash = None

    @staticmethod
    def zero(rank: int) -> "LaurentElement":
        return LaurentElement(rank)

    @staticmethod
    def one(rank: int) -> "LaurentElement":
        return LaurentElement(rank, {(0,) * rank: 1})

    @staticmethod
    def monomial(exp, coeff: int = 1) -> "LaurentElement":
        exp = tuple(exp)
        return LaurentElement(len(exp), {exp: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentElement(self.rank, out)

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        return self + (-other)

    def __neg__(self) -> "LaurentElement":
        return LaurentElement(self.rank, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentElement(self.rank, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentElement):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        small, large = sorted((self.terms, other.terms), key=len)
        out: dict[tuple, int] = {}
        get = out.get
        for e1, c1 in small.items():
            for e2, c2 in large.items():
                key = tuple(map(add, e1, e2))
                out[key] = get(key, 0) + c1 * c2
        prod = LaurentElement(self.rank)
        prod.terms = {e: c for e, c in out.items() if c}
        return prod

    __rmul__ = __mul__

    def newton_box(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Least and greatest exponent of each coordinate over the support,
        as ``(lo, hi)``; None for zero.  Z[x^{+-1}] is a domain, so the
        extreme faces of a product are the products of the factors' extreme
        faces, and the box of a product is the sum of the factors' boxes."""
        if not self.terms:
            return None
        coords = list(zip(*self.terms))
        return tuple(map(min, coords)), tuple(map(max, coords))

    def support_width(self) -> int:
        """Largest sup-norm over the support; 0 for constants and zero."""
        box = self.newton_box()
        return max(map(abs, box[0] + box[1]), default=0) if box else 0

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms sorted by exponent vector, greatest first."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def render(self) -> str:
        """Bit-exact text form: terms greatest-exponent first."""
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            if all(x == 0 for x in exp):
                body = str(abs(coeff))
            else:
                mono = "x^(" + ",".join(str(x) for x in exp) + ")"
                body = mono if abs(coeff) == 1 else f"{abs(coeff)}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rank, frozenset(self.terms.items())))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"LaurentElement({self.render()})"


def act(g: IntMatrix, a: LaurentElement) -> LaurentElement:
    """Image of a under the monomial action of the matrix g."""
    if g.cols != a.rank:
        raise ValueError("matrix size does not match element rank")
    return LaurentElement(a.rank, {g.apply(exp): c for exp, c in a.terms.items()})


def orbit_of(G: FiniteMatrixGroup, m) -> list[tuple]:
    return _memo_orbit(G.action(), tuple(m), {})


def orbit_sum(G: FiniteMatrixGroup, m) -> LaurentElement:
    """Sum of x^{m'} over the orbit of m; each coefficient is 1."""
    return LaurentElement(G.lattice.rank, {e: 1 for e in orbit_of(G, m)})


def is_invariant(G: FiniteMatrixGroup, a: LaurentElement) -> bool:
    """Fixed by every generator (hence by the whole group)."""
    gens = [G.element(i) for i in G.generator_indices]
    return all(act(g, a) == a for g in gens)


def _memo_orbit(images, m: tuple, orbits: dict) -> list[tuple]:
    """The orbit of m under the group whose :meth:`~FiniteMatrixGroup.action`
    is ``images``, memoized in ``orbits`` for every orbit member: a miss
    reads all |G| images once."""
    orbit = orbits.get(m)
    if orbit is None:
        orbit = sorted(set(images(m)), reverse=True)
        orbits.update(dict.fromkeys(orbit, orbit))
    return orbit


def express_in_orbit_basis(
    G: FiniteMatrixGroup, a: LaurentElement, orbits: dict | None = None
) -> dict[tuple, int]:
    """Unique coefficients c with a = sum of c[m] * orbit_sum(m).

    Groups the terms of a by orbit; invariance forces one coefficient per
    orbit, which is checked and reported via NotInvariant otherwise.
    ``orbits`` may carry orbits already computed for G across calls.
    """
    orbits = {} if orbits is None else orbits
    images = G.action()
    out: dict[tuple, int] = {}
    remaining = dict(a.terms)
    while remaining:
        exp = next(iter(remaining))
        orbit = _memo_orbit(images, exp, orbits)
        coeff = remaining.get(orbit[0], 0)
        for member in orbit:
            if remaining.pop(member, None) != coeff or coeff == 0:
                raise NotInvariant("element is not constant on an orbit")
        out[orbit[0]] = coeff
    return out


# -- free decomposition verification ---------------------------------------


@dataclass(frozen=True)
class ProductTerm:
    """One enumerated product: module generator index and algebra exponents."""

    module_index: int
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionFailure:
    kind: str  # "relation" | "torsion" | "unreachable"
    witness_orbit: tuple | None = None
    relation: tuple | None = None  # ((coeff, ProductTerm), ...)


@dataclass(frozen=True)
class DecompositionCertificate:
    bound: int
    interior_bound: int
    products: tuple[ProductTerm, ...]
    covered: tuple[tuple, ...]
    expressions: dict  # representative -> ((coeff, product position), ...)


@dataclass(frozen=True)
class DecompositionResult:
    ok: bool
    certificate: DecompositionCertificate | None = None
    failure: DecompositionFailure | None = None


def verify_free_decomposition(
    G: FiniteMatrixGroup,
    algebra_gens: list[LaurentElement],
    module_gens: list[LaurentElement],
    bound: int,
) -> DecompositionResult:
    """Check that the invariants decompose as the free module generated by
    module_gens over the subring generated by algebra_gens, inside the
    sup-norm window of the given bound.  Exact integer arithmetic
    throughout; see the module docstring for the verification contract.
    """
    n = G.lattice.rank
    if not module_gens:
        raise ValueError("at least one module generator is required")
    for a in algebra_gens + module_gens:
        if not is_invariant(G, a):
            raise NotInvariant("generators must be invariant")
    for a in algebra_gens:
        if a.support_width() == 0:
            raise ValueError("constant algebra generators make enumeration diverge")

    width = max(g.support_width() for g in algebra_gens + module_gens)
    interior = bound - width
    if interior < 0:
        raise ValidationError("bound is smaller than the generator support width")

    # enumerate distinct products h_j * prod(a_i^alpha) staying inside the
    # window; breadth-first with value dedup handles relations among the
    # algebra generators (e.g. a pair of mutually inverse monomials).  A
    # product's Newton box is the sum of its factors' boxes, so products
    # that leave the window are skipped before they are multiplied out, and
    # a word reached again along another path is skipped outright.  Each
    # product is carried as its orbit coordinates {representative: coeff},
    # which determine it, so equal rows are equal values.
    orbits: dict[tuple, list[tuple]] = {}
    images = G.action()
    gen_terms = [list(a.terms.items()) for a in algebra_gens]
    tables: list[dict] = [{} for _ in algebra_gens]
    gen_boxes = [a.newton_box() for a in algebra_gens]
    products: list[tuple[ProductTerm, dict]] = []
    seen: set[frozenset] = set()
    visited: set[tuple[int, tuple[int, ...]]] = set()
    queue = deque()
    for j, h in enumerate(module_gens):
        term = ProductTerm(j, (0,) * len(algebra_gens))
        if h.is_zero():
            return _relation_failure(((1, term),))
        if h.support_width() > bound:
            continue
        row = express_in_orbit_basis(G, h, orbits)
        value = frozenset(row.items())
        if value not in seen:
            seen.add(value)
            products.append((term, row))
            queue.append((term, row, h.newton_box()))
    while queue:
        term, row, (lo, hi) = queue.popleft()
        for i, (terms, table, (gen_lo, gen_hi)) in enumerate(zip(gen_terms, tables, gen_boxes)):
            key = (term.module_index, _bump(term.exponents, i))
            if key in visited:
                continue
            visited.add(key)
            new_lo = tuple(map(add, lo, gen_lo))
            new_hi = tuple(map(add, hi, gen_hi))
            if min(new_lo) < -bound or max(new_hi) > bound:
                continue
            new = _times(images, row, terms, table, orbits)
            value = frozenset(new.items())
            if value in seen:
                continue
            seen.add(value)
            word = ProductTerm(*key)
            products.append((word, new))
            queue.append((word, new, (new_lo, new_hi)))
    del tables  # freed before the elimination, which holds the memory peak

    # sparse coefficient rows over the touched orbit representatives,
    # greatest representative first; rows enter the elimination by leading
    # representative, so most land on a fresh pivot column
    reps = sorted({r for _, row in products for r in row}, reverse=True)
    col = {r: j for j, r in enumerate(reps)}
    rows = [{col[r]: c for r, c in row.items()} for _, row in products]
    order = sorted(range(len(rows)), key=lambda i: min(rows[i]))
    pivots, relations = sparse_echelon({i: rows[i] for i in order})

    # (i) independence and saturation of the span: the pivot values of any
    # echelon basis are lattice invariants
    if relations:
        return _relation_failure(tuple((c, products[i][0]) for i, c in sorted(relations[0].items())))
    bad = next((c for c in sorted(pivots) if pivots[c][0][c] != 1), None)
    if bad is not None:
        return DecompositionResult(
            False,
            failure=DecompositionFailure(kind="torsion", witness_orbit=reps[bad]),
        )

    # (ii) completeness inside the interior window, scanned smallest
    # support first so a failure witness is as small as possible; the
    # products are independent, so each expression is unique
    covered = []
    expressions = {}
    for v in _by_shells(interior, n):
        rep = _memo_orbit(images, v, orbits)[0]
        if rep != v:
            continue
        combo = solve_echelon(pivots, {col[rep]: 1}) if rep in col else None
        if combo is None:
            return DecompositionResult(
                False, failure=DecompositionFailure(kind="unreachable", witness_orbit=rep)
            )
        covered.append(rep)
        expressions[rep] = tuple(sorted(combo.items()))

    certificate = DecompositionCertificate(
        bound=bound,
        interior_bound=interior,
        products=tuple(term for term, _ in products),
        covered=tuple(covered),
        expressions=expressions,
    )
    return DecompositionResult(True, certificate=certificate)


def _times(images, f: dict, terms: list, table: dict, orbits: dict) -> dict:
    """Orbit coordinates of f * a, for f given by its orbit coordinates and
    the invariant a by its terms; see the module docstring.  ``table`` is
    a's product table: it maps a representative R to the pairs
    (r, |O(R)| sum_{e in supp a, rep(R+e) = r} a[e]), one per r in the
    order first reached, and gains R's entry the first time R is
    multiplied by a.  Its entries number the distinct representatives
    multiplied by a, each at most |supp a| pairs long.  ``images`` and
    ``orbits`` are as for :func:`_memo_orbit`."""
    acc: dict[tuple, int] = {}
    get = acc.get
    for rep, c in f.items():
        pairs = table.get(rep)
        if pairs is None:
            size, sums = len(_memo_orbit(images, rep, orbits)), {}
            for e, a_e in terms:
                r = _memo_orbit(images, tuple(map(add, rep, e)), orbits)[0]
                sums[r] = sums.get(r, 0) + a_e
            pairs = table[rep] = [(r, size * s) for r, s in sums.items()]
        for r, w in pairs:
            acc[r] = get(r, 0) + c * w
    out = {}
    for r, total in acc.items():
        q, rem = divmod(total, len(orbits[r]))
        if rem:
            raise TheoremViolation(f"orbit coordinate {total}/{len(orbits[r])} at {r} is not an integer")
        if q:
            out[r] = q
    return out


def _relation_failure(relation: tuple) -> DecompositionResult:
    return DecompositionResult(False, failure=DecompositionFailure(kind="relation", relation=relation))


def _bump(exponents: tuple[int, ...], i: int) -> tuple[int, ...]:
    return exponents[:i] + (exponents[i] + 1,) + exponents[i + 1 :]


def _by_shells(bound: int, n: int):
    """Vectors of [-bound, bound]^n by increasing sup-norm, lex-descending
    inside each shell: the vectors of the cube [-s, s]^n with an entry of
    -s or s."""
    for s in range(bound + 1):
        for v in iter_product(range(s, -s - 1, -1), repeat=n):
            if s == 0 or s in v or -s in v:
                yield v


# -- named constructions ----------------------------------------------------


def elementary_symmetric(n: int, k: int) -> LaurentElement:
    """k-th elementary symmetric polynomial in n variables."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    terms = {}
    for subset in combinations(range(n), k):
        exp = tuple(1 if i in subset else 0 for i in range(n))
        terms[exp] = 1
    return LaurentElement(n, terms)


def alternating_d(n: int) -> LaurentElement:
    """Half the sum of the alternating product prod(x_i - x_j) and the
    symmetric product prod(x_i + x_j) over i < j.

    Every coefficient of the sum is even because the two products agree
    termwise up to sign; an odd coefficient would be an implementation
    bug and raises ParityViolation.  The result is invariant under even
    permutations of the variables but not under transpositions.
    """
    if n < 2:
        raise ValueError("need at least two variables")
    delta = LaurentElement.one(n)
    delta_plus = LaurentElement.one(n)
    for i in range(n):
        for j in range(i + 1, n):
            xi = LaurentElement.monomial(tuple(1 if t == i else 0 for t in range(n)))
            xj = LaurentElement.monomial(tuple(1 if t == j else 0 for t in range(n)))
            delta = delta * (xi - xj)
            delta_plus = delta_plus * (xi + xj)
    total = delta + delta_plus
    halved = {}
    for exp, coeff in total.terms.items():
        if coeff % 2:
            raise ParityViolation(f"odd coefficient {coeff} at {exp}")
        halved[exp] = coeff // 2
    return LaurentElement(n, halved)

"""Exact arithmetic in the Laurent group algebra and its invariants.

Elements are finite integer combinations of monomials x^m indexed by
lattice vectors m; the group acts by permuting exponents.  The invariant
subalgebra has the orbit sums as a basis, with the lexicographically
greatest orbit member as the canonical representative.

``verify_free_decomposition`` checks a claimed module decomposition of
the invariant ring inside a finite support window: products of the
algebra generators against the module generators are enumerated while
their supports stay inside the window, independence and saturation of
their span are certified over the integers, and every orbit sum whose
representative lies in an interior window (shrunk by the generator
support widths, so window-edge artifacts cannot produce false negatives)
must be an exact integer combination of the products.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, product as iter_product

from .errors import NotInvariant, ParityViolation
from .groups import FiniteMatrixGroup
from .intlinalg import IntMatrix, _echelon, solve_echelon


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
            if coeff:
                clean[exp] = int(coeff)
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
        out: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentElement(self.rank, out)

    __rmul__ = __mul__

    def support_width(self) -> int:
        """Largest sup-norm over the support; 0 for constants and zero."""
        if not self.terms:
            return 0
        return max(max(abs(x) for x in exp) if exp else 0 for exp in self.terms)

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
            h = hash((self.rank, tuple(sorted(self.terms.items()))))
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
    m = tuple(m)
    return sorted({G.element(i).apply(m) for i in range(G.order)}, reverse=True)


def orbit_representative(G: FiniteMatrixGroup, m) -> tuple:
    """Canonical (lexicographically greatest) member of the orbit of m."""
    return orbit_of(G, m)[0]


def orbit_sum(G: FiniteMatrixGroup, m) -> LaurentElement:
    """Sum of x^{m'} over the orbit of m; each coefficient is 1."""
    return LaurentElement(G.lattice.rank, {e: 1 for e in orbit_of(G, m)})


def is_invariant(G: FiniteMatrixGroup, a: LaurentElement) -> bool:
    """Fixed by every generator (hence by the whole group)."""
    gens = [G.element(i) for i in G.generator_indices]
    return all(act(g, a) == a for g in gens)


def express_in_orbit_basis(G: FiniteMatrixGroup, a: LaurentElement) -> dict[tuple, int]:
    """Unique coefficients c with a = sum of c[m] * orbit_sum(m).

    Groups the terms of a by orbit; invariance forces one coefficient per
    orbit, which is checked and reported via NotInvariant otherwise.
    """
    out: dict[tuple, int] = {}
    remaining = dict(a.terms)
    while remaining:
        exp = next(iter(remaining))
        orbit = orbit_of(G, exp)
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
        raise ValueError("bound is smaller than the generator support width")

    # enumerate distinct products h_j * prod(a_i^alpha) staying inside the
    # window; breadth-first with value dedup handles relations among the
    # algebra generators (e.g. a pair of mutually inverse monomials)
    products: list[tuple[ProductTerm, LaurentElement]] = []
    seen: dict[LaurentElement, ProductTerm] = {}
    queue = deque()
    for j, h in enumerate(module_gens):
        if h.support_width() <= bound and h not in seen:
            term = ProductTerm(j, (0,) * len(algebra_gens))
            seen[h] = term
            products.append((term, h))
            queue.append((term, h))
    while queue:
        term, value = queue.popleft()
        for i, gen in enumerate(algebra_gens):
            new = value * gen
            if new.support_width() > bound:
                continue
            if new.is_zero():
                word = ProductTerm(term.module_index, _bump(term.exponents, i))
                return DecompositionResult(
                    False,
                    failure=DecompositionFailure(kind="relation", relation=(((1, word),))),
                )
            if new in seen:
                continue
            word = ProductTerm(term.module_index, _bump(term.exponents, i))
            seen[new] = word
            products.append((word, new))
            queue.append((word, new))

    # coefficient matrix over the touched orbit representatives
    expansions = [express_in_orbit_basis(G, p) for _, p in products]
    reps = sorted({r for e in expansions for r in e}, reverse=True)
    col = {r: j for j, r in enumerate(reps)}
    # leading-representative row order keeps the matrix near triangular,
    # which keeps Hermite reduction cheap and pivots small
    row_order = sorted(range(len(products)), key=lambda i: max(expansions[i]), reverse=True)
    matrix = [[0] * len(reps) for _ in products]
    for pos, i in enumerate(row_order):
        for r, c in expansions[i].items():
            matrix[pos][col[r]] = c

    u_rows, pivots = _echelon(matrix, want_u=True)

    # (i) independence and saturation of the span
    if len(pivots) < len(products):
        zero_row = len(pivots)
        relation = tuple(
            (u_rows[zero_row][pos], products[row_order[pos]][0])
            for pos in range(len(products))
            if u_rows[zero_row][pos]
        )
        return DecompositionResult(
            False, failure=DecompositionFailure(kind="relation", relation=relation)
        )
    bad = next(((r, c) for r, c in pivots if matrix[r][c] != 1), None)
    if bad is not None:
        return DecompositionResult(
            False,
            failure=DecompositionFailure(kind="torsion", witness_orbit=reps[bad[1]]),
        )

    # (ii) completeness inside the interior window, scanned smallest
    # support first so a failure witness is as small as possible
    covered = []
    expressions = {}
    for v in _by_shells(interior, n):
        rep = orbit_representative(G, v)
        if rep != v or rep in expressions:
            continue
        target = [0] * len(reps)
        if rep not in col:
            return DecompositionResult(
                False, failure=DecompositionFailure(kind="unreachable", witness_orbit=rep)
            )
        target[col[rep]] = 1
        coeffs = solve_echelon(matrix, pivots, target)
        if coeffs is None:
            return DecompositionResult(
                False, failure=DecompositionFailure(kind="unreachable", witness_orbit=rep)
            )
        # map back through the transform to the original product rows
        combo: dict[int, int] = {}
        for r, c in enumerate(coeffs):
            if c:
                for pos in range(len(products)):
                    if u_rows[r][pos]:
                        key = row_order[pos]
                        combo[key] = combo.get(key, 0) + c * u_rows[r][pos]
        covered.append(rep)
        expressions[rep] = tuple(sorted((k, v) for k, v in combo.items() if v))

    certificate = DecompositionCertificate(
        bound=bound,
        interior_bound=interior,
        products=tuple(term for term, _ in products),
        covered=tuple(covered),
        expressions=expressions,
    )
    return DecompositionResult(True, certificate=certificate)


def _bump(exponents: tuple[int, ...], i: int) -> tuple[int, ...]:
    return exponents[:i] + (exponents[i] + 1,) + exponents[i + 1 :]


def _by_shells(bound: int, n: int):
    """Vectors of [-bound, bound]^n by increasing sup-norm, lex-descending
    inside each shell."""
    for s in range(bound + 1):
        for v in iter_product(range(s, -s - 1, -1), repeat=n):
            if s == 0 or max(abs(x) for x in v) == s:
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

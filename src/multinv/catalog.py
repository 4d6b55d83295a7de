"""Builtin group constructors and the group-definition file format.

Builtins cover the standard desk-scale actions: the three rank-3 cyclic
groups whose invariants are obstructed, symmetric and alternating groups
on permutation lattices, root-lattice actions, the even sign-flip groups,
the signed root-lattice symmetry group in rank 4, and the rank-8
fixed-point-free action of the binary icosahedral group built from
quaternions over Q(sqrt 5).

Group definition files are JSON: explicit rank, row-major generator
matrices, free-form metadata.  Nothing is inferred; a file round-trips
byte-identically through serialize/parse.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import partial

from .errors import ParseError, UnknownBuiltin, ValidationError, InvalidGenerator
from .groups import GLattice, _breadth_first
from .intlinalg import IntMatrix, hnf_basis, solve_echelon

SCHEMA_VERSION = 1


# -- permutation helpers -----------------------------------------------------


def _perm_matrix(image: list[int]) -> IntMatrix:
    n = len(image)
    ent = [0] * (n * n)
    for j, i in enumerate(image):
        ent[i * n + j] = 1
    return IntMatrix(n, n, ent)


def _transposition(i: int, j: int, n: int) -> IntMatrix:
    image = list(range(n))
    image[i], image[j] = j, i
    return _perm_matrix(image)


def _cycle(points: list[int], n: int) -> IntMatrix:
    image = list(range(n))
    for a, b in zip(points, points[1:]):
        image[a] = b
    image[points[-1]] = points[0]
    return _perm_matrix(image)


def _diag(values) -> IntMatrix:
    n = len(values)
    return IntMatrix(n, n, (values[i] if i == j else 0 for i in range(n) for j in range(n)))


def _root_coordinates(vec: list[int]) -> list[int]:
    """Coordinates of a sum-zero vector in the basis e_i - e_{i+1}."""
    coords = []
    acc = 0
    for x in vec[:-1]:
        acc += x
        coords.append(acc)
    return coords


def _root_action(perm: IntMatrix) -> IntMatrix:
    """Induced matrix of a permutation on the sum-zero sublattice."""
    n = perm.rows
    cols = []
    for i in range(n - 1):
        basis_vec = [0] * n
        basis_vec[i] = 1
        basis_vec[i + 1] = -1
        cols.append(_root_coordinates(list(perm.apply(basis_vec))))
    return IntMatrix.from_rows(cols).transpose()


# -- icosian construction ----------------------------------------------------
#
# A quaternion over Q(sqrt 5) is held as the eight integers 4 * (p_0, q_0,
# p_1, q_1, p_2, q_2, p_3, q_3) for the components p_t + q_t sqrt5 on
# 1, i, j, k: the coordinates over (1/4) * {1, sqrt5} x {1, i, j, k}.


def _z5_mul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a + b sqrt5)(c + d sqrt5)."""
    return a * c + 5 * b * d, a * d + b * c


# component t of a product x y is the sum of sign * x_s y_u over the
# (s, u, sign) listed at t, from e_s e_u = sign * e_t
_QUAT_TERMS = (
    ((0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, -1)),
    ((0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, -1)),
    ((0, 2, 1), (1, 3, -1), (2, 0, 1), (3, 1, 1)),
    ((0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, 1)),
)


def _quat_mul(x, y) -> tuple[int, ...]:
    """Product of two quaternions in the scaled coordinates: the factors'
    scales make 16, so the sums are divided by 4, exactly."""
    out = []
    for terms in _QUAT_TERMS:
        p = q = 0
        for s, u, sign in terms:
            a, b = _z5_mul(x[2 * s], x[2 * s + 1], y[2 * u], y[2 * u + 1])
            p += sign * a
            q += sign * b
        for val in (p, q):
            if val % 4:
                raise ArithmeticError("icosian coordinate outside the 1/4 lattice")
            out.append(val // 4)
    return tuple(out)


def _sparse(v) -> dict[int, int]:
    return {j: x for j, x in enumerate(v) if x}


def _within_200(y, j: int) -> None:
    """Refuses a 201st element: the group has 120."""
    if j >= 200:
        raise ArithmeticError("icosian closure diverged")


def _icosian_lattice() -> GLattice:
    """Left multiplication of the binary icosahedral group on the integer
    span of its 120 elements, a rank-8 lattice.

    The group is generated inside the unit quaternions by
    (a + i + j a')/2 and (a + j + k a')/2 with a = (1 + sqrt5)/2 and
    a' = (1 - sqrt5)/2.
    """
    # a/2 = (1 + sqrt5)/4, a'/2 = (1 - sqrt5)/4 and 1/2, scaled by 4
    g1 = (1, 1, 2, 0, 1, -1, 0, 0)
    g2 = (1, 1, 0, 0, 2, 0, 1, -1)

    ident = (4, 0, 0, 0, 0, 0, 0, 0)
    elements = _breadth_first([ident], [partial(_quat_mul, g) for g in (g1, g2)], _within_200)[0]
    basis = hnf_basis(IntMatrix.from_rows(sorted(elements), 8))
    # a full-rank square echelon form: row r leads at column r
    pivots = {r: (_sparse(basis.row(r)), {r: 1}) for r in range(8)}

    gens = []
    for g in (g1, g2):
        rows = []
        for r in range(8):
            coords = solve_echelon(pivots, _sparse(_quat_mul(g, basis.row(r))))
            if coords is None:
                raise ArithmeticError("vector outside the lattice")
            rows.append([coords.get(k, 0) for k in range(8)])
        gens.append(IntMatrix.from_rows(rows).transpose())
    return GLattice(8, gens, "icosian")


# -- builtins ----------------------------------------------------------------


def _rank3(name: str, rows) -> GLattice:
    return GLattice(3, [IntMatrix.from_rows(rows)], name)


def _sym_u(n: int) -> GLattice:
    gens = [_transposition(0, 1, n), _cycle(list(range(n)), n)]
    return GLattice(n, gens, f"sym{n}_u{n}")


def _alt_u(n: int) -> GLattice:
    if n < 3:
        raise UnknownBuiltin(f"alt{n}_u{n}: need n >= 3")
    gens = [_cycle([0, 1, k], n) for k in range(2, n)]
    return GLattice(n, gens, f"alt{n}_u{n}")


def _root_a(k: int) -> GLattice:
    n = k + 1
    gens = [_root_action(_transposition(0, 1, n)), _root_action(_cycle(list(range(n)), n))]
    return GLattice(k, gens, f"root_a{k}")


def _diag_sl(n: int) -> GLattice:
    gens = []
    for i in range(n - 1):
        vals = [1] * n
        vals[i] = vals[i + 1] = -1
        gens.append(_diag(vals))
    return GLattice(n, gens, f"diag_sl{n}")


def _signed_root_s5() -> GLattice:
    """The full signed symmetry group of the rank-4 root lattice: the
    sign-twisted permutation action together with negation, order 240."""
    swap = _root_action(_transposition(0, 1, 5))
    five_cycle = _root_action(_cycle(list(range(5)), 5))
    gens = [-swap, five_cycle, -IntMatrix.identity(4)]
    return GLattice(4, gens, "signed_root_s5")


# name -> constructor and the factors of its group's order
_FIXED = {
    "rank3_order2": (lambda: _rank3("rank3_order2", [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]), (2,)),
    "rank3_order4": (lambda: _rank3("rank3_order4", [[0, 1, 0], [-1, 0, 0], [0, 0, -1]]), (4,)),
    "rank3_order6": (lambda: _rank3("rank3_order6", [[0, 0, -1], [-1, 0, 0], [0, -1, 0]]), (6,)),
    "signed_root_s5": (_signed_root_s5, (240,)),
    "icosian": (_icosian_lattice, (120,)),
}

# name pattern, constructor, and factors of the group order as functions
# of the degree: n!, n!/2, (k+1)! and 2^(n-1)
_PARAMETRIC = [
    (re.compile(r"^sym(\d+)(?:_u(\d+))?$"), _sym_u, lambda n: range(2, n + 1)),
    (re.compile(r"^alt(\d+)(?:_u(\d+))?$"), _alt_u, lambda n: range(3, n + 1)),
    (re.compile(r"^root_a(\d+)$"), _root_a, lambda k: range(2, k + 2)),
    (re.compile(r"^diag_sl(\d+)$"), _diag_sl, lambda n: (2 for _ in range(n - 1))),
]

DEFAULT_BUILTINS = (
    "rank3_order2",
    "rank3_order4",
    "rank3_order6",
    "sym3_u3",
    "sym4_u4",
    "alt3_u3",
    "alt4_u4",
    "root_a2",
    "root_a3",
    "diag_sl2",
    "diag_sl3",
    "diag_sl4",
    "signed_root_s5",
    "icosian",
)


def builtin(name: str) -> GLattice:
    """Constructor lookup; parametric names like sym5_u5 are accepted."""
    return _lookup(name)[0]()


def builtin_order_factors(name: str):
    """Factors of the order of the builtin's group, lazily, from its closed
    form: an oversized builtin can be refused before it is built."""
    return _lookup(name)[1]


def _lookup(name: str) -> tuple:
    """A builtin's constructor and order factors; raises UnknownBuiltin."""
    if name in _FIXED:
        return _FIXED[name]
    for pattern, make, factors in _PARAMETRIC:
        m = pattern.match(name)
        if m:
            n = int(m.group(1))
            if m.lastindex and m.lastindex > 1 and m.group(2) and int(m.group(2)) != n:
                raise UnknownBuiltin(f"{name}: lattice rank must match the group degree")
            if n < 2:
                raise UnknownBuiltin(f"{name}: degree too small")
            return (lambda: make(n)), factors(n)
    raise UnknownBuiltin(name)


# -- group definition files --------------------------------------------------


@dataclass(frozen=True)
class GroupDefinition:
    name: str
    lattice: GLattice
    metadata: dict = field(default_factory=dict)


def parse_group_definition(data: bytes | str) -> GroupDefinition:
    """Parse and validate a JSON group definition.

    Raises ParseError with position info for malformed JSON, ParseError
    also for JSON that Python will not decode (an integer past its digit
    limit, arrays nested past the recursion limit), and ValidationError
    naming the offending field otherwise.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from None
    if not isinstance(doc, dict):
        raise ValidationError("top level: expected an object")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ValidationError("name: expected a string")
    rank = doc.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise ValidationError("rank: expected a nonnegative integer")
    generators = doc.get("generators")
    if not isinstance(generators, list):
        raise ValidationError("generators: expected a list of matrices")
    mats = []
    for pos, rows in enumerate(generators):
        where = f"generators[{pos}]"
        if not isinstance(rows, list) or len(rows) != rank:
            raise ValidationError(f"{where}: expected {rank} rows")
        flat = []
        for ri, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != rank:
                raise ValidationError(f"{where}[{ri}]: expected {rank} integers")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValidationError(f"{where}[{ri}]: entries must be integers")
                flat.append(x)
        mats.append(IntMatrix(rank, rank, flat))
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValidationError("metadata: expected an object")
    try:
        lattice = GLattice(rank, mats, name or "unnamed")
    except InvalidGenerator as exc:
        raise ValidationError(f"generators: {exc}") from None
    return GroupDefinition(name or "unnamed", lattice, dict(metadata))


def serialize_group_definition(lattice: GLattice, metadata: dict | None = None) -> str:
    doc = {
        "name": lattice.name,
        "rank": lattice.rank,
        "generators": [g.row_lists() for g in lattice.generators],
        "metadata": metadata or {},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

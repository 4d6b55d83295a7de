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
from fractions import Fraction

from .errors import ParseError, UnknownBuiltin, ValidationError, InvalidGenerator
from .groups import GLattice
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


def _qext(p, q=0):
    return (Fraction(p), Fraction(q))


def _qext_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _qext_mul(a, b):
    return (a[0] * b[0] + 5 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qext_neg(a):
    return (-a[0], -a[1])


def _quat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    add, mul, neg = _qext_add, _qext_mul, _qext_neg
    return (
        add(add(mul(a, e), neg(mul(b, f))), add(neg(mul(c, g)), neg(mul(d, h)))),
        add(add(mul(a, f), mul(b, e)), add(mul(c, h), neg(mul(d, g)))),
        add(add(mul(a, g), neg(mul(b, h))), add(mul(c, e), mul(d, f))),
        add(add(mul(a, h), mul(b, g)), add(neg(mul(c, f)), mul(d, e))),
    )


def _quat_to_z8(x) -> tuple[int, ...]:
    """Coordinates over (1/4) * {1, sqrt5} x {1,i,j,k}; integrality is checked."""
    out = []
    for p, q in x:
        for val in (4 * p, 4 * q):
            if val.denominator != 1:
                raise ArithmeticError("icosian coordinate outside the 1/4 lattice")
            out.append(val.numerator)
    return tuple(out)


def _z8_to_quat(v):
    return tuple(
        (Fraction(v[2 * i], 4), Fraction(v[2 * i + 1], 4)) for i in range(4)
    )


def _icosian_lattice() -> GLattice:
    """Left multiplication of the binary icosahedral group on the integer
    span of its 120 elements, a rank-8 lattice.

    The group is generated inside the unit quaternions by
    (a + i + j a')/2 and (a + j + k a')/2 with a = (1 + sqrt5)/2 and
    a' = (1 - sqrt5)/2.
    """
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    a_half = (quarter, quarter)  # a/2
    astar_half = (quarter, -quarter)  # a'/2
    zero = _qext(0)
    g1 = (a_half, (half, Fraction(0)), astar_half, zero)
    g2 = (a_half, zero, (half, Fraction(0)), astar_half)

    ident = (_qext(1), zero, zero, zero)
    elements = {ident: None}
    queue = [ident]
    while queue:
        x = queue.pop()
        for g in (g1, g2):
            y = _quat_mul(x, g)
            if y not in elements:
                elements[y] = None
                queue.append(y)
        if len(elements) > 200:
            raise ArithmeticError("icosian closure diverged")
    quats = sorted(elements, key=_quat_to_z8)
    vectors = [_quat_to_z8(q) for q in quats]
    basis = hnf_basis(IntMatrix.from_rows(vectors, 8))
    h_rows = basis.row_lists()
    pivots = [(r, r) for r in range(8)]  # a full-rank square echelon form

    gens = []
    for g in (g1, g2):
        rows = []
        for r in range(8):
            image = _quat_to_z8(_quat_mul(g, _z8_to_quat(basis.row(r))))
            coords = solve_echelon(h_rows, pivots, image)
            if coords is None:
                raise ArithmeticError("vector outside the lattice")
            rows.append(coords)
        gens.append(IntMatrix.from_rows(rows).transpose())
    return GLattice(8, gens, "icosian")


# -- builtins ----------------------------------------------------------------


def _rank3(kind: str) -> GLattice:
    mats = {
        "rank3_order2": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "rank3_order4": [[0, 1, 0], [-1, 0, 0], [0, 0, -1]],
        "rank3_order6": [[0, 0, -1], [-1, 0, 0], [0, -1, 0]],
    }
    return GLattice(3, [IntMatrix.from_rows(mats[kind])], kind)


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


_PARAMETRIC = [
    (re.compile(r"^sym(\d+)(?:_u(\d+))?$"), lambda n: _sym_u(n)),
    (re.compile(r"^alt(\d+)(?:_u(\d+))?$"), lambda n: _alt_u(n)),
    (re.compile(r"^root_a(\d+)$"), lambda k: _root_a(k)),
    (re.compile(r"^diag_sl(\d+)$"), lambda n: _diag_sl(n)),
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
    if name.startswith("rank3_order"):
        if name in ("rank3_order2", "rank3_order4", "rank3_order6"):
            return _rank3(name)
        raise UnknownBuiltin(name)
    if name == "signed_root_s5":
        return _signed_root_s5()
    if name == "icosian":
        return _icosian_lattice()
    for pattern, make in _PARAMETRIC:
        m = pattern.match(name)
        if m:
            n = int(m.group(1))
            if m.lastindex and m.lastindex > 1 and m.group(2) and int(m.group(2)) != n:
                raise UnknownBuiltin(f"{name}: lattice rank must match the group degree")
            if n < 2:
                raise UnknownBuiltin(f"{name}: degree too small")
            return make(n)
    raise UnknownBuiltin(name)


# -- group definition files --------------------------------------------------


@dataclass(frozen=True)
class GroupDefinition:
    name: str
    lattice: GLattice
    metadata: dict = field(default_factory=dict)


def parse_group_definition(data: bytes | str) -> GroupDefinition:
    """Parse and validate a JSON group definition.

    Raises ParseError with position info for malformed JSON and
    ValidationError naming the offending field otherwise.
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


def parse_group_file(data: bytes | str) -> GLattice:
    return parse_group_definition(data).lattice


def serialize_group_definition(lattice: GLattice, metadata: dict | None = None) -> str:
    doc = {
        "name": lattice.name,
        "rank": lattice.rank,
        "generators": [g.row_lists() for g in lattice.generators],
        "metadata": metadata or {},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

"""Workload definitions: the operation lists, why each workload exists, and
which layer metric each end-to-end metric should move.

A workload is a fixed list of operations built from a seed.  The seed only
changes the inputs (conjugating matrices, signed coordinate permutations,
truncation points); every answer the benchmark checks is the same for every
seed.  Each operation returns ``(exit_code, text)``: the CLI's exit code and
stdout, or for library operations a rendering in the CLI's JSON shape.

Load is one caller in a closed loop: the next operation starts when the
previous one returns, in one process and one thread.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from multinv import catalog, cli, groups, orbit_algebra
from multinv.catalog import DEFAULT_BUILTINS, builtin, parse_group_definition, serialize_group_definition
from multinv.groups import GLattice
from multinv.intlinalg import IntMatrix
from multinv.obstruction import direct_sum_copies
from multinv.orbit_algebra import LaurentElement

# -- the reasoning, citable by name ------------------------------------------

WHY = {
    "analyze_orders": (
        "Large-order, low-rank groups: element arithmetic (FiniteMatrixGroup.mul/conj) and the "
        "isotropy catalog do almost all the work; the conjugated copies raise entry size."
    ),
    "copies_rank": (
        "Few elements (<=240) but rank up to 24: matrix products dominate; guards against group "
        "kernels that only pay off on small-rank permutation matrices."
    ),
    "orbit_verify": (
        "Laurent products, orbit expansion and one large _echelon call do all the work; no catalog "
        "work, so catalog changes must leave it unchanged."
    ),
    "reject": (
        "Inputs the program must refuse with the documented exit codes: closure overflow, oversized "
        "groups, malformed files, and one mixed batch (known defect)."
    ),
}

DETAILS = {
    "analyze_orders": (
        "analyze --format json on sym7_u7 (order 5040), sym6_u6, alt6_u6, root_a5, signed_root_s5 "
        "and DEFAULT_BUILTINS in coordinates; all but sym7_u7 again as definition files conjugated "
        "by a seeded unimodular matrix P*T*T^t (P a signed permutation, T upper-triangular ones). "
        "Conjugation raises entries from 1 to up to 39 and makes the same groups 1.2-3x slower, so "
        "a kernel that only suits signed-permutation matrices shows here."
    ),
    "copies_rank": (
        "copies --r 2 and --r 3 of icosian (rank 16, 24), copies --r 3 of signed_root_s5 (rank 12) "
        "and alt5_u5 (rank 15), witness on icosian and signed_root_s5; the seed conjugates the base "
        "lattice before the direct sum. A permutation representation on the +-e_i orbit (2880 "
        "points for icosian^3) loses here."
    ),
    "orbit_verify": (
        "orbit verify diag_sl rank 4 bound 4, alt_laurent rank 4 bound 4, diag_sl rank 3 bound 6. "
        "Seed 0 runs the CLI; other seeds apply a seeded signed coordinate permutation to the group "
        "and generators and call verify_free_decomposition, which keeps the window and the "
        "certificate sizes (881/337, 621/15, 559/341 products/covered) and changes the elimination "
        "order."
    ),
    "reject": (
        "unipotent (infinite) groups at rank 2, 8, 24 with a stated --cap, sym8_u8 --cap 20000, a "
        "truncated JSON file, a generator of determinant 2, and one batch over finite groups plus "
        "an infinite one. The batch aborts with exit 3 and loses the finite reports at the seed "
        "commit; it is counted as failed until every finite report is present and correct."
    ),
}

# Which end-to-end metric each layer metric should move, on which workload.
# "exercised_on" lists the workloads whose traced run must record work for
# every metric the entry names; the traced run reports misses as
# trace.unexercised.
LAYER_MAP = [
    {
        "layer": ["groups.FiniteMatrixGroup.mul.*", "groups.FiniteMatrixGroup.conj.*", "intlinalg.IntMatrix.mul.calls"],
        "moves": ["wall_s", "op_p50_s"],
        "on": ["analyze_orders"],
        "must_not_slow": ["copies_rank"],
        "exercised_on": ["analyze_orders", "copies_rank"],
    },
    {
        "layer": ["isotropy.catalog.*", "intlinalg.IntMatrix.apply.calls"],
        "moves": ["wall_s"],
        "on": ["analyze_orders"],
        "must_not_slow": ["orbit_verify"],
        "exercised_on": ["analyze_orders"],
        "note": "near zero on orbit_verify",
    },
    {
        "layer": ["intlinalg._echelon.*", "orbit_algebra.elim_*"],
        "moves": ["wall_s"],
        "on": ["orbit_verify"],
        "must_not_slow": ["analyze_orders"],
        "exercised_on": ["orbit_verify"],
        "note": "one call of about 900x900 on orbit_verify; about 9k tiny calls on analyze_orders",
    },
    {
        "layer": ["orbit_algebra.product_mul_s", "orbit_algebra.expand_s", "orbit_algebra.solve_s", "orbit_algebra.products"],
        "moves": ["wall_s"],
        "on": ["orbit_verify"],
        "must_not_slow": [],
        "exercised_on": ["orbit_verify"],
    },
    {
        "layer": ["groups.close.*"],
        "moves": ["wall_s", "peak_rss_mb"],
        "on": ["reject"],
        "must_not_slow": ["analyze_orders", "copies_rank"],
        "exercised_on": ["analyze_orders", "copies_rank", "orbit_verify", "reject"],
        "note": "close is only 2-8% of analyze_orders / copies_rank, the most a fail-fast check may cost there",
    },
    {
        "layer": ["intlinalg.out_max_bits"],
        "moves": ["wall_s"],
        "on": ["analyze_orders"],
        "must_not_slow": [],
        "exercised_on": ["analyze_orders", "copies_rank"],
        "note": "the conjugated half of analyze_orders",
    },
    {
        "layer": ["catalog.*"],
        "moves": ["setup_s"],
        "on": ["analyze_orders"],
        "must_not_slow": [],
        "exercised_on": ["analyze_orders"],
    },
    {
        "layer": ["catalog.parse_group_definition.*"],
        "moves": ["wall_s"],
        "on": ["reject"],
        "must_not_slow": [],
        "exercised_on": ["reject"],
        "note": "the malformed-file operations of reject",
    },
    {
        "layer": ["obstruction._condition_row.*", "reflections.*", "isotropy.witness_vector.*"],
        "moves": ["op_p50_s"],
        "on": ["analyze_orders", "copies_rank"],
        "must_not_slow": [],
        "exercised_on": ["analyze_orders", "copies_rank"],
    },
    {
        "layer": [
            "intlinalg.kernel_lattice.*", "intlinalg.snf.*", "intlinalg.induced_on_quotient.*",
            "groups.subgroup_generated.*", "groups.commutator_subgroup.*", "groups.quotient_table_group.*",
            "isotropy.enumerate_isotropy_groups.*", "obstruction.effective_reduction.*",
        ],
        "moves": ["wall_s", "op_p50_s"],
        "on": ["analyze_orders", "copies_rank"],
        "must_not_slow": [],
        "exercised_on": ["analyze_orders", "copies_rank"],
    },
    {
        "layer": ["obstruction.direct_sum_copies.*"],
        "moves": ["wall_s"],
        "on": ["copies_rank"],
        "must_not_slow": [],
        "exercised_on": ["copies_rank"],
    },
    {
        "layer": ["orbit_algebra.verify_free_decomposition.*"],
        "moves": ["wall_s"],
        "on": ["orbit_verify"],
        "must_not_slow": [],
        "exercised_on": ["orbit_verify"],
    },
    {
        "layer": ["cli.self_s"],
        "moves": ["op_p50_s"],
        "on": ["analyze_orders", "reject"],
        "must_not_slow": [],
        "exercised_on": ["analyze_orders", "copies_rank", "reject"],
        "note": "argument parsing and rendering",
    },
]

# Passes per run at --seconds 20, BENCHMARK.json's run_seconds; other values
# scale the count.  On the reference machine one pass takes about 15 s
# (analyze_orders), 5 s (copies_rank), 10 s (orbit_verify) and 3 s (reject).
# A fixed count keeps the sample size, and with it the tail percentile, the
# same from run to run and from commit to commit.  Over ten seeds, two
# passes of analyze_orders spread 8-12% where one pass spread 13-24%.
PASSES_AT_20S = {"analyze_orders": 2, "copies_rank": 3, "orbit_verify": 2, "reject": 5}


@dataclass
class Op:
    label: str  # seed-invariant key into expected.json
    kind: str  # analyze | copies | witness | orbit | reject | batch
    call: Callable[[], tuple[int, str]]
    golden: bool = True  # at seed 0 its bytes must equal the recorded ones
    lattice: Callable[[], GLattice] | None = None  # the analyzed lattice, for witness re-checks
    cli_argv: list[str] | None = None


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.run(argv, out)  # looked up at call time, so tracing sees it
    return code, out.getvalue()


def _cli_op(label, kind, argv, lattice=None, golden=True) -> Op:
    return Op(label, kind, lambda: run_cli(argv), golden, lattice, argv)


# -- seeded input transforms ----------------------------------------------------


def signed_permutation(n: int, rng: random.Random) -> IntMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return IntMatrix(n, n, (signs[i] if perm[i] == j else 0 for i in range(n) for j in range(n)))


def mixing_matrix(n: int, rng: random.Random) -> tuple[IntMatrix, IntMatrix]:
    """A seeded unimodular P*M and its inverse, with P a signed permutation
    and M = T*T^t for T the upper-triangular matrix of ones.  The seed only
    relabels and re-signs the coordinates of M's mixing, so the conjugated
    groups cost the same from seed to seed while their matrices differ."""
    t = IntMatrix(n, n, (1 if j >= i else 0 for i in range(n) for j in range(n)))
    t_inv = IntMatrix(n, n, (1 if j == i else -1 if j == i + 1 else 0 for i in range(n) for j in range(n)))
    p = signed_permutation(n, rng)
    return p * t * t.transpose(), t_inv.transpose() * t_inv * p.transpose()


def conjugate(lat: GLattice, u: IntMatrix, u_inv: IntMatrix) -> GLattice:
    return GLattice(lat.rank, [u * g * u_inv for g in lat.generators], lat.name)


def write_definition(workdir: Path, filename: str, lat: GLattice) -> GLattice:
    """Serialize, write and parse back; setup includes the round trip."""
    text = serialize_group_definition(lat)
    (workdir / filename).write_text(text)
    parsed = parse_group_definition(text).lattice
    if parsed.generators != lat.generators:
        raise RuntimeError(f"{filename}: definition did not round-trip")
    return parsed


def unipotent(n: int) -> GLattice:
    """An infinite group: a shear plus the n-cycle permuting coordinates."""
    shear = IntMatrix(n, n, (1 if i == j or (i, j) == (0, 1) else 0 for i in range(n) for j in range(n)))
    cycle = IntMatrix(n, n, (1 if i == (j + 1) % n else 0 for i in range(n) for j in range(n)))
    return GLattice(n, [shear, cycle], f"unipotent{n}")


# -- workloads ------------------------------------------------------------------

ANALYZE_COORD = ("sym7_u7", "sym6_u6", "alt6_u6", "root_a5", "signed_root_s5") + tuple(
    n for n in DEFAULT_BUILTINS if n != "signed_root_s5"
)


def analyze_orders(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for name in ANALYZE_COORD:
        ops.append(
            _cli_op(f"analyze:{name}", "analyze", ["analyze", f"builtin:{name}", "--format", "json"],
                    lambda name=name: builtin(name))
        )
    for name in ANALYZE_COORD[1:]:
        base = builtin(name)
        lat = write_definition(workdir, f"{name}.conj.json", conjugate(base, *mixing_matrix(base.rank, rng)))
        ops.append(
            _cli_op(f"analyze-conj:{name}", "analyze", ["analyze", f"{name}.conj.json", "--format", "json"],
                    lambda lat=lat: lat)
        )
    return ops


def copies_rank(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    bases = {}
    for name in ("icosian", "signed_root_s5", "alt5_u5"):
        base = builtin(name)
        bases[name] = write_definition(workdir, f"{name}.conj.json", conjugate(base, *mixing_matrix(base.rank, rng)))
    ops = []
    for name, r in (("icosian", 2), ("icosian", 3), ("signed_root_s5", 3), ("alt5_u5", 3)):
        argv = ["copies", f"{name}.conj.json", "--r", str(r), "--format", "json"]
        ops.append(_cli_op(f"copies:{name}:{r}", "copies", argv, lambda lat=bases[name], r=r: direct_sum_copies(lat, r)))
    for name in ("icosian", "signed_root_s5"):
        argv = ["witness", f"{name}.conj.json", "--format", "json"]
        ops.append(_cli_op(f"witness:{name}", "witness", argv, lambda lat=bases[name]: lat))
    return ops


ORBIT_CASES = (("diag_sl", 4, 4), ("alt_laurent", 4, 4), ("diag_sl", 3, 6))


def orbit_verify(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for preset, rank, bound in ORBIT_CASES:
        label = f"orbit:{preset}:{rank}:{bound}"
        if seed == 0:
            argv = ["orbit", "verify", preset, "--rank", str(rank), "--bound", str(bound), "--format", "json"]
            ops.append(_cli_op(label, "orbit", argv))
        else:
            p = signed_permutation(rank, rng)
            ops.append(Op(label, "orbit", lambda a=(preset, rank, bound, p): _orbit_library(*a)))
    return ops


def _orbit_library(preset: str, rank: int, bound: int, p: IntMatrix) -> tuple[int, str]:
    """The CLI's preset, moved by the signed permutation p, verified through
    the library and rendered in the CLI's JSON shape."""
    act = orbit_algebra.act
    if preset == "diag_sl":
        base = catalog.builtin(f"diag_sl{rank}")
    else:
        base = catalog.builtin(f"alt{rank}_u{rank}")
    group = groups.close(conjugate(base, p, p.transpose()))
    one = LaurentElement.one(rank)
    if preset == "diag_sl":
        unit = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        algebra = [orbit_algebra.orbit_sum(group, p.apply(e)) for e in unit]
        module = [one, orbit_algebra.orbit_sum(group, p.apply((1,) * rank))]
    else:
        algebra = [act(p, orbit_algebra.elementary_symmetric(rank, k)) for k in range(1, rank + 1)]
        algebra.append(LaurentElement.monomial(p.apply((-1,) * rank)))
        module = [one, act(p, orbit_algebra.alternating_d(rank))]
    result = orbit_algebra.verify_free_decomposition(group, algebra, module, bound)
    payload = {"command": "orbit-verify", "preset": preset, "rank": rank, "ok": result.ok}
    if result.ok:
        cert = result.certificate
        payload["certificate"] = {
            "bound": cert.bound,
            "interior_bound": cert.interior_bound,
            "num_products": len(cert.products),
            "products": [{"module_index": t.module_index, "exponents": list(t.exponents)} for t in cert.products],
            "covered": [list(r) for r in cert.covered],
            "expressions": [
                {"representative": list(rep), "combination": [[c, pos] for pos, c in combo]}
                for rep, combo in sorted(cert.expressions.items(), reverse=True)
            ],
        }
    else:
        payload["failure"] = {"kind": result.failure.kind}
    return 0, json.dumps(payload, indent=2, sort_keys=True) + "\n"


REJECT_CAPS = {2: 30000, 8: 50000, 24: 2500}
BATCH_CAP = 20000
BATCH_FINITE = {"a_sym4_u4.json": "sym4_u4", "b_icosian.json": "icosian"}


def reject(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n, cap in REJECT_CAPS.items():
        p = signed_permutation(n, rng)
        write_definition(workdir, f"unipotent{n}.json", conjugate(unipotent(n), p, p.transpose()))
        argv = ["analyze", f"unipotent{n}.json", "--cap", str(cap), "--format", "json"]
        ops.append(_cli_op(f"reject:unipotent{n}", "reject", argv, golden=False))
    p = signed_permutation(8, rng)
    write_definition(workdir, "sym8_u8.json", conjugate(builtin("sym8_u8"), p, p.transpose()))
    ops.append(_cli_op("reject:sym8_u8", "reject", ["analyze", "sym8_u8.json", "--cap", "20000"], golden=False))

    p = signed_permutation(4, rng)
    text = serialize_group_definition(conjugate(builtin("sym4_u4"), p, p.transpose()))
    cut = rng.randrange(len(text) // 4, 3 * len(text) // 4)
    (workdir / "truncated.json").write_text(text[:cut])
    ops.append(_cli_op("reject:truncated", "reject", ["analyze", "truncated.json"], golden=False))

    # a generator of determinant 2 next to a valid one, written by hand
    # because GLattice refuses to hold it
    n = 4
    k = rng.randrange(n)
    bad = [[(2 if i == j == k else int(i == j)) for j in range(n)] for i in range(n)]
    good = signed_permutation(n, rng).row_lists()
    doc = {"name": "det2", "rank": n, "generators": [good, bad], "metadata": {}}
    (workdir / "det2.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    ops.append(_cli_op("reject:det2", "reject", ["analyze", "det2.json"], golden=False))

    mixed = workdir / "mixed"
    mixed.mkdir()
    for filename, name in BATCH_FINITE.items():
        base = builtin(name)
        p = signed_permutation(base.rank, rng)
        write_definition(mixed, filename, conjugate(base, p, p.transpose()))
    p = signed_permutation(8, rng)
    write_definition(mixed, "c_unipotent8.json", conjugate(unipotent(8), p, p.transpose()))
    argv = ["batch", "mixed", "--cap", str(BATCH_CAP), "--format", "json"]
    # not golden: only the finite files' reports are checked, so a fix of the
    # known defect passes unchanged
    ops.append(_cli_op("reject:batch_mixed", "batch", argv, golden=False))
    return ops


BUILDERS = {
    "analyze_orders": analyze_orders,
    "copies_rank": copies_rank,
    "orbit_verify": orbit_verify,
    "reject": reject,
}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    return interleave(BUILDERS[name](seed, workdir))


def interleave(ops: list[Op]) -> list[Op]:
    """A fixed stride order that spreads neighbouring operations (say the
    tiny DEFAULT_BUILTINS) over the whole pass, so that the latency
    percentiles sample the machine at many moments rather than in one burst."""
    n = len(ops)
    stride = next(k for k in range(round(0.618 * n), n + 1) if math.gcd(k, n) == 1)
    return [ops[i * stride % n] for i in range(n)]


def passes_for(name: str, seconds: float) -> int:
    return max(1, round(PASSES_AT_20S[name] * seconds / 20))

"""Command-line front end.

Commands:

* ``analyze <file|builtin:NAME>``: obstruction report for one action.
* ``batch <dir>``: reports for every ``*.json`` definition in a directory
  plus summary counts.  A file that cannot be read, fails to parse or
  validate, or whose closure exceeds the cap, gets an ``error`` entry and
  counts under ``errors``; the other files are still reported.
* ``copies <file|builtin:NAME> --r K``: verdict for the K-fold direct sum.
* ``orbit verify <preset> --rank N --bound B``: decomposition certificate.
* ``witness <file|builtin:NAME>``: isotropy catalog with witness vectors.

All output is deterministic; ``--seed-free`` is accepted for scripting
symmetry but changes nothing because no code path uses randomness.
Exit codes: 0 success, 2 parse/validation problems, 3 closure cap
exceeded or group proved infinite (two distinct elements agree mod 3,
or an element g has |tr g| > n, its rank; either is found long before
the cap), 70 internal error (a bug; the message names the exception).
``batch`` exits 3 if any file exceeded the cap, else 2 if any file had an
input error, else 0.  Exit code 1 is never used.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .catalog import (
    SCHEMA_VERSION,
    builtin,
    builtin_order_factors,
    parse_group_definition,
)
from .errors import (
    CapExceeded,
    ParseError,
    UnknownBuiltin,
    UnknownPreset,
    ValidationError,
)
from .groups import DEFAULT_CAP, GLattice, close
from .isotropy import enumerate_isotropy_groups, witness_vector
from .obstruction import ObstructionReport, check_necessary_conditions, copies_verdict
from .orbit_algebra import (
    LaurentElement,
    alternating_d,
    elementary_symmetric,
    orbit_sum,
    verify_free_decomposition,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 70


def _fmt_vector(v) -> str:
    if all(x == 0 for x in v):
        return "0"
    return "(" + ", ".join(str(x) for x in v) + ")"


def _fmt_factors(factors) -> str:
    return "[" + ", ".join(str(x) for x in factors) + "]"


def _load_lattice(source: str, cap: int) -> GLattice:
    if source.startswith("builtin:"):
        name = source[len("builtin:") :]
        _refuse_above_cap(builtin_order_factors(name), cap)  # before any matrix is built
        return builtin(name)
    path = Path(source)
    if not path.is_file():
        raise ValidationError(f"{source}: no such file")
    return parse_group_definition(path.read_bytes()).lattice


# -- obstruction report rendering -------------------------------------------


def _report_dict(report: ObstructionReport, source: str) -> dict:
    classes = []
    for row in report.classes:
        entry = {
            "order": row.order,
            "moved_rank": row.moved_rank,
            "bireflection_order": row.bireflection_order,
            "abelianization": list(row.abelianization),
            "bireflection_image": list(row.bireflection_image),
            "perfect": row.perfect,
            "perfect_mod_bireflections": row.perfect_mod_bireflections,
            "generated_by_bireflections": row.generated_by_bireflections,
        }
        if row.witness is not None:
            entry["witness"] = list(row.witness)
        classes.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "input": source,
        "name": report.description,
        "rank": report.original_rank,
        "group_order": report.group_order,
        "reduction": {
            "original_rank": report.reduction.original_rank,
            "fixed_rank": report.reduction.fixed_rank,
            "effective_rank": report.reduction.effective_rank,
            "trivial_action": report.reduction.trivial_action,
            "rank_at_most_2": report.reduction.rank_at_most_2,
        },
        "isotropy_classes": classes,
        "condition_a": report.condition_a,
        "condition_b": report.condition_b,
        "verdict": report.verdict,
        "statement": report.statement,
    }


def _report_text(report: ObstructionReport, source: str) -> str:
    lines = [
        f"input: {source} (rank {report.original_rank})",
        f"group order: {report.group_order}",
        (
            f"reduction: effective rank {report.reduction.effective_rank}"
            f" (fixed rank {report.reduction.fixed_rank})"
        ),
        f"isotropy classes: {len(report.classes)}",
    ]
    for row in report.classes:
        lines.append(
            f"  order {row.order}: moved rank {row.moved_rank}, "
            f"bireflection subgroup order {row.bireflection_order}, "
            f"abelianization {_fmt_factors(row.abelianization)}, "
            f"perfect {'yes' if row.perfect else 'no'}, "
            f"perfect mod bireflections {'yes' if row.perfect_mod_bireflections else 'no'}, "
            f"generated by bireflections {'yes' if row.generated_by_bireflections else 'no'}"
        )
    lines.append(f"condition A (isotropy perfect mod bireflections): {'PASS' if report.condition_a else 'FAIL'}")
    if not report.condition_a:
        row = next(r for r in report.classes if not r.perfect_mod_bireflections)
        witness = _fmt_vector(row.witness) if row.witness is not None else "?"
        lines.append(
            f"condition A fails at m = {witness}: "
            f"abelianization {_fmt_factors(row.abelianization)}, "
            f"bireflection image {_fmt_factors(row.bireflection_image)}"
        )
    lines.append(
        f"condition B (trivial action or some non-perfect isotropy): "
        f"{'PASS' if report.condition_b else 'FAIL'}"
    )
    lines.append(f"verdict: {report.verdict}")
    lines.append(f"note: {report.statement}")
    return "\n".join(lines) + "\n"


def _emit(out, fmt: str, payload: dict, text: str) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        out.write(text)


# -- commands -----------------------------------------------------------------


def _cmd_analyze(args, out) -> int:
    lattice = _load_lattice(args.input, args.cap)
    report = check_necessary_conditions(lattice, cap=args.cap)
    payload = _report_dict(report, args.input)
    payload["command"] = "analyze"
    _emit(out, args.format, payload, _report_text(report, args.input))
    return EXIT_OK


def _cmd_copies(args, out) -> int:
    lattice = _load_lattice(args.input, args.cap)
    report = copies_verdict(lattice, args.r, cap=args.cap)
    payload = _report_dict(report, args.input)
    payload["command"] = "copies"
    payload["copies"] = args.r
    text = f"copies: {args.r}\n" + _report_text(report, args.input)
    _emit(out, args.format, payload, text)
    return EXIT_OK


def _cmd_batch(args, out) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ValidationError(f"{args.directory}: not a directory")
    files = sorted(directory.glob("*.json"))
    reports = []
    lines = []
    counts = {"obstructed": 0, "inconclusive": 0, "trivially_cm": 0, "errors": 0}
    capped = False
    for path in files:
        try:
            definition = parse_group_definition(path.read_bytes())
            report = check_necessary_conditions(definition.lattice, cap=args.cap)
        except (OSError, ParseError, ValidationError, CapExceeded) as exc:
            capped = capped or isinstance(exc, CapExceeded)
            error = f"cannot read: {exc.strerror}" if isinstance(exc, OSError) else str(exc)
            counts["errors"] += 1
            reports.append({"file": path.name, "error": error})
            lines.append(f"{path.name}: ERROR {error}")
            continue
        key = {"Obstructed": "obstructed", "Inconclusive": "inconclusive", "TriviallyCM": "trivially_cm"}[
            report.verdict
        ]
        counts[key] += 1
        entry = _report_dict(report, path.name)
        entry["file"] = path.name
        reports.append(entry)
        lines.append(f"{path.name}: {report.verdict} (group order {report.group_order})")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "batch",
        "reports": reports,
        "summary": counts,
    }
    lines.append(
        "summary: obstructed {obstructed}, inconclusive {inconclusive}, "
        "trivially-cm {trivially_cm}, errors {errors}".format(**counts)
    )
    _emit(out, args.format, payload, "\n".join(lines) + "\n")
    if capped:
        return EXIT_CAP
    return EXIT_INPUT if counts["errors"] else EXIT_OK


def _cmd_witness(args, out) -> int:
    lattice = _load_lattice(args.input, args.cap)
    group = close(lattice, cap=args.cap)
    catalog = enumerate_isotropy_groups(group)
    classes = []
    lines = [f"input: {args.input} (rank {lattice.rank})", f"group order: {group.order}"]
    lines.append(f"isotropy classes: {len(catalog.classes)}")
    for cl in catalog.classes:
        witness = witness_vector(group, cl.subgroup, cl.fixed_space)
        classes.append(
            {
                "order": cl.order,
                "fixed_rank": cl.fixed_rank,
                "fixed_space": cl.fixed_space.row_lists(),
                "witness": list(witness),
            }
        )
        lines.append(
            f"  order {cl.order}: fixed rank {cl.fixed_rank}, witness {_fmt_vector(witness)}"
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "witness",
        "input": args.input,
        "rank": lattice.rank,
        "group_order": group.order,
        "isotropy_classes": classes,
    }
    _emit(out, args.format, payload, "\n".join(lines) + "\n")
    return EXIT_OK


def _refuse_above_cap(factors, cap: int) -> None:
    """Raise CapExceeded if the product of ``factors``, a group's order, is
    above the cap; stops multiplying as soon as it is."""
    order = 1
    for f in factors:
        order *= f
        if order > cap:
            raise CapExceeded(cap)


def _orbit_preset(name: str, rank: int, cap: int = DEFAULT_CAP):
    if name == "diag_sl":
        if rank < 2:
            raise ValidationError("diag_sl preset needs rank at least 2")
        group = close(_load_lattice(f"builtin:diag_sl{rank}", cap), cap)
        algebra = [
            orbit_sum(group, tuple(1 if j == i else 0 for j in range(rank)))
            for i in range(rank)
        ]
        module = [LaurentElement.one(rank), orbit_sum(group, (1,) * rank)]
        return group, algebra, module
    if name == "alt_laurent":
        # invariants of the alternating group over the symmetric functions
        # with the top one inverted, split by the half-discriminant
        if rank < 3:
            raise ValidationError("alt_laurent preset needs rank at least 3")
        group = close(_load_lattice(f"builtin:alt{rank}_u{rank}", cap), cap)
        algebra = [elementary_symmetric(rank, k) for k in range(1, rank + 1)]
        algebra.append(LaurentElement.monomial((-1,) * rank))
        module = [LaurentElement.one(rank), alternating_d(rank)]
        return group, algebra, module
    raise UnknownPreset(name)


def _cmd_orbit_verify(args, out) -> int:
    group, algebra, module = _orbit_preset(args.preset, args.rank, args.cap)
    result = verify_free_decomposition(group, algebra, module, args.bound)
    if result.ok:
        cert = result.certificate
        payload_cert = {
            "bound": cert.bound,
            "interior_bound": cert.interior_bound,
            "num_products": len(cert.products),
            "products": [
                {"module_index": p.module_index, "exponents": list(p.exponents)}
                for p in cert.products
            ],
            "covered": [list(r) for r in cert.covered],
            "expressions": [
                {
                    "representative": list(rep),
                    "combination": [[c, pos] for pos, c in combo],
                }
                for rep, combo in sorted(cert.expressions.items(), reverse=True)
            ],
        }
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "orbit-verify",
            "preset": args.preset,
            "rank": args.rank,
            "ok": True,
            "certificate": payload_cert,
        }
        text = (
            f"preset: {args.preset} (rank {args.rank}, bound {cert.bound}, "
            f"interior {cert.interior_bound})\n"
            f"products: {len(cert.products)}\n"
            f"covered representatives: {len(cert.covered)}\n"
            "result: PASS\n"
        )
    else:
        failure = result.failure
        detail = {
            "kind": failure.kind,
        }
        if failure.witness_orbit is not None:
            detail["witness_orbit"] = list(failure.witness_orbit)
        if failure.relation is not None:
            detail["relation"] = [
                [c, {"module_index": p.module_index, "exponents": list(p.exponents)}]
                for c, p in failure.relation
            ]
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "orbit-verify",
            "preset": args.preset,
            "rank": args.rank,
            "ok": False,
            "failure": detail,
        }
        where = (
            f" at {_fmt_vector(failure.witness_orbit)}"
            if failure.witness_orbit is not None
            else ""
        )
        text = (
            f"preset: {args.preset} (rank {args.rank}, bound {args.bound})\n"
            f"result: FAIL ({failure.kind}{where})\n"
        )
    _emit(out, args.format, payload, text)
    return EXIT_OK


def _at_least(least: int):
    """argparse type: an integer no smaller than ``least``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return integer


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged, so every
    :func:`run` call shares it."""
    parser = argparse.ArgumentParser(
        prog="multinv",
        description="Obstruction analysis and orbit-sum verification for "
        "finite unimodular matrix groups acting on lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--cap", type=_at_least(0), default=DEFAULT_CAP)
        p.add_argument(
            "--seed-free",
            action="store_true",
            help="assert deterministic output (always true; accepted for scripting)",
        )

    p = sub.add_parser("analyze", help="obstruction report for one group")
    p.add_argument("input", help="definition file or builtin:NAME")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("batch", help="analyze every *.json file in a directory")
    p.add_argument("directory")
    common(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("copies", help="verdict for a direct sum of copies")
    p.add_argument("input", help="definition file or builtin:NAME")
    p.add_argument("--r", type=_at_least(1), required=True, help="number of copies")
    common(p)
    p.set_defaults(func=_cmd_copies)

    p = sub.add_parser("witness", help="isotropy catalog with witness vectors")
    p.add_argument("input", help="definition file or builtin:NAME")
    common(p)
    p.set_defaults(func=_cmd_witness)

    orbit = sub.add_parser("orbit", help="orbit-sum algebra commands")
    orbit_sub = orbit.add_subparsers(dest="orbit_command", required=True)
    p = orbit_sub.add_parser("verify", help="verify a module decomposition preset")
    p.add_argument("preset", help="preset name (diag_sl or alt_laurent)")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--bound", type=int, default=4)
    common(p)
    p.set_defaults(func=_cmd_orbit_verify)

    return parser


def run(argv, out=None) -> int:
    """Entry point suitable for tests: returns the exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args, out)
    except (ParseError, ValidationError, UnknownBuiltin, UnknownPreset) as exc:
        out.write(f"error: {exc}\n")
        return EXIT_INPUT
    except CapExceeded as exc:
        out.write(f"error: {exc}\n")
        return EXIT_CAP
    except Exception as exc:  # pragma: no cover - indicates a bug
        out.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

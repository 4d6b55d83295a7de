"""One measured run of one workload, in a fresh interpreter started by run.py.

Set-up (importing multinv and building the inputs) is timed on its own.
The workload's operation list then runs a fixed number of passes with
tracing off; with ``--trace 1`` one more pass runs with the spans installed,
and its output must be byte-identical to the untraced passes.
The result goes to stdout as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_pass(ops, wrap=None):
    outputs, latencies = [], []
    clock = time.perf_counter
    t_pass = clock()
    for op in ops:
        call = op.call if wrap is None else wrap(op)
        t = clock()
        result = call()
        latencies.append(clock() - t)
        outputs.append(result)
    return clock() - t_pass, outputs, latencies


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports multinv

    ops = workloads.build(args.workload, args.seed, Path.cwd())
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks
    import tracing

    expected = checks.load_expected()
    passes = workloads.passes_for(args.workload, args.seconds)
    pass_times, latencies, first = [], [], None
    unstable = set()
    for _ in range(passes):
        wall, outputs, lat = run_pass(ops)
        pass_times.append(wall)
        latencies.extend(lat)
        if first is None:
            first = outputs
        else:
            unstable.update(i for i, (a, b) in enumerate(zip(first, outputs)) if a != b)

    errors, known, bad = [], [], set()
    for i, op in enumerate(ops):
        reason = checks.check(op, *first[i], expected, args.seed)
        if i in unstable:
            reason = f"{op.label}: output changed between passes"
        if reason is None:
            continue
        bad.add(i)
        defect = expected["known_defects"].get(op.label)
        if defect is not None and first[i][0] == defect["exit_code"] and i not in unstable:
            known.append(f"{reason} [known defect: {defect['note']}]")
        else:
            errors.append(reason)
    attempted = passes * len(ops)
    failed = passes * len(bad)

    result = {
        "setup_s": setup_s,
        "passes": passes,
        "ops_per_pass": len(ops),
        "pass_times": pass_times,
        "latencies": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "known_defects": known,
        "errors": errors,
        "trace": None,
    }

    if args.trace:
        tracer = tracing.Tracer()
        missing = tracer.install()

        def wrap(op):
            # a library operation is its own top-level span; a CLI
            # operation's top-level span is cli.run
            return op.call if op.cli_argv else tracer.span("bench.op", op.call)

        try:
            wall, outputs, _ = run_pass(ops, wrap)
        finally:
            tracer.uninstall()
        attempted += len(ops)
        for i, op in enumerate(ops):
            if outputs[i] != first[i]:
                errors.append(f"{op.label}: traced output differs from untraced output")
            if outputs[i] != first[i] or i in bad:
                failed += 1
        values = tracer.metrics()
        values["trace.overhead_s"] = wall - statistics.median(pass_times)
        misses = tracing.unexercised(values, args.workload, workloads.LAYER_MAP)
        values["trace.unexercised"] = len(misses)
        result["trace"] = {"values": values, "wall_s": wall, "missing": missing, "unexercised": misses}

    result["attempted"] = attempted
    result["failed"] = failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

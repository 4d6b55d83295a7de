"""Benchmark for multinv: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter (perfbench/worker.py), so peak_rss_mb is that workload's alone.
Set-up is also measured in four more fresh interpreters that only set up;
setup_s is the median of the five.  Inputs are written under
.perfbench_work/ in the checkout and removed afterwards.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  fail_frac is failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analyze_orders", "copies_rank", "orbit_verify", "reject")
SETUP_PROBES = 4
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# printed with every untraced run but not gated: on the reference machine
# their spread over ten seeds reaches 16-23% (README.md), too close to the
# largest bound a gated metric may have
LATENCY = {"op_p50_s": "s", "op_tail_s": "s"}


class RunFailed(Exception):
    pass


def child(args: list[str], cwd: Path, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, str]:
    """Latency at the highest percentile with at least ten samples above it.
    Below 20 samples that percentile would not reach the median, so the
    maximum is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], f"maximum of {n} samples (fewer than 20)"
    return xs[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} samples (10 above it)"


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    value, tail_note = tail(res["latencies"])
    values = {
        "wall_s": statistics.median(res["pass_times"]),
        "op_p50_s": statistics.median(res["latencies"]),
        "op_tail_s": value,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"wall_s is the median of {res['passes']} passes over {res['ops_per_pass']} operations",
        f"op_tail_s is the {tail_note}",
        f"setup_s is the median of {len(setups)} fresh set-ups",
    ]
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "multinv" / "__init__.py").is_file():
        print(f"error: no multinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                d = workdir / f"setup{i}"
                d.mkdir()
                setups.append(child([*common, "--setup-only"], d, 30)["setup_s"])
        run_dir = workdir / "run"
        run_dir.mkdir()
        res = child([*common, "--trace", str(args.trace)], run_dir, 170)
    except (RunFailed, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    print(
        f"multinv benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}; "
        f"python {sys.version.split()[0]}, {os.cpu_count()} cpus; closed loop, one caller"
    )
    if args.trace:
        tr = res["trace"]
        metrics = {name: {"value": tr["values"][name], "unit": unit} for name, unit in tracing.per_layer_spec()}
        print(f"traced pass: {tr['wall_s']:.4f} s, tracing overhead {tr['values']['trace.overhead_s']:.4f} s")
        if tr["missing"]:
            print(f"not traced (absent from the program): {', '.join(tr['missing'])}")
        if tr["unexercised"]:
            print(f"self-check: recorded no work on this workload: {', '.join(tr['unexercised'])}")
    else:
        values, notes = end_to_end(res, setups + [res["setup_s"]])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        for name, unit in {**END_TO_END, **LATENCY}.items():
            print(f"  {name:12s} {values[name]:.6g} {unit}")
        for note in notes:
            print(f"  ({note})")
    print(f"  fail_frac    {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.4g}")
    for line in res["known_defects"]:
        print(f"failed (known defect): {line}")
    for line in res["errors"]:
        print(f"wrong: {line}")
    correct = not res["errors"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

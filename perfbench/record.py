"""Record the answers the benchmark checks, from the current code.

    python3 perfbench/record.py

Runs every workload's operations once at seed 0 and writes
perfbench/expected.json: each operation's seed-invariant answer, the
SHA-256 of each JSON output of the CLI at seed 0, and the operations that
fail today (known defects) with their exit codes.  It then rebuilds the
inputs at seed 1 and stops with an error unless every answer is the same,
which is what lets one record serve every seed.  Run it only when the
program's answers change on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

DEFECT_NOTES = {
    "reject:batch_mixed": (
        "batch aborts with exit 3 and a single error line when one file exceeds the cap; "
        "the finite files' reports are lost"
    ),
}


def run_workload(name: str, seed: int, workdir: Path):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        ops = workloads.build(name, seed, workdir)
        return [(op, *op.call()) for op in ops]
    finally:
        os.chdir(cwd)


def batch_answers(workdir: Path) -> dict:
    """What a correct batch reports for its finite files: their analyze answers."""
    out = {}
    for filename in workloads.BATCH_FINITE:
        code, text = workloads.run_cli(["analyze", str(workdir / "mixed" / filename), "--format", "json"])
        if code != 0:
            raise SystemExit(f"analyze {filename} exited {code}")
        out[filename] = checks._report_answer(json.loads(text))
    return {"reports": out}


def main() -> int:
    answers, digests, defects = {}, {}, {}
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="record-", dir=work))
    try:
        for name in workloads.BUILDERS:
            for seed in (0, 1):
                workdir = base / f"{name}-{seed}"
                workdir.mkdir()
                for op, code, text in run_workload(name, seed, workdir):
                    got = batch_answers(workdir) if op.kind == "batch" else checks.answer(op, code, text)
                    if seed == 0:
                        answers[op.label] = got
                        if op.golden:
                            digests[op.label] = checks.digest(text)
                        if op.kind == "batch" and checks.answer(op, code, text) != got:
                            defects[op.label] = {"exit_code": code, "note": DEFECT_NOTES.get(op.label, "")}
                    elif answers[op.label] != got:
                        raise SystemExit(f"{op.label}: answer differs between seeds 0 and 1")
                print(f"{name}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    doc = {"answers": answers, "digests_seed0": digests, "known_defects": defects}
    checks.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

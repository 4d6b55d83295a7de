"""Byte-for-byte CLI outputs recorded as test data.

Each case runs the CLI in-process and compares stdout and the exit code
with the file under ``tests/golden/``.  To re-record after an intended
output change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import io
import sys
from pathlib import Path

import pytest

from multinv.catalog import DEFAULT_BUILTINS
from multinv.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {}
for _name in DEFAULT_BUILTINS:
    CASES[f"analyze_{_name}"] = ["analyze", f"builtin:{_name}"]
    CASES[f"witness_{_name}"] = ["witness", f"builtin:{_name}"]
for _name in ("rank3_order6", "sym3_u3", "root_a2", "signed_root_s5"):
    CASES[f"copies3_{_name}"] = ["copies", f"builtin:{_name}", "--r", "3"]
for _preset, _rank, _bound in (("diag_sl", 2, 4), ("diag_sl", 3, 3), ("alt_laurent", 3, 3)):
    CASES[f"orbit_{_preset}_r{_rank}_b{_bound}"] = [
        "orbit", "verify", _preset, "--rank", str(_rank), "--bound", str(_bound),
    ]


def render(argv):
    """Exit code line followed by the JSON stdout."""
    buf = io.StringIO()
    code = run([*argv, "--format", "json"], buf)
    return f"exit {code}\n" + buf.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert render(CASES[case]) == expected


def record():
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_text(render(argv))


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()

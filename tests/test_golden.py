"""Byte-for-byte CLI outputs recorded as test data.

Each case runs the CLI in-process and compares stdout and the exit code
with the file under ``tests/golden/``.  Outputs too large to keep as text
are stored as the SHA-256 digest of the same rendering, in a ``.sha256``
file.  The ``conj_*.json`` definitions there are builtins conjugated by
the unimodular matrix named in their metadata, so the catalog also runs
outside plain coordinates; every case runs from that directory, so the
recorded ``input`` field is a bare file name.  To re-record after an
intended output change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import io
import os
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
for _name in ("root_a3", "sym4_u4", "signed_root_s5"):
    CASES[f"analyze_conj_{_name}"] = ["analyze", f"conj_{_name}.json"]
    CASES[f"witness_conj_{_name}"] = ["witness", f"conj_{_name}.json"]
for _name in ("rank3_order6", "sym3_u3", "root_a2", "signed_root_s5"):
    CASES[f"copies3_{_name}"] = ["copies", f"builtin:{_name}", "--r", "3"]
for _preset, _rank, _bound in (("diag_sl", 2, 4), ("diag_sl", 3, 3), ("alt_laurent", 3, 3)):
    CASES[f"orbit_{_preset}_r{_rank}_b{_bound}"] = [
        "orbit", "verify", _preset, "--rank", str(_rank), "--bound", str(_bound),
    ]

# bound 4 at rank 4: hundreds of products share a leading representative
DIGEST_CASES = {
    f"orbit_{_preset}_r4_b4": ["orbit", "verify", _preset, "--rank", "4", "--bound", "4"]
    for _preset in ("diag_sl", "alt_laurent")
}


def render(argv):
    """Exit code line followed by the JSON stdout."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        code = run([*argv, "--format", "json"], buf)
    finally:
        os.chdir(cwd)
    return f"exit {code}\n" + buf.getvalue()


def digest(argv):
    return hashlib.sha256(render(argv).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert render(CASES[case]) == expected


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_golden_digest(case):
    expected = (GOLDEN / f"{case}.sha256").read_text().strip()
    assert digest(DIGEST_CASES[case]) == expected


def record():
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_text(render(argv))
    for case, argv in sorted(DIGEST_CASES.items()):
        (GOLDEN / f"{case}.sha256").write_text(digest(argv) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()

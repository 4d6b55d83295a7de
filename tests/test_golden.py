"""Byte-for-byte CLI outputs recorded as test data.

Each case runs the CLI in-process and compares stdout and the exit code
with the file under ``tests/golden/``.  Outputs too large to keep as text
are stored as the SHA-256 digest of the same rendering, in a ``.sha256``
file.  The ``conj_*.json`` definitions there are builtins conjugated by
the unimodular matrix named in their metadata, so the catalog also runs
outside plain coordinates, and ``trivial3.json`` is the trivial action
on rank 3; every case runs from that directory, so the recorded
``input`` field is a bare file name.  To re-record after an
intended output change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from multinv.catalog import DEFAULT_BUILTINS, builtin, serialize_group_definition
from multinv.cli import run
from multinv.groups import GLattice
from multinv.intlinalg import IntMatrix

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
# the rank-16 and rank-24 icosian sums, sums with a fixed part to reduce
# away whose witness is scanned against rejectors (alt5_u5, alt6_u6), and
# conjugated bases
for _r, _input in ((2, "builtin:icosian"), (3, "builtin:icosian"), (3, "builtin:alt5_u5"),
                   (2, "builtin:alt6_u6"), (3, "builtin:alt6_u6"),
                   (3, "conj_signed_root_s5.json"), (2, "conj_alt6_u6.json")):
    _stem = _input.removeprefix("builtin:").removesuffix(".json")
    CASES[f"copies{_r}_{_stem}"] = ["copies", _input, "--r", str(_r)]
# a trivial action: the fixed part is the whole lattice, once and three times
CASES["analyze_trivial3"] = ["analyze", "trivial3.json"]
CASES["copies3_trivial3"] = ["copies", "trivial3.json", "--r", "3"]
for _preset, _rank, _bound in (("diag_sl", 2, 4), ("diag_sl", 3, 3), ("alt_laurent", 3, 3)):
    CASES[f"orbit_{_preset}_r{_rank}_b{_bound}"] = [
        "orbit", "verify", _preset, "--rank", str(_rank), "--bound", str(_bound),
    ]

# bound 4 at rank 4: hundreds of products share a leading representative;
# bound 6 at rank 4: the largest windows the suite runs
DIGEST_CASES = {
    f"orbit_{_preset}_r4_b{_bound}": ["orbit", "verify", _preset, "--rank", "4", "--bound", str(_bound)]
    for _preset in ("diag_sl", "alt_laurent")
    for _bound in (4, 6)
}
# the large builtins of the benchmark; alt6_u6 is the one whose meet closure
# adds spaces beyond the cyclic ones (97 cyclic, 188 in all); alt7_u7 and
# sym8_u8 have the largest closures (856 and 4,140 spaces)
for _name in ("sym7_u7", "sym6_u6", "alt6_u6", "root_a5", "diag_sl6", "alt7_u7", "sym8_u8"):
    DIGEST_CASES[f"analyze_{_name}"] = ["analyze", f"builtin:{_name}"]
for _name in ("alt6_u6", "sym6_u6", "root_a5"):
    DIGEST_CASES[f"witness_{_name}"] = ["witness", f"builtin:{_name}"]
DIGEST_CASES["analyze_conj_alt6_u6"] = ["analyze", "conj_alt6_u6.json"]
# copies of large bases: sym7_u7 reduces its fixed part away and needs a
# rank-18 witness; icosian has no fixed part and a rank-80 sum
DIGEST_CASES["copies_sym7_u7_r3"] = ["copies", "builtin:sym7_u7", "--r", "3"]
DIGEST_CASES["copies_icosian_r10"] = ["copies", "builtin:icosian", "--r", "10"]


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


# element indices follow the generator list; these groups cover the
# catalog's large cases, the icosian's fixed-point-free action, and the
# conjugacy sweep on small ones
ORDER_FREE = ("sym6_u6", "alt6_u6", "root_a5", "signed_root_s5", "icosian", "diag_sl6",
              "rank3_order6", "sym4_u4", "root_a3")


@pytest.mark.parametrize("command", ["analyze", "witness"])
@pytest.mark.parametrize("name", ORDER_FREE)
def test_output_ignores_generator_order(name, command, tmp_path):
    """The same group given by its generators reversed, and reversed with a
    duplicate generator and the identity appended, gives the same JSON."""
    lat = builtin(name)
    gens = lat.generators[::-1]
    variants = {
        "given": lat.generators,
        "reversed": gens,
        "padded": gens + (gens[0], IntMatrix.identity(lat.rank)),
    }
    docs = {}
    for label, generators in variants.items():
        path = tmp_path / f"{label}.json"
        path.write_text(serialize_group_definition(GLattice(lat.rank, generators, lat.name)))
        buf = io.StringIO()
        assert run([command, str(path), "--format", "json"], buf) == 0
        docs[label] = json.loads(buf.getvalue())
        del docs[label]["input"]
    assert docs["reversed"] == docs["given"]
    assert docs["padded"] == docs["given"]


def record():
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_text(render(argv))
    for case, argv in sorted(DIGEST_CASES.items()):
        (GOLDEN / f"{case}.sha256").write_text(digest(argv) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()

"""The golden cases of ``golden_cases.py``, each compared byte for byte
with its recorded output, a slice of ``corpus_digest.py``'s random
groups against their recorded digests, and the outputs' independence of
generator order."""

import io
import json
import time

import pytest

from multinv.catalog import builtin, serialize_group_definition
from multinv.cli import run
from multinv.groups import GLattice
from multinv.intlinalg import IntMatrix

from corpus_digest import COMMANDS, corpus, digests, mismatches, recorded
from golden_cases import CASES, DIGEST_CASES, GOLDEN, digest, render


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


def test_corpus_slice_matches_its_digests():
    """Every fifth group of the seeded random corpus, half of them
    conjugated off the signed permutations, gives the recorded digest of
    each command's output, within a wall-clock budget (the slice takes about 2 s on a
    shared 2-CPU host)."""
    cases = corpus()
    expected, _ = recorded()
    start = time.monotonic()
    found = digests({case: cases[case] for case in list(cases)[::5]})
    assert time.monotonic() - start < 10
    assert len(found) == 20 * len(COMMANDS)
    assert mismatches(found, expected) == []

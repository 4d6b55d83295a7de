"""A byte digest over a seeded corpus of random groups.

The golden cases are builtins and a few conjugated files.  This corpus
adds 100 random groups from ``random.Random(SEED)``: each has rank 3 to 5
and 1 to 3 ``random_signed_perm`` generators, and every odd-numbered group
is conjugated by a ``random_unimodular`` matrix, so half are monomial and
half are not.  Each group runs ``analyze``, ``witness`` and ``copies --r
2``, all ``--format json``, through the CLI in-process, from a definition
file named after its case; each output is rendered as ``golden_cases``
renders one (exit code line, then stdout) and kept as its SHA-256 digest.
A fast path that changes a witness, a class order or a fixed-space basis
on any of these groups changes a digest.

This module needs only the standard library, the package and
``helpers.py``, so it runs where no test dependency is installed.  To
check every digest, or to re-record after an intended output change:

    PYTHONPATH=src python tests/corpus_digest.py --check
    PYTHONPATH=src python tests/corpus_digest.py --record
"""

import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

from multinv.catalog import serialize_group_definition
from multinv.cli import run
from multinv.groups import GLattice

from helpers import conjugated_lattice, random_signed_perm, random_unimodular

SEED = 20261020
SIZE = 100
COMMANDS = {"analyze": ["analyze"], "witness": ["witness"], "copies2": ["copies", "--r", "2"]}
RECORDED = Path(__file__).resolve().parent / "golden" / "corpus_digests.txt"


def corpus():
    """The corpus's lattices by case name, in the order the seed draws them."""
    rng = random.Random(SEED)
    cases = {}
    for k in range(SIZE):
        n = rng.randint(3, 5)
        lat = GLattice(n, [random_signed_perm(n, rng) for _ in range(rng.randint(1, 3))], f"corpus{k:02d}")
        if k % 2:
            lat = conjugated_lattice(lat, random_unimodular(n, rng))
        cases[lat.name.removesuffix("~conj")] = lat
    return cases


def digests(cases):
    """The digest of each case and command's rendered output, keyed by
    ``(case, command)``, in corpus order."""
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for case, lat in cases.items():
                Path(f"{case}.json").write_text(serialize_group_definition(lat))
                for command, argv in COMMANDS.items():
                    buf = io.StringIO()
                    code = run([argv[0], f"{case}.json", *argv[1:], "--format", "json"], buf)
                    rendered = f"exit {code}\n" + buf.getvalue()
                    out[case, command] = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
        finally:
            os.chdir(cwd)
    return out


def overall(found):
    """One digest over every case's digests, in corpus order."""
    return hashlib.sha256("".join(found.values()).encode("ascii")).hexdigest()


def recorded():
    """The recorded digests by ``(case, command)``, and the overall one."""
    lines = [line.split() for line in RECORDED.read_text().splitlines()]
    return {(case, command): value for case, command, value in lines[:-1]}, lines[-1][1]


def record():
    found = digests(corpus())
    lines = [f"{case} {command} {value}" for (case, command), value in found.items()]
    RECORDED.write_text("\n".join([*lines, f"all {overall(found)}"]) + "\n")


def mismatches(found, expected):
    """The ``case command`` names whose digest differs from the recorded one."""
    return [f"{case} {command}" for key, value in found.items() if expected.get(key) != value
            for case, command in [key]]


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    elif sys.argv[1:] == ["--check"]:
        found = digests(corpus())
        expected, expected_all = recorded()
        failed = mismatches(found, expected)
        for name in failed:
            print(f"differs: {name}")
        print(f"{len(found) - len(failed)} of {len(expected)} corpus outputs match")
        print(f"all {overall(found)}")
        sys.exit(1 if failed or len(found) != len(expected) or overall(found) != expected_all else 0)
    else:
        sys.exit("usage: corpus_digest.py --check | --record")

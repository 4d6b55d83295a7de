"""Answer checks: seed-invariant answers recorded from the program, the CLI
bytes at seed 0, and witness vectors re-checked by the benchmark's own
group enumeration and stabilizer count."""

from __future__ import annotations

import hashlib
import json
from collections import deque
from pathlib import Path

from multinv.obstruction import effective_reduction

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

EXIT_OK = 0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _report_answer(doc: dict) -> dict:
    classes = sorted(
        [c["order"], c["abelianization"], c["bireflection_image"]] for c in doc["isotropy_classes"]
    )
    return {"verdict": doc["verdict"], "group_order": doc["group_order"], "classes": classes}


def answer(op, code: int, text: str) -> dict:
    """The seed-invariant part of one operation's result."""
    if op.kind == "reject":
        return {"exit_code": code}
    if code != EXIT_OK and op.kind != "batch":
        return {"exit_code": code}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return {"exit_code": code, "output": text.strip()[:200]}
    if op.kind in ("analyze", "copies"):
        return _report_answer(doc)
    if op.kind == "witness":
        classes = sorted([c["order"], c["fixed_rank"]] for c in doc["isotropy_classes"])
        return {"group_order": doc["group_order"], "classes": classes}
    if op.kind == "orbit":
        cert = doc.get("certificate", {})
        return {"ok": doc["ok"], "products": len(cert.get("products", ())), "covered": len(cert.get("covered", ()))}
    if op.kind == "batch":
        reports = {r["file"]: _report_answer(r) for r in doc.get("reports", ()) if "verdict" in r}
        return {"reports": reports}
    raise ValueError(op.kind)


def check(op, code: int, text: str, expected: dict, seed: int) -> str | None:
    """None when the result is right, else the reason it is not."""
    want = expected["answers"].get(op.label)
    if want is None:
        return f"{op.label}: no recorded answer"
    got = answer(op, code, text)
    if op.kind == "batch":
        # only the finite files' reports are asked for, so a batch that
        # isolates the failing file passes unchanged
        missing = [f for f, a in want["reports"].items() if got.get("reports", {}).get(f) != a]
        if missing:
            return f"{op.label}: reports missing or wrong for {', '.join(missing)}"
        return None
    if got != want:
        return f"{op.label}: answer {json.dumps(got)[:300]} != recorded {json.dumps(want)[:300]}"
    if seed == 0 and op.golden:
        if digest(text) != expected["digests_seed0"].get(op.label):
            return f"{op.label}: CLI output differs from the recorded bytes at seed 0"
    if op.lattice is not None:
        return check_witnesses(op, text)
    return None


# -- independent witness re-check --------------------------------------------------


def _mat_mul(a, b, n):
    out = []
    for i in range(n):
        row = a[i * n : (i + 1) * n]
        acc = [0] * n
        for t, x in enumerate(row):
            if x:
                brow = b[t * n : (t + 1) * n]
                for j in range(n):
                    acc[j] += x * brow[j]
        out.extend(acc)
    return tuple(out)


def enumerate_group(generators, n: int, limit: int = 100000) -> list[tuple]:
    """All elements of the finite group the generators span, by breadth-first
    closure on flat row-major tuples."""
    ident = tuple(int(i == j) for i in range(n) for j in range(n))
    seen = {ident}
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for g in generators:
            y = _mat_mul(x, g, n)
            if y not in seen:
                seen.add(y)
                if len(seen) > limit:
                    raise ValueError("group larger than the re-check limit")
                queue.append(y)
    return list(seen)


def stabilizer_order(elements, n: int, m) -> int:
    """Count the elements g with g m = m."""
    m = tuple(m)
    count = 0
    for g in elements:
        if all(sum(g[i * n + j] * m[j] for j in range(n)) == m[i] for i in range(n)):
            count += 1
    return count


def check_witnesses(op, text: str) -> str | None:
    """Every reported witness m must have stabilizer order equal to its
    class's order, counted over the enumerated group acting on the lattice
    the witness lives in (the effective lattice for analyze and copies)."""
    doc = json.loads(text)
    classes = [c for c in doc["isotropy_classes"] if "witness" in c]
    if not classes:
        return None
    lat = op.lattice()
    if op.kind != "witness":
        lat = effective_reduction(lat)
    n = lat.rank
    elements = enumerate_group([g.entries for g in lat.generators], n)
    if len(elements) != doc["group_order"]:
        return f"{op.label}: enumerated {len(elements)} elements, report says {doc['group_order']}"
    for c in classes:
        if len(c["witness"]) != n:
            return f"{op.label}: witness {c['witness']} is not in rank {n}"
        order = stabilizer_order(elements, n, c["witness"])
        if order != c["order"]:
            return f"{op.label}: witness {c['witness']} has stabilizer order {order}, class order {c['order']}"
    return None

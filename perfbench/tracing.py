"""Timing spans around multinv's functions, installed from outside the package.

Every public function of the layer modules, a few named private ones and
the hot methods get a span wrapper.  Each wrapper is rebound in every
multinv module that imported the function by name, and methods are patched
on their class, so calls made through any path are seen.  Nothing under
``src/`` changes: ``install`` patches, ``uninstall`` restores.

A span records calls, self time (its duration minus its child spans) and,
for the outermost activation, total time.  ``IntMatrix.__mul__`` and
``IntMatrix.apply`` only count calls.  Derived metrics attribute child spans
to a parent, e.g. the ``kernel_lattice`` calls made under the isotropy
catalog.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import sys
import time
from collections import Counter
from itertools import chain

LAYERS = ("intlinalg", "groups", "reflections", "isotropy", "obstruction", "orbit_algebra", "catalog", "cli")
PRIVATE = {
    "intlinalg": ("_echelon",),
    "obstruction": ("_condition_row",),
    "orbit_algebra": ("_solve_against_hermite",),
}
METHODS = {
    ("groups", "FiniteMatrixGroup"): ("mul", "conj", "cyclic_fixed_space"),
    ("orbit_algebra", "LaurentElement"): ("__mul__",),
}
COUNTED = {("intlinalg", "IntMatrix"): ("__mul__", "apply")}

CATALOG = "isotropy.enumerate_isotropy_groups"
VERIFY = "orbit_algebra.verify_free_decomposition"
FIXED_SPACE = "groups.FiniteMatrixGroup.cyclic_fixed_space"

# (metric, span, required ancestor, excluded ancestor): the span's time and
# calls while the ancestor is active
DERIVED = (
    ("isotropy.catalog.fixed_spaces", FIXED_SPACE, CATALOG, None),
    ("isotropy.catalog.meet", "intlinalg.kernel_lattice", CATALOG, FIXED_SPACE),
    ("isotropy.catalog.conj", "groups.FiniteMatrixGroup.conj", CATALOG, None),
    ("orbit_algebra.product_mul", "orbit_algebra.LaurentElement.mul", VERIFY, None),
    ("orbit_algebra.elim", "intlinalg._echelon", VERIFY, None),
)

# per-layer metrics: (span, stats)
SPAN_METRICS = (
    ("intlinalg.kernel_lattice", ("calls", "self_s", "total_s")),
    ("intlinalg._echelon", ("calls", "self_s")),
    ("intlinalg.snf", ("calls", "self_s")),
    ("intlinalg.induced_on_quotient", ("calls", "self_s", "total_s")),
    ("intlinalg.IntMatrix.mul", ("calls",)),
    ("intlinalg.IntMatrix.apply", ("calls",)),
    ("groups.close", ("calls", "self_s")),
    ("groups.FiniteMatrixGroup.mul", ("calls", "self_s")),
    ("groups.FiniteMatrixGroup.conj", ("calls", "self_s")),
    ("groups.subgroup_generated", ("calls", "self_s", "total_s")),
    ("groups.commutator_subgroup", ("calls", "self_s", "total_s")),
    ("groups.quotient_table_group", ("calls", "self_s", "total_s")),
    ("reflections.bireflection_subgroup", ("calls", "self_s", "total_s")),
    ("reflections.moved_rank_subgroup", ("calls", "self_s", "total_s")),
    ("isotropy.enumerate_isotropy_groups", ("calls", "self_s", "total_s")),
    ("isotropy.witness_vector", ("calls", "self_s", "total_s")),
    ("obstruction.effective_reduction", ("calls", "self_s", "total_s")),
    ("obstruction._condition_row", ("calls", "self_s", "total_s")),
    ("obstruction.direct_sum_copies", ("calls", "self_s")),
    ("orbit_algebra.verify_free_decomposition", ("calls", "self_s", "total_s")),
    ("catalog.builtin", ("calls", "self_s", "total_s")),
    ("catalog.parse_group_definition", ("calls", "self_s")),
)

# other per-layer metrics: name -> unit
OTHER_METRICS = {
    "intlinalg.out_max_bits": "bits",
    "groups.close.elements": "count",
    "isotropy.catalog.fixed_spaces_s": "s",
    "isotropy.catalog.meets": "count",
    "isotropy.catalog.meet_s": "s",
    "isotropy.catalog.conj_s": "s",
    "isotropy.catalog.scan_s": "s",
    "orbit_algebra.products": "count",
    "orbit_algebra.product_mul_s": "s",
    "orbit_algebra.expand_s": "s",
    "orbit_algebra.elim_s": "s",
    "orbit_algebra.elim_rows": "count",
    "orbit_algebra.elim_cols": "count",
    "orbit_algebra.solve_s": "s",
    "cli.self_s": "s",
    "trace.span_cover": "share",
    "trace.overhead_s": "s",
    "trace.unexercised": "count",
}

HIGHER_IS_BETTER = {"trace.span_cover"}


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for span, stats in SPAN_METRICS:
        for stat in stats:
            out.append((f"{span}.{stat}", "count" if stat == "calls" else "s"))
    out.extend(OTHER_METRICS.items())
    return out


def _bits(values) -> int:
    return max(map(abs, values), default=0).bit_length()


class Tracer:
    def __init__(self):
        # per span: [calls, self_ns, total_ns, active activations]
        self.spans: dict[str, list[int]] = {}
        self.derived_ns: Counter = Counter()
        self.derived_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.top_ns = 0  # outermost spans: total duration
        self.top_self_ns = 0  # outermost spans: time not covered by child spans
        self.hook_ns = 0  # time spent measuring sizes after a span closed
        self._stack: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "groups.close": _close_hook,
            "intlinalg._echelon": _echelon_hook,
            "intlinalg.kernel_lattice": _matrix_hook,
            "intlinalg.snf": _snf_hook,
            "intlinalg.induced_on_quotient": _matrices_hook,
            VERIFY: _verify_hook,
        }

    def state(self, name: str) -> list[int]:
        return self.spans.setdefault(name, [0, 0, 0, 0])

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn):
        st = self.state(name)
        watch = [
            (metric, self.state(under), self.state(not_under) if not_under else None)
            for metric, span, under, not_under in DERIVED
            if span == name
        ]
        hook = self._hooks.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            st[3] += 1
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                d = clock() - t0
                stack.pop()
                st[3] -= 1
                st[0] += 1
                st[1] += d - frame[0]
                if not st[3]:
                    st[2] += d
                for metric, under, not_under in watch:
                    if under[3] and not (not_under and not_under[3]):
                        self.derived_ns[metric] += d
                        self.derived_calls[metric] += 1
                if hook is not None:
                    h0 = clock()
                    hook(self, args, result, exc)
                    h = clock() - h0
                    self.hook_ns += h
                    d += h  # the caller does not own the measuring time
                if stack:
                    stack[-1][0] += d
                else:
                    self.top_ns += d
                    self.top_self_ns += d - frame[0]

        return wrapper

    def counter(self, name: str, fn):
        st = self.state(name)

        @functools.wraps(fn)
        def wrapper(*args):
            st[0] += 1
            return fn(*args)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> list[str]:
        """Patch every layer; returns the names that could not be found."""
        import multinv  # noqa: F401  (loads every layer module)

        missing = []
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"multinv.{layer}"]
            names = [
                n for n, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not n.startswith("_")
            ]
            for n in PRIVATE.get(layer, ()):
                if inspect.isfunction(getattr(mod, n, None)):
                    names.append(n)
                else:
                    missing.append(f"{layer}.{n}")
            for n in names:
                originals[id(getattr(mod, n))] = (f"{layer}.{n}", getattr(mod, n))
        wrappers = {key: self.span(name, fn) for key, (name, fn) in originals.items()}
        # rebind in every module that imported a wrapped function by name
        for modname, mod in list(sys.modules.items()):
            if modname != "multinv" and not modname.startswith("multinv."):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and originals[id(obj)][1] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for table, make in ((METHODS, self.span), (COUNTED, self.counter)):
            for (layer, cls_name), methods in table.items():
                cls = getattr(sys.modules[f"multinv.{layer}"], cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if fn is None:
                        missing.append(f"{layer}.{cls_name}.{meth}")
                        continue
                    label = f"{layer}.{cls_name}.{meth.strip('_')}"
                    self._restore.append((cls, meth, fn))
                    setattr(cls, meth, make(label, fn))
        return missing

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def coverage(self) -> float:
        """Share of the outermost spans' time covered by child spans."""
        timed = self.top_ns - self.hook_ns
        if timed <= 0:
            return 0.0
        return (timed - self.top_self_ns) / timed

    def metrics(self) -> dict[str, float]:
        s = 1e-9
        spans = {name: self.spans.get(name, [0, 0, 0, 0]) for name, _ in SPAN_METRICS}
        out: dict[str, float] = {}
        for span, stats in SPAN_METRICS:
            calls, self_ns, total_ns, _ = spans[span]
            out[f"{span}.calls"] = calls
            if "self_s" in stats:
                out[f"{span}.self_s"] = self_ns * s
            if "total_s" in stats:
                out[f"{span}.total_s"] = total_ns * s
        total = {name: st[2] * s for name, st in self.spans.items()}
        out["intlinalg.out_max_bits"] = self.max_bits
        out["groups.close.elements"] = self.counts["close.elements"]
        out["isotropy.catalog.fixed_spaces_s"] = self.derived_ns["isotropy.catalog.fixed_spaces"] * s
        out["isotropy.catalog.meets"] = self.derived_calls["isotropy.catalog.meet"]
        out["isotropy.catalog.meet_s"] = self.derived_ns["isotropy.catalog.meet"] * s
        out["isotropy.catalog.conj_s"] = self.derived_ns["isotropy.catalog.conj"] * s
        out["isotropy.catalog.scan_s"] = out[f"{CATALOG}.self_s"]
        out["orbit_algebra.products"] = self.counts["products"]
        out["orbit_algebra.product_mul_s"] = self.derived_ns["orbit_algebra.product_mul"] * s
        out["orbit_algebra.expand_s"] = total.get("orbit_algebra.express_in_orbit_basis", 0.0)
        out["orbit_algebra.elim_s"] = self.derived_ns["orbit_algebra.elim"] * s
        out["orbit_algebra.elim_rows"] = self.counts["elim_rows"]
        out["orbit_algebra.elim_cols"] = self.counts["elim_cols"]
        out["orbit_algebra.solve_s"] = total.get("orbit_algebra._solve_against_hermite", 0.0)
        out["cli.self_s"] = self.spans.get("cli.run", [0, 0])[1] * s
        out["trace.span_cover"] = self.coverage()
        return out


def unexercised(values: dict[str, float], workload: str, layer_map) -> list[str]:
    """Metrics a layer-map entry names for this workload that recorded nothing."""
    misses = []
    for entry in layer_map:
        if workload not in entry["exercised_on"]:
            continue
        for pattern in entry["layer"]:
            for name in fnmatch.filter(values, pattern):
                if not values[name]:
                    misses.append(name)
    return sorted(set(misses))


# -- size hooks -------------------------------------------------------------------


def _close_hook(tracer, args, result, exc):
    if result is not None:
        tracer.counts["close.elements"] += result.order
    elif exc is not None and hasattr(exc, "cap"):
        tracer.counts["close.elements"] += exc.cap + 1


def _echelon_hook(tracer, args, result, exc):
    if result is None:
        return
    h, u = args[0], result[0] or ()
    tracer.max_bits = max(tracer.max_bits, _bits(chain.from_iterable(h)), _bits(chain.from_iterable(u)))
    if tracer.state(VERIFY)[3]:
        tracer.counts["elim_rows"] += len(h)
        tracer.counts["elim_cols"] += len(h[0]) if h else 0


def _matrix_hook(tracer, args, result, exc):
    if result is not None:
        tracer.max_bits = max(tracer.max_bits, _bits(result.entries))


def _snf_hook(tracer, args, result, exc):
    if result is not None:
        tracer.max_bits = max(tracer.max_bits, *(_bits(m.entries) for m in (result.u, result.s, result.v)))


def _matrices_hook(tracer, args, result, exc):
    for m in result or ():
        tracer.max_bits = max(tracer.max_bits, _bits(m.entries))


def _verify_hook(tracer, args, result, exc):
    if result is not None and result.ok:
        tracer.counts["products"] += len(result.certificate.products)

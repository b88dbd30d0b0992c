"""Span tracing of framephase's public functions, installed from outside.

A ``Tracer`` replaces each traced function by a wrapper in every loaded
framephase module that binds it. The modules import helpers by name
(``from .linalg import rank`` in ``injectivity``), so patching only the
defining module would miss most calls. Spans (op id, span id, parent id,
name, start, end) are kept in memory as flat columns; self time, inclusive
time and call counts are aggregated as each span closes. Counts read from
return values (subsets checked, search nodes, restarts, sweeps) are taken
at the same boundary.

This module uses only the standard library so that the CLI launcher can
import it without adding to the measured import of ``framephase``.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

CERTIFY_SPANS = ("injectivity.certify", "injectivity.complement_property")


def _count_certificate(tracer: "Tracer", name: str, cert) -> None:
    # Checked subsets are summed over the outermost certificates only:
    # certify returns complement_property's count when it calls it.
    if name == "injectivity.complement_property":
        tracer.counts["complement_property.subsets"] += cert.checked_subsets
    if not tracer.inside(CERTIFY_SPANS):
        tracer.counts["checked_subsets"] += cert.checked_subsets


def _count_real(tracer: "Tracer", name: str, result) -> None:
    tracer.counts["real.nodes"] += result.patterns_explored
    tracer.counts["real.rays"] += len(result.rays)


def _count_complex(tracer: "Tracer", name: str, result) -> None:
    tracer.counts["complex.restarts"] += result.restarts_used
    tracer.counts["complex.successes"] += result.status == "heuristic_success"


def _count_sweeps(tracer: "Tracer", name: str, returned) -> None:
    tracer.counts["error_reduction.sweeps"] += len(returned[1])


# (module, function, counter over the return value) for every traced
# public function; the span name is "<module>.<function>".
TARGETS = (
    ("linalg", "rank", None),
    ("linalg", "null_space", None),
    ("linalg", "least_squares", None),
    ("frames", "gen_random", None),
    ("frames", "coefficient_range", None),
    ("magnitude", "magnitude_map", None),
    ("magnitude", "canonical_ray", None),
    ("magnitude", "ray_equal", None),
    ("injectivity", "certify", _count_certificate),
    ("injectivity", "complement_property", _count_certificate),
    ("injectivity", "witness_pair", None),
    ("injectivity", "verify_witness", None),
    ("reconstruct", "reconstruct_real", _count_real),
    ("reconstruct", "reconstruct_complex", _count_complex),
    ("reconstruct", "error_reduction", _count_sweeps),
    ("experiments", "run_real_genericity", None),
    ("experiments", "run_dense_interior_real", None),
    ("experiments", "run_complex_genericity", None),
    ("experiments", "run_equivalence_invariance", None),
)


class Tracer:
    """Records spans while ``enabled``; a disabled wrapper is a plain call."""

    def __init__(self) -> None:
        self.enabled = False
        self.op_id = 0
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, name index, child seconds]
        self._next_id = 0
        self.columns = {
            "op": array("q"),
            "span": array("q"),
            "parent": array("q"),
            "name": array("i"),
            "start": array("d"),
            "end": array("d"),
        }
        self.calls: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def inside(self, names) -> bool:
        """Whether any open span carries one of ``names``."""
        return any(self.names[entry[1]] in names for entry in self._stack)

    def _open(self, idx: int) -> list:
        entry = [self._next_id, idx, 0.0]
        self._next_id += 1
        self._stack.append(entry)
        return entry

    def _close(self, entry: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.record(entry[1], entry[0], parent[0] if parent else -1, start, end, entry[2])

    def record(self, idx: int, span_id: int, parent_id: int, start, end, child_s=0.0):
        cols = self.columns
        cols["op"].append(self.op_id)
        cols["span"].append(span_id)
        cols["parent"].append(parent_id)
        cols["name"].append(idx)
        cols["start"].append(start)
        cols["end"].append(end)
        name = self.names[idx]
        self.calls[name] += 1
        self.incl_s[name] += end - start
        self.self_s[name] += end - start - child_s

    def add_span(self, name: str, start: float, end: float) -> None:
        """A root span measured by other means (such as process start-up)."""
        self._next_id += 1
        self.record(self._name_index(name), self._next_id - 1, -1, start, end)

    @contextmanager
    def span(self, name: str):
        """An explicit span around a block, for boundaries that are not calls."""
        entry = self._open(self._name_index(name))
        start = perf_counter()
        try:
            yield
        finally:
            self._close(entry, start, perf_counter())

    def wrap(self, name: str, fn, on_return=None):
        idx = self._name_index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            entry = tracer._open(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(entry, start, perf_counter())
            if on_return is not None:
                on_return(tracer, name, result)
            return result

        return traced

    def install(self):
        """Patch every TARGETS function wherever a framephase module binds
        it; returns a callable that restores the originals."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "framephase" or key.startswith("framephase."))
        ]
        undo = []
        for module_name, attr, on_return in TARGETS:
            original = getattr(sys.modules[f"framephase.{module_name}"], attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original, on_return)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))

        def restore() -> None:
            for mod, key, original in reversed(undo):
                setattr(mod, key, original)

        return restore

    def dump(self) -> dict:
        """Aggregates and raw spans as plain JSON-ready data."""
        return {
            "names": self.names,
            "calls": dict(self.calls),
            "incl_s": dict(self.incl_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans": {key: col.tolist() for key, col in self.columns.items()},
        }

    def merge(self, dump: dict) -> None:
        """Fold in a child process's dump; its spans join the current op."""
        self.calls.update(dump["calls"])
        self.incl_s.update(dump["incl_s"])
        self.self_s.update(dump["self_s"])
        self.counts.update(dump["counts"])
        spans = dump["spans"]
        remap = [self._name_index(name) for name in dump["names"]]
        offset = self._next_id
        cols = self.columns
        for i in range(len(spans["span"])):
            cols["op"].append(self.op_id)
            cols["span"].append(spans["span"][i] + offset)
            parent = spans["parent"][i]
            cols["parent"].append(parent + offset if parent >= 0 else -1)
            cols["name"].append(remap[spans["name"][i]])
            cols["start"].append(spans["start"][i])
            cols["end"].append(spans["end"][i])
        if spans["span"]:
            self._next_id = offset + max(spans["span"]) + 1

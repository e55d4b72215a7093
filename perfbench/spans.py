"""In-memory span tracer that wraps ghzcert's public functions from outside.

Each wrapped call records a span: name, start, end, parent span and the
workload it ran under, in flat arrays so that a million spans stay cheap.
Functions are patched where their caller looks them up (the ``rng_for`` that
``simulate`` imported is not the one ``replay`` imported), and restored
afterwards. Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np


def _certificate_points(tracer, args, kwargs) -> int:
    """Rows in a certificate batch; keeps them to count distinct points per CLI call."""
    given = dict(zip(("s", "angles", "branches"), args), **kwargs)
    rows = np.hstack([np.asarray(given["angles"], dtype=float),
                      np.asarray(given["branches"], dtype=float)])
    root = tracer.stack[0] if tracer.stack else -1
    tracer.distinct_rows.setdefault(root, []).append(rows)
    return len(rows)


# (module[:class], attribute, span name, item counter); the layer is the name's prefix
HOOKS = (
    ("ghzcert.cli", "dispatch", "cli.dispatch", None),
    ("ghzcert.cli", "bound_search", "selftest.bound_search", None),
    ("ghzcert.selftest", "evaluate_grid", "selftest.evaluate_grid", None),
    ("ghzcert.selftest", "certificate_eigenvalues", "selftest.certificate_eigenvalues", _certificate_points),
    ("numpy.linalg", "eigvalsh", "selftest.eigvalsh", None),
    ("ghzcert.cli", "run_protocol", "simulate.run_protocol", None),
    ("ghzcert.simulate", "outcome_table", "simulate.outcome_table", None),
    ("ghzcert.simulate:Transcript", "to_jsonl", "simulate.to_jsonl", None),
    ("ghzcert.simulate", "rng_for", "rng.rng_for@simulate", None),
    ("ghzcert.replay", "rng_for", "rng.rng_for@replay", None),
    ("ghzcert.bell:NonlocalGame", "won", "bell.won", None),
    ("ghzcert.cli", "parse_events", "replay.parse_events", None),
    ("ghzcert.cli", "replay", "replay.replay", None),
    ("ghzcert.replay", "strict_select", "replay.strict_select", None),
    ("ghzcert.replay", "decomposed", "replay.decomposed", None),
    ("ghzcert.replay", "hold_out", "replay.hold_out", None),
    ("ghzcert.cli", "sweep", "certification.sweep", None),
    ("ghzcert.simulate", "max_certified_extractability", "certification.max_certified_extractability", None),
    ("ghzcert.replay", "max_certified_extractability", "certification.max_certified_extractability", None),
    ("ghzcert.certification", "max_certified_extractability", "certification.max_certified_extractability", None),
    ("ghzcert.certification", "confidence_bound", "certification.confidence_bound", None),
)


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Collects spans for the calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.workloads: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.items = array("q")
        self.workload = array("i")
        self.stack: list[int] = []
        self.current = [0]
        self.missing: list[str] = []
        self.distinct_rows: dict[int, list] = {}  # root span -> certificate batches
        self._patched: list = []

    def _intern(self, table: list, value: str) -> int:
        if value not in table:
            table.append(value)
        return table.index(value)

    def _wrap(self, original, name: str, items):
        nid = self._intern(self.names, name)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        counts, workload, stack, current = self.items, self.workload, self.stack, self.current
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            workload.append(current[0])
            end.append(0)
            counts.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if items is not None:
                counts[idx] = items(self, args, kwargs)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self, workload: str) -> None:
        self.current[0] = self._intern(self.workloads, workload)
        for target, attr, name, items in HOOKS:
            try:
                owner = _resolve(target)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if f"{target}.{attr}" not in self.missing:
                    self.missing.append(f"{target}.{attr}")
                    print(f"trace: {target}.{attr} not found, not traced", file=sys.stderr)
                continue
            setattr(owner, attr, self._wrap(original, name, items))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return {
            "names": np.array(self.names),
            "workloads": np.array(self.workloads),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "items": np.frombuffer(self.items, dtype=np.int64),
            "workload": np.frombuffer(self.workload, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def summary(self) -> dict:
        """Per workload and span name: calls, total and self seconds, items."""
        a = self.arrays()
        duration = (a["end_ns"] - a["start_ns"]).astype(float)
        has_parent = a["parent"] >= 0
        children = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - children
        spans: dict = {}
        for w, workload in enumerate(self.workloads):
            in_w = a["workload"] == w
            per_name = {}
            for n, name in enumerate(self.names):
                mask = in_w & (a["name_id"] == n)
                if mask.any():
                    per_name[name] = {
                        "calls": int(mask.sum()),
                        "total_s": float(duration[mask].sum()) * 1e-9,
                        "self_s": float(self_time[mask].sum()) * 1e-9,
                        "items": int(a["items"][mask].sum()),
                    }
            spans[workload] = per_name
        distinct = sum(len(np.unique(np.vstack(batches), axis=0))
                       for batches in self.distinct_rows.values())
        return {"spans": spans, "distinct_grid_points": distinct,
                "missing_hooks": list(self.missing)}

"""Span tracing of the program's layers, installed from outside the program.

:class:`Tracer` replaces the public functions listed in :data:`TARGETS` by
timing wrappers, at every module binding of ``koszulflow`` that refers to
them (``koszulflow.flow.beta_form`` as well as
``koszulflow.geometry.beta_form``), and restores the originals on exit.
Each call records a span: name, start, end, parent span and command id.
Spans are kept in memory as flat columns and written out by :meth:`save`;
per-layer metrics, self times included, are computed from them.

A target the program no longer defines is reported as absent, not as an
error, so a refactor that removes or renames a function still gets a trace.
"""

from __future__ import annotations

import math
import os
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name).  Attribute "Class.method" wraps a method.
TARGETS = (
    ("grid", "partial", "grid.stencil"),
    ("grid", "partial2", "grid.stencil"),
    ("grid", "partial3", "grid.stencil"),
    ("grid", "partial4", "grid.stencil"),
    ("geometry", "beta_form", "geometry.beta_form"),
    ("geometry", "MetricField.__init__", "geometry.metric_check"),
    ("geometry", "sym_min_eigenvalues", "geometry.min_eig"),
    ("geometry", "hessian_curvature_from_metric", "geometry.q_metric"),
    ("geometry", "curvature_gnorm", "geometry.gnorm"),
    ("geometry", "pencil_eigenvalue_range", "geometry.pencil"),
    ("geometry", "pullback_chern_torsion", "geometry.torsion"),
    ("geometry", "riemann_from_gamma", "geometry.riemann"),
    ("geometry", "christoffel", "geometry.christoffel"),
    ("geometry", "hessian_curvature", "geometry.q_potential"),
    ("geometry", "sectional_extremes", "geometry.sectional"),
    ("flow", "run_flow", "flow.run_flow"),
    ("flow", "step_tensor", "flow.step"),
    ("flow", "stable_dt", "flow.stable_dt"),
    ("flow", "diagnostics_row", "flow.diag"),
    ("flow", "equivalence_check", "flow.equivalence"),
    ("criteria", "max_s", "criteria.max_s"),
    ("criteria", "a2_margin", "criteria.a2_margin"),
    ("io", "write_snapshot", "io.write"),
    ("io", "write_csv", "io.write"),
    ("io", "write_manifest", "io.write"),
    ("io", "read_snapshot", "io.read"),
    ("io", "load_config", "io.read"),
)

PACKAGE = "koszulflow"
ROOT = "cli.main"


def _stencil_bytes(args, result) -> int:
    """Computed traffic of one stencil call: one read and one write of the
    field per 1-D stencil pass, the same model as grid._composed_stencil's
    loop (a repeated axis pair is one 3-point pass).  Not a measurement."""
    field, axes = args[0], args[1:]
    passes = sum(axes.count(a) // 2 + axes.count(a) % 2 for a in set(axes))
    return 2 * passes * field.values.nbytes


def _step_halvings(args, result) -> int:
    """Halvings inside one step_tensor call, from requested dt vs dt_last."""
    requested = args[1]
    return int(round(math.log2(requested / result.dt_last)))


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


def _manifest_bytes(args, result) -> int:
    return os.path.getsize(os.path.join(args[0], "manifest.json"))


# Per-call quantity stored in a span's ``value`` column, by wrapped attribute.
_VALUE = {
    "partial": _stencil_bytes,
    "partial2": _stencil_bytes,
    "partial3": _stencil_bytes,
    "partial4": _stencil_bytes,
    "step_tensor": _step_halvings,
    "write_snapshot": _file_bytes,
    "write_csv": _file_bytes,
    "write_manifest": _manifest_bytes,
    "read_snapshot": _file_bytes,
    "load_config": _file_bytes,
}


class Tracer:
    """Collects spans while installed; use as a context manager per command."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.cmd = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack: list[int] = []
        self._cmd = -1
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self._wrappers = self._build_wrappers()

    # -- spans --------------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cmd.append(self._cmd)
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, nid: int, measure):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if measure is not None:
                tracer.value[idx] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _build_wrappers(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every target found."""
        found = []
        for module_name, attr, span in TARGETS:
            owner, leaf = sys.modules.get(f"{PACKAGE}.{module_name}"), attr
            if "." in attr:
                cls_name, leaf = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, self._id(span), _VALUE.get(leaf))
            found.append((owner, leaf, original, wrapper))
        self._id(ROOT)
        return found

    def __enter__(self):
        """Install every wrapper at every binding of its original."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for owner, leaf, original, wrapper in self._wrappers:
            if isinstance(owner, type):
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False

    def command(self, cmd_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of command ``cmd_id``."""
        self._cmd = cmd_id
        idx = self._open(self._id(ROOT))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._cmd = -1

    # -- results ------------------------------------------------------------
    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.uint16),
            "parent": np.array(self.parent, dtype=np.int64),
            "cmd": np.array(self.cmd, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "value": np.array(self.value, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        """Write all spans (one row each) and the span-name table."""
        np.savez_compressed(path, names=np.array(self.names), **self.columns())

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed ``value`` and
        the durations (for percentiles)."""
        col = self.columns()
        dur = col["end"] - col["start"]
        has_parent = col["parent"] >= 0
        child = np.bincount(col["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = col["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "value": float(col["value"][mask].sum()),
                "durations": dur[mask],
            }
        return out

    def calls_under(self, child: str, parents: tuple[str, ...]) -> int:
        """Number of ``child`` spans whose direct parent is one of ``parents``."""
        if child not in self._name_id:
            return 0
        col = self.columns()
        mask = (col["name"] == self._name_id[child]) & (col["parent"] >= 0)
        parent_ids = {self._name_id[p] for p in parents if p in self._name_id}
        return int(np.isin(col["name"][col["parent"][mask]], list(parent_ids)).sum())

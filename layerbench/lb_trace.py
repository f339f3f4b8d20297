"""Spans around calls into the program's layers, recorded from outside it.

A ``Tracer`` keeps spans (name, start, end, parent) in memory.  The
benchmark opens spans around the public calls it makes itself, and
``Tracer.install`` wraps the module attributes the pipelines call
through, so inner layers (count, split, write, manifest, exchange) get
spans too.  A wrapped name that no longer exists is recorded in
``absent`` and skipped; it never fails a run.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

PKG = "osmquadtree_depreceated_ray"

# (module, attribute, span name)
WRAPPED = [
    ("pipelines.tile", "count_tiles_onepass", "tile.count"),
    ("pipelines.tile", "split_and_allocate", "tile.split"),
    ("stages.write_tiles", "write_tiled", "tile.write"),
    ("state.manifest", "write_manifest", "tile.manifest"),
    ("stages.shuffle", "bucketed_apply", "exchange"),
]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = {"name": name, "t0": time.perf_counter(), "t1": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, fn, name):
        tracer = self

        def wrapped(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if name == "exchange":
                tracer.add("exchange.calls", 1)
                tracer.add("exchange.rows_out", out.count())
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self) -> None:
        """Wrap the inner-layer module attributes (once per process)."""
        for mod_name, attr, name in WRAPPED:
            try:
                mod = importlib.import_module(f"{PKG}.{mod_name}")
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self._wrap(fn, name))

    # -- summaries -----------------------------------------------------------
    def durations(self, name: str, under: str | None = None) -> list[float]:
        """Durations of spans called ``name``; with ``under``, only those
        with an ancestor span of that name."""
        out = []
        for s in self.spans:
            if s["name"] != name or s["t1"] is None:
                continue
            if under is not None and not self._has_ancestor(s, under):
                continue
            out.append(s["t1"] - s["t0"])
        return out

    def self_times(self, name: str) -> list[float]:
        """Span duration minus the part of it its child spans cover."""
        out = []
        for i, s in enumerate(self.spans):
            if s["name"] != name or s["t1"] is None:
                continue
            kids = sorted((c["t0"], c["t1"]) for c in self.spans
                          if c["parent"] == i and c["t1"] is not None)
            covered, end = 0.0, s["t0"]
            for a, b in kids:
                a = max(a, end)
                if b > a:
                    covered += b - a
                    end = b
            out.append(s["t1"] - s["t0"] - covered)
        return out

    def _has_ancestor(self, s, name) -> bool:
        p = s["parent"]
        while p is not None:
            if self.spans[p]["name"] == name:
                return True
            p = self.spans[p]["parent"]
        return False

"""Timing and counting spans installed on cycle4's module attributes.

``Tracer.install`` replaces every public function of the package, in every
module namespace that holds it, by a wrapper that records a span.  Callers
look functions up through those namespaces at call time (``synthesis``
calls ``left_boundary_form`` through its own globals, ``cli`` calls
``spectrum`` through its own), so each lookup site is counted on its own
while the time is booked to the defining function.  Nothing in ``src/``
changes.

Spans are kept in memory, up to ``span_cap`` of them, and written once by
``dump_spans``; per-function totals cover every call.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_time: list[float] = []
        self.site_calls: Counter = Counter()
        self.spans: list[tuple] = []
        self.request = 0  # the workload item the current spans serve
        self._child_time = [0.0]  # one accumulator per open span, root first
        self._open = [-1]  # ids of the open spans, root first
        self._next_id = 0
        self._patched: list[tuple] = []

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_time.append(0.0)
        return self.names.index(name)

    def _wrap(self, fn, idx: int, site: str):
        perf = time.perf_counter
        child_time, open_ids, spans = self._child_time, self._open, self.spans
        calls, incl, self_time, site_calls = self.calls, self.incl, self.self_time, self.site_calls
        tracer = self

        def traced(*args, **kwargs):
            site_calls[site] += 1
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = open_ids[-1]
            open_ids.append(span_id)
            child_time.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                took = end - start
                inner = child_time.pop()
                open_ids.pop()
                child_time[-1] += took
                calls[idx] += 1
                incl[idx] += took
                self_time[idx] += took - inner
                if len(spans) < tracer.span_cap:
                    spans.append((span_id, parent, idx, tracer.request, start, end))

        return traced

    def install(self, modules) -> None:
        """Wrap each public cycle4 function in each given namespace."""
        for module in modules:
            site_prefix = module.__name__.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("cycle4."):
                    continue
                name = f"{value.__module__.rpartition('.')[2]}.{value.__name__}"
                wrapped = self._wrap(value, self._index(name), f"{site_prefix}:{name}")
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self) -> dict:
        return {
            "functions": {
                name: {"calls": self.calls[i], "incl_s": self.incl[i], "self_s": self.self_time[i]}
                for i, name in enumerate(self.names)
            },
            "sites": dict(self.site_calls),
            "spans": self._next_id,
        }

    def dump_spans(self, path) -> None:
        """One JSON object per span: id, parent, name, request, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, idx, request, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": self.names[idx],
                         "request": request, "start": start, "end": end}
                    )
                    + "\n"
                )


def merge(summaries) -> dict:
    """Sum tracer summaries (one per traced child process)."""
    out = {"functions": {}, "sites": Counter(), "spans": 0}
    for summary in summaries:
        for name, rec in summary["functions"].items():
            acc = out["functions"].setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        out["sites"].update(summary["sites"])
        out["spans"] += summary["spans"]
    out["sites"] = dict(out["sites"])
    return out

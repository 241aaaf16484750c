"""Span tracing of gravnav's public functions, installed from outside.

:class:`Tracer` replaces every public function of the traced modules with a
wrapper that records one span (name, start, end, parent) per call. The
wrapper is bound under every name that refers to the function in any loaded
``gravnav`` module, because ``harness`` and ``pmht`` bind their callees with
``from ... import``: patching only the defining module would record zero
calls for those call sites. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("config", "geomap", "assoc", "pmht", "fusion", "inertial", "harness")

# A span is [name, parent index, start, end]: a list, so that the wrapper can
# set the end in place at little cost per call.
END = 3


class Tracer:
    """Context manager that traces calls into the gravnav modules.

    ``observers`` maps a span name to ``f(result, *args, **kwargs)``, called
    after each successful call with its arguments and result; observers keep
    their own counts.
    """

    def __init__(self, observers=None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._observers = dict(observers or {})
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = {m: importlib.import_module(f"gravnav.{m}") for m in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gravnav" or mod_name.startswith("gravnav.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write the spans as CSV: index, name, parent index, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{start!r},{end!r}\n")


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count and self time.

    Self time is a span's duration minus the durations of its direct child
    spans; the wrappers nest strictly, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for i, (name, parent, start, end) in enumerate(spans):
        out[name]["calls"] += 1
        out[name]["self_s"] += end - start - child[i]
    return dict(out)

"""In-memory span tracer that wraps functions from outside the program.

A span records (id, parent id, name, start, end, experiment, thread).  Parent
links follow the call stack of the thread that made the call, so spans made
inside verifier worker threads are roots of their own thread.  Nothing here
knows about sqglab; ``layers.py`` says what to wrap and how to read it.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import json
import threading
import time


class Tracer:
    """Holds spans and counters; patches and restores wrapped names."""

    def __init__(self):
        self.spans = []
        self.counters = collections.Counter()
        self.cpu = {}
        self.experiment = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount=1) -> None:
        self.counters[name] += amount

    def wrap(self, name: str, fn, after=None, cpu: bool = False):
        """Return fn wrapped in a span called name.

        after(tracer, span, ancestors, args, kwargs, result) runs once the
        call returned; ancestors are the names still open on this thread.
        cpu records process CPU seconds of the call in ``self.cpu``.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span = (span_id, parent, name, t0, t1, tracer.experiment,
                        threading.get_ident())
                tracer.spans.append(span)
                if cpu:
                    tracer.cpu[span_id] = time.process_time() - c0
            if after is not None:
                after(tracer, span, [n for _, n in stack], args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def patch(self, original, wrapper, namespaces) -> None:
        """Rebind every name that is bound to original in the namespaces.

        ``from .mild import solve`` copies the binding, so patching only
        the defining module would miss calls made through the copy.
        """
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def patch_static(self, cls, attr: str, wrapper) -> None:
        """Rebind a static method of cls."""
        original = inspect.getattr_static(cls, attr)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, staticmethod(wrapper))

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, value = self._patches.pop()
            setattr(ns, attr, value)

    # -- reading spans -------------------------------------------------

    def outermost_seconds(self, names) -> float:
        """Seconds of the spans named in names that have no ancestor in
        names, so a verifier that calls another is not counted twice."""
        names = set(names)
        by_id = {s[0]: s for s in self.spans}
        seconds = 0.0
        for span in self.spans:
            if span[2] not in names:
                continue
            parent = span[1]
            nested = False
            while parent is not None:
                up = by_id[parent]
                if up[2] in names:
                    nested = True
                    break
                parent = up[1]
            if not nested:
                seconds += span[4] - span[3]
        return seconds

    def self_seconds(self, prefix_of) -> dict:
        """Self time summed by prefix_of(name): duration minus children."""
        child = collections.defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                child[span[1]] += span[4] - span[3]
        out = collections.defaultdict(float)
        for span in self.spans:
            out[prefix_of(span[2])] += span[4] - span[3] - child[span[0]]
        return out

    def write(self, path, header: dict) -> None:
        """JSON lines: the header, then one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, parent, name, t0, t1, exp, thread in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start": t0,
                    "end": t1, "experiment": exp, "thread": thread,
                }) + "\n")

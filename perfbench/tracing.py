"""Spans recorded from outside the program.

The benchmark measures layers without touching ``src/``: :meth:`Tracer.wrap`
replaces a public function or method with a wrapper that opens a span
around the call, and :meth:`Tracer.restore` puts the original back.
Spans are kept in memory (name, start, end, parent, op id, thread) and
written out once at the end; a layer's self time is its spans' duration
minus the part covered by their child spans.
"""

import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op, thread]
        self.op = None         # id of the op in flight (set by the driver)
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else None, self.op,
                  threading.get_ident()]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, owner, attr, name):
        """Route ``owner.attr`` (a module function or a class's method)
        through a span named ``name`` until :meth:`restore`."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        traced.__wrapped__ = original
        self.patch(owner, attr, traced)

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self, factor):
        """{span name: summed self seconds}, each span's time scaled by
        ``factor(op)`` for the op it ran in.  Spans outside any op are
        left out."""
        out = {}
        for name, start, end, parent, op, _tid in self.spans:
            if end is None or op is None:
                continue
            seconds = (end - start) * factor(op)
            out[name] = out.get(name, 0.0) + seconds
            if parent is not None:
                pname = self.spans[parent][0]
                out[pname] = out.get(pname, 0.0) - seconds
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, tid in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op, "thread": tid}) + "\n")

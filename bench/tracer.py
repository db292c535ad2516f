"""In-memory span tracer that wraps a package's functions from outside.

The tracer replaces module attributes with wrappers, so the package itself
is not edited. Every module that bound the same function object (for
example with ``from .graphcore import certify_denoiser``) gets the wrapper
too, otherwise calls through that name would escape the trace.

Spans are kept in a list and written out when the run ends. Only the
process that installed the tracer records: workers forked from it inherit
the wrappers, but their spans could not be collected, so inside them the
wrappers call straight through.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # (span_id, parent_id, trace_id, name, start, end)
        self.spans = []
        self.counts = defaultdict(int)
        # name -> [sum, count, max]
        self.observed = defaultdict(lambda: [0.0, 0, float("-inf")])
        self.active = False
        self.trace_id = 0
        self._stack = []
        self._next_id = 0
        self._pid = os.getpid()

    def count(self, name, n=1):
        self.counts[name] += n

    def observe(self, name, value):
        acc = self.observed[name]
        acc[0] += value
        acc[1] += 1
        acc[2] = max(acc[2], value)

    def wrap(self, name, fn, on_return=None, on_raise=None):
        """Wrap `fn` so each call records a span named `name` while active.

        `on_return(tracer, result, args, kwargs)` and
        `on_raise(tracer, exc, args, kwargs)` record counts at the same
        boundary; the exception is always re-raised.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(tracer, exc, args, kwargs)
                raise
            else:
                if on_return is not None:
                    on_return(tracer, result, args, kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(
                    (span_id, parent, tracer.trace_id, name, start, end)
                )

        return traced

    def install(self, package, module, attr, on_return=None, on_raise=None):
        """Replace `module.attr` everywhere `package` bound the same object."""
        original = getattr(module, attr)
        short = module.__name__.rsplit(".", 1)[-1]
        wrapper = self.wrap(f"{short}.{attr}", original, on_return, on_raise)
        prefix = package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def span_times(self):
        """Yield (name, duration, self_time) for every recorded span.

        Self time is the span's duration minus the part covered by its
        child spans; calls are nested, so children never overlap.
        """
        covered = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for span_id, _, _, name, start, end in self.spans:
            yield name, end - start, end - start - covered[span_id]

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, trace_id, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "trace": trace_id,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )

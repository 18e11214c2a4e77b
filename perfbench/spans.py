"""Spans around the public functions of the library's modules, recorded from
outside the library.

`instrument` replaces every public function of the named modules with a
wrapper that opens a span, in every module that binds the same function object
(`attention` keeps its own bindings of `conv2d` and `softmax_rows`, `metrics`
its own of `filt` and `ssim`, the package root re-exports the entry points),
and restores every name on exit. Spans live in memory in a `Tracer`.

Self time is a span's duration minus the time covered by its child spans.
Inclusive time counts only the outermost span of a name, so a function that
reaches itself again through nested calls is not counted twice.
"""

import contextlib
import inspect
import time
from dataclasses import dataclass


@dataclass
class SpanStat:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0


class Tracer:
    """Span stack plus per-name totals and computed counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [name, start, time covered by children]
        self.stats = {}
        self.counters = {}
        self.results = {}  # name -> return values, for names that keep them

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, child_s = self.stack.pop()
        dur = self.clock() - start
        st = self.stats.setdefault(name, SpanStat())
        st.calls += 1
        st.self_s += dur - child_s
        if all(frame[0] != name for frame in self.stack):
            st.incl_s += dur
        if self.stack:
            self.stack[-1][2] += dur

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def get(self, name):
        return self.stats.get(name, SpanStat())

    def wrap(self, name, fn, on_call=None, keep_results=False):
        """Return a wrapper that records one span named `name` per call.

        on_call(tracer, bound_arguments) runs after the span closes, so its
        few microseconds fall into the caller's self time, not this span's.
        """
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_call is not None:
                on_call(self, sig.bind(*args, **kwargs).arguments)
            if keep_results:
                self.results.setdefault(name, []).append(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


def public_functions(module):
    """Public functions defined in `module` itself, by attribute name."""
    return {
        attr: fn
        for attr, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not attr.startswith("_")
    }


@contextlib.contextmanager
def instrument(tracer, layers, namespaces, on_call=None, keep_results=()):
    """Trace every public function of each module in `layers` (short name ->
    module) while the block runs.

    `namespaces` are all the modules that may hold a binding of those
    functions; each binding found by identity is replaced and restored.
    Span names are "<layer>.<function>".
    """
    on_call = on_call or {}
    wrappers = {}
    for layer, module in layers.items():
        for attr, fn in public_functions(module).items():
            name = f"{layer}.{attr}"
            wrappers[id(fn)] = (
                fn,
                tracer.wrap(name, fn, on_call.get(name), name in keep_results),
            )
    patched = []
    try:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(ns, attr, entry[1])
                    patched.append((ns, attr, value))
        yield tracer
    finally:
        for ns, attr, value in reversed(patched):
            setattr(ns, attr, value)

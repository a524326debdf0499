"""Span tracing for the benchmark, installed from outside the package.

Each traced function is replaced by a wrapper that records a span
``[name, start, end, parent]`` in memory and, optionally, runs a counting
hook on the call's arguments and result. Modules import names from each
other (``from .ensemble import run_ensemble``), so a function is replaced
under every name that binds it in a loaded ``lapsewalk`` module, not only in
the module that defines it. Methods are replaced on their class.

Spans recorded inside pool worker processes stay in those processes and are
lost; the pool is measured at the ``run_ensemble`` boundary instead.
"""

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []

    def wrap(self, name, fn, hook=None):
        spans, open_, counts = self.spans, self._open, self.counts
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                spans[idx][2] = perf_counter()
                open_.pop()
            if hook is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                hook(counts, call.arguments, result, spans[idx][2] - spans[idx][1])
            return result

        return traced

    def durations(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the time its child spans
        cover; spans in one thread nest, so that is the sum of the
        children's durations.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            n, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (n + 1, total + end - start, self_s + end - start - covered)
        return out


def _bindings(fn):
    """(module, attribute) pairs of loaded lapsewalk modules bound to fn."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "lapsewalk" or mod_name.startswith("lapsewalk.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


def install(tracer, targets):
    """Wrap every target; returns the undo list for `uninstall`.

    A target is (span name, owner, attribute, hook). A module owner has the
    function replaced under each of its bindings; a class owner has the
    method replaced on the class, keeping classmethods classmethods.
    """
    undo = []
    for name, owner, attr, hook in targets:
        if inspect.isclass(owner):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__, hook))
            else:
                new = tracer.wrap(name, raw, hook)
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)
        else:
            fn = getattr(owner, attr)
            new = tracer.wrap(name, fn, hook)
            for mod, bound in list(_bindings(fn)):
                undo.append((mod, bound, fn))
                setattr(mod, bound, new)
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)

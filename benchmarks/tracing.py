"""Span tracing of phasequark's public functions, installed from outside.

A Tracer wraps a function and rebinds the wrapper under every name that
holds the original: each loaded ``phasequark`` module namespace (so
``verify``'s ``from .hamiltonian import build_hamiltonian`` and
``pauli_expr``'s ``kron3_by_index`` are traced too) and, for methods, the
class dictionary.  Spans (name, start, end, parent) stay in memory until
the run ends; a span's self time is its duration minus the time covered
by its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable

__all__ = ["Tracer", "NullTracer", "LayerStats"]


class LayerStats:
    """Per-name call count, inclusive and self seconds over a set of spans."""

    def __init__(self, spans: list[list]) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child_s in zip(spans, covered):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child_s


class NullTracer:
    """Records nothing: runs a traced op's code path with no spans.

    The untraced baseline of trace.overhead_frac runs with it, so both
    sides of the ratio do the same work.
    """

    @staticmethod
    def span(name: str):
        return nullcontext()


class Tracer:
    """Records spans and counts; install() patches phasequark in place."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str,
              on_exit: Callable[["Tracer", object, BaseException | None], None] | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = clock()
                stack.pop()
                if on_exit is not None:
                    on_exit(self, None, exc)
                raise
            record[2] = clock()
            stack.pop()
            if on_exit is not None:
                on_exit(self, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, targets) -> None:
        """Wrap each (module, qualified attribute, span name, on_exit) target.

        A dotted attribute such as "PauliExpr.__mul__" names a method; every
        alias of it in the class dictionary (``__rmul__ = __mul__``) is
        rebound, and a classmethod stays a classmethod.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "phasequark" or n.startswith("phasequark.")) and m is not None]
        for module_name, attr, span_name, on_exit in targets:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, span_name, on_exit))
                else:
                    new = self._wrap(raw, span_name, on_exit)
                for alias, value in list(cls.__dict__.items()):
                    if value is raw:
                        self._rebind(cls, alias, new)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span_name, on_exit)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, alias, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def stats(self) -> LayerStats:
        return LayerStats(self.spans)

    def descendants_of(self, ancestors: set[str], name: str) -> int:
        """Number of `name` spans with a span named in `ancestors` above them."""
        spans, found = self.spans, 0
        for span_name, _, _, parent in spans:
            if span_name != name:
                continue
            while parent >= 0:
                if spans[parent][0] in ancestors:
                    found += 1
                    break
                parent = spans[parent][3]
        return found

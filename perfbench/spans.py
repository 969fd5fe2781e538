"""Call recording around the module-level names the program's layers look up.

A :class:`Recorder` replaces attributes such as ``bca.weighted_glasso``
with wrappers that append one :class:`Span` per call: the layer-qualified
name, the parent span (the call that was open when this one started), the
call's arguments and its result.  Arguments and results are kept for the
certificates, which run after the timed region.  When ``timed`` is set the
span also carries start and end times from ``time.perf_counter``; that is
the traced run.  Spans stay in memory until :meth:`Recorder.dump`.
"""

import functools
import inspect
import json
import time

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    root: int
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None
    start: float = 0.0
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def arguments(self, func) -> dict:
        """The call's arguments by parameter name of ``func``, defaults filled."""
        bound = inspect.signature(func).bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments


class Recorder:
    """Wraps module attributes in place and records one span per call."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self._open(name, args, kwargs) as span:
                span.result = original(*args, **kwargs)
            return span.result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def root(self, name: str):
        """Top-level span (one set-up or one operation of the benchmark)."""
        with self._open(name, (), {}) as span:
            yield span

    @contextmanager
    def _open(self, name, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else index
        span = Span(name, parent, root, args, kwargs)
        self.spans.append(span)
        self._stack.append(index)
        if self.timed:
            span.start = time.perf_counter()
        try:
            yield span
        finally:
            if self.timed:
                span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def dump(self, path) -> None:
        """Write the spans (without arguments and results) as JSON."""
        rows = [
            {"id": i, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)

"""In-memory spans around the public calls of fddjam, recorded from outside.

The tracer replaces module attributes (for example
``fddjam.experiments.exponential_covariance``) with wrappers for the length
of a ``with`` block, so every caller that looks the name up in that module
records a span: name, start, end, parent and a few call attributes. Spans
stay in memory and are written out once the traced pass ends. The traced
pass runs serially in one process, so no span is lost in pool workers.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording one span per call; ``note(args, kwargs)`` adds attrs."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                        note(args, kwargs) if note else {})
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(module, attribute, span name, note)`` targets inside the block.

        An attribute the module no longer has is listed in ``missing`` and
        skipped, so a renamed function reads as zero work, not a crash.
        """
        saved = []
        try:
            for module_name, attr, span_name, note in targets:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total self time and total inclusive time."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = table.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += span.end - span.start
    return table

"""Layer spans recorded from outside the program.

:class:`SpanRecorder` keeps a stack of open spans and accumulates each
layer's *self time*: a span's duration minus the part of it covered by
child spans.  Because every span's duration is credited once to its
own layer (as self time) and once to its parent (as child time), the
self times of all layers plus the root span's self time add up to the
root span's duration exactly.

:func:`install` wraps methods of ``repro.*`` classes in place so every
call opens a span; it returns a function that restores the originals.
No source file of the program changes.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = ["ROOT", "SpanRecorder", "install"]

#: Layer name of the outermost span (one traced repetition).
ROOT = "root"

#: ``(layer, "module:Class", method names)`` or ``(layer, "module", function names)``.
Boundary = Tuple[str, str, Sequence[str]]


class SpanRecorder:
    """Accumulates the per-layer self time of nested spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_time: Dict[str, float] = defaultdict(float)
        # Each open span is [start, child_time]; its layer lives in _layers.
        self._stack: List[List[float]] = []
        self._layers: List[str] = []

    def enter(self, layer: str) -> None:
        self._layers.append(layer)
        self._stack.append([self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        start, child = self._stack.pop()
        layer = self._layers.pop()
        duration = self.clock() - start
        self.self_time[layer] += duration - child
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span of ``layer``."""
        stack = self._stack
        layers = self._layers
        clock = self.clock
        self_time = self.self_time

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            layers.append(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                layers.pop()
                duration = clock() - frame[0]
                self_time[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return spanned


def _subclasses(cls: type) -> Iterable[type]:
    seen = {cls}
    todo = [cls]
    while todo:
        klass = todo.pop()
        yield klass
        for sub in klass.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)


def install(recorder: SpanRecorder, boundaries: Sequence[Boundary]) -> Callable[[], None]:
    """Wrap every boundary; returns a function that undoes the wrapping.

    A class boundary wraps the named methods on the class and on every
    subclass that overrides them, so a concrete agent's own
    ``handle_protocol_message`` is spanned as well as the base one.  A
    module boundary replaces the module attribute; callers that look the
    function up through the module at call time see the wrapper.
    """
    undo: List[Tuple[object, str, object]] = []
    for layer, target, names in boundaries:
        module_name, _, class_name = target.partition(":")
        module = importlib.import_module(module_name)
        if not class_name:
            for name in names:
                original = getattr(module, name)
                undo.append((module, name, original))
                setattr(module, name, recorder.wrap(layer, original))
            continue
        base = getattr(module, class_name)
        for klass in _subclasses(base):
            for name in names:
                original = klass.__dict__.get(name)
                if original is None:
                    continue
                if isinstance(original, (staticmethod, classmethod)):
                    wrapped = type(original)(recorder.wrap(layer, original.__func__))
                elif callable(original):
                    wrapped = recorder.wrap(layer, original)
                else:
                    raise TypeError(f"{klass.__qualname__}.{name} is not a method")
                undo.append((klass, name, original))
                setattr(klass, name, wrapped)

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore

"""In-memory span tracer that wraps public functions from outside the program.

Every wrapper records one span per call: name, start, end, the span that
was open when the call began (its parent) and a few work attributes. A
span's self time is its duration minus the part covered by its children.
Nothing is written until the caller asks for the spans.

Wrappers are installed on the attribute of the module that *calls* the
function: ``blindrx.blind`` binds ``resample_to_sps`` with ``from .dsp
import ...``, so patching ``blindrx.dsp.resample_to_sps`` alone would miss
every call the blind chain makes. ``install`` returns the originals and
``restore`` puts them back.

The tracer keeps one stack, so it is only valid in a single thread; the
traced benchmark run uses ``--workers 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

_now = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, _now(), parent=parent, attrs=attrs or {}))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = _now()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def parent_of(self, span: Span) -> Span | None:
        return None if span.parent is None else self.spans[span.parent]

    def wrap(self, fn, name: str, attrs=None):
        """Return ``fn`` wrapped in a span; ``attrs(*args, **kw)`` adds attributes.

        A generator function is wrapped per item: each ``next()`` is one
        span, so the time the consumer spends between items is not counted.
        """
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    index = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name, attrs(*args, **kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper


@dataclass(frozen=True)
class Target:
    """One binding to patch: ``owner`` is a dotted module or module:Class path."""

    owner: str
    attr: str
    name: str
    attrs: Callable[..., dict] | None = None

    def resolve(self):
        module, _, cls = self.owner.partition(":")
        obj = importlib.import_module(module)
        return getattr(obj, cls) if cls else obj


def install(tracer: Tracer, targets) -> list[tuple[object, str, object]]:
    """Patch every target with a tracing wrapper; return what ``restore`` needs."""
    saved = []
    try:
        for target in targets:
            owner = target.resolve()
            original = owner.__dict__[target.attr]
            saved.append((owner, target.attr, original))
            setattr(owner, target.attr, tracer.wrap(original, target.name, target.attrs))
    except BaseException:
        restore(saved)
        raise
    return saved


def restore(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer, targets):
    saved = install(tracer, targets)
    try:
        yield tracer
    finally:
        restore(saved)

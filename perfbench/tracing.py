"""In-memory span tracer that wraps the program's entry points from outside.

A :class:`Tracer` replaces a function or method at the attribute its
callers look it up through (a module global such as
``repro.core.sum_of_ratios.solve_sp2_v2``, or a class attribute such as
``ResourceAllocator.solve``) with a wrapper that records one span per call:
name, start, end, parent span and request id.  Callers resolve those names
at call time, so the wrapper sees every call without any change to the
program.  An optional ``observe`` hook turns the call's arguments and
result into counts (lanes, elements, iterations, fallbacks).

An attribute that does not exist is recorded in :attr:`Tracer.missing`
and skipped, so a later refactor that removes or renames an entry point
leaves its metrics absent instead of crashing the run.  Spans stay in
memory until :meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

Observe = Callable[["Tracer", tuple, dict, Any], None]

#: Restore marker: the wrapper shadowed an inherited attribute, so undoing
#: it means deleting the shadow rather than putting a value back.
_DELETE = object()


@dataclass
class Span:
    """One timed call at a layer boundary."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: Any
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts; installs and removes entry-point wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        #: Span names with at least one wrapped entry point.
        self.wrapped: set[str] = set()
        #: Per-request annotations an ``observe`` hook may leave behind.
        self.notes: dict[Any, Any] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_request(self) -> Any:
        return getattr(self._local, "request", None)

    @contextmanager
    def request(self, request_id: Any) -> Iterator[None]:
        """Tag every span opened in this thread with ``request_id``."""
        previous = self.current_request
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time the enclosed block as one span under the current parent."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(
                span_id, name, start, end, parent, self.current_request,
                threading.get_ident(),
            )
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrapping -------------------------------------------------------------
    def wrap(
        self,
        target: str,
        name: str,
        observe: Observe | None = None,
        request: Callable[[], Any] | None = None,
    ) -> bool:
        """Wrap ``"module:attr"`` or ``"module:Class.attr"`` under span ``name``.

        ``observe(tracer, args, kwargs, result)`` runs after each call that
        returns; ``request()`` gives each call a fresh request id that its
        span, its child spans and ``observe`` see.  Returns ``False`` (and
        records the target in :attr:`missing`) when the module, class or
        attribute does not exist.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return False
        if not callable(original):
            self.missing.append(target)
            return False
        # Class attributes are read back through ``__dict__`` so restoring
        # puts back exactly what was there (a plain function, not a bound
        # method); module globals are plain values either way.
        stored = vars(owner).get(attr, _DELETE) if isinstance(owner, type) else original
        self._patches.append((owner, attr, stored))
        setattr(owner, attr, self._wrapper(original, name, observe, request))
        self.wrapped.add(name)
        return True

    def wrap_instance(self, obj: Any, attr: str, name: str, observe: Observe | None = None) -> bool:
        """Wrap one bound method of a live object (e.g. the service's store)."""
        original = getattr(obj, attr, None)
        if original is None or not callable(original):
            self.missing.append(f"{type(obj).__name__}.{attr}")
            return False
        self._patches.append((obj, attr, _DELETE))
        setattr(obj, attr, self._wrapper(original, name, observe))
        self.wrapped.add(name)
        return True

    def _wrapper(
        self,
        original: Callable,
        name: str,
        observe: Observe | None,
        request: Callable[[], Any] | None = None,
    ) -> Callable:
        tracer = self

        def call(args: tuple, kwargs: dict) -> Any:
            with tracer.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if request is None:
                return call(args, kwargs)
            with tracer.request(request()):
                return call(args, kwargs)

        return wrapper

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attr, stored = self._patches.pop()
            if stored is _DELETE:
                delattr(owner, attr)
            else:
                setattr(owner, attr, stored)

    # -- derived figures --------------------------------------------------------
    def by_name(self) -> dict[str, list[Span]]:
        grouped: dict[str, list[Span]] = defaultdict(list)
        for record in self.spans:
            grouped[record.name].append(record)
        return grouped

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part its child spans cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for record in self.spans:
            if record.parent is not None:
                children[record.parent].append(record)
        result: dict[int, float] = {}
        for record in self.spans:
            covered = 0.0
            cursor = record.start
            for child in sorted(children.get(record.span_id, ()), key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, record.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[record.span_id] = record.duration - covered
        return result

    def dump(self, path: Path) -> None:
        """Write spans, counts and missing entry points as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s.start for s in self.spans), default=0.0)
        payload = {
            "missing": self.missing,
            "counts": dict(self.counts),
            "spans": [
                {
                    "id": s.span_id,
                    "name": s.name,
                    "start_s": s.start - origin,
                    "end_s": s.end - origin,
                    "parent": s.parent,
                    "request": s.request,
                    "thread": s.thread,
                }
                for s in self.spans
            ],
        }
        path.write_text(json.dumps(payload, default=str))

"""Wrap-by-name span tracer that measures a program's layers from outside.

A target names something an imported module holds: a module-level function
or class (``"pkg.mod:name"``) or a plain method (``"pkg.mod:Class.method"``).
Installing the tracer replaces every reference to a target inside the package
with a wrapper that records a span: name, start, end, parent span and process
id, plus any counts the target's counter computes from the call's arguments
and result.  A wrapped class records a span around its constructor.  A target
that no longer exists is listed in ``absent``; a counter that no longer fits
its target's signature is listed in ``broken_counters``.  Neither stops the run.

Tracing never touches arguments, results or random generators, so a traced
call computes exactly what an untraced one does.

Spans live in memory.  Worker processes forked while the tracer is installed
inherit the wrappers; they append their spans to one file per process in
``spool_dir``, and ``collect`` merges those files into the parent's list.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

__all__ = ["Span", "Target", "Tracer", "self_times"]


@dataclass(frozen=True)
class Target:
    """A function, class or method to trace, with an optional counter.

    The counter receives the call's bound arguments (by parameter name) and
    its result, and returns a dict of counts to attach to the span.
    """

    spec: str
    counter: Callable[[dict, object], dict] | None = None

    @property
    def name(self) -> str:
        """Span name: last module component plus the attribute path."""
        module, attr = self.spec.split(":")
        return f"{module.rsplit('.', 1)[-1]}.{attr}"


@dataclass
class Span:
    sid: str
    parent: str | None
    name: str
    start: float
    end: float
    pid: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the targets while installed (use as a context manager)."""

    def __init__(self, package: str, targets: list[Target], spool_dir: Path):
        self.package = package
        self.targets = targets
        self.spool_dir = Path(spool_dir)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[str] = []
        self._ids = itertools.count()
        self._pid = os.getpid()

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.absent = []
        for target in self.targets:
            module_name, attr_path = target.spec.split(":")
            try:
                module = importlib.import_module(module_name)
                owner, attr = module, attr_path
                if "." in attr_path:
                    cls_name, attr = attr_path.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            if owner is module:
                self._patch_references(original, wrapper)
            else:
                self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_references(self, original, wrapper) -> None:
        """Rebind every name in the package's modules that holds `original`."""
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _wrap(self, target: Target, original):
        name = target.name
        if inspect.isclass(original):
            tracer = self

            class Traced(original):
                def __init__(self, *args, **kwargs):
                    tracer._call(name, super().__init__, None, None, args, kwargs)

            Traced.__name__ = original.__name__
            Traced.__qualname__ = original.__qualname__
            Traced.__module__ = original.__module__
            return Traced
        signature = inspect.signature(original) if target.counter else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._call(name, original, target.counter, signature, args, kwargs)

        return wrapper

    # -- recording --------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; yields a dict for its counts."""
        pid = os.getpid()
        sid = f"{pid}.{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        counts: dict = {}
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(Span(sid, parent, name, start, end, pid, counts))

    def _call(self, name, fn, counter, signature, args, kwargs):
        with self.span(name) as counts:
            result = fn(*args, **kwargs)
            if counter is not None:
                counts.update(self._count(name, counter, signature, args, kwargs, result))
        return result

    def _count(self, name, counter, signature, args, kwargs, result) -> dict:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return counter(bound.arguments, result)
        except (TypeError, KeyError, IndexError, AttributeError, ValueError, OSError):
            self.broken_counters.add(name)
            return {}

    def _record(self, span: Span) -> None:
        if span.pid == self._pid:
            self.spans.append(span)
            return
        # Forked worker: its memory dies with it, so write the span out now.
        path = self.spool_dir / f"spans-{span.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(asdict(span)) + "\n")

    def collect(self) -> list[Span]:
        """Return all spans recorded so far (worker spans merged) and reset."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(Span(**json.loads(line)) for line in fh)
            path.unlink()
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time of each span: its duration minus that of its direct
    children in the same process (a worker's spans run on another clock
    line and do not cover the parent's interval)."""
    by_id = {s.sid: s for s in spans}
    out = {s.sid: s.duration for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.pid == s.pid:
            out[parent.sid] -= s.duration
    return out

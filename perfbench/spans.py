"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of each layer from the outside: it
replaces the function (or method) on its defining module or class and
on every ``repro`` module that imported it by name, so call sites pick
up the wrapper without any change to the program.  Each call records a
span ``(id, parent, name, start_ns, end_ns)``; a span's parent is the
innermost enclosing traced call on the same thread.  Spans stay in
memory until the run ends.

Forked processes (pool workers, work-stealing children) inherit the
wrappers.  After a fork the child starts an empty span list whose root
spans point at the span that was open in the parent when it forked.
Forked children leave through ``os._exit`` and never run ``atexit``, so
a child appends its spans to ``<spool>/spans-<pid>.jsonl`` each time
its outermost traced call returns; for a work-stealing child that is
the return of ``ShardWorker.run``, for a pool worker the return of each
shard.  :meth:`Tracer.collect` reads the spool files back once the run
has ended.

Wrappers check one flag, so the same process can measure an untraced
pass (flag off) next to a traced one (flag on).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Span:
    """One traced call: ids are ``(pid, n)`` pairs, times in ns."""

    sid: tuple[int, int]
    parent: tuple[int, int] | None
    name: str
    start: int
    end: int

    @property
    def pid(self) -> int:
        return self.sid[0]

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


@dataclass
class Trace:
    """Every span and counter of a traced run, across all processes."""

    root_pid: int
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def self_seconds(self) -> dict[tuple[int, int], float]:
        """Each span's duration minus what its same-process children cover."""
        covered: dict[tuple[int, int], int] = defaultdict(int)
        for span in self.spans:
            if span.parent is not None and span.parent[0] == span.pid:
                covered[span.parent] += span.end - span.start
        return {
            span.sid: (span.end - span.start - covered[span.sid]) / 1e9
            for span in self.spans
        }

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def seconds(self, *names: str) -> float:
        """Inclusive time of the named calls, summed over processes."""
        wanted = set(names)
        return sum(span.seconds for span in self.spans if span.name in wanted)


class Tracer:
    """Wraps layer functions and records spans while :attr:`enabled`."""

    def __init__(self, spool_dir: str | os.PathLike):
        self.enabled = False
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self._spans: list[tuple] = []
        self._counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fork_parent: tuple[int, int] | None = None
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        stack = getattr(self._local, "stack", None)
        self._fork_parent = stack[-1] if stack else None
        self.pid = os.getpid()
        self._local = threading.local()
        self._spans = []
        self._counts = defaultdict(float)

    def count(self, name: str, amount: float = 1) -> None:
        self._counts[name] += amount

    def _wrap(self, fn, name: str, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._fork_parent
            sid = (tracer.pid, next(tracer._ids))
            stack.append(sid)
            returned = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._spans.append((sid, parent, name, start, end))
                if returned and on_return is not None:
                    on_return(tracer, args, result)
                if not stack and tracer.pid != tracer.root_pid:
                    tracer._flush_child()
            return result

        return traced

    def _flush_child(self) -> None:
        lines = [
            json.dumps({"span": [list(s[0]), list(s[1]) if s[1] else None,
                                 s[2], s[3], s[4]]})
            for s in self._spans
        ]
        lines.extend(
            json.dumps({"count": [name, value]})
            for name, value in self._counts.items()
        )
        self._spans = []
        self._counts = defaultdict(float)
        if lines:
            path = self.spool_dir / f"spans-{self.pid}.jsonl"
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")

    @contextlib.contextmanager
    def paused(self):
        """Stop recording for the block (the benchmark's own checks)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    # -- patching -----------------------------------------------------------

    def patch_function(self, module_name: str, attr: str, name: str,
                       on_return=None) -> None:
        """Wrap a module-level function everywhere ``repro`` refers to it."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self._wrap(original, name, on_return)
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"could not patch {module_name}.{attr}")

    def patch_method(self, cls: type, attr: str, name: str, on_return=None) -> None:
        """Wrap a method, classmethod, or staticmethod defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(raw.__func__, name, on_return)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(self._wrap(raw.__func__, name, on_return)))
        else:
            setattr(cls, attr, self._wrap(raw, name, on_return))

    # -- collection ---------------------------------------------------------

    def collect(self) -> Trace:
        """This process's spans plus every flushed child's, as one trace."""
        trace = Trace(root_pid=self.root_pid)
        counts: dict[str, float] = defaultdict(float, self._counts)
        for sid, parent, name, start, end in self._spans:
            trace.spans.append(Span(sid, parent, name, start, end))
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                if "span" in record:
                    sid, parent, name, start, end = record["span"]
                    trace.spans.append(Span(
                        tuple(sid), tuple(parent) if parent else None,
                        name, start, end,
                    ))
                else:
                    counts[record["count"][0]] += record["count"][1]
        trace.counts = dict(counts)
        return trace

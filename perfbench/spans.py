"""Outside-in span recorder for the traced benchmark run.

The traced run times calls into each layer's public functions by
wrapping them from here; nothing under ``src/`` is edited.  A span is
``(id, parent, request, name, start_ns, end_ns, thread)``.  The current
span lives in a :class:`contextvars.ContextVar`, so parent links follow
``asyncio`` tasks and cross ``asyncio.to_thread`` (which copies the
caller's context into the worker thread) -- the service's token work
on worker threads lands under the request that caused it.

Server-side requests get their own id when their frame is decoded
(the connection task's context is copied into the request task), so
every span of one server request shares an id.  Client and server ids
are not joined: the service overhead is computed from means, which is
exact for a mean (mean of differences = difference of means).

Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

#: (module, attribute path, span name) for every wrapped function
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.protocol", "encode_frame", "service.codec"),
    ("repro.core.session", "Session.execute_pinned",
     "service.execute_pinned"),
    ("repro.sql.binder", "Binder.bind", "sql.bind"),
    ("repro.sql.binder", "Binder.bind_insert", "sql.bind"),
    ("repro.sql.binder", "Binder.bind_delete", "sql.bind"),
    ("repro.sql.binder", "BoundQuery.substitute", "sql.bind"),
    ("repro.sql.binder", "BoundInsert.substitute", "sql.bind"),
    ("repro.sql.binder", "BoundDelete.substitute", "sql.bind"),
    ("repro.core.planner", "Planner.plan", "planner.plan"),
    ("repro.untrusted.server", "VisServer.vis", "untrusted.vis"),
    ("repro.untrusted.server", "VisServer.vis_batch", "untrusted.vis"),
    ("repro.untrusted.server", "VisServer.count", "untrusted.vis"),
    ("repro.core.executor", "QepSjExecutor.execute", "executor"),
    ("repro.core.project", "ProjectionExecutor.execute", "project"),
    ("repro.core.sort", "OrderByExecutor.execute", "sort"),
    ("repro.flash.store", "FlashFile.read_page", "flash.read"),
    ("repro.index.climbing", "ClimbingIndex.lookup_all",
     "climbing.lookup"),
    ("repro.core.dml", "DmlExecutor.insert", "dml.insert"),
    ("repro.core.dml", "DmlExecutor.delete", "dml.delete"),
    ("repro.core.dml", "DmlExecutor.delete_candidates", "dml.delete"),
    ("repro.core.dml", "DmlExecutor.apply_delete", "dml.delete"),
    ("repro.core.compaction", "CompactionManager.compact", "compaction"),
    ("repro.core.ghostdb", "GhostDB.execute_fragment", "shard.fragment"),
    ("repro.shard.gather", "translate_rows", "shard.gather"),
    ("repro.shard.gather", "merge_by_anchor", "shard.gather"),
    ("repro.shard.gather", "merge_ordered", "shard.gather"),
    ("repro.shard.gather", "finish_order", "shard.gather"),
    ("repro.shard.gather", "window", "shard.gather"),
)

#: modules that imported ``parse`` by name (each binding is wrapped)
PARSE_USERS = ("repro.sql.parser", "repro.sql.binder", "repro.core.ghostdb",
               "repro.service.server", "repro.shard.fleet")

#: the Bloom batch calls; their item counts feed ``bloom.items``
BLOOM_CALLS = ("add_many", "contains_many")


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end",
                 "thread")

    def __init__(self, sid, parent, request, name, start, end, thread):
        self.id, self.parent, self.request = sid, parent, request
        self.name, self.start, self.end = name, start, end
        self.thread = thread

    @property
    def ns(self) -> int:
        return self.end - self.start


class _Open:
    """Context manager recording one span around its block."""

    __slots__ = ("tracer", "name", "request", "sid", "parent", "token",
                 "start")

    def __init__(self, tracer: "Tracer", name: str, request=None):
        self.tracer, self.name, self.request = tracer, name, request

    def __enter__(self):
        current = _CURRENT.get()
        self.parent = current[0] if current else None
        if self.request is None and current is not None:
            self.request = current[1]
        self.sid = next(self.tracer._ids)
        self.token = _CURRENT.set((self.sid, self.request))
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        _CURRENT.reset(self.token)
        self.tracer.spans.append(Span(self.sid, self.parent, self.request,
                                      self.name, self.start, end,
                                      threading.get_ident()))
        return False


class _LabelSpan:
    """Wraps one ``CostLedger.label`` context in a span."""

    __slots__ = ("inner", "span")

    def __init__(self, inner, span: _Open):
        self.inner, self.span = inner, span

    def __enter__(self):
        self.span.__enter__()
        return self.inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.span.__exit__(*exc)


class Tracer:
    """Installs wrappers, records spans, and removes the wrappers."""

    def __init__(self):
        self.spans: List[Span] = []
        self.items: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._server_requests = itertools.count(1)
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def span(self, name: str, request=None) -> _Open:
        """A span around a block of the benchmark's own code (an
        operation root when ``request`` is given)."""
        return _Open(self, name, request)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, fn: Callable, name: str,
              count: Optional[Callable] = None) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                with _Open(tracer, name):
                    return await fn(*args, **kwargs)
            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.items[name] += count(args)
            with _Open(tracer, name):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name))
        parser = importlib.import_module("repro.sql.parser")
        parse = self._wrap(parser.parse, "sql.parse")
        for module_name in PARSE_USERS:
            self._patch(importlib.import_module(module_name), "parse", parse)
        bloom = importlib.import_module("repro.index.bloom").BloomFilter
        for attr in BLOOM_CALLS:
            self._patch(bloom, attr, self._wrap(
                bloom.__dict__[attr], "bloom", count=lambda a: len(a[1])))
        self._install_decode()
        self._install_merge_label()

    def _install_decode(self) -> None:
        """Time frame decoding; a decoded *request* (it has an ``op``)
        opens a fresh server-side request id in the connection task's
        context, which the request task created next inherits."""
        protocol = importlib.import_module("repro.service.protocol")
        decode = protocol.decode_frame
        tracer = self

        @functools.wraps(decode)
        def decode_frame(body):
            with _Open(tracer, "service.codec"):
                payload = decode(body)
            if "op" in payload:
                _CURRENT.set((None, f"srv-{next(tracer._server_requests)}"))
            return payload
        self._patch(protocol, "decode_frame", decode_frame)

    def _install_merge_label(self) -> None:
        """Merge work runs inside generators pulled by other operators;
        its ``Merge`` ledger label encloses exactly that work, so the
        label is the boundary that times it."""
        ledger_cls = importlib.import_module("repro.flash.stats").CostLedger
        label = ledger_cls.__dict__["label"]
        tracer = self

        @functools.wraps(label)
        def traced_label(ledger, name):
            inner = label(ledger, name)
            if name != "Merge":
                return inner
            return _LabelSpan(inner, _Open(tracer, "merge"))
        self._patch(ledger_cls, "label", traced_label)

    def wrap_lock(self, holder, attr: str) -> None:
        """Time waits for a ``threading.Lock`` held at ``holder.attr``."""
        lock = getattr(holder, attr)
        tracer = self

        class _TimedLock:
            def __enter__(self):
                with _Open(tracer, "service.lock"):
                    lock.acquire()
                return self

            def __exit__(self, *exc):
                lock.release()
                return False
        self._patch(holder, attr, _TimedLock())

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def by_root(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{root: {name: {"ns", "self_ns", "count"}}}``.

        A span's root is the name of its outermost ancestor; spans with
        no benchmark-side root (server request tasks) are grouped under
        ``"server"``.  ``ns`` is inclusive time, a span nested directly in
        a span of its own name (``DmlExecutor.delete`` calling its own
        phases) counted once; self time is a span's duration minus the
        part its direct children cover; ``count`` counts every call.
        """
        by_id = {s.id: s for s in self.spans}
        child_ns: Dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.ns
        roots: Dict[int, str] = {}

        def root_of(s: Span) -> str:
            chain = []
            while s.id not in roots and s.parent is not None \
                    and s.parent in by_id:
                chain.append(s)
                s = by_id[s.parent]
            root = roots.get(s.id)
            if root is None:
                root = s.name if s.name.startswith("op.") else "server"
                roots[s.id] = root
            for c in chain:
                roots[c.id] = root
            return root

        out: Dict[str, Dict[str, Dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"ns": 0, "self_ns": 0,
                                         "count": 0}))
        for s in self.spans:
            entry = out[root_of(s)][s.name]
            parent = by_id.get(s.parent)
            if parent is None or parent.name != s.name:
                entry["ns"] += s.ns
            entry["self_ns"] += s.ns - child_ns[s.id]
            entry["count"] += 1
        return out

    def dump(self, path: str, header: Dict) -> None:
        """Write every span (as lists) after the run header."""
        with open(path, "w") as fh:
            json.dump({
                "run": header,
                "fields": list(Span.__slots__),
                "spans": [[s.id, s.parent, s.request, s.name, s.start,
                           s.end, s.thread] for s in self.spans],
            }, fh)

"""In-memory span recorder for the traced benchmark run.

`Tracer.install()` wraps elfdb's public functions at their module
attributes (and the `Session` methods on the class), so the program itself
is never edited; `uninstall()` puts the originals back.  Every span carries
a name, start, end, parent and op id.  Three kinds of record exist:

* call spans: one per call of a wrapped function;
* generator spans: the row producers are generators consumed inside
  `executemany`, so their `busy` time is the time spent inside `next()`,
  not the wall interval from first to last row;
* per-call aggregates: functions called once per symbol or per byte
  (`demangle`, the instruction decoder) are recorded as one record per
  parent span holding a call count and the summed time.

A span's self time is its busy time minus the busy time of its children.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

from elfdb import analyses, corpus, disasm, engine, model, reader

perf_counter = time.perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    op: Optional[int]
    start: float
    end: float = 0.0
    busy: float = 0.0
    calls: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._aggregates: dict[tuple[Optional[int], str], Span] = {}
        self._restore: list = []
        self.op: Optional[int] = None

    # -- recording ---------------------------------------------------------

    def _new(self, name: str, start: float) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, start)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._new(name, perf_counter())
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            span.busy = span.end - span.start
            if self._stack.pop() is not span:
                raise RuntimeError(f"span {name} closed out of order")

    @contextmanager
    def op_span(self, kind: str):
        """Root span of one benchmark op; spans opened inside share its id."""
        if self._stack:
            raise RuntimeError("op spans cannot nest")
        self.op = len(self.spans)
        try:
            with self.span("op." + kind) as span:
                yield span
        finally:
            self.op = None

    def _aggregate(self, name: str, start: float, end: float) -> Span:
        parent = self._stack[-1].id if self._stack else None
        agg = self._aggregates.get((parent, name))
        if agg is None:
            agg = self._aggregates[(parent, name)] = self._new(name, start)
        agg.calls += 1
        agg.busy += end - start
        agg.end = end
        return agg

    # -- wrappers ----------------------------------------------------------

    def _call_wrapper(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
            return result

        return traced

    def _producer_wrapper(self, table, fn):
        name = "model." + table.removeprefix("elf_")

        @functools.wraps(fn)
        def traced(obj):
            span = self._new(name, perf_counter())
            stack = self._stack
            inner = fn(obj)
            while True:
                t0 = perf_counter()
                stack.append(span)
                try:
                    row = next(inner)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    span.end = perf_counter()
                    span.busy += span.end - t0
                span.calls += 1
                yield row

        return traced

    def _demangle_wrapper(self, fn):
        aggregate = self._aggregate

        @functools.wraps(fn)
        def traced(name, *args):
            t0 = perf_counter()
            result = fn(name, *args)
            agg = aggregate("demangle", t0, perf_counter())
            agg.attrs.setdefault("names", set()).add(name)
            return result

        return traced

    def _decode_wrapper(self, fn):
        aggregate = self._aggregate

        def traced(buf, offset, address):
            t0 = perf_counter()
            result = fn(buf, offset, address)
            agg = aggregate("disasm.decode", t0, perf_counter())
            if result is None:
                agg.attrs["bad"] = agg.attrs.get("bad", 0) + 1
            return result

        return traced

    def _patch(self, owner, attr, value) -> None:
        if attr in vars(owner):
            old = vars(owner)[attr]
            self._restore.append(lambda: setattr(owner, attr, old))
        else:  # an instance attribute shadowing a method of the class
            self._restore.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")

        def read_stats(span, args, obj):
            span.attrs["bytes"] = len(args[0])
            span.attrs["symbols"] = len(obj.symbols)

        def materialize_stats(span, args, _result):
            span.attrs["table"] = args[1]

        patch, call = self._patch, self._call_wrapper
        patch(reader, "open_elf", call("reader.open_elf", reader.open_elf, read_stats))
        patch(corpus, "add_paths", call("corpus.add_paths", corpus.add_paths))
        patch(corpus, "resolve_recursive", call("corpus.resolve_recursive", corpus.resolve_recursive))
        patch(engine, "register", call("engine.register", engine.register))
        session = engine.Session
        patch(session, "execute", call("engine.execute", session.execute))
        patch(session, "export_database", call("engine.export_database", session.export_database))
        patch(session, "_materialize", call("engine.materialize", session._materialize, materialize_stats))
        for name in ("count_symbols", "interposition_audit", "symbol_histogram", "runpath"):
            patch(analyses, name, call("analyses." + name, getattr(analyses, name)))
        patch(model, "demangle", self._demangle_wrapper(model.demangle))
        decoder = disasm.DEFAULT_DECODER
        patch(decoder, "decode", self._decode_wrapper(decoder.decode))
        producers = model.TABLE_PRODUCERS
        for table, fn in list(producers.items()):
            self._restore.append(functools.partial(producers.__setitem__, table, fn))
            producers[table] = self._producer_wrapper(table, fn)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output ------------------------------------------------------------

    def finish(self) -> None:
        """Turn per-call name sets into counts so the spans serialize."""
        for agg in self._aggregates.values():
            names = agg.attrs.pop("names", None)
            if names is not None:
                agg.attrs["distinct"] = len(names)
        self._aggregates.clear()

    def write(self, path: str) -> None:
        self.finish()
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Busy time of each span minus the busy time of its child spans."""
    own = {s.id: s.busy for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.busy
    return own


def layer_of(name: str) -> str:
    """`corpus.add_paths` -> `corpus`; harness spans (`op.*`) map to `op`."""
    return name.split(".", 1)[0]

"""The two ways the benchmark runs a tdw command, and the tracer.

``Commands`` calls ``tdw.cli.main`` in-process, exactly as a user's
``tdw build|refresh|inspect`` would run, and times each call. It is the
untraced path that the end-to-end metrics come from.

``TracedCommands`` replays the same three commands step by step through
the public functions ``tdw.cli`` itself calls, so that loading, ingestion,
refresh and saving become child spans of the command's span. Beside each
command (outside its span) it re-runs the work that happens inside a
layer without a public boundary: the schema texts are parsed and resolved
again (``dsl.*``), every extraction mapping and the join alone are
evaluated again over the same snapshot (``algebra.*``), and the store is
encoded once more without writing it (``engine.dumps_store``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import time
import traceback
from typing import Any

from tdw import cli, engine
from tdw.algebra import eval_extraction, eval_join
from tdw.dsl import parse_warehouse_def, resolve
from tdw.expr import Join, is_extraction
from tdw.model import lifecycle_span
from tdw.source import ingest_snapshot, parse_source_schema
from tdw.temporal import parse_instant


@dataclasses.dataclass
class Result:
    kind: str  # build | refresh | inspect
    ok: bool
    seconds: float
    out: str
    error: str = ""
    scale: float = 1.0  # set by the caller: reference speed over the host's


@dataclasses.dataclass(frozen=True)
class Query:
    """One ``tdw inspect``: a class listing, an object's history, or an
    object's state at a year."""

    class_name: str
    oid: int | None = None
    at: int | None = None

    def argv(self, store: str) -> list[str]:
        argv = ["inspect", "--store", store, "--class", self.class_name]
        if self.oid is not None:
            argv += ["--oid", str(self.oid)]
            argv += ["--at", str(self.at)] if self.at is not None else ["--history"]
        return argv


class Commands:
    """Runs commands through ``tdw.cli.main`` and times each call."""

    def __init__(self, odl: str, edw: str):
        self.odl = odl
        self.edw = edw

    def build(self, snapshot: str, at: int, store: str) -> Result:
        return self._main("build", ["build", "--warehouse", self.edw, "--source-schema",
                                    self.odl, "--snapshot", snapshot, "--at", str(at),
                                    "--store", store])

    def refresh(self, store: str, snapshot: str, at: int) -> Result:
        return self._main("refresh", ["refresh", "--store", store, "--snapshot", snapshot,
                                      "--at", str(at)])

    def inspect(self, store: str, query: Query) -> Result:
        return self._main("inspect", query.argv(store))

    def _main(self, kind: str, argv: list[str]) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed command, not a failed benchmark
                code = None
                traceback.print_exc()
            seconds = time.perf_counter() - start
        return Result(kind, code == 0, seconds, out.getvalue(), err.getvalue())


class Tracer:
    """In-memory spans: name, start and end (ns), parent span, request id.

    A request is one command; the work re-run beside it shares its id.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request]
        self.stack: list[int] = []
        self.request = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def summary(self, scale: dict[int, float]) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (the
        duration minus what its child spans cover). Each span's time is
        multiplied by the scale of its request."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent, _req in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent, req) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9 * scale[req]
            entry["self_s"] += (end - start - child_ns[i]) / 1e9 * scale[req]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": req}) + "\n")


def _joins(expr):
    if isinstance(expr, Join):
        yield expr
    for f in dataclasses.fields(expr):
        child = getattr(expr, f.name)
        if is_extraction(child):
            yield from _joins(child)


class TracedCommands(Commands):
    """Step-by-step replay of the commands with a span around each call
    into a layer; ``counts`` accumulates the work the spans saw."""

    def __init__(self, odl: str, edw: str, tracer: Tracer):
        super().__init__(odl, edw)
        self.tracer = tracer
        self.counts: dict[str, float] = {}

    def _count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def build(self, snapshot: str, at: int, store: str) -> Result:
        def step(t):
            src = parse_source_schema(_read(self.odl))
            wdef = parse_warehouse_def(_read(self.edw))
            instant = parse_instant(str(at))
            snap = t.call("source.ingest", ingest_snapshot, src, self._lines(snapshot),
                          instant)
            built = t.call("engine.initial_load", engine.initial_load, src, wdef, snap, instant)
            t.call("engine.save_store", engine.save_store, built, store)
            counts = {name: len(t.call("engine.extension_of", built.extension_of, name))
                      for name in sorted(built.schema.classes)}
            print(json.dumps({"at": str(at), "extensions": counts}, ensure_ascii=False,
                             sort_keys=True))
            return built, snap
        return self._traced("build", step, store)

    def refresh(self, store: str, snapshot: str, at: int) -> Result:
        def step(t):
            instant = parse_instant(str(at))
            loaded = t.call("engine.load_store", engine.load_store, store)
            snap = t.call("source.ingest", ingest_snapshot, loaded.source_schema,
                          self._lines(snapshot), instant)
            report = t.call("engine.refresh", engine.refresh, loaded, snap, instant)
            t.call("engine.save_store", engine.save_store, loaded, store)
            print(json.dumps(report.to_dict(), ensure_ascii=False, sort_keys=True, indent=1))
            return loaded, snap
        return self._traced("refresh", step, store)

    def inspect(self, store: str, query: Query) -> Result:
        def step(t):
            loaded = t.call("engine.load_store", engine.load_store, store)
            extension = t.call("engine.extension_of", loaded.extension_of, query.class_name)
            if query.oid is None:
                print(f"class {query.class_name}: {len(extension)} object(s)")
                for oid in extension:
                    obj = loaded.objects[oid]
                    key = ", ".join(f"{i}:{s}" for i, s in obj.source_key)
                    print(f"  oid {oid}  [{key}]  {obj.status}")
                return loaded, None
            obj = loaded.objects[query.oid]
            print(f"object {obj.oid} ({obj.class_name}, {obj.status}) "
                  f"lifecycle {lifecycle_span(obj)}")
            if query.at is not None:
                located = t.call("engine.value_at", loaded.value_at, query.oid,
                                 parse_instant(str(query.at)))
                if located is None:
                    print(f"at {query.at}: absent")
                else:
                    print(f"at {query.at}: {located[0]}")
                    _print_slots(located[1])
                return loaded, None
            states = [("current", obj.current.domain, obj.current.value)]
            states += [("past", s.domain, s.value) for s in obj.past]
            states += [("archive", a.domain, a.aggregates) for a in obj.archives]
            for kind, dom, payload in states:
                print(f"{kind} {dom}:")
                _print_slots(payload)
            return loaded, None
        return self._traced("inspect", step, store)

    def _lines(self, snapshot: str) -> list[str]:
        text = _read(snapshot)
        self._count("source.snapshot_bytes", len(text.encode("utf-8")))
        return text.splitlines()

    def _traced(self, kind: str, step, store_path: str) -> Result:
        t = self.tracer
        t.request += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                with t.span(f"cmd.{kind}"):
                    store, snap = step(t)
                ok = True
            except Exception:
                ok = False
                traceback.print_exc()
            seconds = time.perf_counter() - start
            if ok:
                try:
                    self._beside(kind, store, snap, store_path)
                except Exception:
                    ok = False
                    traceback.print_exc()
        return Result(kind, ok, seconds, out.getvalue(), err.getvalue())

    def _beside(self, kind: str, store, snap, store_path: str) -> None:
        """Layer work re-run outside the command's span, with its counts."""
        t = self.tracer
        with t.span("dsl.parse"):
            src = parse_source_schema(store.source_text)
            wdef = parse_warehouse_def(store.warehouse_text)
        t.call("dsl.resolve", resolve, wdef, src, strict=True)
        if kind == "inspect":
            return
        self._count("engine.bytes_written", os.path.getsize(store_path))
        t.call("engine.dumps_store", engine.dumps_store, store)
        self._count("source.records", len(snap.records))
        self._count("source.links", sum(len(ids) for rec in snap.records.values()
                                        for ids in rec.links.values()))
        for name in sorted(store.schema.classes):
            mapping = store.schema.classes[name].mapping
            if mapping is None or not is_extraction(mapping):
                continue
            build = t.call("algebra.extract", eval_extraction, mapping, store.source_schema, snap)
            self._count("algebra.rows", len(build.rows))
            for join in _joins(mapping):
                left = eval_extraction(join.left, store.source_schema, snap)
                right = eval_extraction(join.right, store.source_schema, snap)
                joined = t.call("algebra.join", eval_join, left, right, join.pred)
                self._count("algebra.join_pairs", len(left.rows) * len(right.rows))
                self._count("algebra.join_rows", len(joined.rows))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _print_slots(payload: dict[str, Any]) -> None:
    for name in sorted(payload):
        print(f"  {name} = {json.dumps(payload[name], ensure_ascii=False, sort_keys=True)}")

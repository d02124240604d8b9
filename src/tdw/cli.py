"""Command line surface: validate, build, refresh, patch, inspect, plan.

Exit codes: 0 success, 1 domain error (validation failure, refresh
rejected, bad oid, ...), 2 I/O or usage problems. Mutating commands
take an exclusive lock on a file next to the store, and read or test
the store only while they hold it, so two writers cannot interleave.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
from typing import Any

from . import engine, model
from .dsl import parse_warehouse_def, resolve_with_violations
from .errors import Error, ParseError, StoreLocked
from .expr import (
    Aliased,
    Augment,
    Generalize,
    Hide,
    Join,
    Project,
    Select,
    SourceRef,
    Specialize,
    format_binding,
    format_operand,
    format_predicate,
)
from .model import historization_level, lifecycle_span
from .source import ingest_snapshot, parse_source_schema
from .temporal import parse_instant


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # bad flag values (a malformed --at), I/O
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdw", description="temporal object warehouse engine"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a warehouse definition against a source schema")
    p.add_argument("--source-schema", required=True)
    p.add_argument("--warehouse", required=True)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("build", help="initial load into a new store")
    p.add_argument("--warehouse", required=True)
    p.add_argument("--source-schema", required=True)
    p.add_argument("--snapshot", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--store", required=True)
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("refresh", help="apply one extraction point to a store")
    p.add_argument("--store", required=True)
    p.add_argument("--snapshot", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--report", help="also write the refresh report to this file")
    p.set_defaults(handler=cmd_refresh)

    p = sub.add_parser("inspect", help="render extensions, objects, and histories")
    p.add_argument("--store", required=True)
    p.add_argument("--class", dest="class_name", required=True)
    p.add_argument("--oid", type=int)
    p.add_argument("--at")
    p.add_argument("--history", action="store_true")
    p.set_defaults(handler=cmd_inspect)

    p = sub.add_parser("patch", help="set a specific property on an object")
    p.add_argument("--store", required=True)
    p.add_argument("--oid", type=int, required=True)
    p.add_argument("--set", dest="assignment", required=True, metavar="PROP=VALUE")
    p.add_argument("--at", required=True)
    p.set_defaults(handler=cmd_patch)

    p = sub.add_parser("plan", help="print the elaboration plan for a definition")
    p.add_argument("--warehouse", required=True)
    p.add_argument("--source-schema", required=True)
    p.set_defaults(handler=cmd_plan)
    return parser


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _parse_file(path: str, parser):
    try:
        return parser(_read(path))
    except ParseError as exc:
        raise Error(f"{path}:{exc.line}:{exc.col}: expected {exc.expected}") from None


def _load_pair(args):
    src = _parse_file(args.source_schema, parse_source_schema)
    wdef = _parse_file(args.warehouse, parse_warehouse_def)
    return src, wdef


def cmd_validate(args) -> int:
    src, wdef = _load_pair(args)
    schema, violations = resolve_with_violations(wdef, src)
    for v in violations:
        print(f"{args.warehouse}: {v.kind} [{v.subject}]: {v.detail}")
    if violations:
        print(f"invalid: {len(violations)} violation(s)")
        return 1
    print(
        f"ok: {len(schema.classes)} classes, {len(schema.environments)} environment(s)"
    )
    return 0


def cmd_build(args) -> int:
    with _locked(args.store):
        if os.path.exists(args.store):
            print(f"error: store {args.store} already exists", file=sys.stderr)
            return 1
        src, wdef = _load_pair(args)
        at = parse_instant(args.at)
        snapshot = ingest_snapshot(src, _read(args.snapshot).splitlines(), at)
        store = engine.initial_load(src, wdef, snapshot, at)
        engine.save_store(store, args.store)
    counts = {name: len(store.extension_of(name)) for name in sorted(store.schema.classes)}
    print(json.dumps({"at": args.at, "extensions": counts}, ensure_ascii=False, sort_keys=True))
    return 0


def cmd_refresh(args) -> int:
    at = parse_instant(args.at)
    with _locked(args.store):
        store = engine.load_store(args.store)
        snapshot = ingest_snapshot(store.source_schema, _read(args.snapshot).splitlines(), at)
        report = engine.refresh(store, snapshot, at)
        engine.save_store(store, args.store)
    text = json.dumps(report.to_dict(), ensure_ascii=False, sort_keys=True, indent=1)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def cmd_inspect(args) -> int:
    if args.oid is None and (args.at is not None or args.history):
        print("error: --at and --history need --oid", file=sys.stderr)
        return 2
    if args.at is not None and args.history:
        print("error: --at excludes --history", file=sys.stderr)
        return 2
    t = None if args.at is None else parse_instant(args.at)
    store = engine.load_store(args.store)
    if args.class_name not in store.schema.classes:
        print(f"error: unknown class {args.class_name!r}", file=sys.stderr)
        return 1
    extension = store.extension_of(args.class_name)
    if args.oid is None:
        print(f"class {args.class_name}: {len(extension)} object(s)")
        for oid in extension:
            obj = store.objects[oid]
            pairs = obj.source_key
            if len(pairs) > 1:  # a composite's or a self-join's key may name a pair twice
                pairs = dict.fromkeys(pairs)
            key = ", ".join(f"{i}:{s}" for i, s in pairs)
            print(f"  oid {oid}  [{key}]  {obj.status}")
        return 0
    if args.oid not in extension:
        print(f"error: oid {args.oid} is not in class {args.class_name!r}", file=sys.stderr)
        return 1
    obj = store.objects[args.oid]
    span = lifecycle_span(obj)
    print(f"object {obj.oid} ({obj.class_name}, {obj.status}) lifecycle {span}")
    if t is not None:
        located = store.value_at(args.oid, t)
        if located is None:
            print(f"at {args.at}: absent")
        else:
            kind, payload = located
            print(f"at {args.at}: {kind}")
            _print_slots(payload)
        return 0
    _print_state("current", obj.current.domain, obj.current.value)
    if args.history:
        for s in obj.past:
            _print_state("past", s.domain, s.value)
        for a in obj.archives:
            _print_state("archive", a.domain, a.aggregates)
    return 0


def _print_state(kind: str, dom, payload) -> None:
    print(f"{kind} {dom}:")
    _print_slots(payload)


def _print_slots(payload: dict[str, Any]) -> None:
    for name in sorted(payload):
        print(f"  {name} = {json.dumps(payload[name], ensure_ascii=False, sort_keys=True)}")


def cmd_patch(args) -> int:
    prop, sep, raw = args.assignment.partition("=")
    if not sep:
        print("error: --set expects PROP=VALUE", file=sys.stderr)
        return 2
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    at = parse_instant(args.at)
    with _locked(args.store):
        store = engine.load_store(args.store)
        engine.patch_specific(store, args.oid, prop, value, at)
        engine.save_store(store, args.store)
    print(f"patched oid {args.oid}: {prop} = {json.dumps(value, ensure_ascii=False)}")
    return 0


def cmd_plan(args) -> int:
    src, wdef = _load_pair(args)
    schema, violations = resolve_with_violations(wdef, src)
    if violations:
        for v in violations:
            print(f"{args.warehouse}: {v.kind} [{v.subject}]: {v.detail}")
        return 1
    lines = [f"plan for warehouse {schema.name}"]
    lines.append("")
    lines.append("classes (creation order):")
    supers = {name: cls.supers for name, cls in schema.classes.items()}
    for i, name in enumerate(model.dependency_order(supers), start=1):
        cls = schema.classes[name]
        sup = f" extends {', '.join(cls.supers)}" if cls.supers else ""
        lines.append(f"  {i}. {name}{sup}")
        if cls.mapping is not None:
            for step in _pipeline(cls.mapping):
                lines.append(f"       {step}")
        tempo, archi = model.effective_filters(schema, name)
        if tempo:
            lines.append(f"       temporal filter: {', '.join(sorted(tempo))}")
        if archi:
            archived = ", ".join(f"{fn}({p})" for p, fn in sorted(archi.items()))
            lines.append(f"       archive filter: {archived}")
    lines.append("")
    lines.append("environments:")
    if not schema.environments:
        lines.append("  (none)")
    for name in sorted(schema.environments):
        env = schema.environments[name]
        level = historization_level(schema, name)
        lines.append(f"  {name} (historization level: {level})")
        lines.append(f"       classes: {', '.join(env.classes)}")
        cfg = schema.retention_for(env)
        parts = []
        if cfg.refresh_period:
            parts.append(f"refresh every {cfg.refresh_period[0]} {cfg.refresh_period[1]}(s)")
        if cfg.keep_past_count is not None:
            parts.append(f"keep {cfg.keep_past_count} past state(s)")
        if cfg.keep_past_duration:
            parts.append(
                f"keep past {cfg.keep_past_duration[0]} {cfg.keep_past_duration[1]}(s)"
            )
        lines.append(f"       retention: {'; '.join(parts) if parts else '(none)'}")
    print("\n".join(lines))
    return 0


def _pipeline(expr) -> list[str]:
    """Bottom-up description of a mapping chain."""
    steps: list[str] = []

    def walk(node) -> None:
        if isinstance(node, SourceRef):
            steps.append(f"from {node.interface} as {node.binder}")
        elif isinstance(node, Aliased):
            walk(node.child)
            steps.append(f"rebind as {node.binder}")
        elif isinstance(node, Select):
            walk(node.child)
            steps.append(f"select {format_predicate(node.pred)}")
        elif isinstance(node, Project):
            walk(node.child)
            items = ", ".join(str(p) + (f" as {r}" if r else "") for p, r in node.items)
            steps.append(f"project {items}")
        elif isinstance(node, Hide):
            walk(node.child)
            steps.append(f"hide {', '.join(str(p) for p in node.paths)}")
        elif isinstance(node, Augment):
            walk(node.child)
            steps.append(f"augment {', '.join(map(format_binding, node.bindings))}")
        elif isinstance(node, Join):
            steps.append("join of:")
            for side in (node.left, node.right):
                for s in _pipeline(side):
                    steps.append(f"  {s}")
            steps.append(f"on {format_predicate(node.pred)}")
        elif isinstance(node, Generalize):
            ops = ", ".join(map(format_operand, node.operands))
            props = ", ".join(str(p) for p in node.props)
            steps.append(f"generalize {props} from {ops}")
        elif isinstance(node, Specialize):
            ops = ", ".join(map(format_operand, node.operands))
            steps.append(f"specialize {ops} on {format_predicate(node.pred)}")

    walk(expr)
    return steps


# built once: main only parses, and each parse fills a new namespace
_PARSER = _build_parser()


class _locked:
    """An exclusive lock on <store>.lock preventing concurrent writers on
    one store.

    The kernel holds the lock for the open file and drops it when the
    writer's process ends, however it ends, so a dead writer leaves no
    lock behind. The file is created if missing and never removed, since
    two writers could otherwise lock two files of one name.
    """

    def __init__(self, store_path: str):
        self.path = store_path + ".lock"

    def __enter__(self):
        self.fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            os.close(self.fd)
            if isinstance(exc, BlockingIOError):
                raise StoreLocked(f"store is locked by another writer ({self.path})") from None
            raise
        return self

    def __exit__(self, *exc_info):
        os.close(self.fd)  # which releases the lock
        return False


if __name__ == "__main__":
    sys.exit(main())

"""Global source: schema model, .odl parser, and snapshot ingestion.

The source is described in an ODMG-flavoured object definition language
extended with compositions. Snapshots are point-in-time extractions of
the whole source, read from line-delimited records; ingestion re-checks
typing, referential integrity, inverse consistency, and composition
exclusivity, so everything downstream can trust a Snapshot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from .errors import (
    CompositionViolation,
    DanglingReference,
    DuplicateId,
    InverseMismatch,
    InverseViolation,
    TypeMismatch,
    UnknownInterface,
)
from .lexer import TokenStream, tokenize
from .temporal import Instant

_SCALAR_KINDS = ("string", "short", "long", "double", "date", "image-ref")

TYPE_KEYWORDS = {
    "String": "string",
    "Short": "short",
    "Long": "long",
    "Double": "double",
    "Date": "date",
    "Image": "image-ref",
}
_KEYWORD_BY_KIND = {v: k for k, v in TYPE_KEYWORDS.items()}


@dataclass(frozen=True)
class SourceType:
    """Semantic type of a property value."""

    kind: str  # one of _SCALAR_KINDS, "struct", "set"
    struct_name: str | None = None
    fields: tuple[tuple[str, "SourceType"], ...] = ()
    element: "SourceType | None" = None

    def __str__(self) -> str:
        if self.kind == "set":
            return f"Set<{self.element}>"
        if self.kind == "struct":
            inner = ", ".join(f"{t} {n}" for n, t in self.fields)
            return f"Struct {self.struct_name} {{ {inner} }}"
        return _KEYWORD_BY_KIND[self.kind]


def scalar(kind: str) -> SourceType:
    return SourceType(kind)


def set_of(element: SourceType) -> SourceType:
    return SourceType("set", element=element)


@dataclass(frozen=True)
class Relationship:
    name: str
    target: str
    cardinality: str  # "one" | "many"
    inverse: str | None = None  # relationship name on the target
    composition: bool = False
    line: int = field(default=0, compare=False)  # declaration position


@dataclass
class SourceInterface:
    name: str
    supers: tuple[str, ...] = ()
    attributes: list[tuple[str, SourceType]] = field(default_factory=list)
    relationships: list[Relationship] = field(default_factory=list)
    operations: list[str] = field(default_factory=list)  # names only, never evaluated
    line: int = field(default=0, compare=False)


@dataclass
class SourceSchema:
    interfaces: dict[str, SourceInterface] = field(default_factory=dict)

    def flattened(self, name: str) -> list[tuple[str, Any, str]]:
        """Own plus inherited properties of an interface, supers first.

        Yields (property name, SourceType or Relationship, owner interface).
        """
        iface = self._get(name)
        out: list[tuple[str, Any, str]] = []
        seen: set[str] = set()
        for sup in iface.supers:
            for item in self.flattened(sup):
                if item[0] not in seen:
                    seen.add(item[0])
                    out.append(item)
        for n, t in iface.attributes:
            if n not in seen:
                seen.add(n)
                out.append((n, t, name))
        for rel in iface.relationships:
            if rel.name not in seen:
                seen.add(rel.name)
                out.append((rel.name, rel, name))
        return out

    def subtypes(self, name: str) -> set[str]:
        """name plus every interface that transitively extends it."""
        self._get(name)
        out = {name}
        changed = True
        while changed:
            changed = False
            for iface in self.interfaces.values():
                if iface.name not in out and any(s in out for s in iface.supers):
                    out.add(iface.name)
                    changed = True
        return out

    def find_property(self, iface: str, prop: str):
        for n, t, owner in self.flattened(iface):
            if n == prop:
                return t
        return None

    def _get(self, name: str) -> SourceInterface:
        try:
            return self.interfaces[name]
        except KeyError:
            raise UnknownInterface(f"unknown source interface {name!r}") from None


# ---------------------------------------------------------------------------
# .odl parsing


def parse_source_schema(text: str) -> SourceSchema:
    """Parse an .odl text and run all schema-level consistency checks."""
    ts = TokenStream(tokenize(text))
    schema = SourceSchema()
    while not ts.at("eof"):
        iface = _parse_interface(ts)
        if iface.name in schema.interfaces:
            raise DuplicateId(f"interface {iface.name!r} declared twice")
        schema.interfaces[iface.name] = iface
    _check_schema(schema)
    return schema


def _parse_interface(ts: TokenStream) -> SourceInterface:
    head = ts.expect("ident", "interface")
    name = ts.expect("ident").value
    supers: tuple[str, ...] = ()
    if ts.accept("punct", "("):
        ts.expect("ident", "extend")
        names = [ts.expect("ident").value]
        while ts.accept("punct", ","):
            names.append(ts.expect("ident").value)
        ts.expect("punct", ")")
        supers = tuple(names)
    ts.expect("punct", "{")
    iface = SourceInterface(name, supers, line=head.line)
    while not ts.accept("punct", "}"):
        _parse_member(ts, iface)
    return iface


def _parse_member(ts: TokenStream, iface: SourceInterface) -> None:
    tok = ts.peek()
    if tok.value == "attribute":
        ts.next()
        typ = _parse_type(ts)
        prop = ts.expect("ident").value
        ts.expect("punct", ";")
        iface.attributes.append((prop, typ))
    elif tok.value in ("relationship", "composition"):
        ts.next()
        composition = tok.value == "composition"
        iface_rel = _parse_relationship(ts, composition)
        if iface_rel is None:
            return  # Set<Image> link degrades to an attribute
        kind, payload = iface_rel
        if kind == "attr":
            iface.attributes.append(payload)
        else:
            iface.relationships.append(payload)
    elif tok.kind == "ident":
        # operation: TYPE name();
        _parse_type(ts)
        opname = ts.expect("ident").value
        ts.expect("punct", "(")
        ts.expect("punct", ")")
        ts.expect("punct", ";")
        iface.operations.append(opname)
    else:
        raise ts.error("an interface member")


def _parse_relationship(ts: TokenStream, composition: bool):
    cardinality = "one"
    if ts.accept("ident", "Set"):
        cardinality = "many"
    ts.expect("punct", "<")
    target_tok = ts.expect("ident")
    target = target_tok.value
    ts.expect("punct", ">")
    prop = ts.expect("ident").value
    inverse = None
    if ts.accept("ident", "inverse"):
        inv_iface = ts.expect("ident").value
        ts.expect("punct", "::")
        inverse = ts.expect("ident").value
        if inv_iface != target:
            raise InverseMismatch(
                f"line {target_tok.line}: {prop!r} declares inverse on {inv_iface!r} "
                f"but targets {target!r}"
            )
    ts.expect("punct", ";")
    # Media links are stored as opaque reference strings, not objects.
    if target == "Image":
        typ = set_of(scalar("image-ref")) if cardinality == "many" else scalar("image-ref")
        return ("attr", (prop, typ))
    return ("rel", Relationship(prop, target, cardinality, inverse, composition, target_tok.line))


def _parse_type(ts: TokenStream) -> SourceType:
    tok = ts.expect("ident")
    if tok.value == "Set":
        ts.expect("punct", "<")
        elem = _parse_type(ts)
        ts.expect("punct", ">")
        return set_of(elem)
    if tok.value == "Struct":
        struct_name = ts.expect("ident").value
        ts.expect("punct", "{")
        fields: list[tuple[str, SourceType]] = []
        while True:
            ftype = _parse_type(ts)
            fname = ts.expect("ident").value
            if any(n == fname for n, _ in fields):
                raise DuplicateId(f"struct field {fname!r} declared twice")
            fields.append((fname, ftype))
            if not ts.accept("punct", ","):
                break
        ts.expect("punct", "}")
        return SourceType("struct", struct_name, tuple(fields))
    if tok.value in TYPE_KEYWORDS:
        return scalar(TYPE_KEYWORDS[tok.value])
    from .errors import ParseError

    raise ParseError(tok.line, tok.col, f"a type name (found {tok.value!r})")


# The warehouse definition language reuses the same type grammar.
parse_type = _parse_type


def _check_schema(schema: SourceSchema) -> None:
    for iface in schema.interfaces.values():
        for sup in iface.supers:
            if sup not in schema.interfaces:
                raise UnknownInterface(
                    f"line {iface.line}: {iface.name!r} extends unknown {sup!r}"
                )
        for rel in iface.relationships:
            if rel.target not in schema.interfaces:
                raise UnknownInterface(
                    f"line {rel.line}: {iface.name}.{rel.name} targets unknown {rel.target!r}"
                )
            if rel.inverse is not None:
                back = next(
                    (r for r in schema.interfaces[rel.target].relationships if r.name == rel.inverse),
                    None,
                )
                if back is None or back.target != iface.name or back.inverse != rel.name:
                    raise InverseMismatch(
                        f"line {rel.line}: {iface.name}.{rel.name} declares inverse "
                        f"{rel.target}::{rel.inverse}, which is missing or does not point back"
                    )
        # inherited-included name uniqueness
        names = [n for n, _, _ in schema.flattened(iface.name)]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise DuplicateId(f"{iface.name!r} has duplicate properties {sorted(dupes)}")
    # cycle check via flattened() recursion depth
    for name in schema.interfaces:
        seen: set[str] = set()

        def walk(n: str):
            if n in seen:
                raise UnknownInterface(f"inheritance cycle through {n!r}")
            seen.add(n)
            for s in schema.interfaces[n].supers:
                walk(s)
            seen.discard(n)

        walk(name)


def print_source_schema(schema: SourceSchema) -> str:
    """Canonical .odl text; parse(print(parse(x))) is a fixpoint."""
    blocks = []
    for iface in schema.interfaces.values():
        head = f"interface {iface.name}"
        if iface.supers:
            head += " (extend " + ", ".join(iface.supers) + ")"
        lines = [head + " {"]
        for n, t in iface.attributes:
            lines.append(f"    attribute {t} {n};")
        for r in iface.relationships:
            kw = "composition" if r.composition else "relationship"
            card = f"Set<{r.target}>" if r.cardinality == "many" else f"<{r.target}>"
            inv = f" inverse {r.target}::{r.inverse}" if r.inverse else ""
            lines.append(f"    {kw} {card} {r.name}{inv};")
        for op in iface.operations:
            lines.append(f"    String {op}();")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# snapshots


@dataclass(frozen=True)
class SourceRecord:
    interface: str
    id: str
    values: dict[str, Any]
    links: dict[str, tuple[str, ...]]

    @property
    def key(self) -> tuple[str, str]:
        return (self.interface, self.id)


@dataclass(frozen=True)
class Snapshot:
    at: Instant
    records: dict[tuple[str, str], SourceRecord]

    def of_interface(self, schema: SourceSchema, name: str) -> list[SourceRecord]:
        """Records whose interface is name or a transitive subtype of it."""
        wanted = schema.subtypes(name)
        out = [r for r in self.records.values() if r.interface in wanted]
        out.sort(key=lambda r: (r.interface, r.id))
        return out


def ingest_snapshot(schema: SourceSchema, lines: Iterable[str], at: Instant) -> Snapshot:
    """Build a validated Snapshot from line-delimited record documents.

    Each non-blank line holds one record:
    {"interface": ..., "id": ..., "values": {...}, "links": {"rel": ["id", ...]}}
    """
    records: dict[tuple[str, str], SourceRecord] = {}
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TypeMismatch(f"record line {lineno}: not a valid document ({exc})") from None
        rec = _typed_record(schema, doc, lineno)
        if rec.key in records:
            raise DuplicateId(f"record line {lineno}: duplicate id {rec.key}")
        records[rec.key] = rec
    snap = Snapshot(at, records)
    _check_snapshot(schema, snap)
    return snap


def _typed_record(schema: SourceSchema, doc: Any, lineno: int) -> SourceRecord:
    if not isinstance(doc, dict) or "interface" not in doc or "id" not in doc:
        raise TypeMismatch(f"record line {lineno}: missing interface/id")
    iface_name = doc["interface"]
    if iface_name not in schema.interfaces:
        raise UnknownInterface(f"record line {lineno}: unknown interface {iface_name!r}")
    flat = schema.flattened(iface_name)
    attrs = {n: t for n, t, _ in flat if isinstance(t, SourceType)}
    rels = {n: t for n, t, _ in flat if isinstance(t, Relationship)}

    values: dict[str, Any] = {}
    for name, value in sorted((doc.get("values") or {}).items()):
        if name not in attrs:
            raise TypeMismatch(f"record line {lineno}: {iface_name!r} has no attribute {name!r}")
        values[name] = coerce(attrs[name], value, f"{iface_name}.{name}")
    for name in attrs:
        if name not in values:
            raise TypeMismatch(f"record line {lineno}: missing value for {iface_name}.{name}")

    links: dict[str, tuple[str, ...]] = {}
    for name, ids in sorted((doc.get("links") or {}).items()):
        if name not in rels:
            raise TypeMismatch(f"record line {lineno}: {iface_name!r} has no relationship {name!r}")
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise TypeMismatch(f"record line {lineno}: links for {name!r} must be a list of ids")
        rel = rels[name]
        if rel.cardinality == "one" and len(ids) > 1:
            raise TypeMismatch(f"record line {lineno}: {name!r} links more than one target")
        links[name] = tuple(sorted(set(ids)))
    for name in rels:
        links.setdefault(name, ())
    return SourceRecord(iface_name, str(doc["id"]), values, links)


def coerce(typ: SourceType, value: Any, where: str) -> Any:
    """value checked against typ and put in canonical form; where names the
    slot in a TypeMismatch."""
    if typ.kind in ("short", "long"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatch(f"{where}: expected an integer, got {value!r}")
        return value
    if typ.kind == "double":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatch(f"{where}: expected a number, got {value!r}")
        return float(value)
    if typ.kind in ("string", "date", "image-ref"):
        if not isinstance(value, str):
            raise TypeMismatch(f"{where}: expected a string, got {value!r}")
        return value
    if typ.kind == "struct":
        if not isinstance(value, dict):
            raise TypeMismatch(f"{where}: expected a struct value, got {value!r}")
        known = dict(typ.fields)
        out = {}
        for fname, fval in value.items():
            if fname not in known:
                raise TypeMismatch(f"{where}.{fname}: unknown struct field")
            out[fname] = coerce(known[fname], fval, f"{where}.{fname}")
        for fname in known:
            if fname not in out:
                raise TypeMismatch(f"{where}.{fname}: missing struct field")
        return dict(sorted(out.items()))
    if typ.kind == "set":
        if not isinstance(value, list):
            raise TypeMismatch(f"{where}: expected a set (list), got {value!r}")
        items = [coerce(typ.element, v, where + "[]") for v in value]
        try:
            return sorted(set(items))
        except TypeError:
            return sorted(items, key=json.dumps)
    raise TypeMismatch(f"{where}: unsupported type {typ.kind!r}")


def _check_snapshot(schema: SourceSchema, snap: Snapshot) -> None:
    by_id: dict[str, dict[str, SourceRecord]] = {}
    for rec in snap.records.values():
        by_id.setdefault(rec.interface, {})[rec.id] = rec

    def resolve(target: str, rid: str) -> SourceRecord | None:
        for sub in schema.subtypes(target):
            rec = by_id.get(sub, {}).get(rid)
            if rec is not None:
                return rec
        return None

    composed_by: dict[tuple[str, str], tuple[str, str]] = {}
    for rec in snap.records.values():
        for name, t, _ in schema.flattened(rec.interface):
            if not isinstance(t, Relationship):
                continue
            for rid in rec.links.get(name, ()):
                target = resolve(t.target, rid)
                if target is None:
                    raise DanglingReference(
                        f"{rec.interface}:{rec.id} links {name} to missing {t.target}:{rid}"
                    )
                if t.composition:
                    prior = composed_by.get(target.key)
                    if prior is not None and prior != rec.key:
                        raise CompositionViolation(
                            f"{target.interface}:{target.id} is a component of both "
                            f"{prior} and {rec.key}"
                        )
                    composed_by[target.key] = rec.key
                if t.inverse is not None:
                    if rec.id not in target.links.get(t.inverse, ()):
                        raise InverseViolation(
                            f"{rec.interface}:{rec.id}.{name} links {rid} but "
                            f"{target.interface}:{rid}.{t.inverse} does not point back"
                        )


def snapshot_to_lines(snap: Snapshot) -> list[str]:
    """Canonical line-delimited form, keys sorted, records ordered by key."""
    lines = []
    for key in sorted(snap.records):
        rec = snap.records[key]
        doc = {
            "id": rec.id,
            "interface": rec.interface,
            "links": {k: list(v) for k, v in sorted(rec.links.items())},
            "values": rec.values,
        }
        lines.append(json.dumps(doc, ensure_ascii=False, sort_keys=True))
    return lines

"""Global source: schema model, .odl parser, and snapshot ingestion.

The source is described in an ODMG-flavoured object definition language
extended with compositions. Snapshots are point-in-time extractions of
the whole source, read from line-delimited records; ingestion re-checks
typing, referential integrity, inverse consistency, and composition
exclusivity, so everything downstream can trust a Snapshot. Its
records, kept in (interface, id) key order, are the one index that the
link checks look targets up in and extraction reads in order.

``lineage`` is the one inheritance walk, which the warehouse model's
class hierarchy follows too: a name and everything it transitively
extends, each after its supers, with a cycle named by its path.

``parse_source_schema`` runs the schema checks and then derives, once
per interface, the tables that ingestion and the extraction mappings
read (``InterfaceTables``): the flattened property list, the attribute
types and the relationships by name, and the subtype closure in sorted
order. Each type builds its checker once, on first use: a closure that
checks a value and puts it in canonical form, a struct's over its field
checkers and a set's over its element checker. Ingestion and ``coerce``,
which checks a patched value, call that one checker, so ingested and
patched values keep one set of type rules. So ingesting a record costs a
few lookups and one call per value, and a value's slot label is
formatted only when the value is rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable

from .errors import (
    CompositionViolation,
    DanglingReference,
    DuplicateId,
    InheritanceCycle,
    InverseMismatch,
    InverseViolation,
    ParseError,
    TypeMismatch,
    UnknownInterface,
)
from .lexer import TokenStream, tokenize
from .temporal import Instant

TYPE_KEYWORDS = {
    "String": "string",
    "Short": "short",
    "Long": "long",
    "Double": "double",
    "Date": "date",
    "Image": "image-ref",
}
_KEYWORD_BY_KIND = {v: k for k, v in TYPE_KEYWORDS.items()}
NUMERIC_KINDS = ("short", "long", "double")


@dataclass(frozen=True)
class SourceType:
    """Semantic type of a property value."""

    kind: str  # a scalar kind (a TYPE_KEYWORDS value), "struct" or "set"
    struct_name: str | None = None
    fields: tuple[tuple[str, "SourceType"], ...] = ()
    element: "SourceType | None" = None

    @cached_property
    def field_types(self) -> dict[str, "SourceType"]:
        """A struct's field types by name, in sorted name order."""
        return dict(sorted(self.fields))

    @cached_property
    def check(self) -> Callable[[Any], Any]:
        """This type's checker: it returns a value in canonical form, or
        raises _Misfit if the value does not fit."""
        return _checker(self)

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


@dataclass(frozen=True)
class InterfaceTables:
    """What ingestion and extraction read of one interface, derived once
    by parse_source_schema."""

    # own plus inherited properties, supers first:
    # (property name, SourceType or Relationship, owner interface)
    flat: tuple[tuple[str, Any, str], ...]
    attributes: dict[str, SourceType]  # attribute types by name, in flattened order
    relationships: dict[str, Relationship]  # relationships by name, in flattened order
    subtypes: tuple[str, ...]  # the interface and all that extend it, sorted


@dataclass
class SourceSchema:
    interfaces: dict[str, SourceInterface] = field(default_factory=dict)
    tables: dict[str, InterfaceTables] = field(default_factory=dict, compare=False, repr=False)

    def table(self, name: str) -> InterfaceTables:
        """The derived tables of interface name."""
        try:
            return self.tables[name]
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
    schema.tables = _derive_tables(schema, _check_schema(schema))
    return schema


def lineage(name: str, supers_of: Callable[[str], Iterable[str]]) -> tuple[str, ...]:
    """name and every name it transitively extends, supers_of giving each
    name's declared supers. Each comes once, after its own supers, with
    supers in declared order, so name comes last; a name already placed
    is not walked again. A name met again on its own path raises
    InheritanceCycle naming the path, as "A -> B -> A"."""
    placed: dict[str, None] = {}

    def walk(n: str, path: tuple[str, ...]) -> None:
        if n in path:
            raise InheritanceCycle(" -> ".join((*path, n)))
        if n not in placed:
            for sup in supers_of(n):
                walk(sup, (*path, n))
            placed[n] = None

    walk(name, ())
    return tuple(placed)


def _derive_tables(
    schema: SourceSchema, lineages: dict[str, tuple[str, ...]]
) -> dict[str, InterfaceTables]:
    tables = {}
    for name in schema.interfaces:
        # each property name is declared once along the lineage, where a
        # super reached twice through a diamond is one declaration
        props: dict[str, tuple[str, Any, str]] = {}
        dupes = set()
        for owner in lineages[name]:
            iface = schema.interfaces[owner]
            for n, t in [*iface.attributes, *((r.name, r) for r in iface.relationships)]:
                if n in props:
                    dupes.add(n)
                props[n] = (n, t, owner)
        if dupes:
            raise DuplicateId(f"{name!r} has duplicate properties {sorted(dupes)}")
        flat = tuple(props.values())
        tables[name] = InterfaceTables(
            flat,
            {n: t for n, t, _ in flat if isinstance(t, SourceType)},
            {n: t for n, t, _ in flat if isinstance(t, Relationship)},
            tuple(sorted(sub for sub in schema.interfaces if name in lineages[sub])),
        )
    return tables


def _parse_interface(ts: TokenStream) -> SourceInterface:
    name, supers, line = parse_class_head(ts)
    iface = SourceInterface(name, supers, line=line)
    while not ts.accept("punct", "}"):
        _parse_member(ts, iface)
    return iface


def _parse_member(ts: TokenStream, iface: SourceInterface) -> None:
    tok = ts.peek()
    if tok.value == "attribute":
        ts.next()
        typ = parse_type(ts)
        prop = ts.expect("ident").value
        ts.expect("punct", ";")
        iface.attributes.append((prop, typ))
    elif tok.value in ("relationship", "composition"):
        ts.next()
        rel = parse_relationship(ts, tok.value == "composition")
        if rel.target == "Image":
            # Media links are stored as opaque reference strings, not objects.
            typ = scalar("image-ref")
            iface.attributes.append((rel.name, set_of(typ) if rel.cardinality == "many" else typ))
        else:
            iface.relationships.append(rel)
    elif tok.kind == "ident":
        # operation: TYPE name();
        parse_type(ts)
        opname = ts.expect("ident").value
        ts.expect("punct", "(")
        ts.expect("punct", ")")
        ts.expect("punct", ";")
        iface.operations.append(opname)
    else:
        raise ts.error("an interface member")


# The warehouse definition language reuses the class head, the relation
# and the type grammar below, the inverse rule, and the two printers
# their spelling.


def parse_class_head(ts: TokenStream) -> tuple[str, tuple[str, ...], int]:
    """interface NAME [(extend NAME {, NAME})] {: the name, the supers and
    the line of the head."""
    head = ts.expect("ident", "interface")
    name = ts.expect("ident").value
    supers: tuple[str, ...] = ()
    if ts.accept("punct", "("):
        ts.expect("ident", "extend")
        supers = tuple(ts.idents())
        ts.expect("punct", ")")
    ts.expect("punct", "{")
    return name, supers, head.line


def parse_relationship(ts: TokenStream, composition: bool = False) -> Relationship:
    """[Set]<TARGET> NAME [inverse TARGET::NAME];"""
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
    return Relationship(prop, target, cardinality, inverse, composition, target_tok.line)


def parse_type(ts: TokenStream) -> SourceType:
    tok = ts.expect("ident")
    if tok.value == "Set":
        ts.expect("punct", "<")
        elem = parse_type(ts)
        ts.expect("punct", ">")
        return set_of(elem)
    if tok.value == "Struct":
        struct_name = ts.expect("ident").value
        ts.expect("punct", "{")
        fields: list[tuple[str, SourceType]] = []
        while True:
            ftype = parse_type(ts)
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
    raise ParseError(tok.line, tok.col, f"a type name (found {tok.value!r})")


def check_inverse(owner: str, rel: Any, declared: Iterable[Any], prefix: str = "") -> None:
    """Raise InverseMismatch, its message led by prefix, unless the
    inverse that owner's relation rel declares is among declared, the
    target's own properties, and points back at owner's rel. rel and
    each of declared is a Relationship, or anything with its name,
    target and inverse."""
    back = next((d for d in declared if d.name == rel.inverse), None)
    if back is None or back.target != owner or back.inverse != rel.name:
        raise InverseMismatch(
            f"{prefix}{owner}.{rel.name} declares inverse {rel.target}::{rel.inverse}, "
            "which is missing or does not point back"
        )


def format_class_head(name: str, supers: tuple[str, ...]) -> str:
    head = f"interface {name}"
    if supers:
        head += " (extend " + ", ".join(supers) + ")"
    return head + " {"


def format_relationship(rel: Any) -> str:
    """A Relationship, or anything with its target, cardinality, name and
    inverse, as parse_relationship reads it."""
    card = f"Set<{rel.target}>" if rel.cardinality == "many" else f"<{rel.target}>"
    inv = f" inverse {rel.target}::{rel.inverse}" if rel.inverse else ""
    return f"{card} {rel.name}{inv};"


def _check_schema(schema: SourceSchema) -> dict[str, tuple[str, ...]]:
    """Run the schema checks; return each interface's lineage."""
    for iface in schema.interfaces.values():
        for sup in iface.supers:
            if sup not in schema.interfaces:
                raise UnknownInterface(
                    f"line {iface.line}: {iface.name!r} extends unknown {sup!r}"
                )
    # before any check that follows the supers, as the flattened tables do
    lineages = {
        name: lineage(name, lambda n: schema.interfaces[n].supers) for name in schema.interfaces
    }
    for iface in schema.interfaces.values():
        for rel in iface.relationships:
            if rel.target not in schema.interfaces:
                raise UnknownInterface(
                    f"line {rel.line}: {iface.name}.{rel.name} targets unknown {rel.target!r}"
                )
            if rel.inverse is not None:
                check_inverse(
                    iface.name, rel, schema.interfaces[rel.target].relationships,
                    f"line {rel.line}: ",
                )
    return lineages


def print_source_schema(schema: SourceSchema) -> str:
    """Canonical .odl text; parse(print(parse(x))) is a fixpoint."""
    blocks = []
    for iface in schema.interfaces.values():
        lines = [format_class_head(iface.name, iface.supers)]
        for n, t in iface.attributes:
            lines.append(f"    attribute {t} {n};")
        for r in iface.relationships:
            kw = "composition" if r.composition else "relationship"
            lines.append(f"    {kw} {format_relationship(r)}")
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
    """The source at one instant; records is kept in (interface, id) key
    order, so a hand-built snapshot yields rows and oids as an ingested one."""

    at: Instant
    records: dict[tuple[str, str], SourceRecord]

    def __post_init__(self):
        object.__setattr__(self, "records", dict(sorted(self.records.items())))


def ingest_snapshot(schema: SourceSchema, lines: Iterable[str], at: Instant) -> Snapshot:
    """Build a validated Snapshot from line-delimited record documents.

    Each non-blank line holds one record:
    {"interface": ..., "id": ..., "values": {...}, "links": {"rel": ["id", ...]}}
    """
    tables = schema.tables
    records: dict[tuple[str, str], SourceRecord] = {}
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            doc = _document(raw)
        except ValueError as exc:  # an integer past the conversion limit included
            raise TypeMismatch(f"record line {lineno}: not a valid document ({exc})") from None
        rec = _typed_record(tables, doc, lineno)
        key = rec.key
        if key in records:
            raise DuplicateId(f"record line {lineno}: duplicate id {key}")
        records[key] = rec
    _check_snapshot(tables, records)
    return Snapshot(at, records)


_raw_decode = json.JSONDecoder().raw_decode
_skip_blanks = json.decoder.WHITESPACE.match


def _document(raw: str) -> Any:
    """The one JSON document of a stripped line, raising what
    json.loads(raw) raises, without its per-call dispatch: a line led by
    a byte order mark, and data after the document and its trailing
    blanks, are the errors that raw_decode alone would name otherwise."""
    try:
        doc, end = _raw_decode(raw)
    except json.JSONDecodeError:
        if raw.startswith("\ufeff"):
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", raw, 0
            ) from None
        raise
    if end != len(raw):
        end = _skip_blanks(raw, end).end()
        if end != len(raw):
            raise json.JSONDecodeError("Extra data", raw, end)
    return doc


def _typed_record(tables: dict[str, InterfaceTables], doc: Any, lineno: int) -> SourceRecord:
    if not isinstance(doc, dict) or "interface" not in doc or "id" not in doc:
        raise TypeMismatch(f"record line {lineno}: missing interface/id")
    if not all(map(_is_str, (doc["interface"], doc["id"]))):
        raise TypeMismatch(f"record line {lineno}: interface and id must be strings")
    iface_name = doc["interface"]
    table = tables.get(iface_name)
    if table is None:
        raise UnknownInterface(f"record line {lineno}: unknown interface {iface_name!r}")
    attrs = table.attributes
    rels = table.relationships

    values: dict[str, Any] = {}
    try:
        for name, value in sorted(_member(doc, "values", lineno).items()):
            typ = attrs.get(name)
            if typ is None:
                raise TypeMismatch(
                    f"record line {lineno}: {iface_name!r} has no attribute {name!r}"
                )
            values[name] = typ.check(value)
    except _Misfit as misfit:
        raise TypeMismatch(f"{iface_name}.{name}{misfit.path}: {misfit.reason}") from None
    if len(values) != len(attrs):
        missing = next(n for n in attrs if n not in values)
        raise TypeMismatch(f"record line {lineno}: missing value for {iface_name}.{missing}")

    links: dict[str, tuple[str, ...]] = {}
    for name, ids in sorted(_member(doc, "links", lineno).items()):
        rel = rels.get(name)
        if rel is None:
            raise TypeMismatch(f"record line {lineno}: {iface_name!r} has no relationship {name!r}")
        if not isinstance(ids, list) or not all(map(_is_str, ids)):
            raise TypeMismatch(f"record line {lineno}: links for {name!r} must be a list of ids")
        if rel.cardinality == "one" and len(ids) > 1:
            raise TypeMismatch(f"record line {lineno}: {name!r} links more than one target")
        links[name] = tuple(sorted(set(ids)))
    for name in rels:
        links.setdefault(name, ())
    return SourceRecord(iface_name, doc["id"], values, links)


def _member(doc: dict[str, Any], part: str, lineno: int) -> dict[str, Any]:
    """A record's values or links object; absent or null stands for {}."""
    found = doc.get(part)
    if found is None:
        return {}
    if not isinstance(found, dict):
        raise TypeMismatch(f"record line {lineno}: {part} must be an object")
    return found


_is_str = str.__instancecheck__  # isinstance(x, str), as a one-argument builtin


class _Misfit(Exception):
    """A value that does not fit its type: why, and where below the
    checked slot (".field" and "[]" steps)."""

    def __init__(self, reason: str, path: str = ""):
        self.reason = reason
        self.path = path


def coerce(typ: SourceType, value: Any, owner: str, name: str) -> Any:
    """value checked against typ and put in canonical form. A value that
    does not fit raises TypeMismatch labelled with its slot, owner.name
    and the steps below it, formatted only then."""
    try:
        return typ.check(value)
    except _Misfit as misfit:
        raise TypeMismatch(f"{owner}.{name}{misfit.path}: {misfit.reason}") from None


def _checker(typ: SourceType) -> Callable[[Any], Any]:
    """The closure that SourceType.check holds, its kind decided here once."""
    kind = typ.kind
    if kind in ("string", "date", "image-ref"):

        def check_string(value: Any) -> Any:
            if not isinstance(value, str):
                raise _Misfit(f"expected a string, got {value!r}")
            return value

        return check_string
    if kind in ("short", "long"):

        def check_integer(value: Any) -> Any:
            if isinstance(value, bool) or not isinstance(value, int):
                raise _Misfit(f"expected an integer, got {value!r}")
            return value

        return check_integer
    if kind == "double":

        def check_double(value: Any) -> Any:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _Misfit(f"expected a number, got {value!r}")
            try:
                return float(value)
            except OverflowError:  # an integer beyond every double
                too_large = "expected a number, got an integer too large for a double"
                raise _Misfit(too_large) from None

        return check_double
    if kind == "struct":
        fields = {fname: ftype.check for fname, ftype in typ.field_types.items()}

        def check_struct(value: Any) -> Any:
            if not isinstance(value, dict):
                raise _Misfit(f"expected a struct value, got {value!r}")
            out = {}
            for fname, fval in value.items():
                check = fields.get(fname)
                if check is None:
                    raise _Misfit("unknown struct field", f".{fname}")
                try:
                    out[fname] = check(fval)
                except _Misfit as misfit:
                    misfit.path = f".{fname}{misfit.path}"
                    raise
            if len(out) != len(fields):
                missing = next(f for f, _ in typ.fields if f not in out)
                raise _Misfit("missing struct field", f".{missing}")
            return {f: out[f] for f in fields}

        return check_struct
    if kind == "set":
        check_element = typ.element.check

        def check_set(value: Any) -> Any:
            if not isinstance(value, list):
                raise _Misfit(f"expected a set (list), got {value!r}")
            try:
                items = [check_element(v) for v in value]
            except _Misfit as misfit:
                misfit.path = f"[]{misfit.path}"
                raise
            try:
                return sorted(set(items))
            except TypeError:  # structs or sets, ordered by their JSON text; a member
                items.sort(key=json.dumps)  # equal to the one before, as -0.0 to 0.0, goes
                return [v for i, v in enumerate(items) if i == 0 or v != items[i - 1]]

        return check_set

    def check_unsupported(value: Any) -> Any:
        raise _Misfit(f"unsupported type {kind!r}")

    return check_unsupported


def _check_snapshot(
    tables: dict[str, InterfaceTables], records: dict[tuple[str, str], SourceRecord]
) -> None:
    """Every link names exactly one record among its target's subtypes,
    compositions are exclusive and declared inverses point back, in line order."""
    composed_by: dict[tuple[str, str], tuple[str, str]] = {}
    for rec in records.values():
        for name, rel in tables[rec.interface].relationships.items():
            for rid in rec.links[name]:
                target = None
                for sub in tables[rel.target].subtypes:
                    found = records.get((sub, rid))
                    if found is not None:
                        if target is not None:
                            raise DanglingReference(
                                f"{rec.interface}:{rec.id} links {name} to {rel.target}:{rid}, "
                                f"which names several records: {target.interface}:{rid}, "
                                f"{found.interface}:{rid}"
                            )
                        target = found
                if target is None:
                    raise DanglingReference(
                        f"{rec.interface}:{rec.id} links {name} to missing {rel.target}:{rid}"
                    )
                if rel.composition:
                    prior = composed_by.get(target.key)
                    if prior is not None and prior != rec.key:
                        raise CompositionViolation(
                            f"{target.interface}:{target.id} is a component of both "
                            f"{prior} and {rec.key}"
                        )
                    composed_by[target.key] = rec.key
                if rel.inverse is not None:
                    if rec.id not in target.links.get(rel.inverse, ()):
                        raise InverseViolation(
                            f"{rec.interface}:{rec.id}.{name} links {rid} but "
                            f"{target.interface}:{rid}.{rel.inverse} does not point back"
                        )

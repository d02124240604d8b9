"""Lifecycle engine: initial load, periodic refresh, archival, identity.

The engine owns the store: every warehouse object, the identity index
from (class, key) to oid, one class index holding each class's direct
extension, and the resolved schema. Refreshes are driven by
snapshots taken at extraction points; between two points the warehouse
assumes nothing changed. A refresh diffs each class's mapping result,
each declared property read from the one slot producing it and every
undeclared one ignored, against the stored extension: new keys create
objects, equal values carry the current state forward, changes to
temporal-filter properties push history, other changes overwrite in
place, and vanished keys freeze their object one granule before the
extraction point. An initial load is the first extraction point, and a
patch one for a single object.

An extraction point runs four passes: (1) decide every extraction
result's objects, creating new keys' and freezing vanished ones; (2)
settle every extraction row; (3) evaluate each specialization after the
classes its operands name, reading each operand as the objects of the
class and its subclasses that are no specialization: over one operand,
select members by oid; over several, decide and settle composites, each
keyed by its operand objects; (4) archive. Deciding a result's objects,
then settling its rows, are the same two steps for every class that
owns objects. Every pass reads which classes own objects, and which an
extension spans, from the class lattice that resolve fixes on each
class: its role and its subtree.

Links resolve through the store's source-id index, which maps every
(interface, source id) pair of an extraction object's key to its oids,
so a link costs one lookup per interface it may name, whatever the size
of the target class's extension.

A refresh's writes follow its change set. An active object's current
state ends at the store's now, which every open state reads from the
store's shared Now, so an object carried over a refresh is not
written to at all. A store is single-writer, and refresh() is atomic: it
works on a working copy, which copies the dicts and indexes but shares
every object, and publishes it only on success. The passes call
Store.touch before they change an object, which copies the object into
the working copy on its first change.

A store file (tdw-store-v5) is a header line with the schema texts and
an index of every object's oid, class, status, key and the CRC-32 of
its line, sealed by the header's own CRC-32, then one line per object:
a head document with its current and archive states, an active
object's current state written with its stored end rather than the
last refresh, then each past state as its own document, oldest first,
each after a TAB. A domain is written as its intervals, in the store's
one unit. load_store builds every object from its index entry as a
deferred WarehouseObject, whose state slots stay empty until their first
read decodes the object's line, so a query decodes only the objects it
shows; objects are slotted, since a load builds one for every entry of
the index. Then it reads each specialization in the order a refresh
evaluates them: a membership's header set, checked against its operand,
and each composite's key, checked against its operands' objects.

A first read checks a v5 line's CRC-32 and decodes its head and the
newest past state's domain; the other past states stay deferred, each
holding its document, until a read of its domain or value decodes it.
A refresh reads current values and, of the past, only the oldest
states that retention tests, so it decodes little history.
A line that fails its checksum is decoded whole, so it raises what it
raised before lines had checksums, or the checksum error if it parses.
Older files have no checksums: each line is translated into v5 documents
and decoded whole, so a new layout adds a translator, not a decoder branch.

A past state never changes once pushed, so it is encoded once. A save
writes the line of each object the command left untouched as it was
read, once its CRC-32 has been checked, at the object's first read or
by the save, so no line is written that was not checked first and none
is decoded again. The line of a touched or created object is built
anew from its head, which the save encodes, and its past states'
texts: those read from its line, which the deferred states hold, and
those the save encodes for the states that have none yet. So
historizing or evicting re-encodes no past state.
"""

from __future__ import annotations

import contextlib
import json
import operator
import os
import zlib
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Any, Callable, Iterable

from . import model
from .algebra import ClassBuild, Row, eval_extraction, eval_product, eval_select
from .dsl import (
    class_structure,
    hierarchization_order,
    parse_warehouse_def,
    print_warehouse_def,
    resolve,
)
from .errors import (
    DanglingRelationTarget,
    Error,
    FrozenObject,
    MixedUnits,
    NonMonotonicInstant,
    NotSpecificProperty,
    TypeMismatch,
    UnknownOid,
    UnitMismatch,
)
from .model import (
    ArchiveState,
    Now,
    Oid,
    State,
    WarehouseObject,
    WarehouseSchema,
    effective_filters,
    flatten_type,
)
from .source import (
    Snapshot,
    SourceSchema,
    coerce,
    parse_source_schema,
    print_source_schema,
)
from .temporal import (
    Instant,
    TemporalDomain,
    compare_units,
    convert_count,
    domain,
    domain_union,
    extend_end,
    format_instant,
    parse_instant,
    validate_domain,
)


@dataclass
class ClassCounts:
    created: int = 0
    carried: int = 0
    updated: int = 0
    historized: int = 0
    frozen: int = 0
    archived_evictions: int = 0


@dataclass
class RefreshReport:
    at: Instant
    classes: dict[str, ClassCounts] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "at": format_instant(self.at),
            "classes": {name: asdict(c) for name, c in sorted(self.classes.items())},
            "warnings": list(self.warnings),
        }


@dataclass
class Store:
    """The warehouse: schema, objects and the indexes over them.

    objects is the only place an object lives. Three indexes over it are
    kept by add_object, the only way objects enter a store: identity maps
    (class, key) to its oid; source_index maps each (interface, source
    id) pair of an extraction object's key to the oids whose key holds it,
    so a link is resolved without scanning an extension; and by_class maps
    each class to the oids it owns, and the union over a class's subtree
    is its extension. None of these is stored in a store file; all are
    rebuilt as objects are added, and a load moves the identity entry of
    a composite read from an older key to its new key. A membership owns
    no objects: its by_class entry is the set of its operand's objects
    that each refresh selects and replaces, and the store file's header
    holds it. The schema's classes hold the class lattice, each one's
    role and subtree.

    now, which a store is built with, holds last_refresh and is shared
    with every open current state, so moving it moves them all. shared
    holds the oids of a working copy's objects that its store holds too
    and that touch must copy before they change; each object holds the
    store file line it was read from (WarehouseObject.line).
    """

    source_schema: SourceSchema
    schema: WarehouseSchema
    source_text: str
    warehouse_text: str
    now: Now
    objects: dict[Oid, WarehouseObject] = field(default_factory=dict)
    identity: dict[tuple[str, tuple[tuple[str, Any], ...]], Oid] = field(default_factory=dict)
    source_index: dict[tuple[str, str], tuple[Oid, ...]] = field(default_factory=dict)
    by_class: dict[str, set[Oid]] = field(default_factory=dict)
    oid_counter: int = 0
    shared: set[Oid] = field(default_factory=set, repr=False)

    @property
    def last_refresh(self) -> Instant:
        return self.now.instant

    # -- class categories ---------------------------------------------------

    def membership_classes(self) -> list[str]:
        return [name for name, cls in self.schema.classes.items() if cls.role == "membership"]

    def extension_of(self, class_name: str) -> list[Oid]:
        """Extension including every subclass's members: by_class over the
        class's subtree (a superclass's extension is computed, never stored)."""
        subtree = self.schema.get_class(class_name).subtree
        return sorted(set().union(*(self.by_class.get(name, ()) for name in subtree)))

    def direct_extension(self, class_name: str) -> list[Oid]:
        """The class's own members, subclasses left out."""
        return sorted(self.by_class.get(class_name, ()))

    # -- refresh working copies ---------------------------------------------

    def working_copy(self) -> Store:
        """A store whose dynamic state can change without touching this one.

        Only the dicts and indexes are copied: every object is shared
        until touch copies it. source_index entries are tuples, replaced
        and never changed in place.
        """
        return replace(
            self,
            objects=dict(self.objects),
            identity=dict(self.identity),
            source_index=dict(self.source_index),
            by_class={name: set(oids) for name, oids in self.by_class.items()},
            shared=set(self.objects),
        )

    def touch(self, oid: Oid) -> WarehouseObject:
        """The object at oid, ready to change.

        An object this working copy shares is copied first, so the store it
        is shared with keeps its own. The object's line is dropped, so the
        next save encodes its head anew; its past states read from the line
        hold their texts, which that save writes again, as a past state
        never changes.
        """
        obj = self.objects[oid]
        if oid in self.shared:
            obj = self.objects[oid] = obj.copy()
            self.shared.discard(oid)
        obj.line = None
        return obj

    def publish(self, work: Store, t: Instant) -> None:
        """Adopt a working copy's dynamic state as of extraction point t:
        its objects, the ones it touched included, and its indexes."""
        self.objects = work.objects
        self.identity = work.identity
        self.source_index = work.source_index
        self.by_class = work.by_class
        self.oid_counter = work.oid_counter
        self.now.instant = t

    def fresh_oid(self) -> Oid:
        self.oid_counter += 1
        return self.oid_counter

    def add_object(self, obj: WarehouseObject, extracted: bool) -> None:
        """Insert a new object and index its identity, key and class.

        source_index holds an extracted object's oid once under each pair
        of its key, which names a pair twice when a self-join's sides share
        it: the oid is new, so it is already under a pair only as the entry
        this loop appended last. A composite's key names no record."""
        oid, cname, index = obj.oid, obj.class_name, self.source_index
        self.objects[oid] = obj
        self.identity[(cname, obj.source_key)] = oid
        for pair in obj.source_key if extracted else ():
            held = index.get(pair)
            if held is None:
                index[pair] = (oid,)
            elif held[-1] != oid:
                index[pair] = held + (oid,)
        members = self.by_class.get(cname)
        if members is None:
            members = self.by_class[cname] = set()
        members.add(oid)

    # -- queries -------------------------------------------------------------

    def get_object(self, oid: Oid) -> WarehouseObject:
        try:
            return self.objects[oid]
        except KeyError:
            raise UnknownOid(f"no object with oid {oid}") from None

    def value_at(self, oid: Oid, t: Instant):
        """State holding at t: ("current"|"past", value dict),
        ("archive", aggregates), or None outside the lifecycle."""
        located = model.state_at(self.get_object(oid), t)
        if located is None:
            return None
        kind, payload = located
        if kind == "archive":
            return (kind, payload.aggregates)
        return (kind, payload.value)


# ---------------------------------------------------------------------------
# loading and refreshing


def initial_load(
    src: SourceSchema, wdef: WarehouseSchema, snapshot: Snapshot, t: Instant | None = None
) -> Store:
    """Build a fresh store, in t's unit for life, from the first extraction
    point; the store is built with its now at t, which every state it
    opens shares."""
    t = _instant_of(snapshot, t)
    schema = resolve(wdef, src, strict=True)
    _check_retention_units(schema, t)
    store = Store(src, schema, print_source_schema(src), print_warehouse_def(wdef), Now(t))
    # a store nobody else holds needs no working copy to stay atomic
    _run_extraction_points(store, snapshot, t)
    return store


def refresh(store: Store, snapshot: Snapshot, t: Instant | None = None) -> RefreshReport:
    """Apply one extraction point; atomic on failure."""
    t = _instant_of(snapshot, t)
    if t.unit != store.last_refresh.unit:
        raise UnitMismatch(
            f"refresh unit {t.unit!r} differs from store unit {store.last_refresh.unit!r}"
        )
    if t.tick <= store.last_refresh.tick:
        raise NonMonotonicInstant(
            f"refresh at {format_instant(t)} is not after {format_instant(store.last_refresh)}"
        )
    # older builds made stores without this check
    _check_retention_units(store.schema, t)
    work = store.working_copy()
    report = _run_extraction_points(work, snapshot, t)
    _check_refresh_period(store, t, report)
    store.publish(work, t)
    return report


def _check_retention_units(schema: WarehouseSchema, t: Instant) -> None:
    """Each environment's keep-past duration must convert to t's unit."""
    for name, env in sorted(schema.environments.items()):
        duration = schema.retention_for(env).keep_past_duration
        if duration and compare_units(duration[1], t.unit) == "incomparable":
            raise MixedUnits(
                f"environment {name!r}: retention unit {duration[1]!r} is not "
                f"comparable with {t.unit!r}"
            )


def _instant_of(snapshot: Snapshot, t: Instant | None) -> Instant:
    if t is None:
        return snapshot.at
    if t != snapshot.at:
        raise Error(
            f"snapshot was taken at {format_instant(snapshot.at)}, "
            f"not at {format_instant(t)}"
        )
    return t


def _run_extraction_points(store: Store, snapshot: Snapshot, t: Instant) -> RefreshReport:
    report = RefreshReport(t)
    schema, src = store.schema, store.source_schema
    opened = domain(t.unit, (t.tick, t.tick))  # shared by every state opened at t

    # pass 1: evaluate every extraction mapping and decide its objects, so
    # that pass 2's links know every result's objects, live, new ones too
    builds = {}
    filled: set[Oid] = set()  # new and thawed objects
    for name, cls in schema.classes.items():
        if cls.role != "extraction":
            continue
        build = eval_extraction(cls.mapping, src, snapshot)
        counts = report.classes[name] = ClassCounts()
        builds[name] = build, _allocate(store, name, build.rows, filled, t, opened, counts)
    live = {oid for _build, oids in builds.values() for oid in oids}

    # pass 2: align values, rewrite links, and diff
    for name, (build, oids) in builds.items():
        # each flattened property's slot, None for a specific one the
        # mapping leaves out; resolution let one slot at most produce it
        slot_of = {p.name: i for i, p in enumerate(build.structure)}
        slots = [(p, slot_of.get(p.name)) for p in flatten_type(schema, name)]
        value_of = partial(_aligned_value, store, live, name, build.structure, slots)
        counts = report.classes[name]
        _settle(store, name, zip(oids, build.rows), value_of, filled, t, opened, counts)

    # pass 3: specializations, each after every class its operands name; a
    # membership selects its operand's members by oid, frozen ones included
    for name in hierarchization_order(schema):
        cls = schema.classes[name]
        if cls.role == "generalization":
            continue  # its extension is its subclasses'
        mapping, membership = cls.mapping, cls.role == "membership"
        operands = []
        for op in mapping.operands:
            build = _build_from_objects(store, op.class_name, op.binder, include_frozen=membership)
            if op.where is not None:
                build = eval_select(op.where, build)
            operands.append(build)
        if membership:
            selected = eval_select(mapping.pred, operands[0])
            store.by_class[name] = {row.binders[0][1] for row in selected.rows}
            continue
        result = eval_product(operands, mapping.pred)
        counts = report.classes[name] = ClassCounts()
        oids = _allocate(store, name, result.rows, filled, t, opened, counts)
        # a composite's value is its operands' values as they are, which
        # name exactly its class's flattened type; a later operand wins a
        # name that two share
        value_of = partial(_row_value, result.names())
        _settle(store, name, zip(oids, result.rows), value_of, filled, t, opened, counts)

    # pass 4: archival per environment
    for env_name in sorted(schema.environments):
        evictions = apply_archival_state(store, schema.environments[env_name], t)
        for cname, n in evictions.items():
            report.classes.setdefault(cname, ClassCounts()).archived_evictions += n
    return report


def _allocate(
    store: Store,
    class_name: str,
    rows: list,
    filled: set[Oid],
    t: Instant,
    opened: TemporalDomain,
    counts: ClassCounts,
) -> list[Oid]:
    """Decide the class's objects for its result rows at t: return each
    row's oid, creating an empty object for each key the class does not
    know yet, thawing the frozen object of each key that returns, and
    freezing every active object of the class outside the result. New
    and thawed oids are added to filled. A thaw pushes the closed current
    state to the past and opens one at opened, [t, t], that keeps the old
    value until _settle fills it, and counts as historized, so carried +
    updated + historized + frozen = prior size."""
    oids = []
    extracted = store.schema.classes[class_name].role == "extraction"
    for key in (row.key for row in rows):
        oid = store.identity.get((class_name, key))
        if oid is None:
            oid = store.fresh_oid()
            state = State(opened, {}, store.now)
            store.add_object(WarehouseObject(oid, class_name, state, source_key=key), extracted)
            filled.add(oid)
            counts.created += 1
        elif store.objects[oid].status == "frozen":
            obj = store.touch(oid)
            obj.past.append(obj.current)
            obj.current = State(opened, obj.current.value, store.now)
            obj.status = "active"
            filled.add(oid)
            counts.historized += 1
        oids.append(oid)
    result = set(oids)
    for oid in store.by_class.get(class_name, ()):
        obj = store.objects[oid]
        if obj.status == "active" and oid not in result:
            obj = store.touch(oid)
            obj.status = "frozen"
            obj.current = State(_closed_before(obj, t), obj.current.value)
        counts.frozen += obj.status == "frozen"
    return oids


def _settle(
    store: Store,
    class_name: str,
    rows: Iterable[tuple[Oid, Row]],
    value_of: Callable[[tuple[Any, ...], WarehouseObject], dict[str, Any]],
    filled: set[Oid],
    t: Instant,
    opened: TemporalDomain,
    counts: ClassCounts,
) -> None:
    """Bring the objects _allocate decided in line with their rows.

    rows pairs each oid with its row; value_of(row values, obj) is the
    value for obj, whose current value is the old one. An object in filled
    takes its row's value; every other object diffs against it."""
    tempo, _archi = effective_filters(store.schema, class_name)
    for oid, row in rows:
        obj = store.objects[oid]
        value = value_of(row.values, obj)
        if oid in filled:
            store.touch(oid).current.value = value
        else:
            _diff_object(store, obj, value, tempo, t, opened, counts)


def _diff_object(
    store: Store,
    obj: WarehouseObject,
    value: dict[str, Any],
    tempo: frozenset[str],
    t: Instant,
    opened: TemporalDomain,
    counts: ClassCounts,
) -> None:
    """Diff obj against its value at t: carry it, update its current state
    in place, or, on a change of a property in tempo, push that state to
    the past and open one at opened, the domain [t, t]."""
    old = obj.current.value
    if old == value:
        counts.carried += 1  # its open current state runs on to t by itself
        return
    changed = {name for name in value if value.get(name) != old.get(name)}
    obj = store.touch(obj.oid)
    if changed & tempo:
        # temporal change: the whole old value becomes a past state
        obj.past.append(State(_closed_before(obj, t), old))
        obj.current = State(opened, value, store.now)
        counts.historized += 1
    else:
        # evolutions outside the temporal filter are not worth history
        obj.current.value = value
        counts.updated += 1


def _closed_before(obj: WarehouseObject, t: Instant) -> TemporalDomain:
    """obj's current domain closed at the granule before extraction point
    t, which must follow its end, as it must follow a patch: older builds
    let a patch move one object's end past the store's now."""
    d = obj.current.domain
    end = d.intervals[-1].end
    if end.tick >= t.tick:
        raise NonMonotonicInstant(
            f"refresh at {format_instant(t)} is not after {format_instant(end)}, "
            f"where the current state of object {obj.oid} ends"
        )
    return extend_end(d, t.tick - 1)


def _aligned_value(
    store: Store,
    live: set[Oid],
    class_name: str,
    structure: list[model.PropertyDef],
    slots: list[tuple[model.PropertyDef, int | None]],
    values: tuple[Any, ...],
    obj: WarehouseObject,
) -> dict[str, Any]:
    """Read the declared structure from a mapping row's slots and swap
    source ids for oids in every relation. Specific slots have no source
    origin: the administrator values in obj's current value survive every
    refresh until the next patch, each checked as it is carried, and a new
    object's are what the row gives, if any."""
    old = obj.current.value
    value: dict[str, Any] = {}
    for p, i in slots:
        v = None if i is None else values[i]
        if p.is_relation and i is not None:
            # the slot's own property names the source interface it links to
            source_target = structure[i].target
            wanted = store.source_schema.tables[source_target].subtypes
            oids = [
                _relation_oid(store, live, class_name, p, source_target, wanted, rid)
                for rid in v or ()
            ]
            v = sorted(oids) if p.cardinality == "many" else (oids[0] if oids else None)
        value[p.name] = _checked(obj, p) if p.origin == "specific" and p.name in old else v
    return value


def _row_value(names: list[str], values: tuple[Any, ...], _obj: WarehouseObject) -> dict[str, Any]:
    return dict(zip(names, values))


def _relation_oid(
    store: Store,
    live: set[Oid],
    class_name: str,
    prop: model.PropertyDef,
    source_target: str | None,
    wanted: tuple[str, ...],
    rid: str,
) -> Oid:
    """The target class's object standing for the linked record rid: the
    one whose source key names it in the class's direct extension or,
    when that holds none, owned by an extraction class of its subtree, as
    source_index holds extraction objects only. Of several, as a moved
    service's old and new objects, the one in live, this refresh's
    extraction result, wins; a former member outside live stands in only
    when it is the one object naming rid."""
    candidates = {
        oid for iface in wanted for oid in store.source_index.get((iface, rid), ())
    }
    members = store.by_class.get(prop.target, ())
    hits = [oid for oid in candidates if oid in members]
    if not hits:
        subtree = store.schema.classes[prop.target].subtree
        hits = [oid for oid in candidates if store.objects[oid].class_name in subtree]
    if len(hits) > 1:
        hits = [oid for oid in hits if oid in live] or hits
    if len(hits) != 1:
        raise DanglingRelationTarget(
            f"{class_name}.{prop.name}: source object {source_target}:{rid} has "
            f"{'no' if not hits else 'several'} counterpart(s) in class {prop.target!r}"
        )
    return hits[0]


def _build_from_objects(
    store: Store, class_name: str, binder: str, include_frozen: bool
) -> ClassBuild:
    """A warehouse class extension as an algebra build (current values),
    sharing each value but an empty to-many relation's, as []; its rows
    are the objects of _operand_oids, each keyed by its (class, oid)."""
    structure = class_structure(store.schema, class_name, binder)
    slots = [(p.name, p.is_relation and p.cardinality == "many") for p in structure]
    rows = []
    for oid in _operand_oids(store, class_name):
        obj = store.objects[oid]
        if obj.status != "active":
            if not include_frozen:
                continue
            for prop in structure:
                _checked(obj, prop)
        value = obj.current.value
        values = tuple(value.get(name) or [] if many else value.get(name) for name, many in slots)
        rows.append(Row(((obj.class_name, oid),), values, ((binder, oid),)))
    return ClassBuild(structure, rows)


def _checked(obj: WarehouseObject, prop: model.PropertyDef) -> Any:
    """obj's stored value of prop, one that no refresh derives again (a
    frozen object's, or a carried specific one), as it is stored. Raise
    TypeMismatch unless it fits its slot: an attribute its source type, a
    relation null, an oid or a list of oids, as its cardinality says."""
    owner = f"oid {obj.oid}: {obj.class_name}"
    value = obj.current.value.get(prop.name)
    if value is not None and not prop.is_relation:
        coerce(prop.value_type, value, owner, prop.name)
    elif value is not None:
        many = prop.cardinality == "many"
        oids = value if many else [value]
        if not (isinstance(oids, list) and all(type(oid) is int for oid in oids)):
            expected = "null or a list of oids" if many else "null or an oid"
            raise TypeMismatch(f"{owner}.{prop.name}: expected {expected}, got {value!r}")
    return value


def _operand_oids(store: Store, class_name: str) -> list[Oid]:
    """The oids a specialization over class_name reads: the objects of the
    class and of its subclasses that are no specialization, so that a
    specialization reads its operand alike whatever the declaration
    order. Only the class index is read."""
    classes = store.schema.classes
    readers = [n for n in classes[class_name].subtree if classes[n].role == "extraction"]
    return sorted(set().union(*(store.by_class.get(n, ()) for n in (class_name, *readers))))


def _check_refresh_period(store: Store, t: Instant, report: RefreshReport) -> None:
    for env_name, env in sorted(store.schema.environments.items()):
        period = store.schema.retention_for(env).refresh_period
        if period is None:
            continue
        try:
            expected = convert_count(*period, t.unit)
        except MixedUnits:
            report.warnings.append(
                f"environment {env_name!r}: refresh period unit {period[1]!r} is not "
                f"comparable with {t.unit!r}"
            )
            continue
        actual = t.tick - store.last_refresh.tick
        if actual != expected:
            report.warnings.append(
                f"environment {env_name!r}: declared refresh period is {expected} "
                f"{t.unit}(s) but {actual} elapsed"
            )


# ---------------------------------------------------------------------------
# archival


def apply_archival_state(store: Store, env: model.Environment, t: Instant) -> dict[str, int]:
    """Evict past states beyond the environment's retention bounds,
    folding archived properties into each object's archive state."""
    schema = store.schema
    cfg = schema.retention_for(env)
    evictions: dict[str, int] = {}
    for class_name in env.classes:
        if schema.classes[class_name].role not in ("extraction", "composite"):
            continue  # its members archive under the classes owning them
        _tempo, archi = effective_filters(schema, class_name)
        for oid in store.direct_extension(class_name):
            n = _evictions(store.objects[oid].past, cfg, t)
            if n:
                _archive_object(store.touch(oid), n, archi)
                evictions[class_name] = evictions.get(class_name, 0) + n
    return evictions


def _evictions(past: list[State], cfg: model.RetentionConfig, t: Instant) -> int:
    """How many of the oldest past states lie beyond the retention bounds."""
    n = 0 if cfg.keep_past_count is None else max(0, len(past) - cfg.keep_past_count)
    if cfg.keep_past_duration is not None:
        bound = convert_count(*cfg.keep_past_duration, t.unit)
        while n < len(past) and t.tick - past[n].domain.intervals[-1].end.tick > bound:
            n += 1
    return n


def _archive_object(obj: WarehouseObject, n: int, archi: dict[str, str]) -> None:
    """Evict the n oldest past states, folding them into the archive."""
    for old in obj.past[:n]:
        if archi:
            current = obj.archives[0] if obj.archives else None
            obj.archives = [merge_archive(current, old, archi)]
    del obj.past[:n]


_FOLDS = {"sum": operator.add, "min": min, "max": max}


def merge_archive(
    archive: ArchiveState | None, evicted: State, archi: dict[str, str]
) -> ArchiveState:
    """Fold one evicted state into the cumulative archive.

    avg keeps exact count and sum accumulators; sum adds; min/max fold;
    count counts evictions; last keeps the most recently evicted value.
    Null markers are skipped by the numeric folds.
    """
    # entries are flat, so a copy of each leaves the archive as it was
    aggregates = {p: dict(entry) for p, entry in archive.aggregates.items()} if archive else {}
    for prop in sorted(archi):
        fn = archi[prop]
        value = evicted.value.get(prop)
        entry = aggregates.setdefault(prop, {"function": fn})
        if fn == "count":
            entry["value"] = entry.get("value", 0) + 1
            continue
        if fn == "last":
            entry["value"] = value
            continue
        if value is None:
            entry.setdefault("value", None)
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeMismatch(f"archive {fn}({prop}) cannot fold value {value!r}")
        if fn == "avg":
            entry["count"] = entry.get("count", 0) + 1
            entry["sum"] = entry.get("sum", 0) + value
            entry["value"] = entry["sum"] / entry["count"]
        else:  # sum, min or max over the values folded so far, if any
            prior = entry.get("value")
            entry["value"] = value if prior is None else _FOLDS[fn](prior, value)
    new_domain = (
        domain_union(archive.domain, evicted.domain) if archive else evicted.domain
    )
    return ArchiveState(new_domain, aggregates)


# ---------------------------------------------------------------------------
# administrator patches


def patch_specific(store: Store, oid: Oid, prop_name: str, value: Any, t: Instant) -> None:
    """Set a specific property at t as a refresh at t sets a derived one;
    a patch dated after the last refresh moves the store's now to t."""
    obj = store.get_object(oid)
    if obj.status != "active":
        raise FrozenObject(f"object {oid} is frozen and cannot be patched")
    flat = flatten_type(store.schema, obj.class_name)
    prop = next((p for p in flat if p.name == prop_name), None)
    if prop is None or prop.origin != "specific":
        raise NotSpecificProperty(
            f"{obj.class_name}.{prop_name} is not a specific property"
        )
    if store.schema.classes[obj.class_name].role == "composite":
        # each refresh sets a composite's value again from its operands'
        raise NotSpecificProperty(
            f"{obj.class_name}.{prop_name} mirrors its operands; patch an operand's object"
        )
    if t.unit != obj.current.domain.unit:
        raise UnitMismatch(f"patch unit {t.unit!r} differs from store unit")
    if prop.is_relation:
        value = _patched_relation(store, obj.class_name, prop, value)
    elif value is not None and prop.value_type is not None:
        value = coerce(prop.value_type, value, obj.class_name, prop_name)
    tempo, _archi = effective_filters(store.schema, obj.class_name)
    new_value = dict(obj.current.value)
    new_value[prop_name] = value
    if new_value == obj.current.value:
        return
    if prop_name in tempo and t.tick <= obj.current.domain.intervals[-1].end.tick:
        raise NonMonotonicInstant("a temporal patch must be dated after the current state")
    _diff_object(store, obj, new_value, tempo, t, domain(t.unit, (t.tick, t.tick)), ClassCounts())
    if t.tick > store.last_refresh.tick:
        store.now.instant = t


def _patched_relation(store: Store, owner: str, prop: model.PropertyDef, value: Any) -> Any:
    """A patch's value for a specific relation: null or the oid of an object
    of the target class for a to-one relation, a list of such oids for a
    to-many one, stored sorted without repeats as derived oids are."""
    members = set(store.extension_of(prop.target))
    many = prop.cardinality == "many"
    oids = value if many else [] if value is None else [value]
    if isinstance(oids, list) and all(type(oid) is int and oid in members for oid in oids):
        return sorted(set(oids)) if many else value
    expected = "a list of oids" if many else "null or an oid"
    raise TypeMismatch(
        f"{owner}.{prop.name}: expected {expected} of class {prop.target!r}, got {value!r}"
    )


# ---------------------------------------------------------------------------
# persistence


STORE_FORMAT = "tdw-store-v5"
# the older layouts, read through _older and rewritten whole as v5
V4_FORMAT = "tdw-store-v4"
V3_FORMAT = "tdw-store-v3"
V2_FORMAT = "tdw-store-v2"
V1_FORMAT = "tdw-store-v1"


def dumps_store(store: Store) -> str:
    """Canonical, byte-stable serialization: a header line, then one line
    per object in oid order, in UTF-8 text, each line ending in a newline.
    The header line is the header document, a TAB and the CRC-32 of the
    document's UTF-8 bytes in decimal. The header document holds the
    schema texts, last_refresh, oid_counter, the membership sets and the
    object index [oid, class, status, source key, crc] in oid order, crc
    being the CRC-32 of the object's line as written, its newline
    included. An object's line is its head document {"archives",
    "current"}, archives left out when there are none, then each past
    state's document {"domain", "value"}, oldest first, each after a TAB.
    A domain is its list of [start, end] ticks in the store's unit, the
    unit of last_refresh. Every document is compact JSON with sorted keys,
    which holds no raw TAB, and each state is written with its stored
    domain, so an open current state's line does not change as the last
    refresh moves on.

    An object's line read from a store file is written again as it was,
    unless the object was touched since, once its CRC-32 is checked: at
    its first read, or here for an object never read. So a store loaded
    from a file with a damaged object line raises here instead of being
    written. Any other line is the head, encoded anew, and each past
    state's text, which a state without one gets here."""
    return b"".join(_store_lines(store)).decode("utf-8")


def _store_lines(store: Store) -> list[bytes]:
    """dumps_store's lines in UTF-8, each ending in its newline and each
    encoded once; save_store writes them one by one, so the whole file is
    never built."""
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode
    lines = [b""]  # the header, which follows the index
    index = []
    for oid in sorted(store.objects):
        obj = store.objects[oid]
        line, crc = obj.line, obj.crc
        if line is None:
            head: dict[str, Any] = {"current": _state_dict(obj.current)}
            if obj.archives:
                head["archives"] = [
                    {"aggregates": a.aggregates, "domain": _bounds(a.domain)} for a in obj.archives
                ]
            parts = [encode(head).encode()]
            for state in obj.past:
                if state.text is None:
                    state.text = encode(_state_dict(state)).encode()
                parts.append(state.text)
            line = b"\t".join(parts) + b"\n"
            crc = zlib.crc32(line)
        elif not obj.decoded and zlib.crc32(line) != crc:
            obj.decode()  # raises what the line's first read raises
        lines.append(line)
        # json writes the source key's tuples as lists
        index.append([oid, obj.class_name, obj.status, obj.source_key, crc])
    header = encode(
        {
            "format": STORE_FORMAT,
            "source_schema": store.source_text,
            "warehouse_def": store.warehouse_text,
            "last_refresh": format_instant(store.last_refresh),
            "oid_counter": store.oid_counter,
            "memberships": {
                name: sorted(store.by_class[name])
                for name in store.membership_classes()
                if name in store.by_class
            },
            "objects": index,
        }
    ).encode()
    lines[0] = b"%s\t%d\n" % (header, zlib.crc32(header))
    return lines


def _state_dict(state: State) -> dict[str, Any]:
    return {"domain": _bounds(state.stored), "value": state.value}


def _bounds(d: TemporalDomain) -> list[list[int]]:
    return [[iv.start.tick, iv.end.tick] for iv in d.intervals]


def save_store(store: Store, path: str) -> None:
    """Write the store through a temporary file that replaces path, so a
    failed encoding, write or rename leaves the prior file as it was and
    no temporary file; both are synced, so a crash leaves one of them."""
    lines = _store_lines(store)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(lines)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        folder = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(folder)
        finally:
            os.close(folder)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_store(path: str) -> Store:
    """Read a store file; raise Error if it is not a well-formed store.

    A v5 header must match its CRC-32 before anything but its format is
    read. One loop builds every object of every layout from its index
    entry (a v1 object's oid, class, status and source key) as a deferred
    WarehouseObject, after checking the entry: its oid follows the last,
    its class owns objects (an extraction or a composite), its status is
    active or frozen, and an extraction's key is [interface, string id]
    pairs. A composite enters with its key as its entry holds it, and
    _read_specializations then reads each specialization in the order a
    refresh evaluates them: a membership's header set, and each
    composite's key, an older one split over the keys the index holds.
    A v5, v4, v3 or v2 file's object lines are counted here, and each is
    checked and decoded on its object's first read, raising the same
    malformed-store Error; only a v5 file's are kept, with their CRC-32s,
    for the next save to write again. A v1 file, compact or indented, is
    decoded and checked whole. The oid counter must be an integer no
    lower than the last oid, or a new object would take a held oid.
    """
    # lines end at "\n" alone, the one line break the encoder writes raw
    with open(path, "rb") as fh:
        first = fh.readline()
        doc, tail = _first_document(first)
        fmt = doc.get("format") if isinstance(doc, dict) else None
        if fmt != STORE_FORMAT and tail.strip():
            doc = fmt = None  # only whitespace follows an older header
        lined = fmt in (STORE_FORMAT, V4_FORMAT, V3_FORMAT, V2_FORMAT)
        rest = fh.readlines() if lined else fh.read()
    if not lined and (doc is None or rest.strip()):
        try:  # the indented v1 layout spreads one document over lines
            doc = json.loads((first + rest).decode("utf-8"))
        except ValueError as exc:  # an integer past the conversion limit included
            raise Error(f"{path}: not a valid store document ({exc})") from None
    if not lined and not (isinstance(doc, dict) and doc.get("format") == V1_FORMAT):
        raise Error(
            f"{path}: not a {STORE_FORMAT}, {V4_FORMAT}, {V3_FORMAT}, {V2_FORMAT} "
            f"or {V1_FORMAT} document"
        )
    sealed = fmt == STORE_FORMAT
    try:
        if sealed and tail != b"\t%d\n" % zlib.crc32(first[: len(first) - len(tail)]):
            raise ValueError("the header fails its checksum")
        try:
            store = _store_from_header(doc)
        except Error as exc:  # a stored definition that no longer parses or resolves
            raise _malformed(path, exc) from None
        unit = store.last_refresh.unit
        older = None if sealed else partial(_older, doc["format"], unit, store.last_refresh.tick)
        decoder = _StateDecoder(path, unit, older)
        if lined:
            index = doc["objects"]
            # only a file cut off inside its last line has a line without "\n"
            complete = len(rest) - (bool(rest) and not rest[-1].endswith(b"\n"))
            if len(rest) != len(index) or complete != len(rest):
                raise ValueError(
                    f"the index holds {len(index)} objects"
                    f" but {complete} complete object lines follow"
                )
            entries = zip(index, rest)
        else:
            entries = (
                ([o["oid"], o["class"], o["status"], o["source_key"]], o) for o in doc["objects"]
            )
        classes = store.schema.classes
        extractions = {n for n in classes if classes[n].role == "extraction"}
        owners = extractions.union(n for n in classes if classes[n].role == "composite")
        interfaces = store.source_schema.interfaces
        last, now = 0, store.now
        for entry, line in entries:
            oid, cname, status, key, crc = entry if sealed else (*entry, None)
            # lines pair with index entries by position, which the oid order fixes
            if oid <= last:
                raise ValueError(f"oid {oid} follows oid {last} in the object index")
            last = oid
            extracted = cname in extractions
            if cname not in owners:
                raise ValueError(f"oid {oid} is of class {cname!r}, which owns no objects")
            if status not in ("active", "frozen"):
                raise ValueError(f"oid {oid} has status {status!r}, not active or frozen")
            if sealed and type(crc) is not int:  # a line without one would go unchecked
                raise ValueError(f"oid {oid} has CRC-32 {crc!r}, not an integer")
            key = tuple(map(tuple, key))
            try:
                sound = bool(key)
                for interface, sid in key:
                    sound = sound and interface in interfaces and isinstance(sid, str)
            except ValueError:  # a pair of more or fewer than two items
                sound = False
            if not sound and extracted:
                raise ValueError(f"oid {oid} has a source key other than [interface, id] pairs")
            load = partial(decoder.line, oid, line, now if status == "active" else None, crc)
            obj = WarehouseObject.deferred(
                oid, cname, status, key, load, line if sealed else None, crc
            )
            store.add_object(obj, extracted)
        _read_specializations(store, doc.get("memberships", {}))
        if not lined:
            for obj in store.objects.values():
                obj.decode()
            written = sorted([o["class"], o["source_key"], o["oid"]] for o in doc["objects"])
            if sorted(doc["identity"]) != written:
                raise ValueError("the identity table disagrees with the objects")
        if len(store.identity) != len(store.objects):
            raise ValueError("two objects share one class and source key")
        counter = store.oid_counter
        if type(counter) is not int or counter < last:
            raise ValueError(f"oid_counter {counter!r} is not an integer at least the largest oid")
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(path, exc) from None
    return store


def _first_document(first: bytes) -> tuple[Any, bytes]:
    """The JSON document that a store file's first line begins with, or
    None where it holds no whole one, and the bytes after it."""
    try:
        text = first.decode("utf-8")
        doc, end = _raw_decode(text, json.decoder.WHITESPACE.match(text).end())
    except ValueError:  # an integer past the conversion limit included
        return None, b""
    return doc, text[end:].encode("utf-8")


def _operand_classes(classes: dict[str, model.WarehouseClass], name: str) -> set[str]:
    """The classes of the objects that _operand_oids(name) may hold: the
    class's own if it owns objects, its extraction subclasses', and a
    membership's operand's."""
    cls = classes[name]
    read = {n for n in cls.subtree if classes[n].role == "extraction"}
    if cls.role == "composite":
        read.add(name)
    elif cls.role == "membership":
        read |= _operand_classes(classes, cls.mapping.operands[0].class_name)
    return read


def _read_specializations(store: Store, memberships: Any) -> None:
    """Read a loaded store's specializations in the order a refresh
    evaluates them, each against operands already read. A header's
    membership set must name a single-operand specialization of the
    schema and hold only oids that a refresh could select from its
    operand. A composite's key is read by _composite_key and indexed
    anew where it differs from the one its entry holds."""
    if not isinstance(memberships, dict):
        raise TypeError(f"memberships is a {type(memberships).__name__}, not an object")
    names = store.membership_classes()
    unknown = [name for name in memberships if name not in names]
    if unknown:
        raise ValueError(f"membership {unknown[0]!r} is not a single-operand specialization")
    classes = store.schema.classes
    written: dict[tuple[str, tuple], list[Oid]] = {}
    for name in hierarchization_order(store.schema):
        cls = classes[name]
        if cls.role == "composite":
            operands = [_operand_classes(classes, op.class_name) for op in cls.mapping.operands]
            for oid in sorted(store.by_class.get(name, ())):
                obj = store.objects[oid]
                key = _composite_key(store, written, oid, operands)
                if key is not obj.source_key:  # two older keys may coincide
                    store.identity.pop((name, obj.source_key), None)
                    obj.source_key = key
                    store.identity[(name, key)] = oid
            continue
        if name not in memberships:
            continue
        members = set(memberships[name])
        missing = members - store.objects.keys()
        if missing:
            raise ValueError(f"membership {name!r} holds oid {min(missing)}, which no object has")
        operand = cls.mapping.operands[0].class_name
        foreign = members.difference(_operand_oids(store, operand))
        if foreign:
            raise ValueError(
                f"membership {name!r} holds oid {min(foreign)}, which {operand!r} cannot select"
            )
        store.by_class[name] = members


def _composite_key(store: Store, written: dict, oid: Oid, operands: list[set[str]]) -> tuple:
    """Composite oid's key, read from the one its index entry holds.

    A key holds one [class, oid] pair per operand, in order, each naming
    an object of the index, of that class, which the operand reads. Older
    builds keyed a composite by its operands' keys one after the other.
    Such a key, any key not of [class, oid] pairs, is split among the
    objects its operands read, each standing for its key as its entry
    holds it, so one through a composite keyed by [class, oid] pairs
    splits no way. written maps (class, key as written) to oids, built at
    the first older key, before which no key is read anew. A key splits
    more than one way where a record has an object in two classes an
    operand reads, as a surgeon who moved between two subclasses, and
    then reads as the objects an older build read last: those of the
    split with the most active objects, then the highest oids. An older
    build read active operand objects only, and a newer object of a
    record replaces a frozen one."""
    objects = store.objects
    key = objects[oid].source_key
    if key and all(len(ref) == 2 and type(ref[1]) is int for ref in key):
        if len(key) != len(operands):
            raise ValueError(f"oid {oid} names {len(key)} objects for {len(operands)} operands")
        for (ref_class, ref), readable in zip(key, operands):
            obj = objects.get(ref)
            if obj is None:
                problem = "which no object has"
            elif obj.class_name != ref_class:
                problem = f"which is of class {obj.class_name!r}"
            elif ref_class not in readable:
                problem = "of a class its operand does not read"
            else:
                continue
            raise ValueError(f"oid {oid} names {ref_class}:{ref}, {problem}")
        return key
    if not written:
        for obj in objects.values():
            written.setdefault((obj.class_name, obj.source_key), []).append(obj.oid)
    # each choice of one object per operand whose keys as written, in
    # turn, are key, with where in key the last one ends
    ways: list[tuple[tuple[Oid, ...], int]] = [((), 0)]
    for readable in operands:
        ways = [
            ((*refs, ref), end)
            for refs, start in ways
            for end in range(start + 1, len(key) + 1)
            for cname in readable
            for ref in written.get((cname, key[start:end]), ())
        ]
    refs = max(
        (refs for refs, end in ways if end == len(key)),
        key=lambda refs: (sum(objects[ref].status == "active" for ref in refs), refs),
        default=None,
    )
    if refs is None:
        raise ValueError(f"oid {oid}'s source key splits no way among its operands' objects")
    return tuple((objects[ref].class_name, ref) for ref in refs)


def _malformed(path: str, exc: Exception) -> Error:
    return Error(f"{path}: malformed store document ({type(exc).__name__}: {exc})")


def _store_from_header(doc: dict[str, Any]) -> Store:
    src = parse_source_schema(doc["source_schema"])
    schema = resolve(parse_warehouse_def(doc["warehouse_def"]), src, strict=True)
    return Store(
        src,
        schema,
        doc["source_schema"],
        doc["warehouse_def"],
        now=Now(parse_instant(doc["last_refresh"])),
        oid_counter=doc["oid_counter"],
    )


def _dict(doc: Any) -> dict[str, Any]:
    if not isinstance(doc, dict):
        raise TypeError(f"a state holds a {type(doc).__name__}, not an object")
    return doc


_raw_decode = json.JSONDecoder().raw_decode


def _documents(line: bytes) -> list[Any]:
    """The JSON documents of a v5 or v4 object line, each after one TAB
    but the first, with its newline after the last and no TAB inside one;
    anything else is the ValueError that _StateDecoder.line names."""
    text = line.decode("utf-8")
    docs, end = [], 0
    while True:
        doc, end = _raw_decode(text, end)
        docs.append(doc)
        if not text.startswith("\t", end):
            break
        end += 1
    if text[end:] != "\n" or text.count("\t") != len(docs) - 1:
        raise ValueError("an object line parts its documents with more than TABs")
    return docs


def _older(layout: str, unit: str, last_refresh: int, line: Any, active: bool) -> list[Any]:
    """An older object line, or v1 object document, as v5 documents, head
    first. A v3 to v1 head holds its past states; a domain {"unit",
    "intervals"} must be in the store's unit. v2 and v1 wrote an active
    current state's end as it read at the last refresh: it drops to the
    start, unless later (an older build's patch). Other shapes pass as read."""
    if layout == V4_FORMAT:
        docs = _documents(line)
    else:
        head = line if layout == V1_FORMAT else json.loads(line.decode("utf-8"))
        docs = [head]
        docs.extend(head["past"])
        del head["past"]
    states = [docs[0]["current"], *docs[1:]]
    states.extend(docs[0]["archives"])
    for state in states:
        if type(state) is dict and "domain" in state:
            d = state["domain"]
            if d["unit"] != unit:
                raise ValueError(f"a domain is in {d['unit']!r}, not the store's {unit!r}")
            state["domain"] = d["intervals"]
    if active and layout in (V2_FORMAT, V1_FORMAT):
        match states[0]:  # an empty interval is left for the decoder to reject
            case {"domain": [*_, [int() as s, int() as e] as last]} if s <= e <= last_refresh:
                last[1] = s
    return docs


# how a past state's document begins, its keys sorted, so that its
# domain can be decoded alone
_PAST_DOMAIN = b'{"domain":'


class _StateDecoder:
    """Builds objects' states from one store file's v5 documents, which
    translate (_older) makes of an older file's lines; unit is the store's.

    Many states span the same granules, so each distinct domain is built
    and checked once, to be canonical and to span a granule, and then
    shared: TemporalDomain is frozen, and the engine only ever replaces a
    state's domain. Each line's current state must start after its newest
    past state ends. An active object's current state is decoded open,
    reading its end from the store's Now.
    """

    def __init__(self, path: str, unit: str, translate: Callable[..., list[Any]] | None):
        self.path = path
        self.unit = unit
        self.translate = translate
        self.domains: dict[tuple[tuple[int, ...], ...], TemporalDomain] = {}

    def line(
        self, oid: Oid, line: bytes | dict[str, Any], now: Now | None, crc: int | None
    ) -> tuple[State, list[State], list[ArchiveState]]:
        """Decode one object's line or v1 document, raising the malformed-store Error.

        A line that matches crc, its CRC-32 in the index, is what the
        writer wrote: its head is decoded, and its past states are left
        deferred, each holding its document, but for the newest one's
        domain, which the current state must start after. Any other line
        is decoded whole, so a damaged line raises what it raised before
        lines had checksums, and one with a CRC-32 that still parses
        fails its checksum. A head holding past states is rejected too."""
        try:
            if crc is not None and zlib.crc32(line) == crc:
                return self._head(line, now)
            docs = self.translate(line, now is not None) if self.translate else _documents(line)
            states = self.states(docs[0], [self._state(doc) for doc in docs[1:]], now)
            if crc is not None:
                raise ValueError(f"the line of oid {oid} fails its checksum")
            return states
        except (KeyError, TypeError, ValueError) as exc:
            raise _malformed(self.path, exc) from None

    def _head(self, line: bytes, now: Now | None) -> tuple[State, list[State], list[ArchiveState]]:
        head_end = line.find(b"\t")
        texts = line[head_end + 1 : -1].split(b"\t") if head_end >= 0 else []
        head = _dict(json.loads(line[:head_end].decode("utf-8")))
        load = self.past
        past = [State.deferred(text, load) for text in texts]
        return self.states(head, past, now)

    def states(
        self, item: dict[str, Any], older: list[State], now: Now | None
    ) -> tuple[State, list[State], list[ArchiveState]]:
        if "past" in item:
            # a v3 line under a newer header, whose past states would go unread
            raise ValueError("an object's head document holds past states")
        current = item["current"]
        stored = self.domain(current["domain"])
        if older and stored.intervals[0].start.tick <= older[-1].stored.intervals[-1].end.tick:
            raise ValueError("a current state starts before its newest past state ends")
        state = State(stored, _dict(current["value"]), now)
        # a head leaves out an empty archives list
        archives = [
            ArchiveState(self.domain(a["domain"]), _dict(a["aggregates"]))
            for a in item.get("archives", ())
        ]
        if len(archives) > 1:  # every eviction folds into the one archive state
            raise ValueError(f"an object's head holds {len(archives)} archive states, not one")
        return state, older, archives

    def past(self, state: State, name: str) -> None:
        """Decode a deferred past state's document: its domain alone when
        only the domain is read, else its domain and value."""
        text = state.text
        try:
            if name == "stored" and text.startswith(_PAST_DOMAIN):
                state.stored = self.domain(_raw_decode(text.decode("utf-8"), len(_PAST_DOMAIN))[0])
                return
            decoded = self._state(json.loads(text.decode("utf-8")))
        except (KeyError, TypeError, ValueError) as exc:
            raise _malformed(self.path, exc) from None
        state.stored, state.value = decoded.stored, decoded.value

    def _state(self, doc: Any) -> State:
        return State(self.domain(_dict(doc)["domain"]), _dict(doc["value"]))

    def domain(self, d: Any) -> TemporalDomain:
        """A domain is its [start, end] list, in the store's unit."""
        if type(d) is not list:
            raise TypeError(f"a domain is a {type(d).__name__}, not a list")
        return self._shared(tuple(map(tuple, d)))

    def _shared(self, bounds: tuple[tuple[int, ...], ...]) -> TemporalDomain:
        found = self.domains.get(bounds)
        if found is None:
            if not bounds:
                raise ValueError("a domain spans no granule")
            odd = [tick for pair in bounds for tick in pair if type(tick) is not int]
            if odd:  # a bool included
                raise TypeError(f"a domain bound is a {type(odd[0]).__name__}, not an integer")
            found = domain(self.unit, *bounds)
            problems = validate_domain(found)
            if problems:
                raise ValueError(f"a domain's {problems[0].message}")
            self.domains[bounds] = found
        return found

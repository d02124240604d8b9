"""Lifecycle engine: initial load, periodic refresh, archival, identity.

The engine owns the store: every warehouse object, the identity index
from (class, source key) to oid, one class index holding each class's
direct extension, and the resolved schema. Refreshes are driven by
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
classes its operands name, reading each operand without its subclasses'
composites: over one operand, select members by oid; over several,
decide and settle composites, taking their rows as they are; (4)
archive. Deciding a result's objects, then settling its rows, are the
same two steps for every class that owns objects.

Links resolve through the store's source-id index, which maps every
(interface, source id) pair of an object's source key to its oids, so a
link costs one lookup per interface it may name, whatever the size of
the target class's extension.

A refresh's writes follow its change set. An active object's current
state ends at the store's now, which every open state reads from the
store's shared Now, so an object carried over a refresh is not
written to at all. A store is single-writer, and refresh() is atomic: it
works on a working copy, which copies the dicts and indexes but shares
every object, and publishes it only on success. The passes call
Store.touch before they change an object, which copies the object into
the working copy on its first change.

A store file (tdw-store-v4) is a header line with the schema texts and
an index of every object's oid, class, status and source key, then one
line per object: a head document with its current and archive states,
an active object's current state written with its stored end rather
than the last refresh, then each past state as its own document, oldest
first, each after a TAB. load_store builds every object from the index
as a deferred WarehouseObject, whose state slots stay empty until their
first read decodes the object's line, so a query decodes only the
objects it shows; objects are slotted, since a load builds one for
every entry of the index.

A past state never changes once pushed, so it is encoded once. A save
writes the line of each object the command left untouched as it was
read, once that line has been decoded and checked, so no line is
written that was not checked first. The line of a touched or created
object is built anew from its head, which the save encodes, and its
past states' texts: those read from its line, which touch hands to the
states, and those the save encodes for the states that have none yet.
So historizing or evicting re-encodes no past state.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Any, Callable, Iterable

from . import model
from .algebra import ClassBuild, Row, eval_extraction, eval_select, eval_specialize
from .dsl import (
    WarehouseDef,
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
from .expr import Specialize, is_extraction
from .model import (
    ArchiveState,
    Now,
    Oid,
    State,
    WarehouseObject,
    WarehouseSchema,
    effective_filters,
    flatten_type,
    transitive_supers,
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
    (class, source key) to its oid; source_index maps each (interface,
    source id) pair of a source key to the oids whose key holds it, so a
    link is resolved without scanning an extension; and by_class maps
    each class to its direct extension, the oids it owns. None of these
    is stored in a store file; all are rebuilt as objects are added. A
    membership class owns no objects: its by_class entry is the set of
    its operand's objects that each refresh selects and replaces, and the
    store file's header holds it.

    now holds last_refresh, shared with every open current state. shared
    holds the oids of a working copy's objects that its store holds too
    and that touch must copy before they change; each object holds the
    store file line it was read from (WarehouseObject.line).
    """

    source_schema: SourceSchema
    schema: WarehouseSchema
    source_text: str
    warehouse_text: str
    objects: dict[Oid, WarehouseObject] = field(default_factory=dict)
    identity: dict[tuple[str, tuple[tuple[str, str], ...]], Oid] = field(default_factory=dict)
    source_index: dict[tuple[str, str], tuple[Oid, ...]] = field(default_factory=dict)
    by_class: dict[str, set[Oid]] = field(default_factory=dict)
    now: Now = field(default_factory=Now)
    oid_counter: int = 0
    shared: set[Oid] = field(default_factory=set, repr=False)

    @property
    def last_refresh(self) -> Instant | None:
        return self.now.instant

    @last_refresh.setter
    def last_refresh(self, t: Instant | None) -> None:
        self.now.instant = t

    # -- class categories ---------------------------------------------------

    def membership_classes(self) -> list[str]:
        return [
            name
            for name, cls in self.schema.classes.items()
            if isinstance(cls.mapping, Specialize) and len(cls.mapping.operands) == 1
        ]

    def extension_of(self, class_name: str) -> list[Oid]:
        """Extension including every subclass's members (a superclass's
        extension is computed, never stored)."""
        self.schema.get_class(class_name)
        oids = set(self.direct_extension(class_name))
        for sub, sub_cls in self.schema.classes.items():
            if class_name in sub_cls.supers:
                oids.update(self.extension_of(sub))
        return sorted(oids)

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
        next save encodes its head anew; its past states take their texts
        from the line first, which that save writes again. The line was
        decoded into these states, and a past state never changes.
        """
        obj = self.objects[oid]
        line = obj.line
        if oid in self.shared:
            obj = self.objects[oid] = obj.copy()
            self.shared.discard(oid)
        if line is not None:
            obj.line = None
            for state, text in zip(obj.past, line[:-1].split("\t")[1:]):
                state.text = text
        return obj

    def publish(self, work: Store, t: Instant) -> None:
        """Adopt a working copy's dynamic state as of extraction point t:
        its objects, the ones it touched included, and its indexes."""
        self.objects = work.objects
        self.identity = work.identity
        self.source_index = work.source_index
        self.by_class = work.by_class
        self.oid_counter = work.oid_counter
        self.last_refresh = t

    def fresh_oid(self) -> Oid:
        self.oid_counter += 1
        return self.oid_counter

    def add_object(self, obj: WarehouseObject) -> None:
        """Insert a new object and index its identity, source key and class.

        source_index holds the oid once under each pair of its key, which
        names a pair twice when two operands of a composite, or both sides
        of an extraction self-join, share it: the oid is new, so it is
        already under a pair only as the entry this loop appended last."""
        oid, cname, index = obj.oid, obj.class_name, self.source_index
        self.objects[oid] = obj
        self.identity[(cname, obj.source_key)] = oid
        for pair in obj.source_key:
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
    src: SourceSchema, wdef: WarehouseDef, snapshot: Snapshot, t: Instant | None = None
) -> Store:
    """Build a fresh store, in t's unit for life, from the first extraction point."""
    t = _instant_of(snapshot, t)
    schema = resolve(wdef, src, strict=True)
    _check_retention_units(schema, t)
    store = Store(src, schema, print_source_schema(src), print_warehouse_def(wdef))
    # a store nobody else holds needs no working copy to stay atomic
    _run_extraction_points(store, snapshot, t)
    store.last_refresh = t
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

    # pass 1: evaluate every extraction mapping and decide its objects, so
    # that pass 2's links know every result's objects, live, new ones too
    builds = {}
    created: set[Oid] = set()
    for name, cls in schema.classes.items():
        if not is_extraction(cls.mapping):
            continue
        build = eval_extraction(cls.mapping, src, snapshot)
        counts = report.classes[name] = ClassCounts()
        builds[name] = build, _allocate(store, name, build.rows, created, t, counts)
    live = {oid for _build, oids in builds.values() for oid in oids}

    # pass 2: align values, rewrite links, and diff
    for name, (build, oids) in builds.items():
        # each flattened property's slot, None for a specific one the
        # mapping leaves out; resolution let one slot at most produce it
        slot_of = {p.name: i for i, p in enumerate(build.structure)}
        slots = [(p, slot_of.get(p.name)) for p in flatten_type(schema, name)]
        value_of = partial(_aligned_value, store, live, name, build.structure, slots)
        _settle(store, name, zip(oids, build.rows), value_of, created, t, report.classes[name])

    # pass 3: specializations, each after every class its operands name; one
    # with a single operand owns no objects but selects its operand's members
    # by oid, frozen ones included
    for name in hierarchization_order(schema):
        mapping = schema.classes[name].mapping
        if not isinstance(mapping, Specialize):
            continue  # a generalization's extension is its subclasses'
        membership = len(mapping.operands) == 1
        operands = []
        for op in mapping.operands:
            build = _build_from_objects(store, op.class_name, op.binder, include_frozen=membership)
            if op.where is not None:
                build = eval_select(op.where, build)
            operands.append((op.binder, build))
        if membership:
            selected = eval_select(mapping.pred, operands[0][1])
            store.by_class[name] = {row.binders[0][1] for row in selected.rows}
            continue
        result = eval_specialize(operands, mapping.pred)
        counts = report.classes[name] = ClassCounts()
        oids = _allocate(store, name, result.rows, created, t, counts)
        # a composite's merged row holds exactly its class's flattened type,
        # its operands' values as they are
        value_of = partial(_row_value, result.names())
        _settle(store, name, zip(oids, result.rows), value_of, created, t, counts)

    # pass 4: archival per environment
    for env_name in sorted(schema.environments):
        evictions = apply_archival_state(store, schema.environments[env_name], t)
        for cname, n in evictions.items():
            report.classes.setdefault(cname, ClassCounts()).archived_evictions += n
    return report


def _allocate(
    store: Store, class_name: str, rows: list, created: set[Oid], t: Instant, counts: ClassCounts
) -> list[Oid]:
    """Decide the class's objects for its result rows at t: return each
    row's oid, creating an empty object, added to created, for each key
    the class does not know yet, and freeze every active object of the
    class outside the result. counts.frozen ends as the class's frozen
    count, so carried + updated + historized + frozen = prior size."""
    oids = []
    for key in (row.key for row in rows):
        oid = store.identity.get((class_name, key))
        if oid is None:
            oid = store.fresh_oid()
            state = State(domain(t.unit, (t.tick, t.tick)), {}, store.now)
            store.add_object(WarehouseObject(oid, class_name, state, source_key=key))
            created.add(oid)
            counts.created += 1
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
    value_of: Callable[[tuple[Any, ...], dict[str, Any]], dict[str, Any]],
    created: set[Oid],
    t: Instant,
    counts: ClassCounts,
) -> None:
    """Bring the objects _allocate decided in line with their rows.

    rows pairs each oid with its row; value_of(row values, old) is the
    value for an object whose current value is old. An object in created
    takes its row's value; every other active object diffs against it."""
    tempo, _archi = effective_filters(store.schema, class_name)
    for oid, row in rows:
        obj = store.objects[oid]
        if obj.status == "frozen":
            continue  # a frozen object never thaws, even if its key returns
        value = value_of(row.values, obj.current.value)
        if oid in created:
            store.touch(oid).current.value = value
        else:
            _diff_object(store, obj, value, tempo, t, counts)


def _diff_object(
    store: Store,
    obj: WarehouseObject,
    value: dict[str, Any],
    tempo: frozenset[str],
    t: Instant,
    counts: ClassCounts,
) -> None:
    old = obj.current.value
    if old == value:
        counts.carried += 1  # its open current state runs on to t by itself
        return
    changed = {name for name in value if value.get(name) != old.get(name)}
    obj = store.touch(obj.oid)
    if changed & tempo:
        # temporal change: the whole old value becomes a past state
        obj.past.append(State(_closed_before(obj, t), old))
        obj.current = State(domain(t.unit, (t.tick, t.tick)), value, store.now)
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
    old: dict[str, Any],
) -> dict[str, Any]:
    """Read the declared structure from a mapping row's slots and swap
    source ids for oids in every relation. Specific slots have no source
    origin: the administrator values in old survive every refresh until
    the next patch, and a new object's are what the row gives, if any."""
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
        value[p.name] = old.get(p.name, v) if p.origin == "specific" else v
    return value


def _row_value(names: list[str], values: tuple[Any, ...], _old: dict[str, Any]) -> dict[str, Any]:
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
    when that holds none, in its whole extension. Of several, as a moved
    service's old and new objects, the one in live, this refresh's
    extraction result, wins; a former member outside live stands in only
    when it is the one object naming rid."""
    candidates = {
        oid for iface in wanted for oid in store.source_index.get((iface, rid), ())
    }
    members = store.by_class.get(prop.target, ())
    hits = [oid for oid in candidates if oid in members]
    if not hits:
        extension = set(store.extension_of(prop.target))
        hits = [oid for oid in candidates if oid in extension]
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
    """A warehouse class extension as an algebra build (current values) in
    key order, sharing each value but an empty to-many relation's, as [].
    It leaves out the composites of class_name's subclasses, so that a
    specialization reads its operand alike whatever the declaration order."""
    specs = [n for n, c in store.schema.classes.items() if isinstance(c.mapping, Specialize)]
    theirs = {n for n in specs if class_name in transitive_supers(store.schema, n)}
    structure = class_structure(store.schema, class_name, binder)
    slots = [(p.name, p.is_relation and p.cardinality == "many") for p in structure]
    rows = []
    for oid in store.extension_of(class_name):
        obj = store.objects[oid]
        if obj.class_name in theirs or not (include_frozen or obj.status == "active"):
            continue
        value = obj.current.value
        values = tuple(value.get(name) or [] if many else value.get(name) for name, many in slots)
        rows.append(Row(obj.source_key, values, ((binder, obj.oid),)))
    rows.sort(key=lambda r: r.key)
    return ClassBuild(structure, rows)


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


def apply_archival(store: Store, env: model.Environment, t: Instant) -> dict[str, int]:
    """Evict past states beyond the environment's retention bounds,
    folding archived properties into each object's archive state."""
    work = store.working_copy()
    evictions = apply_archival_state(work, env, t)
    store.publish(work, store.last_refresh)
    return evictions


def apply_archival_state(store: Store, env: model.Environment, t: Instant) -> dict[str, int]:
    schema = store.schema
    cfg = schema.retention_for(env)
    evictions: dict[str, int] = {}
    for class_name in env.classes:
        if class_name not in schema.classes:
            continue
        _tempo, archi = effective_filters(schema, class_name)
        for oid in store.direct_extension(class_name):
            obj = store.objects[oid]
            if obj.class_name != class_name:
                continue  # membership sets archive under their own class
            n = _evictions(obj.past, cfg, t)
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
        elif fn == "sum":
            entry["value"] = entry.get("value", 0) + value
        elif fn == "min":
            prior = entry.get("value")
            entry["value"] = value if prior is None else min(prior, value)
        elif fn == "max":
            prior = entry.get("value")
            entry["value"] = value if prior is None else max(prior, value)
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
    _diff_object(store, obj, new_value, tempo, t, ClassCounts())
    if t.tick > store.last_refresh.tick:
        store.last_refresh = t


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


STORE_FORMAT = "tdw-store-v4"
# the older layouts are still read, and rewritten whole as v4: v3 holds an
# object's past states in its one line document; v2 also writes an active
# object's current state with the end it had at the last refresh; v1 is
# the whole store as one document
V3_FORMAT = "tdw-store-v3"
V2_FORMAT = "tdw-store-v2"
V1_FORMAT = "tdw-store-v1"


def dumps_store(store: Store) -> str:
    """Canonical, byte-stable serialization: a header line, then one line
    per object in oid order, in UTF-8 text, each line ending in a newline.
    The header holds the schema texts, last_refresh, oid_counter, the
    membership sets and the object index [oid, class, status, source key]
    in oid order. An object's line is its head document {"archives",
    "current"}, then each past state's document, oldest first, each after
    a TAB. Every document is compact JSON with sorted keys, which holds no
    raw TAB, and each state is written with its stored domain, so an open
    current state's line does not change as the last refresh moves on.

    An object's line read from a store file is written again as it was,
    unless the object was touched since; it is decoded first, like every
    other object's states, so a store loaded from a file with a damaged
    object line raises here instead of being written. Any other line is
    the head, encoded anew, and each past state's text, which a state
    without one gets here."""
    return "".join(_store_lines(store))


def _store_lines(store: Store) -> list[str]:
    """dumps_store's lines, each ending in its newline; save_store writes
    them one by one, so the whole file's text is never built."""
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode
    objects = [store.objects[oid] for oid in sorted(store.objects)]
    header = {
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
        # json writes the source key's tuples as lists
        "objects": [[obj.oid, obj.class_name, obj.status, obj.source_key] for obj in objects],
    }
    lines = [encode(header) + "\n"]
    for obj in objects:
        line = obj.line
        if line is None:
            parts = [
                encode(
                    {
                        "current": _state_dict(obj.current),
                        "archives": [
                            {"domain": _domain_dict(a.domain), "aggregates": a.aggregates}
                            for a in obj.archives
                        ],
                    }
                )
            ]
            for state in obj.past:
                if state.text is None:
                    state.text = encode(_state_dict(state))
                parts.append(state.text)
            line = "\t".join(parts) + "\n"
        else:
            obj.decode()
        lines.append(line)
    return lines


def _state_dict(state: State) -> dict[str, Any]:
    return {"domain": _domain_dict(state.stored), "value": state.value}


def _domain_dict(d: TemporalDomain) -> dict[str, Any]:
    return {
        "unit": d.unit,
        "intervals": [[iv.start.tick, iv.end.tick] for iv in d.intervals],
    }


def save_store(store: Store, path: str) -> None:
    """Write the store through a temporary file that replaces path, so a
    failed encoding, write or rename leaves the prior file as it was and
    no temporary file; both are synced, so a crash leaves one of them."""
    lines = _store_lines(store)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
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

    A tdw-store-v4, v3 or v2 file's header, the class and status of each
    entry of its object index, and its number of object lines are checked
    here; each object's line is decoded and checked when one of its
    states is first read, and raises the same malformed-store Error then.
    A v4 file's lines are kept for the next save to write again; a v3 or
    v2 file's are not, so it is written whole as v4. A tdw-store-v1 file,
    compact or indented, is decoded and checked whole, its objects' class
    and status as a v4 index's, and is written as v4 at its next save.
    """
    # lines end at "\n" alone, the one line break the encoder writes raw
    with open(path, encoding="utf-8", newline="\n") as fh:
        head = fh.readline()
        try:
            doc = json.loads(head)
        except json.JSONDecodeError:
            doc = None  # the indented v1 layout spreads one document over lines
        fmt = doc.get("format") if isinstance(doc, dict) else None
        lined = fmt in (STORE_FORMAT, V3_FORMAT, V2_FORMAT)
        rest = fh.readlines() if lined else fh.read()
    if not lined and (doc is None or rest.strip()):
        try:
            doc = json.loads(head + rest)
        except json.JSONDecodeError as exc:
            raise Error(f"{path}: not a valid store document ({exc})") from None
    if not lined and not (isinstance(doc, dict) and doc.get("format") == V1_FORMAT):
        raise Error(
            f"{path}: not a {STORE_FORMAT}, {V3_FORMAT}, {V2_FORMAT} or {V1_FORMAT} document"
        )
    decoder = _StateDecoder(path, doc["format"])
    try:
        if lined:
            store = _store_from_lines(doc, rest, decoder)
        else:
            store = _store_from_v1(doc, decoder)
        if len(store.identity) != len(store.objects):
            raise ValueError("two objects share one class and source key")
        _check_index(store)
        _read_memberships(store, doc.get("memberships", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(path, exc) from None
    return store


def _check_index(store: Store) -> None:
    """Each object must be of a class that owns objects in the store's
    schema, one with an extraction mapping or a specialization of several
    operands, active or frozen, and keyed by [source interface, string id]
    pairs. Run before the memberships enter the class index."""
    owners = {
        name
        for name, cls in store.schema.classes.items()
        if is_extraction(cls.mapping)
        or (isinstance(cls.mapping, Specialize) and len(cls.mapping.operands) > 1)
    }
    for name, oids in store.by_class.items():
        if name not in owners:
            raise ValueError(f"oid {min(oids)} is of class {name!r}, which owns no objects")
    interfaces = store.source_schema.interfaces
    for obj in store.objects.values():
        if obj.status not in ("active", "frozen"):
            raise ValueError(f"oid {obj.oid} has status {obj.status!r}, not active or frozen")
        try:
            sound = bool(obj.source_key)
            for interface, sid in obj.source_key:
                sound = sound and interface in interfaces and isinstance(sid, str)
        except ValueError:  # a pair of more or fewer than two items
            sound = False
        if not sound:
            raise ValueError(f"oid {obj.oid} has a source key other than [interface, id] pairs")


def _read_memberships(store: Store, memberships: Any) -> None:
    """Enter a header's membership sets into the class index. Each must
    name a single-operand specialization of the store's schema and hold
    oids of the store's objects only."""
    if not isinstance(memberships, dict):
        raise TypeError(f"memberships is a {type(memberships).__name__}, not an object")
    names = store.membership_classes()
    for name, oids in memberships.items():
        if name not in names:
            raise ValueError(f"membership {name!r} is not a single-operand specialization")
        members = set(oids)
        missing = members - store.objects.keys()
        if missing:
            raise ValueError(f"membership {name!r} holds oid {min(missing)}, which no object has")
        store.by_class[name] = members


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


def _store_from_lines(doc: dict[str, Any], lines: list[str], decoder: _StateDecoder) -> Store:
    store = _store_from_header(doc)
    reuse = decoder.layout == STORE_FORMAT
    if decoder.layout == V2_FORMAT:
        decoder.implied_end = store.last_refresh.tick
    index = doc["objects"]
    # only a file cut off inside its last line has a line without "\n"
    complete = len(lines) - (bool(lines) and not lines[-1].endswith("\n"))
    if len(lines) != len(index) or complete != len(lines):
        raise ValueError(
            f"the index holds {len(index)} objects but {complete} complete object lines follow"
        )
    prior, now = 0, store.now
    for (oid, cname, status, key), line in zip(index, lines):
        # lines pair with index entries by position, which the oid order fixes
        if oid <= prior:
            raise ValueError(f"oid {oid} follows oid {prior} in the object index")
        prior = oid
        load = partial(decoder.line, line, now if status == "active" else None)
        store.add_object(
            WarehouseObject.deferred(
                oid, cname, status, tuple(map(tuple, key)), load, line if reuse else None
            )
        )
    return store


def _store_from_v1(doc: dict[str, Any], decoder: _StateDecoder) -> Store:
    store = _store_from_header(doc)
    decoder.implied_end = store.last_refresh.tick
    for item in doc["objects"]:
        now = store.now if item["status"] == "active" else None
        store.add_object(
            WarehouseObject(
                item["oid"],
                item["class"],
                *decoder.states(item, item["past"], now),
                item["status"],
                tuple(tuple(p) for p in item["source_key"]),
            )
        )
    stored = {(cname, tuple(tuple(p) for p in key)): oid for cname, key, oid in doc["identity"]}
    if stored != store.identity:
        raise ValueError("the identity table disagrees with the objects")
    return store


def _dict(doc: Any) -> dict[str, Any]:
    if not isinstance(doc, dict):
        raise TypeError(f"a state holds a {type(doc).__name__}, not an object")
    return doc


class _StateDecoder:
    """Builds objects' states from one store file's documents; layout is
    the file's format.

    Many states span the same granules, so each distinct domain is built
    and checked once and then shared: TemporalDomain is frozen, and the
    engine only ever replaces a state's domain. An active object's
    current state is decoded open, reading its end from the store's Now.

    v1 and v2 files wrote an open state's end as it read at the last
    refresh; the loader sets implied_end to that refresh, and an end no
    later than it is dropped to the state's start, as the engine stores
    it, while a later end, which older builds let a patch set, is kept.
    """

    def __init__(self, path: str, layout: str):
        self.path = path
        self.layout = layout
        self.domains: dict[tuple[str, tuple[tuple[int, ...], ...]], TemporalDomain] = {}
        self.implied_end: int | None = None

    def line(
        self, line: str, now: Now | None
    ) -> tuple[State, list[State], list[ArchiveState]]:
        """Decode one object line, raising the malformed-store Error.

        A v4 line's documents are decoded at once, as one array, each TAB
        read as a comma before it. JSON allows a raw TAB only between two
        tokens, where that comma is an error unless the TAB parts two
        documents, and the documents must number one more than the TABs:
        so the TABs are exactly the separators that Store.touch splits
        the line at. A head holding past states is rejected too."""
        try:
            if self.layout != STORE_FORMAT:
                item = json.loads(line)
                return self.states(item, item["past"], now)
            head, *past = docs = json.loads("[" + line.replace("\t", ",\t") + "]")
            if len(docs) != line.count("\t") + 1:
                raise ValueError("an object line parts its documents with more than TABs")
            if "past" in head:  # a v3 line, whose past states would go unread
                raise ValueError("an object's head document holds past states")
            return self.states(head, past, now)
        except (KeyError, TypeError, ValueError) as exc:
            raise _malformed(self.path, exc) from None

    def states(
        self, item: dict[str, Any], past: list[dict[str, Any]], now: Now | None
    ) -> tuple[State, list[State], list[ArchiveState]]:
        current = item["current"]
        stored = self.domain(current["domain"])
        if now is not None:
            stored = self._open(stored)
        return (
            State(stored, _dict(current["value"]), now),
            [State(self.domain(s["domain"]), _dict(s["value"])) for s in past],
            [ArchiveState(self.domain(a["domain"]), _dict(a["aggregates"])) for a in item["archives"]],
        )

    def domain(self, d: dict[str, Any]) -> TemporalDomain:
        return self._shared(d["unit"], tuple(map(tuple, d["intervals"])))

    def _shared(self, unit: str, bounds: tuple[tuple[int, ...], ...]) -> TemporalDomain:
        found = self.domains.get((unit, bounds))
        if found is None:
            found = self.domains[(unit, bounds)] = domain(unit, *bounds)
        return found

    def _open(self, d: TemporalDomain) -> TemporalDomain:
        if not d.intervals:
            raise ValueError("an active object's current state spans no granule")
        last = d.intervals[-1]
        if self.implied_end is None or last.end.tick > self.implied_end:
            return d
        bounds = tuple((iv.start.tick, iv.end.tick) for iv in d.intervals[:-1])
        return self._shared(d.unit, bounds + ((last.start.tick, last.start.tick),))

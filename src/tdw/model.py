"""Warehouse model: classes, environments, schema, and object states.

A warehouse class couples a declared structure (each property tagged with
its origin: derived, computed, or specific) with a construction mapping,
a temporal filter (which changes make history) and an archive filter
(how evicted history is summarised). Environments group classes that
share retention behaviour; filter inheritance only acts inside one.

Warehouse objects hold one current state, ordered past states, and a
cumulative archive state, all with pairwise disjoint temporal domains.
An active object's current state ends now: at its store's last refresh,
which the state reads from a Now it shares with every other open state
of the store, so a refresh moves the end of every carried object without
writing to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .errors import (
    InheritanceCycle,
    PropertyConflict,
    ResolveError,
    UnknownClass,
    UnknownEnvironment,
)
from .expr import Specialize, is_extraction
from .source import NUMERIC_KINDS, SourceType, lineage
from .temporal import (
    Instant,
    Interval,
    TemporalDomain,
    domain_contains,
    extend_end,
    interval,
)

Oid = int

ORIGINS = ("derived", "computed", "specific")
AGG_FUNCTIONS = ("count", "sum", "avg", "max", "min")
ARCHIVE_FUNCTIONS = AGG_FUNCTIONS + ("last",)


@dataclass(frozen=True)
class PropertyDef:
    """One property of a warehouse class structure, or of an algebra
    build, where binder names the operand it came from and function a
    computed slot's aggregate."""

    name: str
    origin: str  # derived | computed | specific
    kind: str = "attribute"  # attribute | association | composition
    value_type: SourceType | None = None  # attributes only
    target: str | None = None  # relations: warehouse class (or, in a build, source interface)
    cardinality: str | None = None  # relations: one | many
    inverse: str | None = None
    source_path: tuple[str, ...] = ()  # derived: origin property path
    binder: str | None = None  # builds only
    function: str | None = None  # builds only

    @property
    def is_relation(self) -> bool:
        return self.kind != "attribute"


def merge_key(prop: PropertyDef) -> tuple:
    """What two definitions of one property name must share to merge."""
    return (prop.name, prop.origin, prop.kind, prop.value_type, prop.target, prop.cardinality)


@dataclass
class WarehouseClass:
    name: str
    structure: list[PropertyDef] = field(default_factory=list)  # own, declared
    supers: tuple[str, ...] = ()
    mapping: Any = None  # expr.MappingExpr
    tempo: tuple[str, ...] = ()  # in declared order
    archi: dict[str, str] = field(default_factory=dict)  # property -> function
    source_origins: frozenset[str] = frozenset()  # source interfaces feeding rows
    subtree: frozenset[str] = frozenset()  # itself and every class extending it

    @property
    def role(self) -> str:
        """What the mapping makes of the class's extension: an extraction
        or a composite (a specialize over several operands) owns objects,
        a membership (a specialize over one) selects its operand's, and a
        generalization, like a class without a mapping, owns none."""
        if is_extraction(self.mapping):
            return "extraction"
        if not isinstance(self.mapping, Specialize):
            return "generalization"
        return "membership" if len(self.mapping.operands) == 1 else "composite"


@dataclass(frozen=True)
class RetentionConfig:
    refresh_period: tuple[int, str] | None = None
    keep_past_count: int | None = None
    keep_past_duration: tuple[int, str] | None = None

    def merged_over(self, base: "RetentionConfig") -> "RetentionConfig":
        """Field-by-field override of base (environment over warehouse)."""
        return RetentionConfig(
            self.refresh_period if self.refresh_period is not None else base.refresh_period,
            self.keep_past_count if self.keep_past_count is not None else base.keep_past_count,
            self.keep_past_duration
            if self.keep_past_duration is not None
            else base.keep_past_duration,
        )


@dataclass
class Environment:
    name: str
    classes: tuple[str, ...] = ()
    config: RetentionConfig = RetentionConfig()


@dataclass
class WarehouseSchema:
    name: str
    classes: dict[str, WarehouseClass] = field(default_factory=dict)
    environments: dict[str, Environment] = field(default_factory=dict)
    global_config: RetentionConfig = RetentionConfig()

    def get_class(self, name: str) -> WarehouseClass:
        try:
            return self.classes[name]
        except KeyError:
            raise UnknownClass(f"unknown warehouse class {name!r}") from None

    def environment_of(self, class_name: str) -> Environment | None:
        for env in self.environments.values():
            if class_name in env.classes:
                return env
        return None

    def retention_for(self, env: Environment) -> RetentionConfig:
        return env.config.merged_over(self.global_config)


# ---------------------------------------------------------------------------
# structure and filter derivation


def flatten_type(schema: WarehouseSchema, class_name: str) -> list[PropertyDef]:
    """Own plus inherited properties, in lineage order, duplicates merged.

    Identical definitions arriving from distinct supers collapse into
    one property; differing definitions under one name are a conflict.
    """
    out: dict[str, PropertyDef] = {}
    for owner in (*transitive_supers(schema, class_name), class_name):
        for p in schema.get_class(owner).structure:
            prior = out.setdefault(p.name, p)
            if merge_key(prior) != merge_key(p):
                raise PropertyConflict(
                    f"{class_name!r} inherits conflicting definitions of {p.name!r}"
                )
    return list(out.values())


def dependency_order(deps: dict[str, Iterable[str]]) -> list[str]:
    """Order deps' keys so that each follows the keys it depends on.

    Each pass walks the unplaced names in the given order and places every
    name whose dependencies are placed, names placed earlier in the same
    pass included. Dependencies that are not keys count as placed. Only
    mapping operands can form a cycle (validate_schema rejects inheritance
    cycles), so a cycle raises ResolveError naming the names left over.
    """
    pending = dict.fromkeys(deps)
    ordered: list[str] = []
    while pending:
        progress = False
        for name in list(pending):
            if not any(d in pending for d in deps[name]):
                ordered.append(name)
                del pending[name]
                progress = True
        if not progress:
            raise ResolveError(f"circular hierarchization mappings involving {sorted(pending)}")
    return ordered


def transitive_supers(schema: WarehouseSchema, class_name: str) -> tuple[str, ...]:
    """Every class class_name transitively extends, each once and after
    its own supers, supers in declared order. A class met again on its
    own path raises InheritanceCycle naming the path, as "A -> B -> A";
    an unknown class raises UnknownClass."""
    return lineage(class_name, lambda n: schema.get_class(n).supers)[:-1]


def is_subclass(schema: WarehouseSchema, ci: str, cj: str) -> bool:
    """True iff ci is cj or transitively extends it."""
    schema.get_class(ci)
    schema.get_class(cj)
    return ci == cj or cj in transitive_supers(schema, ci)


def check_subclass_laws(
    schema: WarehouseSchema,
    ci: str,
    cj: str,
    extensions: dict[str, set] | None = None,
) -> list[str]:
    """Confirm the subclass laws for ci below cj; empty list means ok.

    Checks the type-superset condition, the extension-subset condition
    when extensions are supplied (class name -> oid set), and the
    filter-superset conditions when both classes share an environment.
    """
    problems: list[str] = []
    if not is_subclass(schema, ci, cj):
        return [f"{ci!r} is not a subclass of {cj!r}"]
    sub_names = {p.name for p in flatten_type(schema, ci)}
    sup_names = {p.name for p in flatten_type(schema, cj)}
    if not sub_names >= sup_names:
        problems.append(f"type of {ci!r} misses {sorted(sup_names - sub_names)}")
    if extensions is not None:
        if not set(extensions.get(ci, set())) <= set(extensions.get(cj, set())):
            problems.append(f"extension of {ci!r} is not within {cj!r}")
    env_i = schema.environment_of(ci)
    if env_i is not None and env_i is schema.environment_of(cj):
        tempo_i, archi_i = effective_filters(schema, ci)
        tempo_j, archi_j = effective_filters(schema, cj)
        if not tempo_i >= tempo_j:
            problems.append(f"temporal filter of {ci!r} misses {sorted(tempo_j - tempo_i)}")
        if not set(archi_i) >= set(archi_j):
            problems.append(
                f"archive filter of {ci!r} misses {sorted(set(archi_j) - set(archi_i))}"
            )
    return problems


def effective_filters(
    schema: WarehouseSchema, class_name: str
) -> tuple[frozenset[str], dict[str, str]]:
    """Filters in force for a class: own plus same-environment supers'.

    Temporal filters are the union. Of several archive functions for one
    property, the class's own wins, then the later entry in its lineage.
    A class outside every environment has empty effective filters, no
    matter what it or its supers declare.
    """
    env = schema.environment_of(class_name)
    if env is None:
        return frozenset(), {}
    tempo: set[str] = set()
    archi: dict[str, str] = {}
    for owner in (*transitive_supers(schema, class_name), class_name):
        if schema.environment_of(owner) is env:
            cls = schema.get_class(owner)
            tempo.update(cls.tempo)
            archi.update(cls.archi)
    return frozenset(tempo), archi


def historization_level(schema: WarehouseSchema, env_name: str) -> str:
    """graph, class, or attribute, per the environment's shape."""
    try:
        env = schema.environments[env_name]
    except KeyError:
        raise UnknownEnvironment(f"unknown environment {env_name!r}") from None
    if len(env.classes) > 1:
        return "graph"
    (only,) = env.classes
    tempo, _ = effective_filters(schema, only)
    attributes = {p.name for p in flatten_type(schema, only) if not p.is_relation}
    return "class" if attributes <= tempo else "attribute"


# ---------------------------------------------------------------------------
# schema validation


@dataclass(frozen=True)
class SchemaViolation:
    kind: str
    subject: str  # class or environment the violation is anchored to
    detail: str


def validate_schema(schema: WarehouseSchema) -> list[SchemaViolation]:
    """All schema-level consistency checks; an empty list means valid."""
    out: list[SchemaViolation] = []
    cyclic: set[str] = set()
    for name in sorted(schema.classes):
        try:
            transitive_supers(schema, name)
        except InheritanceCycle as exc:
            cyclic.add(name)
            out.append(SchemaViolation("inheritance-cycle", name, str(exc)))
        except UnknownClass as exc:
            cyclic.add(name)
            out.append(SchemaViolation("unknown-super", name, str(exc)))

    # derived-relation closure, grouped by missing endpoint class
    missing: dict[str, list[str]] = {}
    for name in sorted(schema.classes):
        for p in schema.classes[name].structure:
            if p.is_relation and p.target not in schema.classes:
                missing.setdefault(p.target, []).append(f"{name}.{p.name}")
    for target in sorted(missing):
        out.append(
            SchemaViolation(
                "relation-closure",
                target,
                f"relations {', '.join(missing[target])} target {target!r}, "
                "which is not part of the warehouse",
            )
        )

    # environment membership rules
    membership: dict[str, list[str]] = {}
    for env_name in sorted(schema.environments):
        env = schema.environments[env_name]
        if not env.classes:
            out.append(SchemaViolation("environment-empty", env_name, "no classes"))
        for cname in env.classes:
            if cname not in schema.classes:
                out.append(
                    SchemaViolation(
                        "environment-unknown-class", env_name, f"unknown class {cname!r}"
                    )
                )
            else:
                membership.setdefault(cname, []).append(env_name)
    for cname in sorted(membership):
        if len(membership[cname]) > 1:
            out.append(
                SchemaViolation(
                    "environment-disjoint",
                    cname,
                    f"class belongs to environments {', '.join(membership[cname])}",
                )
            )
    for cname in sorted(schema.classes):
        cls = schema.classes[cname]
        if (cls.tempo or cls.archi) and cname not in membership:
            out.append(
                SchemaViolation(
                    "filtered-class-outside-environment",
                    cname,
                    "class declares filters but belongs to no environment",
                )
            )

    # filter contents
    for cname in sorted(schema.classes):
        if cname in cyclic:
            continue
        cls = schema.classes[cname]
        try:
            flat = {p.name: p for p in flatten_type(schema, cname)}
        except PropertyConflict as exc:
            out.append(SchemaViolation("property-conflict", cname, str(exc)))
            continue
        for prop in sorted({*cls.tempo, *cls.archi}):
            if prop not in flat:
                out.append(
                    SchemaViolation(
                        "filter-unknown-property", cname, f"filter names unknown property {prop!r}"
                    )
                )
        tempo, _ = effective_filters(schema, cname)
        for prop in sorted(cls.archi):
            if prop in flat and prop not in tempo:
                out.append(
                    SchemaViolation(
                        "archive-not-temporal",
                        cname,
                        f"archived property {prop!r} is not in the temporal filter",
                    )
                )
            fn, p = cls.archi[prop], flat.get(prop)
            # count and last take any property; the other folds need numbers
            if fn not in ("count", "last") and p is not None and (
                p.is_relation or p.value_type.kind not in NUMERIC_KINDS
            ):
                out.append(
                    SchemaViolation(
                        "archive-not-numeric",
                        cname,
                        f"archive {fn}({prop}) needs a Short, Long or Double attribute",
                    )
                )

    # retention bounds where archives exist
    for env_name in sorted(schema.environments):
        env = schema.environments[env_name]
        needs = any(
            effective_filters(schema, c)[1]
            for c in env.classes
            if c in schema.classes and c not in cyclic
        )
        cfg = schema.retention_for(env)
        if needs and cfg.keep_past_count is None and cfg.keep_past_duration is None:
            out.append(
                SchemaViolation(
                    "retention-missing",
                    env_name,
                    "classes archive history but no retention bound is configured",
                )
            )
    return out


# ---------------------------------------------------------------------------
# objects and states


class Now:
    """A store's now: the end of every open current state in it.

    One Now is shared by a store, its working copies and the open states
    of all their objects, so a refresh, or a later patch, moves the end
    of every open state at once, without writing to any. instant is
    None only while an initial load builds the store's first objects.
    """

    __slots__ = ("instant",)

    def __init__(self, instant: Instant | None = None):
        self.instant = instant


class State:
    """A value and the granules it holds over.

    An active object's current state is open: it holds its store's Now,
    and its domain is the stored one grown to end at now, read anew on
    each access, as a NOW-relative end is in Clifford et al., "On the
    Semantics of 'Now' in Databases" (TODS 1997). The stored domain is
    what the engine last wrote: the state's start, or a later end that a
    patch set in a file an older build wrote. Past states and a frozen
    object's current state are closed: their domain is the stored one.
    Equality compares the domains as read.

    A past state never changes once pushed, so it is encoded once: text
    holds its store-file form, read from the file or set at its first
    save, and None until then. A state's text is never compared. A past
    state read from a store file starts deferred: it holds its text, its
    domain and value slots are empty, and _load(state, name), which only
    a deferred state holds, fills them on the first read of either; a
    read of the domain alone may decode the domain alone.
    """

    __slots__ = ("stored", "value", "now", "text", "_load")

    def __init__(self, domain: TemporalDomain, value: dict[str, Any], now: Now | None = None):
        self.stored = domain
        self.value = value
        self.now = now
        self.text: bytes | None = None

    @classmethod
    def deferred(cls, text: bytes, load: Callable[[State, str], None]) -> State:
        """A closed state whose domain and value load decodes from text."""
        state = cls.__new__(cls)
        state.now = None
        state.text = text
        state._load = load
        return state

    def __getattr__(self, name: str) -> Any:
        # reached only for an empty slot or an unknown name, so only a
        # deferred state comes here for its domain or value; a load that
        # raises leaves the slot empty, and the next read raises again
        if name not in ("stored", "value"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._load(self, name)
        return object.__getattribute__(self, name)

    @property
    def domain(self) -> TemporalDomain:
        if self.now is None or self.now.instant is None:
            return self.stored
        return extend_end(self.stored, self.now.instant.tick)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self.domain == other.domain and self.value == other.value

    def __repr__(self) -> str:
        return f"State(stored={self.stored!r}, value={self.value!r}, open={self.now is not None})"


@dataclass
class ArchiveState:
    domain: TemporalDomain
    # property -> {"function": name, "value": ..., and "count"/"sum" for avg}
    aggregates: dict[str, dict[str, Any]]


@dataclass(slots=True)
class WarehouseObject:
    """An object and its states.

    Objects are slotted, since a load builds one per object of the store.
    An object read from a store file may start deferred: it holds its
    oid, class, status and source key, its current, past and archives
    slots are empty, and _load, which an ordinary object leaves None,
    decodes their states when one of them is first read. line holds the
    store file line it was read from, and crc the CRC-32 that the file's
    index gives that line, until Store.touch drops the line.
    """

    oid: Oid
    class_name: str
    current: State
    past: list[State] = field(default_factory=list)
    archives: list[ArchiveState] = field(default_factory=list)
    status: str = "active"  # active | frozen
    source_key: tuple[tuple[str, str | Oid], ...] = ()
    _load: Callable[[], tuple[State, list[State], list[ArchiveState]]] | None = field(
        default=None, repr=False, compare=False
    )
    line: bytes | None = field(default=None, repr=False, compare=False)
    crc: int | None = field(default=None, repr=False, compare=False)

    @classmethod
    def deferred(
        cls,
        oid: Oid,
        class_name: str,
        status: str,
        source_key: tuple[tuple[str, str | Oid], ...],
        load: Callable[[], tuple[State, list[State], list[ArchiveState]]],
        line: bytes | None = None,
        crc: int | None = None,
    ) -> WarehouseObject:
        """An object whose current, past and archive states load() returns
        on their first read."""
        obj = cls.__new__(cls)
        obj.oid = oid
        obj.class_name = class_name
        obj.status = status
        obj.source_key = source_key
        obj._load = load
        obj.line = line
        obj.crc = crc
        return obj

    def copy(self) -> WarehouseObject:
        """A copy to change without changing this object: a new current
        state and new past and archive lists. The states in those lists
        and the value dicts stay shared, since the engine replaces them
        and never changes them in place."""
        current = self.current
        return WarehouseObject(
            self.oid,
            self.class_name,
            State(current.stored, current.value, current.now),
            list(self.past),
            list(self.archives),
            self.status,
            self.source_key,
        )

    @property
    def decoded(self) -> bool:
        """Whether the object's states are decoded; an object that was not
        read from a store file always is."""
        return self._load is None

    def decode(self) -> None:
        """Decode a deferred object's states now; raises as their first
        read would."""
        getattr(self, "current")

    def __getattr__(self, name: str) -> Any:
        # reached only for an empty slot or an unknown name, so a decoded or
        # ordinary object never comes here for its states; the name is
        # checked first, so an empty _load slot cannot recurse; a load that
        # raises leaves the object deferred, and the next read raises again
        load = self._load if name in ("current", "past", "archives") else None
        if load is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.current, self.past, self.archives = load()
        self._load = None
        return getattr(self, name)

    def all_domains(self) -> list[TemporalDomain]:
        out = [self.current.domain]
        out.extend(s.domain for s in self.past)
        out.extend(a.domain for a in self.archives)
        return out


def lifecycle_span(obj: WarehouseObject) -> Interval:
    """Bounding interval over every state domain of the object."""
    ticks = [t for d in obj.all_domains() for iv in d.intervals for t in (iv.start.tick, iv.end.tick)]
    unit = obj.current.domain.unit
    return interval(unit, min(ticks), max(ticks))


def state_at(obj: WarehouseObject, t: Instant):
    """Locate the object's state holding instant t.

    Returns ("current"|"past", State) or ("archive", ArchiveState), or
    None when t falls outside every state domain.
    """
    if domain_contains(obj.current.domain, t):
        return ("current", obj.current)
    for s in obj.past:
        if domain_contains(s.domain, t):
            return ("past", s)
    for a in obj.archives:
        if domain_contains(a.domain, t):
            return ("archive", a)
    return None


def check_state_disjointness(obj: WarehouseObject) -> list[str]:
    """Overlap check across all states; empty means ok.

    Sweeps every state's intervals in start order, so the cost follows the
    number of intervals, not the granules they span. Each interval that
    overlaps an earlier one is reported against the earlier interval that
    reaches furthest.
    """
    labels = [("current", obj.current.domain)]
    labels += [(f"past[{i}]", s.domain) for i, s in enumerate(obj.past)]
    labels += [(f"archive[{i}]", a.domain) for i, a in enumerate(obj.archives)]
    spans = sorted(
        (iv.start.tick, iv.end.tick, label) for label, dom in labels for iv in dom.intervals
    )
    problems: list[str] = []
    reach: tuple[int, str] | None = None  # furthest end so far, and its state
    for start, end, label in spans:
        if reach is not None and start <= reach[0]:
            problems.append(
                f"granules {start}..{min(end, reach[0])} in both {reach[1]} and {label}"
            )
        if reach is None or end > reach[0]:
            reach = (end, label)
    return problems

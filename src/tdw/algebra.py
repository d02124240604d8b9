"""Evaluator for the construction algebra.

Every node yields a ClassBuild: a structure of properties plus rows
carrying their originating source keys. Its properties are the model's
PropertyDef records, each tagged with the binder it came from, so a
warehouse class's flattened type enters a build with only its binder
set. Rows are in source-key order so evaluation is reproducible.
Intermediate builds play the role of temporary classes in a composed
chain. A comparison atom reads its operator from expr.COMPARISON_OPS,
the table the parser accepts operators from.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Any, Callable, Iterable, Iterator

from .errors import (
    AmbiguousProperty,
    EmptyOperands,
    NameCollision,
    NonNumericAggregate,
    PropertyConflict,
    TypeInferenceError,
    TypeMismatchInPredicate,
    UnknownPath,
    UnknownProperty,
)
from .expr import (
    COMPARISON_OPS,
    AggCall,
    Aliased,
    Augment,
    AugmentBinding,
    Comparison,
    Containment,
    Hide,
    Join,
    MappingExpr,
    Path,
    Predicate,
    Project,
    Select,
    SourceRef,
)
from .model import PropertyDef, merge_key
from .source import TYPE_KEYWORDS, Relationship, Snapshot, SourceSchema, SourceType, scalar

_NUMERIC = ("short", "long", "double")


@dataclass(frozen=True)
class Row:
    key: tuple[tuple[str, str], ...]  # ordered (interface, id) provenance
    values: tuple[Any, ...]  # aligned with the build structure
    binders: tuple[tuple[str, Any], ...] = ()  # binder -> identity token

    def binder_id(self, name: str) -> Any:
        for binder, token in self.binders:
            if binder == name:
                return token
        return None


@dataclass
class ClassBuild:
    """A structure and its rows in key order. Keys are distinct except in
    the engine's build of a class with two objects made from one record.
    build_from_interface, eval_join and eval_specialize order the keys
    they make; every other node keeps its input's order."""

    structure: list[PropertyDef]
    rows: list[Row] = field(default_factory=list)

    def names(self) -> list[str]:
        return [p.name for p in self.structure]

    def binder_names(self) -> set[str]:
        return {p.binder for p in self.structure if p.binder}


def _sorted_rows(rows: Iterable[Row]) -> list[Row]:
    out = sorted(rows, key=lambda r: r.key)
    seen = set()
    for r in out:
        if r.key in seen:
            raise NameCollision(f"duplicate source key {r.key} in build")
        seen.add(r.key)
    return out


# ---------------------------------------------------------------------------
# path resolution


def locate(build: ClassBuild, path: Path) -> tuple[int, tuple[str, ...]]:
    """Resolve a dotted path to (structure index, struct-field tail)."""
    segs = path.segments
    binders = build.binder_names()
    if len(segs) >= 2 and segs[0] in binders:
        hits = [
            i
            for i, p in enumerate(build.structure)
            if p.binder == segs[0] and p.name == segs[1]
        ]
        if not hits:
            raise UnknownPath(f"no property {segs[1]!r} under binder {segs[0]!r}")
        return hits[0], segs[2:]
    hits = [i for i, p in enumerate(build.structure) if p.name == segs[0]]
    if not hits:
        raise UnknownPath(f"no property {segs[0]!r} in build")
    if len(hits) > 1:
        raise AmbiguousProperty(
            f"property {segs[0]!r} is ambiguous; qualify it with a binder name"
        )
    return hits[0], segs[1:]


def _drill_type(prop: PropertyDef, tail: tuple[str, ...], path: Path) -> SourceType:
    if prop.is_relation:
        if tail:
            raise UnknownPath(f"{path}: cannot drill into relation {prop.name!r}")
        return scalar("string")  # identity references
    typ = prop.value_type
    for seg in tail:
        if typ is None or typ.kind != "struct":
            raise UnknownPath(f"{path}: {prop.name!r} has no field {seg!r}")
        match = dict(typ.fields).get(seg)
        if match is None:
            raise UnknownPath(f"{path}: struct has no field {seg!r}")
        typ = match
    return typ


def path_prop(build: ClassBuild, path: Path) -> tuple[PropertyDef, tuple[str, ...]]:
    idx, tail = locate(build, path)
    prop = build.structure[idx]
    _drill_type(prop, tail, path)  # validates the tail
    return prop, tail


def path_value(build: ClassBuild, row: Row, path: Path) -> Any:
    idx, tail = locate(build, path)
    return _drill(row.values[idx], tail)


def _drill(value: Any, tail: tuple[str, ...]) -> Any:
    for seg in tail:
        value = None if value is None else value.get(seg)
    return value


# ---------------------------------------------------------------------------
# predicates and aggregates


def check_predicate(build: ClassBuild, pred: Predicate) -> None:
    for atom in pred.atoms:
        if isinstance(atom, Comparison):
            prop, tail = path_prop(build, atom.path)
            if prop.is_relation:
                raise TypeMismatchInPredicate(f"{atom.path} is a relation, not a value")
            typ = _drill_type(prop, tail, atom.path)
            if typ.kind in ("set", "struct"):
                raise TypeMismatchInPredicate(f"{atom.path} is not a scalar")
            literal_numeric = isinstance(atom.literal, (int, float))
            if literal_numeric != (typ.kind in _NUMERIC):
                raise TypeMismatchInPredicate(
                    f"{atom.path} ({typ.kind}) compared with {atom.literal!r}"
                )
        else:
            prop, tail = path_prop(build, atom.path)
            if tail or not prop.is_relation or prop.cardinality != "many":
                raise TypeMismatchInPredicate(
                    f"{atom.path} must be a set-valued relation for containment"
                )
            if atom.binder not in build.binder_names():
                raise UnknownPath(f"containment names unknown binder {atom.binder!r}")


def _row_test(build: ClassBuild, pred: Predicate) -> Callable[[Row], bool]:
    """The predicate as a test on the build's rows; each atom's path is
    resolved once, not once per row."""
    located = [(atom, *locate(build, atom.path)) for atom in pred.atoms]

    def test(row: Row) -> bool:
        for atom, idx, tail in located:
            value = _drill(row.values[idx], tail)
            if isinstance(atom, Comparison):
                if value is None or not COMPARISON_OPS[atom.op](value, atom.literal):
                    return False
            elif row.binder_id(atom.binder) not in (value or []):
                return False
        return True

    return test


def agg_result_type(build: ClassBuild, agg: AggCall) -> SourceType:
    """Inferred result type of an aggregate over one row's set value."""
    prop, tail = path_prop(build, agg.path)
    if prop.is_relation:
        if prop.cardinality != "many":
            raise TypeInferenceError(f"{agg.path} is not set-valued")
        element: SourceType | None = None
    else:
        typ = _drill_type(prop, tail, agg.path)
        if typ.kind != "set":
            raise TypeInferenceError(f"{agg.path} is not set-valued")
        element = typ.element
    if agg.function == "count":
        return scalar("long")
    if element is None or element.kind not in _NUMERIC:
        raise NonNumericAggregate(f"{agg.function} needs numeric elements at {agg.path}")
    if agg.function in ("sum", "avg"):
        return scalar("double")
    return element  # min / max


def eval_agg(build: ClassBuild, agg: AggCall, row: Row) -> Any:
    members = path_value(build, row, agg.path)
    members = list(members) if members else []
    if agg.function == "count":
        return len(members)
    if agg.function == "sum":
        return sum(members) if members else 0
    if not members:
        return None  # empty-set avg/min/max carries the null marker
    if agg.function == "avg":
        return sum(members) / len(members)
    if agg.function == "max":
        return max(members)
    return min(members)


# ---------------------------------------------------------------------------
# extraction evaluators


def build_from_interface(
    schema: SourceSchema, interface: str, binder: str, snapshot: Snapshot | None
) -> ClassBuild:
    """One row per source record of the interface (subtypes included)."""
    structure: list[PropertyDef] = []
    for name, item, _owner in schema.table(interface).flat:
        if isinstance(item, Relationship):
            structure.append(
                PropertyDef(
                    name,
                    "derived",
                    "composition" if item.composition else "association",
                    None,
                    item.target,
                    item.cardinality,
                    item.inverse,
                    (name,),
                    binder,
                )
            )
        else:
            structure.append(
                PropertyDef(name, "derived", "attribute", item, source_path=(name,), binder=binder)
            )
    rows: list[Row] = []
    if snapshot is not None:
        for rec in snapshot.of_interface(schema, interface):
            values = tuple(
                list(rec.links.get(p.name, ())) if p.is_relation else rec.values.get(p.name)
                for p in structure
            )
            rows.append(Row(((rec.interface, rec.id),), values, ((binder, rec.id),)))
    return ClassBuild(structure, rows)


def eval_project(items, build: ClassBuild) -> ClassBuild:
    """Restrict the structure to the chosen properties ("items" pairs a
    path with an optional rename); rows keep their source keys."""
    picked: list[tuple[int, tuple[str, ...], str]] = []
    for path, rename in items:
        try:
            idx, tail = locate(build, path)
        except UnknownPath as exc:
            raise UnknownProperty(str(exc)) from None
        _drill_type(build.structure[idx], tail, path)
        picked.append((idx, tail, rename or path.segments[-1]))
    structure = []
    for idx, tail, name in picked:
        prop = build.structure[idx]
        if tail:
            typ = _drill_type(prop, tail, Path(prop.source_path + tail))
            structure.append(
                PropertyDef(
                    name,
                    prop.origin,
                    "attribute",
                    typ,
                    source_path=prop.source_path + tail,
                    binder=prop.binder,
                )
            )
        else:
            structure.append(replace(prop, name=name))
    rows = [
        Row(row.key, tuple(_drill(row.values[i], tail) for i, tail, _name in picked), row.binders)
        for row in build.rows
    ]
    return ClassBuild(structure, rows)


def eval_hide(paths, build: ClassBuild) -> ClassBuild:
    """Drop the named properties: project onto the complement."""
    drop = set()
    for path in paths:
        try:
            idx, tail = locate(build, path)
        except UnknownPath as exc:
            raise UnknownProperty(str(exc)) from None
        if tail:
            raise UnknownProperty(f"cannot hide struct field {path}; hide whole properties")
        drop.add(idx)
    structure = [p for i, p in enumerate(build.structure) if i not in drop]
    rows = [
        Row(r.key, tuple(v for i, v in enumerate(r.values) if i not in drop), r.binders)
        for r in build.rows
    ]
    return ClassBuild(structure, rows)


def eval_augment(bindings: Iterable[AugmentBinding], build: ClassBuild) -> ClassBuild:
    """Extend the structure with computed aggregates and specific slots."""
    structure = list(build.structure)
    names = {p.name for p in structure}
    plans: list[tuple[AugmentBinding, SourceType]] = []
    for b in bindings:
        if b.name in names:
            raise NameCollision(f"augment name {b.name!r} already exists")
        names.add(b.name)
        if b.agg is not None:
            plans.append((b, agg_result_type(build, b.agg)))
        else:
            plans.append((b, _declared_type(b.type_name)))
    for b, typ in plans:
        origin = "computed" if b.agg is not None else "specific"
        structure.append(PropertyDef(b.name, origin, "attribute", typ))
    rows = []
    for row in build.rows:
        extra = tuple(
            eval_agg(build, b.agg, row) if b.agg is not None else None for b, _ in plans
        )
        rows.append(Row(row.key, row.values + extra, row.binders))
    return ClassBuild(structure, rows)


def _declared_type(name: str | None) -> SourceType:
    if name not in TYPE_KEYWORDS:
        raise TypeInferenceError(f"unknown type {name!r} for specific property")
    return scalar(TYPE_KEYWORDS[name])


def eval_select(pred: Predicate, build: ClassBuild) -> ClassBuild:
    check_predicate(build, pred)
    test = _row_test(build, pred)
    return ClassBuild(list(build.structure), [r for r in build.rows if test(r)])


def eval_join(left: ClassBuild, right: ClassBuild, pred: Predicate) -> ClassBuild:
    """Predicate-filtered cartesian product; structures concatenate and
    colliding names stay distinguishable through binder qualification."""
    overlap = left.binder_names() & right.binder_names()
    if overlap:
        raise NameCollision(f"binders {sorted(overlap)} appear on both join sides")
    structure = list(left.structure) + list(right.structure)
    combined = ClassBuild(structure)
    check_predicate(combined, pred)
    rows = list(_matching_rows([left, right], combined, pred))
    return ClassBuild(structure, _sorted_rows(rows))


def _matching_rows(
    sides: list[ClassBuild], combined: ClassBuild, pred: Predicate
) -> Iterator[Row]:
    """The concatenations of one row per side that satisfy pred; combined
    is the sides' concatenated structure.

    A "set contains binder" atom whose set lies on an earlier side than
    the binder's makes a hash join: the binder's side is indexed by its
    token, and each earlier row probes with its set's distinct members,
    so only tuples that can match are built. The binder must be one that
    no row of an earlier side carries, since a concatenated row answers a
    binder from its first carrier. Other joins keep the nested loop.
    """
    ends = list(accumulate(len(side.structure) for side in sides))
    probes: list[tuple[int, int, dict[Any, list[Row]]] | None] = [None] * len(sides)
    drivers: list[Containment] = []
    carried: set[str] = set()  # binders carried by rows of earlier sides
    for j, side in enumerate(sides):
        own = side.binder_names() - carried
        for atom in pred.atoms:
            if not isinstance(atom, Containment) or atom.binder not in own:
                continue
            idx, _tail = locate(combined, atom.path)
            i = bisect_right(ends, idx)  # the side holding the set
            if i < j:
                index: dict[Any, list[Row]] = {}
                for row in side.rows:
                    index.setdefault(row.binder_id(atom.binder), []).append(row)
                probes[j] = (i, idx - (ends[i - 1] if i else 0), index)
                drivers.append(atom)
                break
        carried |= {b for row in side.rows for b, _tok in row.binders}
    test = _row_test(combined, Predicate(tuple(a for a in pred.atoms if a not in drivers)))

    def extend(picked: list[Row]) -> Iterator[Row]:
        j = len(picked)
        if j == len(sides):
            row = Row(
                tuple(kv for r in picked for kv in r.key),
                tuple(v for r in picked for v in r.values),
                tuple(b for r in picked for b in r.binders),
            )
            if test(row):
                yield row
            return
        if probes[j] is None:
            candidates: Iterable[Row] = sides[j].rows
        else:
            i, slot, index = probes[j]
            members = dict.fromkeys(picked[i].values[slot] or ())
            candidates = [row for m in members for row in index.get(m, ())]
        for row in candidates:
            yield from extend(picked + [row])

    return extend([])


def eval_aliased(build: ClassBuild, binder: str) -> ClassBuild:
    """Rebind every output property (and the row identity) to one name."""
    structure = [replace(p, binder=binder) for p in build.structure]
    rows = []
    for row in build.rows:
        tokens = {tok for _b, tok in row.binders}
        token = tokens.pop() if len(tokens) == 1 else None
        rows.append(Row(row.key, row.values, ((binder, token),)))
    return ClassBuild(structure, rows)


def eval_extraction(
    expr: MappingExpr, schema: SourceSchema, snapshot: Snapshot | None = None
) -> ClassBuild:
    """Bottom-up evaluation of a pure extraction chain.

    With snapshot=None only the structure is computed, which is how
    mappings are type-checked at resolution time.
    """
    if isinstance(expr, SourceRef):
        return build_from_interface(schema, expr.interface, expr.binder, snapshot)
    if isinstance(expr, Aliased):
        return eval_aliased(eval_extraction(expr.child, schema, snapshot), expr.binder)
    if isinstance(expr, Project):
        return eval_project(expr.items, eval_extraction(expr.child, schema, snapshot))
    if isinstance(expr, Hide):
        return eval_hide(expr.paths, eval_extraction(expr.child, schema, snapshot))
    if isinstance(expr, Augment):
        return eval_augment(expr.bindings, eval_extraction(expr.child, schema, snapshot))
    if isinstance(expr, Select):
        return eval_select(expr.pred, eval_extraction(expr.child, schema, snapshot))
    if isinstance(expr, Join):
        return eval_join(
            eval_extraction(expr.left, schema, snapshot),
            eval_extraction(expr.right, schema, snapshot),
            expr.pred,
        )
    raise TypeInferenceError(f"not an extraction node: {type(expr).__name__}")


# ---------------------------------------------------------------------------
# specialization (a generalization's extension is Store.extension_of)


def eval_specialize(operands: list[tuple[str, ClassBuild]], pred: Predicate) -> ClassBuild:
    """Build a subclass from tuples of operand rows satisfying the
    predicate. operands are (binder, build) pairs."""
    if not operands:
        raise EmptyOperands("specialize needs at least one operand")
    tagged = [eval_aliased(build, binder) for binder, build in operands]
    combined_structure = [p for b in tagged for p in b.structure]
    combined = ClassBuild(combined_structure)
    check_predicate(combined, pred)

    merged_structure: list[PropertyDef] = []
    merged_index: list[int] = []  # combined index feeding each merged slot
    by_name: dict[str, int] = {}
    for idx, prop in enumerate(combined_structure):
        prior = by_name.get(prop.name)
        if prior is None:
            by_name[prop.name] = len(merged_structure)
            merged_structure.append(replace(prop, binder=None))
            merged_index.append(idx)
        else:
            if merge_key(merged_structure[prior])[1:] != merge_key(prop)[1:]:
                raise PropertyConflict(
                    f"operands declare incompatible property {prop.name!r}"
                )
            merged_index[prior] = idx  # later operand wins the shared slot

    rows = [
        Row(row.key, tuple(row.values[i] for i in merged_index), row.binders)
        for row in _matching_rows(tagged, combined, pred)
    ]
    return ClassBuild(merged_structure, _sorted_rows(rows))

"""Evaluator for the construction algebra.

Every node yields a ClassBuild: a structure of properties plus rows
carrying their originating source keys. Its properties are the model's
PropertyDef records, each tagged with the binder it came from, so a
warehouse class's flattened type enters a build with only its binder
set. Rows made from source records are in source-key order, so
evaluation is reproducible. Intermediate builds play the role of
temporary classes in a composed chain. A comparison atom reads its
operator from expr.COMPARISON_OPS, the table the parser accepts
operators from.

Each predicate atom and each aggregate path is located and type-checked
once per evaluation, before any row is read, and its rows are read from
the slot found then. The resolver types every node by evaluating it over
no rows, so a mapping is checked by the code that runs it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Iterable, Iterator

from .errors import (
    AmbiguousProperty,
    NameCollision,
    NonNumericAggregate,
    TypeInferenceError,
    TypeMismatchInPredicate,
    UnknownPath,
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
from .model import PropertyDef
from .source import (
    NUMERIC_KINDS, TYPE_KEYWORDS, Relationship, Snapshot, SourceSchema, SourceType, scalar
)


@dataclass(frozen=True)
class Row:
    key: tuple[tuple[str, Any], ...]  # ordered (interface, id) or (class, oid) provenance
    values: tuple[Any, ...]  # aligned with the build structure
    binders: tuple[tuple[str, Any], ...] = ()  # binder -> identity token

    def binder_id(self, name: str) -> Any:
        for binder, token in self.binders:
            if binder == name:
                return token
        return None


@dataclass
class ClassBuild:
    """A structure and its rows. build_from_interface and eval_product
    make distinct keys in order; every other node keeps its input's
    order. The engine's build of a class extension keys each row by its
    object, (class, oid), in oid order."""

    structure: list[PropertyDef]
    rows: list[Row] = field(default_factory=list)

    def names(self) -> list[str]:
        return [p.name for p in self.structure]

    def binder_names(self) -> set[str]:
        return {p.binder for p in self.structure if p.binder}


# ---------------------------------------------------------------------------
# path resolution


def locate(build: ClassBuild, path: Path) -> tuple[int, tuple[str, ...]]:
    """Resolve a dotted path to (structure index, struct-field tail)."""
    segs = path.segments
    if len(segs) >= 2 and segs[0] in build.binder_names():
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


def _drill(value: Any, tail: tuple[str, ...]) -> Any:
    for seg in tail:
        value = None if value is None else value.get(seg)
    return value


# ---------------------------------------------------------------------------
# predicates and aggregates


Checked = tuple[Comparison | Containment, int, tuple[str, ...]]


def _checked_atoms(build: ClassBuild, pred: Predicate) -> list[Checked]:
    """Each atom of pred, in order, with its located slot and struct-field
    tail; each atom is located and typed once, before any row is read."""
    checked = []
    for atom in pred.atoms:
        idx, tail = locate(build, atom.path)
        prop = build.structure[idx]
        typ = _drill_type(prop, tail, atom.path)
        if isinstance(atom, Comparison):
            if prop.is_relation:
                raise TypeMismatchInPredicate(f"{atom.path} is a relation, not a value")
            if typ.kind in ("set", "struct"):
                raise TypeMismatchInPredicate(f"{atom.path} is not a scalar")
            literal_numeric = isinstance(atom.literal, (int, float))
            if literal_numeric != (typ.kind in NUMERIC_KINDS):
                raise TypeMismatchInPredicate(
                    f"{atom.path} ({typ.kind}) compared with {atom.literal!r}"
                )
        else:
            if tail or not prop.is_relation or prop.cardinality != "many":
                raise TypeMismatchInPredicate(
                    f"{atom.path} must be a set-valued relation for containment"
                )
            if atom.binder not in build.binder_names():
                raise UnknownPath(f"containment names unknown binder {atom.binder!r}")
        checked.append((atom, idx, tail))
    return checked


def _row_test(checked: list[Checked]) -> Callable[[Row], bool]:
    """The checked atoms as a test on a build's rows."""

    def test(row: Row) -> bool:
        for atom, idx, tail in checked:
            value = _drill(row.values[idx], tail)
            if isinstance(atom, Comparison):
                if value is None or not COMPARISON_OPS[atom.op](value, atom.literal):
                    return False
            elif row.binder_id(atom.binder) not in (value or []):
                return False
        return True

    return test


def agg_result_type(build: ClassBuild, agg: AggCall) -> tuple[SourceType, int, tuple[str, ...]]:
    """Inferred result type of an aggregate over one row's set value, with
    the set's located slot and struct-field tail."""
    idx, tail = locate(build, agg.path)
    prop = build.structure[idx]
    typ = _drill_type(prop, tail, agg.path)
    if not (prop.cardinality == "many" if prop.is_relation else typ.kind == "set"):
        raise TypeInferenceError(f"{agg.path} is not set-valued")
    element = typ.element  # None for a relation, whose members are identities
    if agg.function == "count":
        typ = scalar("long")
    elif element is None or element.kind not in NUMERIC_KINDS:
        raise NonNumericAggregate(f"{agg.function} needs numeric elements at {agg.path}")
    else:  # sum / avg make a double, min / max keep the element type
        typ = scalar("double") if agg.function in ("sum", "avg") else element
    return typ, idx, tail


def eval_agg(function: str, members: Any) -> Any:
    members = list(members) if members else []
    if function == "count":
        return len(members)
    if function == "sum":
        return sum(members) if members else 0
    if not members:
        return None  # empty-set avg/min/max carries the null marker
    if function == "avg":
        return sum(members) / len(members)
    if function == "max":
        return max(members)
    return min(members)


# ---------------------------------------------------------------------------
# extraction evaluators


def build_from_interface(
    schema: SourceSchema, interface: str, binder: str, snapshot: Snapshot | None
) -> ClassBuild:
    """One row per source record of the interface (subtypes included)."""
    table = schema.table(interface)
    structure: list[PropertyDef] = []
    for name, item, _owner in table.flat:
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
        slots = [(p.name, p.is_relation) for p in structure]
        for rec in snapshot.records.values():
            if rec.interface not in table.subtypes:
                continue
            links, values = rec.links, rec.values
            row = tuple(
                list(links.get(name, ())) if relation else values.get(name)
                for name, relation in slots
            )
            rows.append(Row(((rec.interface, rec.id),), row, ((binder, rec.id),)))
    return ClassBuild(structure, rows)


def eval_project(items, build: ClassBuild) -> ClassBuild:
    """Restrict the structure to the chosen properties ("items" pairs a
    path with an optional rename); rows keep their source keys."""
    picked: list[tuple[int, tuple[str, ...], str]] = []
    for path, rename in items:
        idx, tail = locate(build, path)
        _drill_type(build.structure[idx], tail, path)
        picked.append((idx, tail, rename or path.segments[-1]))
    return _project_slots(picked, build)


def eval_hide(paths, build: ClassBuild) -> ClassBuild:
    """Project onto every property the paths do not name; each path must
    name a whole property."""
    drop = set()
    for path in paths:
        idx, tail = locate(build, path)
        if tail:
            raise UnknownPath(f"cannot hide struct field {path}; hide whole properties")
        drop.add(idx)
    kept = [(i, (), p.name) for i, p in enumerate(build.structure) if i not in drop]
    return _project_slots(kept, build)


def _project_slots(picked: list[tuple[int, tuple[str, ...], str]], build: ClassBuild) -> ClassBuild:
    """The build restricted to the picked (slot, struct-field tail, name)s."""
    structure = []
    for idx, tail, name in picked:
        prop = build.structure[idx]
        if tail:  # a struct field, an attribute of its own
            path = prop.source_path + tail
            prop = prop.replaced(value_type=_drill_type(prop, tail, Path(path)), source_path=path)
        structure.append(prop.replaced(name=name))
    rows = [
        Row(row.key, tuple(_drill(row.values[i], tail) for i, tail, _name in picked), row.binders)
        for row in build.rows
    ]
    return ClassBuild(structure, rows)


def eval_augment(bindings: Iterable[AugmentBinding], build: ClassBuild) -> ClassBuild:
    """Extend the structure with computed aggregates and specific slots."""
    structure = list(build.structure)
    names = {p.name for p in structure}
    # per binding, an aggregate's (function, slot, tail) or None
    plans: list[tuple[str, int, tuple[str, ...]] | None] = []
    for b in bindings:
        if b.name in names:
            raise NameCollision(f"augment name {b.name!r} already exists")
        names.add(b.name)
        if b.agg is not None:
            typ, idx, tail = agg_result_type(build, b.agg)
            plans.append((b.agg.function, idx, tail))
            prop = PropertyDef(b.name, "computed", value_type=typ, function=b.agg.function)
        else:
            plans.append(None)
            prop = PropertyDef(b.name, "specific", value_type=_declared_type(b.type_name))
        structure.append(prop)
    rows = []
    for row in build.rows:
        extra = tuple(
            None if plan is None else eval_agg(plan[0], _drill(row.values[plan[1]], plan[2]))
            for plan in plans
        )
        rows.append(Row(row.key, row.values + extra, row.binders))
    return ClassBuild(structure, rows)


def _declared_type(name: str | None) -> SourceType:
    if name not in TYPE_KEYWORDS:
        raise TypeInferenceError(f"unknown type {name!r} for specific property")
    return scalar(TYPE_KEYWORDS[name])


def eval_select(pred: Predicate, build: ClassBuild) -> ClassBuild:
    test = _row_test(_checked_atoms(build, pred))
    return ClassBuild(list(build.structure), [r for r in build.rows if test(r)])


def eval_join(left: ClassBuild, right: ClassBuild, pred: Predicate) -> ClassBuild:
    return eval_product([left, right], pred)


def eval_product(sides: list[ClassBuild], pred: Predicate) -> ClassBuild:
    """Predicate-filtered cartesian product; structures concatenate and
    colliding names stay distinguishable through binder qualification."""
    seen: set[str] = set()
    for side in sides:
        overlap = seen & side.binder_names()
        if overlap:
            raise NameCollision(f"binders {sorted(overlap)} appear on two sides")
        seen |= side.binder_names()
    structure = [p for side in sides for p in side.structure]
    checked = _checked_atoms(ClassBuild(structure), pred)
    return ClassBuild(structure, sorted(_matching_rows(sides, checked), key=lambda r: r.key))


def _matching_rows(sides: list[ClassBuild], checked: list[Checked]) -> Iterator[Row]:
    """The concatenations of one row per side that satisfy the checked
    atoms, located in the sides' concatenated structure.

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
        for atom, idx, _tail in checked:
            if not isinstance(atom, Containment) or atom.binder not in own:
                continue
            i = bisect_right(ends, idx)  # the side holding the set
            if i < j:
                index: dict[Any, list[Row]] = {}
                for row in side.rows:
                    index.setdefault(row.binder_id(atom.binder), []).append(row)
                probes[j] = (i, idx - (ends[i - 1] if i else 0), index)
                drivers.append(atom)
                break
        carried |= {b for row in side.rows for b, _tok in row.binders}
    test = _row_test([c for c in checked if c[0] not in drivers])

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
    structure = [p.replaced(binder=binder) for p in build.structure]
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

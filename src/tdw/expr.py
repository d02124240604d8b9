"""AST for construction mappings: five extraction and two hierarchization
functions, plus predicates and aggregate calls.

Extraction nodes (SourceRef, Project, Hide, Augment, Select, Join) pull
from source interfaces; hierarchization nodes (Generalize, Specialize)
reorganize already-built warehouse classes. A class mapping is either a
pure extraction chain or one hierarchization node.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Union

Literal = Union[str, int, float]

COMPARISON_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Path:
    """Raw dotted reference, e.g. h.adresse.ville; resolution decides
    whether the first segment names a binder or a property."""

    segments: tuple[str, ...]

    def __str__(self) -> str:
        return ".".join(self.segments)


@dataclass(frozen=True)
class Comparison:
    path: Path
    op: str  # a key of COMPARISON_OPS
    literal: Literal


@dataclass(frozen=True)
class Containment:
    """True when the right binder's object is a member of the set-valued
    left path (the paper-style "collection = object" join predicate)."""

    path: Path
    binder: str


Atom = Union[Comparison, Containment]


@dataclass(frozen=True)
class Predicate:
    atoms: tuple[Atom, ...]  # conjunction


@dataclass(frozen=True)
class AggCall:
    function: str  # one of model.AGG_FUNCTIONS
    path: Path


@dataclass(frozen=True)
class AugmentBinding:
    name: str
    agg: AggCall | None = None  # computed when set
    type_name: str | None = None  # specific when set


class MappingExpr:
    """Base class for every mapping node."""


@dataclass(frozen=True)
class SourceRef(MappingExpr):
    interface: str
    binder: str


@dataclass(frozen=True)
class Aliased(MappingExpr):
    """child as binder: rebinds every output property to one name."""

    child: MappingExpr
    binder: str


@dataclass(frozen=True)
class Project(MappingExpr):
    items: tuple[tuple[Path, str | None], ...]  # (path, optional rename)
    child: MappingExpr


@dataclass(frozen=True)
class Hide(MappingExpr):
    paths: tuple[Path, ...]
    child: MappingExpr


@dataclass(frozen=True)
class Augment(MappingExpr):
    bindings: tuple[AugmentBinding, ...]
    child: MappingExpr


@dataclass(frozen=True)
class Select(MappingExpr):
    child: MappingExpr
    pred: Predicate


@dataclass(frozen=True)
class Join(MappingExpr):
    left: MappingExpr
    right: MappingExpr
    pred: Predicate


@dataclass(frozen=True)
class ClassOperand:
    binder: str
    class_name: str
    where: Predicate | None = None


@dataclass(frozen=True)
class Generalize(MappingExpr):
    props: tuple[Path, ...]
    operands: tuple[ClassOperand, ...]


@dataclass(frozen=True)
class Specialize(MappingExpr):
    operands: tuple[ClassOperand, ...]
    pred: Predicate


EXTRACTION_NODES = (SourceRef, Aliased, Project, Hide, Augment, Select, Join)


def is_extraction(expr: MappingExpr) -> bool:
    return isinstance(expr, EXTRACTION_NODES)


def _format_literal(lit: Literal) -> str:
    if isinstance(lit, str):
        return '"' + lit.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return repr(lit)


def format_predicate(pred: Predicate) -> str:
    parts = []
    for atom in pred.atoms:
        if isinstance(atom, Comparison):
            parts.append(f"{atom.path} {atom.op} {_format_literal(atom.literal)}")
        else:
            parts.append(f"{atom.path} contains {atom.binder}")
    return " and ".join(parts)


def format_mapping(expr: MappingExpr) -> str:
    """Canonical text; parse(format(parse(x))) is a fixpoint."""
    if isinstance(expr, SourceRef):
        return f"{expr.binder}: {expr.interface}"
    if isinstance(expr, Aliased):
        return f"{format_mapping(expr.child)} as {expr.binder}"
    if isinstance(expr, Project):
        items = ", ".join(
            str(p) + (f" as {rename}" if rename else "") for p, rename in expr.items
        )
        return f"project({items}, {format_mapping(expr.child)})"
    if isinstance(expr, Hide):
        paths = ", ".join(str(p) for p in expr.paths)
        return f"hide({paths}, {format_mapping(expr.child)})"
    if isinstance(expr, Augment):
        parts = ", ".join(format_binding(b) for b in expr.bindings)
        return f"augment({parts}, {format_mapping(expr.child)})"
    if isinstance(expr, Select):
        return f"select({format_mapping(expr.child)}, {format_predicate(expr.pred)})"
    if isinstance(expr, Join):
        return (
            f"join({format_mapping(expr.left)}, {format_mapping(expr.right)}, "
            f"{format_predicate(expr.pred)})"
        )
    if isinstance(expr, Generalize):
        props = ", ".join(str(p) for p in expr.props)
        ops = ", ".join(format_operand(o) for o in expr.operands)
        return f"generalize({props}, {ops})"
    if isinstance(expr, Specialize):
        ops = ", ".join(format_operand(o) for o in expr.operands)
        return f"specialize({ops}, {format_predicate(expr.pred)})"
    raise TypeError(f"not a mapping node: {expr!r}")


def format_binding(b: AugmentBinding) -> str:
    """name := function(path) for a computed binding, name : Type for a
    specific one."""
    if b.agg is not None:
        return f"{b.name} := {b.agg.function}({b.agg.path})"
    return f"{b.name} : {b.type_name}"


def format_operand(op: ClassOperand) -> str:
    """binder: Class, with its where clause if it has one."""
    text = f"{op.binder}: {op.class_name}"
    if op.where is not None:
        text += f" where {format_predicate(op.where)}"
    return text

"""Warehouse definition language: parser, printer, and resolver.

An .edw file declares warehouse classes (property origins are spelled
with D_/C_/S_ prefixes; a bare keyword means derived), per-class filter
blocks, environments with retention configs, and one construction
mapping per class. The class head, relation declarations and types are
parsed by the source schema's parsers, so the two languages cannot drift
apart. One table, PROPERTY_KEYWORDS, maps each property keyword to its
origin and kind; the parser reads it, and the printer reads it inverted,
writing the prefixed keyword. The parser builds the model's records:
a WarehouseSchema of WarehouseClass records, each holding its parsed
mapping, over PropertyDef and Environment records; the printer reads
the same records. resolve() checks a copy of them against a source
schema and returns it validated, with source origins and source paths
filled in. The full grammar is documented in docs/grammar.md.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from . import algebra
from .errors import (
    Error,
    ParseError,
    PropertyConflict,
    ResolveError,
    TypeInferenceError,
    UnknownClass,
    UnknownFunction,
    UnresolvedSourceProperty,
)
from .expr import (
    COMPARISON_OPS,
    AggCall,
    Aliased,
    Augment,
    AugmentBinding,
    ClassOperand,
    Comparison,
    Containment,
    Generalize,
    Hide,
    Join,
    MappingExpr,
    Path,
    Predicate,
    Project,
    Select,
    SourceRef,
    Specialize,
    format_mapping,
    is_extraction,
)
from .lexer import TokenStream, tokenize
from .model import (
    AGG_FUNCTIONS,
    ARCHIVE_FUNCTIONS,
    Environment,
    PropertyDef,
    RetentionConfig,
    SchemaViolation,
    WarehouseClass,
    WarehouseSchema,
    dependency_order,
    flatten_type,
    transitive_supers,
    validate_schema,
)
from .source import (
    TYPE_KEYWORDS,
    SourceSchema,
    check_inverse,
    format_class_head,
    format_relationship,
    parse_class_head,
    parse_relationship,
    parse_type,
    scalar,
)
from .temporal import UNITS

MAPPING_FUNCTIONS = ("select", "project", "hide", "augment", "join", "generalize", "specialize")

# property keyword -> (origin, kind); a bare keyword means derived
PROPERTY_KEYWORDS = {
    "attribute": ("derived", "attribute"),
    "D_attribute": ("derived", "attribute"),
    "C_attribute": ("computed", "attribute"),
    "S_attribute": ("specific", "attribute"),
    "relationship": ("derived", "association"),
    "D_relationship": ("derived", "association"),
    "S_relationship": ("specific", "association"),
    "composition": ("derived", "composition"),
    "D_composition": ("derived", "composition"),
}
# the printer's spelling: the prefixed keyword of each (origin, kind)
_PREFIXED_KEYWORD = {v: k for k, v in PROPERTY_KEYWORDS.items() if "_" in k}


# ---------------------------------------------------------------------------
# parsing


def parse_warehouse_def(text: str) -> WarehouseSchema:
    ts = TokenStream(tokenize(text))
    schema = WarehouseSchema("warehouse")
    mappings: dict[str, MappingExpr] = {}
    if ts.at("ident", "warehouse"):
        ts.next()
        schema.name = ts.expect("ident").value
        ts.expect("punct", ";")
    while not ts.at("eof"):
        tok = ts.peek()
        if tok.value == "interface":
            cls = _parse_class_decl(ts)
            if cls.name in schema.classes:
                raise ParseError(tok.line, tok.col, f"a unique class name ({cls.name!r} repeats)")
            schema.classes[cls.name] = cls
        elif tok.value == "Environment":
            env = _parse_environment(ts)
            if env.name in schema.environments:
                raise PropertyConflict(f"environment {env.name!r} declared twice")
            schema.environments[env.name] = env
        elif tok.value == "mapping":
            ts.next()
            cname = ts.expect("ident").value
            ts.expect("punct", "=")
            expr = _parse_mapping_expr(ts)
            ts.expect("punct", ";")
            if cname in mappings:
                raise ParseError(tok.line, tok.col, f"a single mapping for {cname!r}")
            mappings[cname] = expr
        elif tok.value == "config":
            ts.next()
            schema.global_config = _parse_config_block(ts)
        else:
            raise ts.error("'interface', 'Environment', 'mapping', or 'config'")
    # a mapping may come before its class
    for cname, expr in mappings.items():
        if cname not in schema.classes:
            raise UnknownClass(f"mapping declared for unknown class {cname!r}")
        schema.classes[cname].mapping = expr
    return schema


def _parse_class_decl(ts: TokenStream) -> WarehouseClass:
    name, supers, _line = parse_class_head(ts)
    cls = WarehouseClass(name, supers=supers)
    while not ts.accept("punct", "}"):
        cls.structure.append(_parse_property(ts))
    names = [p.name for p in cls.structure]
    if len(set(names)) < len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise PropertyConflict(f"{name!r} declares {dupes[0]!r} twice")
    if ts.at("ident", "with"):
        ts.next()
        ts.expect("ident", "filters")
        ts.expect("punct", "{")
        tempo: list[str] = []
        while not ts.accept("punct", "}"):
            if ts.accept("ident", "temporal"):
                tempo.extend(ts.idents())
                ts.expect("punct", ";")
            elif ts.accept("ident", "archive"):
                _parse_archive_entry(ts, cls.archi)
                while ts.accept("punct", ","):
                    _parse_archive_entry(ts, cls.archi)
                ts.expect("punct", ";")
            else:
                raise ts.error("'temporal' or 'archive'")
        cls.tempo = tuple(tempo)
    return cls


def _parse_archive_entry(ts: TokenStream, archi: dict[str, str]) -> None:
    fn_tok = ts.expect("ident")
    if fn_tok.value not in ARCHIVE_FUNCTIONS:
        raise ParseError(fn_tok.line, fn_tok.col, f"an archive function (found {fn_tok.value!r})")
    ts.expect("punct", "(")
    prop = ts.expect("ident").value
    ts.expect("punct", ")")
    if prop in archi:
        raise ParseError(fn_tok.line, fn_tok.col, f"a single archive function for {prop!r}")
    archi[prop] = fn_tok.value


def _parse_property(ts: TokenStream) -> PropertyDef:
    tok = ts.peek()
    if tok.value in PROPERTY_KEYWORDS:
        ts.next()
        origin, kind = PROPERTY_KEYWORDS[tok.value]
        if kind == "attribute":
            typ = parse_type(ts)
            name = ts.expect("ident").value
            ts.expect("punct", ";")
            return PropertyDef(name, origin, kind, typ)
        rel = parse_relationship(ts)
        return PropertyDef(rel.name, origin, kind, None, rel.target, rel.cardinality, rel.inverse)
    if tok.value in ("C_relationship", "C_composition", "S_composition"):
        raise ParseError(tok.line, tok.col, "an attribute or derived relation (computed "
                         "properties are attributes only)")
    raise ts.error("a property declaration")


def _parse_environment(ts: TokenStream) -> Environment:
    ts.expect("ident", "Environment")
    name = ts.expect("ident").value
    ts.expect("punct", "{")
    ts.expect("ident", "class")
    classes = ts.idents()
    ts.expect("punct", ";")
    config = RetentionConfig()
    if ts.accept("ident", "config"):
        config = _parse_config_block(ts)
    ts.expect("punct", "}")
    return Environment(name, tuple(classes), config)


def _parse_config_block(ts: TokenStream) -> RetentionConfig:
    ts.expect("punct", "{")
    refresh = None
    keep_count = None
    keep_duration = None
    while not ts.accept("punct", "}"):
        if ts.accept("ident", "refresh"):
            ts.expect("ident", "every")
            tok = ts.peek()
            count = _parse_count(ts)
            if count < 1:
                raise ParseError(
                    tok.line, tok.col, f"a positive refresh period (found {tok.value!r})"
                )
            refresh = (count, _parse_unit(ts))
            ts.expect("punct", ";")
        elif ts.accept("ident", "keep"):
            if ts.at("number"):
                keep_count = _parse_count(ts)
                ts.expect("ident", "past")
                state_tok = ts.expect("ident")
                if state_tok.value not in ("state", "states"):
                    raise ParseError(state_tok.line, state_tok.col, "'states'")
            else:
                ts.expect("ident", "past")
                keep_duration = (_parse_count(ts), _parse_unit(ts))
            ts.expect("punct", ";")
        else:
            raise ts.error("'refresh' or 'keep'")
    return RetentionConfig(refresh, keep_count, keep_duration)


def _parse_count(ts: TokenStream) -> int:
    tok = ts.expect("number")
    if "." in tok.value:
        raise ParseError(tok.line, tok.col, f"an integer count (found {tok.value!r})")
    return int(tok.value)


def _parse_unit(ts: TokenStream) -> str:
    tok = ts.expect("ident")
    unit = tok.value.removesuffix("s")
    if unit not in UNITS:
        raise ParseError(tok.line, tok.col, f"a time unit (found {tok.value!r})")
    return unit


# mapping expressions -------------------------------------------------------


def parse_mapping(text: str) -> MappingExpr:
    ts = TokenStream(tokenize(text))
    expr = _parse_mapping_expr(ts)
    ts.expect("eof")
    return expr


def _parse_mapping_expr(ts: TokenStream) -> MappingExpr:
    tok = ts.peek()
    if tok.kind != "ident":
        raise ts.error("a mapping expression")
    if tok.value in MAPPING_FUNCTIONS and ts.peek(1).value == "(":
        expr = _parse_call(ts)
    elif ts.peek(1).value == ":":
        binder = ts.next().value
        ts.next()
        interface = ts.expect("ident").value
        expr = SourceRef(interface, binder)
    elif tok.value in MAPPING_FUNCTIONS:
        raise ts.error(f"'(' after {tok.value!r}")
    else:
        raise UnknownFunction(f"unknown mapping function {tok.value!r}")
    if ts.accept("ident", "as"):
        expr = Aliased(expr, ts.expect("ident").value)
    return expr


def _parse_call(ts: TokenStream) -> MappingExpr:
    fn = ts.expect("ident").value
    ts.expect("punct", "(")
    if fn == "select":
        child = _parse_mapping_expr(ts)
        ts.expect("punct", ",")
        pred = _parse_predicate(ts)
        ts.expect("punct", ")")
        return Select(child, pred)
    if fn in ("project", "hide"):
        paths: list[tuple[Path, str | None]] = []
        while True:
            if _at_expr_start(ts):
                child = _parse_mapping_expr(ts)
                ts.expect("punct", ")")
                if not paths:
                    raise ts.error(f"at least one property before the {fn} child")
                if fn == "project":
                    return Project(tuple(paths), child)
                return Hide(tuple(p for p, _ in paths), child)
            path = _parse_path(ts)
            rename = None
            if ts.accept("ident", "as"):
                rename = ts.expect("ident").value
            if rename is not None and fn == "hide":
                raise ts.error("no rename inside hide")
            paths.append((path, rename))
            ts.expect("punct", ",")
    if fn == "augment":
        bindings: list[AugmentBinding] = []
        while True:
            if _at_expr_start(ts):
                child = _parse_mapping_expr(ts)
                ts.expect("punct", ")")
                if not bindings:
                    raise ts.error("at least one augment binding")
                return Augment(tuple(bindings), child)
            name = ts.expect("ident").value
            if ts.accept("punct", ":="):
                agg_tok = ts.expect("ident")
                if agg_tok.value not in AGG_FUNCTIONS:
                    raise UnknownFunction(f"unknown aggregate {agg_tok.value!r}")
                ts.expect("punct", "(")
                path = _parse_path(ts)
                ts.expect("punct", ")")
                bindings.append(AugmentBinding(name, agg=AggCall(agg_tok.value, path)))
            elif ts.accept("punct", ":"):
                # a type keyword: _at_expr_start took any other name as a child
                bindings.append(AugmentBinding(name, type_name=ts.expect("ident").value))
            else:
                raise ts.error("':=' or ':' in augment binding")
            ts.expect("punct", ",")
    if fn == "join":
        left = _parse_mapping_expr(ts)
        ts.expect("punct", ",")
        right = _parse_mapping_expr(ts)
        ts.expect("punct", ",")
        pred = _parse_predicate(ts)
        ts.expect("punct", ")")
        return Join(left, right, pred)
    if fn == "generalize":
        props: list[Path] = []
        operands: list[ClassOperand] = []
        while True:
            if ts.at("ident") and ts.peek(1).value == ":":
                operands.append(_parse_operand(ts))
            elif operands:
                raise ts.error("another operand (properties come before operands)")
            else:
                props.append(_parse_path(ts))
            if not ts.accept("punct", ","):
                break
        ts.expect("punct", ")")
        if not props or not operands:
            raise ts.error("generalize needs properties and operands")
        return Generalize(tuple(props), tuple(operands))
    # specialize, the last of MAPPING_FUNCTIONS, the only names called here
    operands = []
    while ts.at("ident") and ts.peek(1).value == ":":
        operands.append(_parse_operand(ts))
        ts.expect("punct", ",")
    pred = _parse_predicate(ts)
    ts.expect("punct", ")")
    if not operands:
        raise ts.error("specialize needs at least one operand")
    return Specialize(tuple(operands), pred)


def _at_expr_start(ts: TokenStream) -> bool:
    tok = ts.peek()
    if tok.kind != "ident":
        return False
    nxt = ts.peek(1)
    if tok.value in MAPPING_FUNCTIONS and nxt.value == "(":
        return True
    # binder: Interface (a source reference child)
    return nxt.value == ":" and ts.peek(2).kind == "ident" and ts.peek(2).value not in TYPE_KEYWORDS


def _parse_operand(ts: TokenStream) -> ClassOperand:
    binder = ts.expect("ident").value
    ts.expect("punct", ":")
    cname = ts.expect("ident").value
    where = None
    if ts.accept("ident", "where"):
        where = _parse_predicate(ts)
    return ClassOperand(binder, cname, where)


def _parse_path(ts: TokenStream) -> Path:
    segs = [ts.expect("ident").value]
    while ts.accept("punct", "."):
        segs.append(ts.expect("ident").value)
    return Path(tuple(segs))


def _parse_predicate(ts: TokenStream) -> Predicate:
    atoms = [_parse_atom(ts)]
    while ts.accept("ident", "and"):
        atoms.append(_parse_atom(ts))
    return Predicate(tuple(atoms))


def _parse_atom(ts: TokenStream):
    path = _parse_path(ts)
    if ts.accept("ident", "contains") or ts.accept("punct", "∋"):
        return Containment(path, ts.expect("ident").value)
    op_tok = ts.peek()
    if op_tok.kind == "punct" and op_tok.value in COMPARISON_OPS:
        ts.next()
        return Comparison(path, op_tok.value, _parse_literal(ts))
    raise ts.error("a comparison operator or 'contains'")


def _parse_literal(ts: TokenStream):
    if ts.at("string"):
        return ts.next().value
    negative = bool(ts.accept("punct", "-"))
    tok = ts.expect("number")
    value = float(tok.value) if "." in tok.value else int(tok.value)
    return -value if negative else value


# ---------------------------------------------------------------------------
# printing


def print_warehouse_def(schema: WarehouseSchema) -> str:
    """Canonical .edw text, mappings in class order; parse(print(parse(x)))
    is a fixpoint."""
    lines: list[str] = [f"warehouse {schema.name};", ""]
    for cls in schema.classes.values():
        lines.append(format_class_head(cls.name, cls.supers))
        for p in cls.structure:
            keyword = _PREFIXED_KEYWORD[(p.origin, p.kind)]
            if p.is_relation:
                lines.append(f"    {keyword} {format_relationship(p)}")
            else:
                lines.append(f"    {keyword} {p.value_type} {p.name};")
        lines.append("}")
        if cls.tempo or cls.archi:
            lines.append("with filters {")
            if cls.tempo:
                lines.append("    temporal " + ", ".join(cls.tempo) + ";")
            if cls.archi:
                entries = ", ".join(f"{fn}({prop})" for prop, fn in cls.archi.items())
                lines.append(f"    archive {entries};")
            lines.append("}")
        lines.append("")
    for env in schema.environments.values():
        lines.append(f"Environment {env.name} {{")
        lines.append("    class " + ", ".join(env.classes) + ";")
        cfg_lines = _config_lines(env.config)
        if cfg_lines:
            lines.append("    config {")
            lines.extend("        " + c for c in cfg_lines)
            lines.append("    }")
        lines.append("}")
        lines.append("")
    cfg_lines = _config_lines(schema.global_config)
    if cfg_lines:
        lines.append("config {")
        lines.extend("    " + c for c in cfg_lines)
        lines.append("}")
        lines.append("")
    for cls in schema.classes.values():
        if cls.mapping is not None:
            lines.append(f"mapping {cls.name} = {format_mapping(cls.mapping)};")
    return "\n".join(lines).rstrip() + "\n"


def _config_lines(cfg: RetentionConfig) -> list[str]:
    out = []
    if cfg.refresh_period is not None:
        count, unit = cfg.refresh_period
        out.append(f"refresh every {count} {unit}{'s' if count != 1 else ''};")
    if cfg.keep_past_count is not None:
        out.append(f"keep {cfg.keep_past_count} past states;")
    if cfg.keep_past_duration is not None:
        count, unit = cfg.keep_past_duration
        out.append(f"keep past {count} {unit}{'s' if count != 1 else ''};")
    return out


# ---------------------------------------------------------------------------
# resolution


def resolve(parsed: WarehouseSchema, src: SourceSchema, strict: bool = True) -> WarehouseSchema:
    """Resolve a parsed definition against the source schema, in a copy
    that leaves the parsed one as it was parsed.

    With strict=True any schema violation is promoted to ResolveError;
    hard mismatches between declarations and mappings raise regardless.
    """
    schema, violations = resolve_with_violations(parsed, src)
    if strict and violations:
        detail = "; ".join(f"{v.kind}({v.subject}): {v.detail}" for v in violations)
        raise ResolveError(f"invalid warehouse schema: {detail}", violations)
    return schema


def resolve_with_violations(
    parsed: WarehouseSchema, src: SourceSchema
) -> tuple[WarehouseSchema, list[SchemaViolation]]:
    # resolution fills in a copy, whose structure lists _match_declared
    # rewrites, so the parsed records stay as parsed; the parser set the
    # mappings, and the subtrees, source origins and source paths set here
    # are read by no schema check, so the copy's violations are final
    classes = {
        name: WarehouseClass(name, list(c.structure), c.supers, c.mapping, c.tempo, c.archi)
        for name, c in parsed.classes.items()
    }
    schema = WarehouseSchema(parsed.name, classes, dict(parsed.environments), parsed.global_config)
    violations = validate_schema(schema)
    broken = {
        v.subject
        for v in violations
        if v.kind in ("inheritance-cycle", "unknown-super", "property-conflict")
    }

    # the class lattice; a broken class, whose lineage may not walk, is in no subtree
    for name in schema.classes.keys() - broken:
        for owner in (*transitive_supers(schema, name), name):
            schema.classes[owner].subtree |= {name}

    structures: dict[str, algebra.ClassBuild] = {}
    # phase 1: extraction mappings fix each class's source origins
    for cls in schema.classes.values():
        if cls.role != "extraction" or cls.name in broken:
            continue
        nodes = list(_nodes(cls.mapping))
        if not all(map(is_extraction, nodes)):
            raise ResolveError("hierarchization nodes cannot appear inside an extraction chain")
        structures[cls.name] = _evaluate(cls, algebra.eval_extraction, cls.mapping, src)
        cls.source_origins = frozenset(n.interface for n in nodes if isinstance(n, SourceRef))

    # phase 2: hierarchization mappings, in operand dependency order
    for name in hierarchization_order(schema, broken):
        cls = schema.classes[name]
        _resolve_hierarchization(schema, src, cls)

    # phase 3: declared structures checked against extraction results
    for cls in schema.classes.values():
        if cls.name in broken or cls.name not in structures:
            continue
        _match_declared(schema, src, cls, structures[cls.name])

    _check_warehouse_inverses(schema)
    return schema, violations


def _nodes(expr: MappingExpr) -> Iterator[MappingExpr]:
    """expr and every node of its extraction chain, outermost first; a
    generalize or specialize node is yielded but not walked into."""
    yield expr
    if isinstance(expr, (Project, Hide, Augment, Select, Aliased)):
        yield from _nodes(expr.child)
    elif isinstance(expr, Join):
        yield from _nodes(expr.left)
        yield from _nodes(expr.right)


def hierarchization_order(schema: WarehouseSchema, broken: Iterable[str] = ()) -> list[str]:
    """The classes with a hierarchization mapping, each after the classes
    its operands name, leaving out broken classes and every mapping over
    one."""
    # unknown operand classes are not keys, so they pass through and the
    # resolver reports them precisely instead of claiming a cycle
    deps = {
        name: [op.class_name for op in cls.mapping.operands]
        for name, cls in schema.classes.items()
        if cls.mapping is not None and not is_extraction(cls.mapping)
    }
    # a mapping over a broken class is skipped like the class itself
    skipped = set(broken)
    while more := {n for n, ops in deps.items() if skipped.intersection(ops)} - skipped:
        skipped |= more
    return dependency_order({n: ops for n, ops in deps.items() if n not in skipped})


def class_structure(schema: WarehouseSchema, name: str, binder: str) -> list[PropertyDef]:
    """A warehouse class's flattened type as build properties under binder."""
    return [p.replaced(binder=binder) for p in flatten_type(schema, name)]


def _resolve_hierarchization(schema: WarehouseSchema, src: SourceSchema, cls: WarehouseClass) -> None:
    expr = cls.mapping
    origins: set[str] = set()
    for op in expr.operands:
        target = schema.classes.get(op.class_name)
        if target is None:
            raise UnknownClass(f"mapping of {cls.name!r} names unknown class {op.class_name!r}")
        origins |= set(target.source_origins)
    cls.source_origins = frozenset(origins)

    own_names = [p.name for p in cls.structure]
    if isinstance(expr, Generalize):
        # an operand that extends cls inherits every lifted property, and
        # a differing definition reaching it through another super is a
        # property-conflict violation that skips this mapping
        binders = {op.binder for op in expr.operands}
        lifted = [_lifted_name(binders, p) for p in expr.props]
        if sorted(own_names) != sorted(lifted):
            raise ResolveError(
                f"{cls.name!r} must declare exactly the generalized properties "
                f"{sorted(lifted)} (declares {sorted(own_names)})"
            )
        for op in expr.operands:
            operand = schema.classes[op.class_name]
            if cls.name not in operand.supers:
                raise ResolveError(f"{op.class_name!r} must extend {cls.name!r}")
            for name in lifted:
                if any(p.name == name for p in operand.structure):
                    raise ResolveError(
                        f"{op.class_name!r} must inherit {name!r} from {cls.name!r}, "
                        "not declare it"
                    )
            if op.where is not None:
                raise ResolveError(
                    f"generalize operand {op.binder!r} takes no where: every member "
                    f"of {op.class_name!r} belongs to {cls.name!r}"
                )
    else:  # Specialize
        # a row answers a binder for one operand only, so, as in a join,
        # no binder may name two
        binders = [op.binder for op in expr.operands]
        repeated = sorted({b for b in binders if binders.count(b) > 1})
        if repeated:
            raise ResolveError(f"specialize binder {repeated[0]!r} names more than one operand")
        builds: list[algebra.ClassBuild] = []
        for op in expr.operands:
            build = algebra.ClassBuild(class_structure(schema, op.class_name, op.binder))
            if op.where is not None:
                _evaluate(cls, algebra.eval_select, op.where, build)
            builds.append(build)
        if own_names:
            raise ResolveError(
                f"{cls.name!r} specializes its operands and must not declare "
                f"own properties (declares {sorted(own_names)})"
            )
        if set(cls.supers) != {op.class_name for op in expr.operands}:
            raise ResolveError(
                f"{cls.name!r} must extend exactly its specialize operands"
            )
        _evaluate(cls, algebra.eval_product, builds, expr.pred)


def _evaluate(cls: WarehouseClass, evaluate, *args):
    """evaluate(*args), which evaluates part of cls's mapping to type it;
    an Error it raises is raised again as its class, the message led by
    the mapping's class."""
    try:
        return evaluate(*args)
    except Error as exc:
        raise type(exc)(f"mapping of {cls.name!r}: {exc}") from None


def _lifted_name(binders: set[str], path: Path) -> str:
    segs = path.segments
    if len(segs) == 1:
        return segs[0]
    if segs[0] not in binders:
        raise ResolveError(f"generalize path {path} names unknown binder {segs[0]!r}")
    if len(segs) == 2:
        return segs[1]
    raise ResolveError(f"generalize lifts whole properties, got {path}")


def _match_declared(
    schema: WarehouseSchema,
    src: SourceSchema,
    cls: WarehouseClass,
    build: algebra.ClassBuild,
) -> None:
    """Check a class's declared flattened structure against its mapping
    output. The mapping stays as written: each declared property comes
    from the one output slot that produces it, and every other output is
    ignored."""
    declared = flatten_type(schema, cls.name)
    out_by_name: dict[str, list[PropertyDef]] = {}
    for p in build.structure:
        out_by_name.setdefault(p.name, []).append(p)

    for p in declared:
        candidates = out_by_name.get(p.name, [])
        if len(candidates) > 1:
            raise UnresolvedSourceProperty(
                f"{cls.name}.{p.name}: mapping produces several properties named {p.name!r}"
            )
        out = candidates[0] if candidates else None
        if p.origin == "derived":
            if out is None:
                raise UnresolvedSourceProperty(
                    f"{cls.name}.{p.name}: mapping does not produce this derived property"
                )
            _check_derived(schema, src, cls, p, out)
        elif p.origin == "computed":
            if out is None or out.origin != "computed":
                raise TypeInferenceError(
                    f"{cls.name}.{p.name}: computed property has no augment binding"
                )
            _check_computed(cls, p, out)
        else:  # specific
            if out is not None and out.value_type != p.value_type:
                raise TypeInferenceError(
                    f"{cls.name}.{p.name}: declared {p.value_type}, mapping says {out.value_type}"
                )

    # record derived provenance on the owning class's own structure
    for i, p in enumerate(cls.structure):
        candidates = out_by_name.get(p.name, [])
        if p.origin == "derived" and len(candidates) == 1:
            cls.structure[i] = p.replaced(source_path=candidates[0].source_path)


def _check_derived(
    schema: WarehouseSchema,
    src: SourceSchema,
    cls: WarehouseClass,
    decl: PropertyDef,
    out: PropertyDef,
) -> None:
    if decl.kind == "attribute":
        if out.is_relation or out.value_type != decl.value_type:
            raise UnresolvedSourceProperty(
                f"{cls.name}.{decl.name}: declared {decl.value_type}, "
                f"source provides {out.value_type if not out.is_relation else 'a relation'}"
            )
        return
    # relations are retargeted onto the warehouse classes built from the
    # source classes involved in the source relation
    if not out.is_relation or out.kind != decl.kind or out.cardinality != decl.cardinality:
        raise UnresolvedSourceProperty(
            f"{cls.name}.{decl.name}: declared relation does not match the source relation"
        )
    target_cls = schema.classes.get(decl.target)
    if target_cls is None:
        return  # reported by the derived-relation closure check
    # a refresh rewrites links before it decides a specialization's members
    if target_cls.role in ("membership", "composite"):
        raise UnresolvedSourceProperty(
            f"{cls.name}.{decl.name}: target class {decl.target!r} is a specialization, "
            "whose members are decided after links"
        )
    if not set(target_cls.source_origins).intersection(src.tables[out.target].subtypes):
        raise UnresolvedSourceProperty(
            f"{cls.name}.{decl.name}: target class {decl.target!r} is not built "
            f"from source {out.target!r}"
        )


def _check_computed(cls: WarehouseClass, decl: PropertyDef, out: PropertyDef) -> None:
    # the slot holds its aggregate's result type, and any integer type can
    # hold a count
    if decl.value_type != out.value_type and not (
        out.function == "count" and decl.value_type in (scalar("short"), scalar("long"))
    ):
        raise TypeInferenceError(
            f"{cls.name}.{decl.name}: {out.function} result cannot be stored as {decl.value_type}"
        )


def _check_warehouse_inverses(schema: WarehouseSchema) -> None:
    for cls in schema.classes.values():
        for p in cls.structure:
            if not p.is_relation or p.inverse is None:
                continue
            target = schema.classes.get(p.target)
            if target is not None:
                check_inverse(cls.name, p, target.structure)

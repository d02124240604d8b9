"""tdw: a temporal object warehouse built from periodic source snapshots.

The package covers the whole construction pipeline: parse an ODL-like
source schema and a warehouse definition, resolve the definition into a
validated schema, evaluate construction mappings over snapshots, and
drive the warehouse lifecycle (load, refresh, history, archival).
"""

from . import algebra, dsl, engine, model, source, temporal
from .engine import (
    RefreshReport,
    Store,
    initial_load,
    load_store,
    merge_archive,
    patch_specific,
    refresh,
    save_store,
)
from .dsl import parse_mapping, parse_warehouse_def, print_warehouse_def, resolve
from .model import (
    Environment,
    PropertyDef,
    RetentionConfig,
    WarehouseClass,
    WarehouseSchema,
    effective_filters,
    flatten_type,
    historization_level,
    is_subclass,
    lifecycle_span,
    validate_schema,
)
from .source import Snapshot, SourceSchema, ingest_snapshot, parse_source_schema
from .temporal import (
    Instant,
    Interval,
    TemporalDomain,
    coalesce,
    compare_units,
    domain_contains,
    domain_union,
    format_instant,
    parse_instant,
    validate_domain,
)

__all__ = [
    "algebra",
    "dsl",
    "engine",
    "model",
    "source",
    "temporal",
    "RefreshReport",
    "Store",
    "initial_load",
    "load_store",
    "merge_archive",
    "patch_specific",
    "refresh",
    "save_store",
    "parse_mapping",
    "parse_warehouse_def",
    "print_warehouse_def",
    "resolve",
    "Environment",
    "PropertyDef",
    "RetentionConfig",
    "WarehouseClass",
    "WarehouseSchema",
    "effective_filters",
    "flatten_type",
    "historization_level",
    "is_subclass",
    "lifecycle_span",
    "validate_schema",
    "Snapshot",
    "SourceSchema",
    "ingest_snapshot",
    "parse_source_schema",
    "Instant",
    "Interval",
    "TemporalDomain",
    "coalesce",
    "compare_units",
    "domain_contains",
    "domain_union",
    "format_instant",
    "parse_instant",
    "validate_domain",
]

__version__ = "0.1.0"

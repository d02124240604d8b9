"""Warehouse model: flattening, filters, subclass laws, schema checks,
object states."""

from dataclasses import fields, replace

import pytest

from tdw.errors import InheritanceCycle, PropertyConflict, UnknownClass, UnknownEnvironment
from tdw.model import (
    ArchiveState,
    Environment,
    PropertyDef,
    RetentionConfig,
    State,
    WarehouseClass,
    WarehouseObject,
    WarehouseSchema,
    check_state_disjointness,
    dependency_order,
    effective_filters,
    flatten_type,
    historization_level,
    is_subclass,
    lifecycle_span,
    state_at,
    transitive_supers,
    validate_schema,
)
from tdw.source import scalar
from tdw.temporal import Instant, domain


def attr(name, kind="string", origin="derived"):
    return PropertyDef(name, origin, "attribute", scalar(kind))


def mini_schema(classes, environments=()):
    schema = WarehouseSchema("test")
    for cls in classes:
        schema.classes[cls.name] = cls
    for env in environments:
        schema.environments[env.name] = env
    return schema


def test_a_replaced_property_is_what_dataclasses_replace_makes():
    prop = PropertyDef("r", "derived", "association", None, "A", "many", "s", ("x",), "b", "count")
    assert prop.replaced() == prop
    for f in fields(PropertyDef):  # a field replaced leaves out, or sets in another's place
        value = object()
        assert prop.replaced(**{f.name: value}) == replace(prop, **{f.name: value})


class TestFlattenType:
    def test_chirurgiens_nine_properties(self, schema):
        flat = flatten_type(schema, "Chirurgiens")
        assert len(flat) == 9
        inherited = [p.name for p in flat[:4]]
        assert inherited == ["nom", "prénom", "adresse", "année_naissance"]

    def test_no_supers_returns_own(self, schema):
        own = schema.classes["Hôpitaux_Publics"].structure
        assert flatten_type(schema, "Hôpitaux_Publics") == own

    def test_identical_definitions_merge(self, schema):
        flat = flatten_type(schema, "Etablissements")
        names = [p.name for p in flat]
        assert names.count("nom") == 1
        assert len(flat) == len(schema.classes["Hôpitaux_Publics"].structure) + len(
            schema.classes["Services"].structure
        ) - 1

    def test_conflicting_definitions_rejected(self):
        schema = mini_schema(
            [
                WarehouseClass("A", [attr("x", "string")]),
                WarehouseClass("B", [attr("x", "long")]),
                WarehouseClass("C", [], supers=("A", "B")),
            ]
        )
        with pytest.raises(PropertyConflict):
            flatten_type(schema, "C")

    def test_lineage_lists_each_super_once_after_its_own_supers(self):
        # D extends B and C, which both extend A
        schema = mini_schema(
            [
                WarehouseClass("A", [attr("a")]),
                WarehouseClass("B", [attr("b")], supers=("A",)),
                WarehouseClass("C", [attr("c")], supers=("A",)),
                WarehouseClass("D", [attr("d")], supers=("B", "C")),
            ]
        )
        assert transitive_supers(schema, "D") == ("A", "B", "C")
        assert [p.name for p in flatten_type(schema, "D")] == ["a", "b", "c", "d"]

    def test_cycle_detected(self):
        schema = mini_schema(
            [
                WarehouseClass("A", [], supers=("B",)),
                WarehouseClass("B", [], supers=("A",)),
            ]
        )
        with pytest.raises(InheritanceCycle, match=r"^A -> B -> A$"):
            flatten_type(schema, "A")

    def test_transitive_supers_names_the_cycle(self):
        schema = mini_schema(
            [
                WarehouseClass("A", [], supers=("B",)),
                WarehouseClass("B", [], supers=("C",)),
                WarehouseClass("C", [], supers=("B",)),
            ]
        )
        with pytest.raises(InheritanceCycle, match=r"^A -> B -> C -> B$"):
            transitive_supers(schema, "A")

    def test_unknown_class(self, schema):
        with pytest.raises(UnknownClass):
            flatten_type(schema, "Fantômes")


class TestEffectiveFilters:
    def test_same_environment_inherits_filters(self, schema):
        tempo, archi = effective_filters(schema, "Chirurgiens")
        assert tempo == {"adresse", "spécialité", "revenus", "travaille", "dirige"}
        assert archi == {"spécialité": "last", "revenus": "avg"}

    def test_outside_environment_inherits_nothing(self, schema):
        assert effective_filters(schema, "Jeunes_Chirurgiens") == (frozenset(), {})

    def test_no_supers_no_filters(self):
        schema = mini_schema(
            [WarehouseClass("A", [attr("x")])],
            [Environment("E", ("A",), RetentionConfig())],
        )
        assert effective_filters(schema, "A") == (frozenset(), {})

    def test_super_outside_environment_not_inherited(self):
        sup = WarehouseClass("P", [attr("x")], tempo=frozenset({"x"}))
        sub = WarehouseClass("C", [attr("y")], supers=("P",), tempo=frozenset({"y"}))
        schema = mini_schema([sup, sub], [Environment("E", ("C",), RetentionConfig())])
        tempo, _ = effective_filters(schema, "C")
        assert tempo == {"y"}

    @pytest.mark.parametrize(
        "supers, own, function",
        [(("A", "B"), {}, "sum"), (("B", "A"), {}, "avg"), (("A", "B"), {"x": "min"}, "min"),
         (("L",), {}, "max")],
        ids=["later-super", "later-super-reversed", "own", "nearer-super"],
    )
    def test_archive_function_follows_the_lineage(self, supers, own, function):
        """Of several archive functions for one property, the class's own
        wins, then the later entry in its lineage."""
        def filtered(name, fn, supers=()):
            return WarehouseClass(
                name, [attr("x", "long")], supers=supers, tempo=frozenset({"x"}), archi={"x": fn}
            )

        schema = mini_schema(
            [
                filtered("A", "avg"),
                filtered("B", "sum"),
                filtered("L", "max", supers=("A",)),  # L is nearer to K than A
                WarehouseClass("K", [], supers=supers, archi=own),
            ],
            [Environment("E", ("A", "B", "L", "K"), RetentionConfig(keep_past_count=1))],
        )
        assert effective_filters(schema, "K")[1] == {"x": function}


class TestDependencyOrder:
    def test_pass_places_later_names_before_revisiting_earlier_ones(self):
        # A waits for B; C, declared after B, is placed in B's pass
        assert dependency_order({"A": ["B"], "B": [], "C": ["B"]}) == ["B", "C", "A"]

    def test_names_outside_the_keys_count_as_placed(self):
        assert dependency_order({"A": ["Z"], "B": ["A"]}) == ["A", "B"]


class TestIsSubclass:
    def test_transitive(self, schema):
        assert is_subclass(schema, "Jeunes_Chirurgiens", "Personnes")

    def test_law_checker(self, schema):
        from tdw.model import check_subclass_laws

        assert check_subclass_laws(schema, "Chirurgiens", "Personnes") == []
        assert check_subclass_laws(schema, "Personnes", "Chirurgiens") != []
        exts = {"Chirurgiens": {1}, "Personnes": set()}
        assert any(
            "extension" in problem
            for problem in check_subclass_laws(schema, "Chirurgiens", "Personnes", exts)
        )

    def test_reflexive(self, schema):
        assert is_subclass(schema, "Personnes", "Personnes")

    def test_direction_matters(self, schema):
        assert not is_subclass(schema, "Personnes", "Chirurgiens")

    def test_unknown(self, schema):
        with pytest.raises(UnknownClass):
            is_subclass(schema, "Personnes", "Fantômes")


class TestValidateSchema:
    def test_fixture_is_valid(self, schema):
        assert validate_schema(schema) == []

    def test_missing_relation_endpoint(self, src_schema, edw_without_services_text):
        from tdw.dsl import parse_warehouse_def, resolve_with_violations

        wdef = parse_warehouse_def(edw_without_services_text)
        _schema, violations = resolve_with_violations(wdef, src_schema)
        assert [v.kind for v in violations] == ["relation-closure"]
        assert violations[0].subject == "Services"
        assert "Chirurgiens.travaille" in violations[0].detail

    def test_environment_disjointness(self, schema):
        schema.environments["Deuxième"] = Environment(
            "Deuxième", ("Personnes",), RetentionConfig()
        )
        kinds = [v.kind for v in validate_schema(schema)]
        assert "environment-disjoint" in kinds

    def test_environment_without_classes(self, schema):
        # the parser needs a class name after 'class', so only the API builds one
        schema.environments["Vide"] = Environment("Vide", ())
        assert [(v.kind, v.subject, v.detail) for v in validate_schema(schema)] == [
            ("environment-empty", "Vide", "no classes")
        ]

    def test_filtered_class_needs_environment(self):
        cls = WarehouseClass("A", [attr("x")], tempo=frozenset({"x"}))
        schema = mini_schema([cls])
        kinds = [v.kind for v in validate_schema(schema)]
        assert kinds == ["filtered-class-outside-environment"]

    def test_archive_must_be_temporal(self):
        cls = WarehouseClass(
            "A", [attr("x", "double")], tempo=frozenset(), archi={"x": "avg"}
        )
        schema = mini_schema([cls], [Environment("E", ("A",), RetentionConfig(keep_past_count=1))])
        kinds = [v.kind for v in validate_schema(schema)]
        assert "archive-not-temporal" in kinds

    @pytest.mark.parametrize("fn", ["sum", "avg", "min", "max"])
    def test_numeric_archive_function_needs_a_number(self, fn):
        rel = PropertyDef("r", "derived", "association", None, "A", "many")
        cls = WarehouseClass(
            "A", [attr("n", "short"), rel, attr("s")],
            tempo=frozenset({"n", "r", "s"}), archi={"n": fn, "r": fn, "s": fn},
        )
        schema = mini_schema([cls], [Environment("E", ("A",), RetentionConfig(keep_past_count=1))])
        detail = "archive {}({}) needs a Short, Long or Double attribute"
        assert [(v.kind, v.subject, v.detail) for v in validate_schema(schema)] == [
            ("archive-not-numeric", "A", detail.format(fn, name)) for name in ("r", "s")
        ]

    def test_count_and_last_archive_any_property(self):
        rel = PropertyDef("r", "derived", "association", None, "A", "many")
        cls = WarehouseClass(
            "A", [rel, attr("s")], tempo=frozenset({"r", "s"}), archi={"r": "count", "s": "last"}
        )
        schema = mini_schema([cls], [Environment("E", ("A",), RetentionConfig(keep_past_count=1))])
        assert validate_schema(schema) == []

    def test_filter_unknown_property(self):
        cls = WarehouseClass("A", [attr("x")], tempo=frozenset({"ghost"}))
        schema = mini_schema([cls], [Environment("E", ("A",), RetentionConfig())])
        kinds = [v.kind for v in validate_schema(schema)]
        assert "filter-unknown-property" in kinds

    def test_retention_required_when_archiving(self):
        cls = WarehouseClass(
            "A", [attr("x", "double")], tempo=frozenset({"x"}), archi={"x": "avg"}
        )
        schema = mini_schema([cls], [Environment("E", ("A",), RetentionConfig())])
        kinds = [v.kind for v in validate_schema(schema)]
        assert "retention-missing" in kinds

    def test_cycle_in_an_environment_is_reported_not_walked(self):
        schema = mini_schema(
            [
                WarehouseClass("A", [attr("nom")], supers=("B",)),
                WarehouseClass("B", [], supers=("A",)),
            ],
            [Environment("E", ("A",), RetentionConfig(keep_past_count=1))],
        )
        assert [(v.kind, v.subject, v.detail) for v in validate_schema(schema)] == [
            ("inheritance-cycle", "A", "A -> B -> A"),
            ("inheritance-cycle", "B", "B -> A -> B"),
        ]

    def test_conflict_inside_a_super_is_reported_under_each_class(self):
        schema = mini_schema(
            [
                WarehouseClass("X", [attr("x", "string")]),
                WarehouseClass("Y", [attr("x", "long")]),
                WarehouseClass("A", [], supers=("X", "Y")),
                WarehouseClass("C", [], supers=("A",)),
            ]
        )
        assert [(v.kind, v.subject, v.detail) for v in validate_schema(schema)] == [
            ("property-conflict", "A", "'A' inherits conflicting definitions of 'x'"),
            ("property-conflict", "C", "'C' inherits conflicting definitions of 'x'"),
        ]

    def test_violations_monotone_under_unrelated_additions(self, schema):
        schema.environments["Deuxième"] = Environment(
            "Deuxième", ("Personnes",), RetentionConfig()
        )
        before = {(v.kind, v.subject) for v in validate_schema(schema)}
        schema.classes["Zzz"] = WarehouseClass("Zzz", [attr("a")])
        after = {(v.kind, v.subject) for v in validate_schema(schema)}
        assert before <= after


class TestHistorizationLevel:
    def test_multi_class_environment_is_graph(self, schema):
        assert historization_level(schema, "Evolutions") == "graph"

    def test_partial_filter_is_attribute_level(self):
        cls = WarehouseClass("A", [attr("x"), attr("y")], tempo=frozenset({"x"}))
        schema = mini_schema([cls], [Environment("E", ("A",), RetentionConfig())])
        assert historization_level(schema, "E") == "attribute"

    def test_full_attribute_filter_is_class_level(self):
        rel = PropertyDef("r", "derived", "association", None, "A", "many")
        cls = WarehouseClass(
            "A", [attr("x"), attr("y"), rel], tempo=frozenset({"x", "y"})
        )
        schema = mini_schema([cls], [Environment("E", ("A",), RetentionConfig())])
        assert historization_level(schema, "E") == "class"

    def test_unknown_environment(self, schema):
        with pytest.raises(UnknownEnvironment):
            historization_level(schema, "Nulle_Part")


def fig3_object() -> WarehouseObject:
    """An object shaped like the yearly-refreshed hospital example:
    one current, two past, one archive state."""
    return WarehouseObject(
        oid=1,
        class_name="Hôpitaux_Publics",
        current=State(domain("year", (1995, 1996)), {"budget": 2250000.0}),
        past=[
            State(domain("year", (1993, 1993)), {"budget": 2150000.0}),
            State(domain("year", (1994, 1994)), {"budget": 2200000.0}),
        ],
        archives=[
            ArchiveState(
                domain("year", (1990, 1992)),
                {"budget": {"function": "avg", "count": 3, "sum": 6150000.0, "value": 2050000.0}},
            )
        ],
        source_key=(("ETABLISSEMENT", "e1"),),
    )


class TestStates:
    def test_value_at_creation_year_is_archived(self):
        obj = fig3_object()
        kind, payload = state_at(obj, Instant("year", 1990))
        assert kind == "archive"
        assert payload.aggregates["budget"]["value"] == 2050000.0

    def test_value_at_current(self):
        obj = fig3_object()
        kind, payload = state_at(obj, Instant("year", 1996))
        assert kind == "current" and payload.value["budget"] == 2250000.0

    def test_value_before_creation_absent(self):
        assert state_at(fig3_object(), Instant("year", 1980)) is None

    def test_value_at_every_covered_granule_and_only_those(self):
        obj = fig3_object()
        covered = set()
        for d in obj.all_domains():
            covered |= set(d.granules())
        for tick in range(1985, 2000):
            located = state_at(obj, Instant("year", tick))
            assert (located is not None) == (tick in covered)

    def test_lifecycle_span_bounds(self):
        span = lifecycle_span(fig3_object())
        assert (span.start.tick, span.end.tick) == (1990, 1996)

    def test_span_covers_union_even_with_gaps(self):
        obj = WarehouseObject(
            oid=2,
            class_name="A",
            current=State(domain("year", (1994, 1995)), {"x": 1}),
            past=[State(domain("year", (1990, 1991)), {"x": 0})],
        )
        span = lifecycle_span(obj)
        assert (span.start.tick, span.end.tick) == (1990, 1995)
        union = {g for d in obj.all_domains() for g in d.granules()}
        assert union <= set(range(span.start.tick, span.end.tick + 1))
        assert 1992 not in union  # the span is a superset, not the union

    def test_state_domains_disjoint(self):
        assert check_state_disjointness(fig3_object()) == []
        bad = fig3_object()
        bad.past.append(State(domain("year", (1996, 1996)), {"budget": 0.0}))
        assert check_state_disjointness(bad) != []

    def test_day_unit_states_spanning_decades(self):
        year = 360  # days
        obj = WarehouseObject(
            oid=3,
            class_name="A",
            current=State(domain("day", (30 * year, 40 * year)), {"x": 3}),
            past=[
                State(domain("day", (0, 10 * year - 1), (10 * year + 5, 20 * year - 1)), {"x": 1}),
                State(domain("day", (20 * year, 30 * year - 1)), {"x": 2}),
            ],
            archives=[ArchiveState(domain("day", (10 * year, 10 * year + 4)), {})],
        )
        assert check_state_disjointness(obj) == []
        # one shared day at the end of the current state
        obj.past.append(State(domain("day", (40 * year, 40 * year + 9)), {"x": 4}))
        assert check_state_disjointness(obj) == [
            f"granules {40 * year}..{40 * year} in both current and past[2]"
        ]
        # a state straddling two others overlaps each of them
        obj.past[2] = State(domain("day", (25 * year, 35 * year)), {"x": 4})
        assert check_state_disjointness(obj) == [
            f"granules {25 * year}..{30 * year - 1} in both past[1] and past[2]",
            f"granules {30 * year}..{35 * year} in both past[2] and current",
        ]


def deferred_fig3(loads: list) -> WarehouseObject:
    """fig3_object() deferred: its states load on first read, and each
    load is counted in loads."""
    whole = fig3_object()

    def load(obj):
        assert obj.oid == whole.oid  # the object whose states it loads
        loads.append(1)
        return whole.current, whole.past, whole.archives

    return WarehouseObject.deferred(
        whole.oid, whole.class_name, whole.status, whole.source_key, load
    )


class TestDeferredObject:
    def test_objects_are_slotted(self):
        assert not hasattr(fig3_object(), "__dict__")
        assert not hasattr(deferred_fig3([]), "__dict__")

    def test_states_load_once_on_first_read(self):
        loads = []
        obj = deferred_fig3(loads)
        assert (obj.oid, obj.status, loads) == (1, "active", [])
        assert obj.past == fig3_object().past
        assert obj.archives == fig3_object().archives and loads == [1]

    def test_unknown_attribute_is_an_attribute_error(self):
        empty = WarehouseObject.__new__(WarehouseObject)  # every slot empty, _load too
        for obj in (fig3_object(), deferred_fig3([]), empty):
            with pytest.raises(AttributeError, match="no attribute 'fantôme'"):
                obj.fantôme
        with pytest.raises(AttributeError):  # not a RecursionError
            empty.current

    def test_a_deferred_state_has_no_other_attribute(self):
        state = State.deferred(b'{"domain":[[1990,1990]],"value":{}}', object(), {})
        with pytest.raises(AttributeError, match="'State' object has no attribute 'fantôme'"):
            state.fantôme

    def test_a_state_equals_no_other_type(self):
        state = fig3_object().current
        assert state.__eq__(state.value) is NotImplemented
        assert state != state.value and state == fig3_object().current

    def test_copy_of_a_deferred_object_decodes_it(self):
        loads = []
        obj = deferred_fig3(loads)
        copied = obj.copy()
        assert loads == [1]
        assert copied == obj == fig3_object()
        assert copied.current is not obj.current and copied.past is not obj.past

    def test_equality_and_repr_ignore_the_loader(self):
        obj = deferred_fig3([])
        assert obj == fig3_object()
        assert repr(obj) == repr(fig3_object())
        assert "_load" not in repr(obj)
        assert WarehouseObject(1, "A", fig3_object().current, _load=lambda: None) == (
            WarehouseObject(1, "A", fig3_object().current)
        )


class TestRetentionConfig:
    def test_field_by_field_override(self):
        base = RetentionConfig((1, "year"), 5, (10, "year"))
        override = RetentionConfig(None, 2, None)
        merged = override.merged_over(base)
        assert merged == RetentionConfig((1, "year"), 2, (10, "year"))

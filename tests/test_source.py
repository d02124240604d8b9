"""Source schema parsing and snapshot ingestion."""

import copy
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import flattened, hospital_records, snapshot_lines, snapshot_to_lines, year
from tdw.algebra import build_from_interface
from tdw.dsl import parse_warehouse_def
from tdw.engine import dumps_store, initial_load
from tdw.errors import (
    CompositionViolation,
    DanglingReference,
    DuplicateId,
    Error,
    InheritanceCycle,
    InverseMismatch,
    InverseViolation,
    ParseError,
    TypeMismatch,
    UnknownInterface,
)
from tdw.source import (
    Relationship,
    Snapshot,
    SourceRecord,
    SourceType,
    _typed_record,
    coerce,
    ingest_snapshot,
    lineage,
    parse_source_schema,
    print_source_schema,
    scalar,
    set_of,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def flattened_oracle(schema, name, seen=None):
    """Independent recursive flattening: union of own and supers' names."""
    iface = schema.interfaces[name]
    out = []
    for sup in iface.supers:
        for n in flattened_oracle(schema, sup):
            if n not in out:
                out.append(n)
    for n, _t in iface.attributes:
        if n not in out:
            out.append(n)
    for r in iface.relationships:
        if r.name not in out:
            out.append(r.name)
    return out


class TestParseSourceSchema:
    def test_hospital_listing(self, src_schema):
        assert sorted(src_schema.interfaces) == [
            "CONSULTATION",
            "ETABLISSEMENT",
            "PATIENT",
            "PERSONNE",
            "PRATICIEN",
            "SERVICE",
        ]
        flat = flattened(src_schema, "PRATICIEN")
        # 4 attributes inherited from PERSONNE, 6 own properties
        # (4 attributes + 2 relationships); operations are excluded
        assert len(flat) == 10
        inherited = [n for n, _t, owner in flat if owner == "PERSONNE"]
        assert inherited == ["nom", "prénom", "adresse", "année_naissance"]
        assert src_schema.interfaces["PERSONNE"].operations == ["age", "département"]

    def test_minimal_interface(self):
        schema = parse_source_schema("interface A {}")
        assert list(schema.interfaces) == ["A"]
        assert flattened(schema, "A") == []

    def test_multiple_inheritance_permitted(self):
        schema = parse_source_schema(
            "interface A { attribute String x; }\n"
            "interface B { attribute String y; }\n"
            "interface C (extend A, B) { attribute String z; }\n"
        )
        assert [n for n, _t, _o in flattened(schema, "C")] == ["x", "y", "z"]

    def test_inverse_mismatch_rejected(self):
        # B lacks the declared inverse property x
        text = """
        interface A { relationship Set<B> r inverse B::x; }
        interface B { attribute String nom; }
        """
        with pytest.raises(InverseMismatch):
            parse_source_schema(text)

    def test_inverse_must_point_back(self):
        text = """
        interface A { relationship Set<B> r inverse B::x; }
        interface B { relationship Set<A> x inverse A::other; }
        """
        with pytest.raises(InverseMismatch):
            parse_source_schema(text)

    def test_dangling_extend(self):
        with pytest.raises(UnknownInterface):
            parse_source_schema("interface A (extend GHOST) {}")

    def test_dangling_relation_target(self):
        with pytest.raises(UnknownInterface):
            parse_source_schema("interface A { relationship <GHOST> r; }")

    @pytest.mark.parametrize(
        "text, error, message, line, col",
        [
            ("interface A {}\ninterface A {}",
             DuplicateId, "interface 'A' declared twice", None, None),
            ("interface A { 3; }", ParseError, "an interface member", 1, 15),
            ("interface A { attribute Struct S { String a, Long a } s; }",
             DuplicateId, "struct field 'a' declared twice", None, None),
            ("interface A { attribute Foo x; }", ParseError, "a type name (found 'Foo')", 1, 25),
        ],
        ids=["interface-twice", "bad-member", "struct-field-twice", "bad-type-name"],
    )
    def test_rejection_names_its_error_and_position(self, text, error, message, line, col):
        with pytest.raises(Error) as exc:
            parse_source_schema(text)
        e = exc.value
        found = e.expected if isinstance(e, ParseError) else str(e)
        position = (getattr(e, "line", None), getattr(e, "col", None))
        assert (type(e), found, *position) == (error, message, line, col)

    def test_inheritance_cycle_rejected_before_flattening(self):
        with pytest.raises(InheritanceCycle, match=r"^A -> B -> A$"):
            parse_source_schema("interface A (extend B) {} interface B (extend A) {}")

    def test_duplicate_property_is_reported_after_every_relationship_check(self):
        text = (
            "interface A { attribute String x; attribute Long x; }\n"
            "interface B { relationship <GHOST> r; }"
        )
        with pytest.raises(UnknownInterface, match=r"^line 2: B\.r targets unknown 'GHOST'$"):
            parse_source_schema(text)

    @pytest.mark.parametrize(
        "text",
        [
            "interface A { attribute String x; attribute Long x; }",
            "interface A { attribute String x; relationship <A> x; }",
        ],
        ids=["two-attributes", "attribute-and-relationship"],
    )
    def test_name_declared_twice_in_one_interface(self, text):
        with pytest.raises(DuplicateId, match=r"^'A' has duplicate properties \['x'\]$"):
            parse_source_schema(text)

    @pytest.mark.parametrize(
        "text",
        [
            "interface A { attribute String x; }\n"
            "interface B (extend A) { attribute Long x; }\n"
            "interface D (extend B) { }",
            "interface A { attribute String x; }\n"
            "interface B { attribute String x; }\n"
            "interface D (extend A, B) { }",
        ],
        ids=["super-and-sub", "two-supers"],
    )
    def test_name_declared_in_two_interfaces_of_one_lineage(self, text):
        with pytest.raises(DuplicateId, match=r"has duplicate properties \['x'\]$"):
            parse_source_schema(text)

    def test_one_declaration_reached_twice_through_a_diamond(self):
        schema = parse_source_schema(
            "interface A { attribute String x; }\n"
            "interface B (extend A) { attribute String y; }\n"
            "interface C (extend A) { attribute String z; }\n"
            "interface D (extend B, C) { }\n"
        )
        assert [n for n, _t, owner in flattened(schema, "D")] == ["x", "y", "z"]
        assert [owner for _n, _t, owner in flattened(schema, "D")] == ["A", "B", "C"]

    def test_lineage_places_each_name_once_after_its_supers(self):
        supers = {"A": (), "B": ("A",), "C": ("A",), "D": ("B", "C"), "E": ("D", "A")}
        asked = []

        def supers_of(name):
            asked.append(name)
            return supers[name]

        assert lineage("E", supers_of) == ("A", "B", "C", "D", "E")
        assert sorted(asked) == ["A", "B", "C", "D", "E"]  # a diamond's A is walked once

    def test_lineage_cycle_names_its_path(self):
        supers = {"C": ("A",), "A": ("B",), "B": ("A",)}
        with pytest.raises(InheritanceCycle, match=r"^C -> A -> B -> A$"):
            lineage("C", supers.__getitem__)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_source_schema("interface A {\n  attribute String ;\n}")
        assert err.value.line == 2

    def test_image_relationship_becomes_reference_attribute(self, src_schema):
        flat = dict(
            (n, t) for n, t, _o in flattened(src_schema, "CONSULTATION")
        )
        analyses = flat["analyses"]
        assert isinstance(analyses, SourceType)
        assert analyses.kind == "set" and analyses.element.kind == "image-ref"

    def test_flattening_matches_recursive_oracle(self, src_schema):
        for name in src_schema.interfaces:
            assert [n for n, _t, _o in flattened(src_schema, name)] == flattened_oracle(
                src_schema, name
            )

    def test_print_parse_fixpoint(self, odl_text):
        schema = parse_source_schema(odl_text)
        printed = print_source_schema(schema)
        again = parse_source_schema(printed)
        assert print_source_schema(again) == printed
        assert sorted(again.interfaces) == sorted(schema.interfaces)
        for name in schema.interfaces:
            assert [n for n, _t, _o in flattened(again, name)] == [
                n for n, _t, _o in flattened(schema, name)
            ]


class TestIngestSnapshot:
    def test_consistent_mini_snapshot(self, src_schema):
        records = [r for r in hospital_records(1990) if r["id"] in ("p1", "p2", "s1")]
        # keep only links inside the subset so inverses stay closed
        for r in records:
            if r["id"] == "p2":
                r["links"] = {"travaille": ["s1"], "dirige": []}
            if r["id"] == "s1":
                r["links"] = {"équipe": ["p1", "p2"], "est_dirigé": ["p1"]}
        snap = ingest_snapshot(src_schema, snapshot_lines(records), year(1990))
        assert len(snap.records) == 3
        # independent inverse traversal
        p1 = snap.records[("PRATICIEN", "p1")]
        s1 = snap.records[("SERVICE", "s1")]
        for sid in p1.links["travaille"]:
            assert p1.id in snap.records[("SERVICE", sid)].links["équipe"]
        for pid in s1.links["équipe"]:
            assert s1.id in snap.records[("PRATICIEN", pid)].links["travaille"]

    def test_empty_stream(self, src_schema):
        snap = ingest_snapshot(src_schema, [], year(1990))
        assert snap.records == {}

    def test_type_mismatch(self, src_schema):
        records = hospital_records(1990)
        records[0]["values"]["année_naissance"] = "mille-neuf-cent"
        with pytest.raises(TypeMismatch):
            ingest_snapshot(src_schema, snapshot_lines(records), year(1990))

    def test_full_fixture_ingests(self, make_snapshot):
        snap = make_snapshot(1990)
        assert len(snap.records) == 11

    def test_dangling_reference(self, src_schema):
        records = hospital_records(1990)
        records = [r for r in records if r["id"] != "pa1"]  # consultation -> patient
        with pytest.raises(DanglingReference):
            ingest_snapshot(src_schema, snapshot_lines(records), year(1990))

    def test_duplicate_id(self, src_schema):
        records = hospital_records(1990)
        records.append(records[0])
        with pytest.raises(DuplicateId):
            ingest_snapshot(src_schema, snapshot_lines(records), year(1990))

    def test_inverse_violation_found_from_either_side(self, src_schema):
        # a.r links b, but b's inverse does not point back
        forward = hospital_records(1990)
        forward[0]["links"]["travaille"] = ["s1", "s2"]  # s2.équipe lacks p1
        with pytest.raises(InverseViolation):
            ingest_snapshot(src_schema, snapshot_lines(forward), year(1990))
        backward = hospital_records(1990)
        for r in backward:
            if r["id"] == "s2":
                r["links"]["équipe"] = ["p1"]  # p1.travaille lacks s2
        with pytest.raises(InverseViolation):
            ingest_snapshot(src_schema, snapshot_lines(backward), year(1990))

    def test_composition_exclusive(self, src_schema):
        records = hospital_records(1990)
        for r in records:
            if r["id"] == "e2":
                r["links"]["organisation"] = ["s1", "s3"]  # s1 already in e1
        with pytest.raises(CompositionViolation):
            ingest_snapshot(src_schema, snapshot_lines(records), year(1990))

    def test_to_one_cardinality_enforced(self, src_schema):
        records = hospital_records(1990)
        for r in records:
            if r["id"] == "p1":
                r["links"]["dirige"] = ["s1", "s3"]
        with pytest.raises(TypeMismatch):
            ingest_snapshot(src_schema, snapshot_lines(records), year(1990))

    def test_unknown_interface(self, src_schema):
        line = json.dumps({"interface": "GHOST", "id": "g1", "values": {}, "links": {}})
        with pytest.raises(UnknownInterface):
            ingest_snapshot(src_schema, [line], year(1990))

    def test_missing_value_rejected(self, src_schema):
        records = hospital_records(1990)
        del records[0]["values"]["revenus"]
        with pytest.raises(TypeMismatch):
            ingest_snapshot(src_schema, snapshot_lines(records), year(1990))

    def test_set_values_are_canonicalized(self, src_schema):
        records = hospital_records(1990)
        for r in records:
            if r["id"] == "c1":
                r["values"]["analyses"] = ["img-002", "img-001", "img-002"]
        snap = ingest_snapshot(src_schema, snapshot_lines(records), year(1990))
        assert snap.records[("CONSULTATION", "c1")].values["analyses"] == [
            "img-001",
            "img-002",
        ]

    def test_set_of_structs_holds_each_member_once(self):
        schema = parse_source_schema(
            "interface P { attribute Set<Struct T { Long a }> xs; attribute Set<Long> ns; }"
        )
        line = json.dumps({"interface": "P", "id": "1",
                           "values": {"xs": [{"a": 2}, {"a": 1}, {"a": 2}], "ns": [2, 2, 1]}})
        snap = ingest_snapshot(schema, [line], year(1990))
        assert snap.records[("P", "1")].values == {"xs": [{"a": 1}, {"a": 2}], "ns": [1, 2]}

    def test_set_of_structs_holds_members_equal_but_for_a_signed_zero_once(self):
        # -0.0 == 0.0, though their JSON texts differ
        schema = parse_source_schema("interface P { attribute Set<Struct T { Set<Double> b }> xs; }")
        line = json.dumps({"interface": "P", "id": "1",
                           "values": {"xs": [{"b": [0, 1]}, {"b": [1, -0.0]}]}})
        snap = ingest_snapshot(schema, [line], year(1990))
        assert json.dumps(snap.records[("P", "1")].values) == '{"xs": [{"b": [-0.0, 1.0]}]}'

    def test_canonical_output_sorts_keys_and_records(self, src_schema):
        records = list(reversed(hospital_records(1990)))
        snap = ingest_snapshot(src_schema, snapshot_lines(records), year(1990))
        lines = snapshot_to_lines(snap)
        keys = [
            (json.loads(line)["interface"], json.loads(line)["id"]) for line in lines
        ]
        assert keys == sorted(keys)
        for line in lines:
            doc = json.loads(line)
            assert list(doc.keys()) == sorted(doc.keys())
        # reingesting the canonical form reproduces it
        again = ingest_snapshot(src_schema, lines, year(1990))
        assert snapshot_to_lines(again) == lines


def rejection(src_schema, records, lines=None):
    """The exception ingesting records (or raw lines) raises."""
    with pytest.raises(Exception) as err:
        ingest_snapshot(src_schema, lines or snapshot_lines(records), year(1990))
    return err.value


def with_record(rid, change):
    """The 1990 hospital records with change applied to record rid."""
    records = hospital_records(1990)
    change(next(r for r in records if r["id"] == rid))
    return records


class TestRejectionMessages:
    """Each rejection path keeps its exception class and exact message."""

    def check(self, src_schema, records, cls, message, lines=None):
        exc = rejection(src_schema, records, lines)
        assert type(exc) is cls
        assert str(exc) == message

    def test_line_that_is_not_json(self, src_schema):
        lines = snapshot_lines(hospital_records(1990)[:1]) + ["", "{not json"]
        self.check(
            src_schema, None, TypeMismatch,
            "record line 3: not a valid document (Expecting property name enclosed "
            "in double quotes: line 1 column 2 (char 1))",
            lines,
        )

    @pytest.mark.parametrize(
        "doc", [{"id": "x", "values": {}}, {"interface": "PATIENT"}, ["PATIENT", "x"]]
    )
    def test_missing_interface_or_id(self, src_schema, doc):
        lines = snapshot_lines(hospital_records(1990)[:1]) + [json.dumps(doc)]
        self.check(src_schema, None, TypeMismatch, "record line 2: missing interface/id", lines)

    @pytest.mark.parametrize(
        "doc",
        [{"interface": ["PRATICIEN"], "id": "p1"}, {"interface": 7, "id": "p1"},
         {"interface": "PRATICIEN", "id": 7}, {"interface": "PRATICIEN", "id": None},
         {"interface": "PRATICIEN", "id": True}, {"interface": None, "id": ["p1"]}],
        ids=["interface-a-list", "interface-a-number", "id-a-number", "id-null", "id-true",
             "both"],
    )
    def test_interface_or_id_not_a_string(self, src_schema, doc):
        lines = snapshot_lines(hospital_records(1990)[:1]) + [json.dumps(doc)]
        self.check(
            src_schema, None, TypeMismatch, "record line 2: interface and id must be strings",
            lines,
        )

    def test_unknown_interface(self, src_schema):
        records = with_record("p2", lambda r: r.update(interface="GHOST"))
        self.check(
            src_schema, records, UnknownInterface, "record line 2: unknown interface 'GHOST'"
        )

    def test_unknown_attribute(self, src_schema):
        records = with_record("p1", lambda r: r["values"].update(âge=40))
        self.check(
            src_schema, records, TypeMismatch,
            "record line 1: 'PRATICIEN' has no attribute 'âge'",
        )

    def test_missing_value(self, src_schema):
        records = with_record("s2", lambda r: r["values"].pop("téléphone"))
        self.check(
            src_schema, records, TypeMismatch,
            "record line 8: missing value for SERVICE.téléphone",
        )

    def test_missing_value_named_in_declaration_order(self, src_schema):
        def drop(r):
            del r["values"]["catégorie"], r["values"]["prénom"]

        # catégorie sorts first, but PERSONNE's prénom is declared first
        self.check(
            src_schema, with_record("p1", drop), TypeMismatch,
            "record line 1: missing value for PRATICIEN.prénom",
        )

    def test_true_for_a_short(self, src_schema):
        records = with_record("p1", lambda r: r["values"].update(année_naissance=True))
        self.check(
            src_schema, records, TypeMismatch,
            "PRATICIEN.année_naissance: expected an integer, got True",
        )

    def test_true_for_a_double(self, src_schema):
        records = with_record("e1", lambda r: r["values"].update(budget=True))
        self.check(
            src_schema, records, TypeMismatch,
            "ETABLISSEMENT.budget: expected a number, got True",
        )

    def test_unknown_struct_field(self, src_schema):
        records = with_record("pa1", lambda r: r["values"]["adresse"].update(pays="FR"))
        self.check(
            src_schema, records, TypeMismatch, "PATIENT.adresse.pays: unknown struct field"
        )

    def test_missing_struct_field(self, src_schema):
        records = with_record("e2", lambda r: r["values"]["adresse"].pop("ville"))
        self.check(
            src_schema, records, TypeMismatch,
            "ETABLISSEMENT.adresse.ville: missing struct field",
        )

    def test_wrong_struct_field_type(self, src_schema):
        records = with_record(
            "p3", lambda r: r["values"]["adresse"].update(code_postal="31000")
        )
        self.check(
            src_schema, records, TypeMismatch,
            "PRATICIEN.adresse.code_postal: expected an integer, got '31000'",
        )

    def test_set_value_not_a_list(self, src_schema):
        records = with_record("c1", lambda r: r["values"].update(analyses="img-001"))
        self.check(
            src_schema, records, TypeMismatch,
            "CONSULTATION.analyses: expected a set (list), got 'img-001'",
        )

    def test_wrong_set_element_type(self, src_schema):
        records = with_record("c1", lambda r: r["values"].update(analyses=["img-001", 7]))
        self.check(
            src_schema, records, TypeMismatch,
            "CONSULTATION.analyses[]: expected a string, got 7",
        )

    @pytest.mark.parametrize("ids", ["s1", ["s1", 1], {"s1": 1}])
    def test_links_not_a_list_of_ids(self, src_schema, ids):
        records = with_record("p1", lambda r: r["links"].update(travaille=ids))
        self.check(
            src_schema, records, TypeMismatch,
            "record line 1: links for 'travaille' must be a list of ids",
        )

    @pytest.mark.parametrize("part", ["values", "links"])
    @pytest.mark.parametrize("member", [[1], [], "x", 0])
    def test_values_or_links_not_an_object(self, src_schema, part, member):
        records = with_record("p2", lambda r: r.update({part: member}))
        self.check(
            src_schema, records, TypeMismatch, f"record line 2: {part} must be an object"
        )

    def test_unknown_relationship(self, src_schema):
        records = with_record("p2", lambda r: r["links"].update(soigne=[]))
        self.check(
            src_schema, records, TypeMismatch,
            "record line 2: 'PRATICIEN' has no relationship 'soigne'",
        )

    def test_to_one_relationship_with_two_ids(self, src_schema):
        records = with_record("p1", lambda r: r["links"].update(dirige=["s1", "s3"]))
        self.check(
            src_schema, records, TypeMismatch,
            "record line 1: 'dirige' links more than one target",
        )

    def test_duplicate_id(self, src_schema):
        records = hospital_records(1990)
        records.append(records[1])
        self.check(
            src_schema, records, DuplicateId,
            "record line 12: duplicate id ('PRATICIEN', 'p2')",
        )

    def test_dangling_reference(self, src_schema):
        records = [r for r in hospital_records(1990) if r["id"] != "pa1"]
        self.check(
            src_schema, records, DanglingReference,
            "CONSULTATION:c1 links patient to missing PATIENT:pa1",
        )

    def test_link_naming_records_of_two_subtypes(self):
        schema = parse_source_schema(
            "interface P { } interface A (extend P) { } interface B (extend P) { }\n"
            "interface L { relationship <P> ref; }"
        )
        records = [
            {"interface": "A", "id": "x"},
            {"interface": "B", "id": "x"},
            {"interface": "L", "id": "l1", "links": {"ref": ["x"]}},
        ]
        self.check(
            schema, records, DanglingReference,
            "L:l1 links ref to P:x, which names several records: A:x, B:x",
        )

    def test_inverse_violation(self, src_schema):
        records = with_record("p1", lambda r: r["links"].update(travaille=["s1", "s2"]))
        self.check(
            src_schema, records, InverseViolation,
            "PRATICIEN:p1.travaille links s2 but SERVICE:s2.équipe does not point back",
        )

    def test_composition_violation(self, src_schema):
        records = with_record("e2", lambda r: r["links"].update(organisation=["s1", "s3"]))
        self.check(
            src_schema, records, CompositionViolation,
            "SERVICE:s1 is a component of both ('ETABLISSEMENT', 'e1') and "
            "('ETABLISSEMENT', 'e2')",
        )

    def test_earliest_faulty_line_is_reported(self, src_schema):
        # line 2 comes after line 5 in key order, ETABLISSEMENT before PRATICIEN
        records = hospital_records(1990)
        records[1]["links"]["dirige"] = ["s9"]
        records[4]["links"]["organisation"] = ["s8"]
        self.check(
            src_schema, records, DanglingReference,
            "PRATICIEN:p2 links dirige to missing SERVICE:s9",
        )


FIRST_LINE = snapshot_lines(hospital_records(1990)[:1])[0]


class TestDocumentDecoding:
    """Each line is decoded as json.loads decodes it, and a line that it
    rejects is rejected with its error, byte for byte."""

    @pytest.mark.parametrize(
        "raw",
        ["\ufeff" + FIRST_LINE, FIRST_LINE + "  x", FIRST_LINE + " \t\u00a0x", "{}{}",
         FIRST_LINE[:-9], "  " + FIRST_LINE + " ]  "],
        ids=["byte-order-mark", "data-after-blanks", "data-after-a-non-json-blank",
             "two-documents", "cut-off", "stripped-then-extra"],
    )
    def test_error_is_the_one_json_loads_raises(self, src_schema, raw):
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(raw.strip())
        exc = rejection(src_schema, None, [FIRST_LINE, raw])
        assert type(exc) is TypeMismatch
        assert str(exc) == f"record line 2: not a valid document ({expected.value})"

    def test_integer_past_the_conversion_limit_names_its_line(self, src_schema):
        # the decoder's int() raises a plain ValueError, no JSONDecodeError
        raw = '{"interface": "ETABLISSEMENT", "id": "e9", "budget": ' + "1" * 5001 + "}"
        with pytest.raises(ValueError) as expected:
            json.loads(raw)
        assert not isinstance(expected.value, json.JSONDecodeError)
        exc = rejection(src_schema, None, [FIRST_LINE, raw])
        assert type(exc) is TypeMismatch
        assert str(exc) == f"record line 2: not a valid document ({expected.value})"

    def test_an_array_is_a_document_without_interface(self, src_schema):
        exc = rejection(src_schema, None, [FIRST_LINE, "[]"])
        assert type(exc) is TypeMismatch
        assert str(exc) == "record line 2: missing interface/id"


class TestKeyOrder:
    """A snapshot's records are in (interface, id) order however it was
    built, so a hand-built snapshot reads as an ingested one."""

    @pytest.fixture()
    def snaps(self, src_schema):
        snap = ingest_snapshot(src_schema, snapshot_lines(hospital_records(1990)), year(1990))
        return snap, Snapshot(snap.at, dict(reversed(snap.records.items())))

    def test_records_are_in_key_order(self, snaps):
        for snap in snaps:
            assert list(snap.records) == sorted(snap.records)

    @pytest.mark.parametrize("interface", ["PRATICIEN", "PERSONNE", "SERVICE"])
    def test_reversed_records_extract_the_same_rows(self, src_schema, snaps, interface):
        ingested, reversed_ = (
            build_from_interface(src_schema, interface, "x", snap).rows for snap in snaps
        )
        assert reversed_ == ingested

    def test_reversed_records_load_the_same_store(self, src_schema, edw_text, snaps):
        ingested, reversed_ = (
            dumps_store(initial_load(src_schema, parse_warehouse_def(edw_text), snap))
            for snap in snaps
        )
        assert reversed_ == ingested


# ---------------------------------------------------------------------------
# ambiguous links: the same answer whatever the hash seed

AMBIGUOUS = r'''
import json
from tdw.source import ingest_snapshot, parse_source_schema
from tdw.temporal import Instant

schema = parse_source_schema("""
interface A { attribute String n; relationship <X> back inverse X::to; }
interface B (extend A) {}
interface C (extend A) {}
interface X { relationship <A> to inverse A::back; }
""")
lines = [json.dumps(d) for d in [
    {"interface": "B", "id": "1", "values": {"n": "b"}, "links": {"back": ["x1"]}},
    {"interface": "C", "id": "1", "values": {"n": "c"}, "links": {"back": []}},
    {"interface": "X", "id": "x1", "values": {}, "links": {"to": ["1"]}},
]]
try:
    ingest_snapshot(schema, lines, Instant("year", 0))
    print("accepted")
except Exception as exc:
    print(type(exc).__name__, exc)
'''


@pytest.mark.parametrize("hash_seeds", [("0", "1"), ("3", "4")])
def test_ambiguous_link_rejected_under_every_hash_seed(hash_seeds):
    outputs = []
    for seed in hash_seeds:
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", AMBIGUOUS], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs == [
        "DanglingReference X:x1 links to to A:1, which names several records: B:1, C:1\n"
    ] * 2


# ---------------------------------------------------------------------------
# ingestion against the per-record flattening it replaced


def reference_typed_record(schema, doc, lineno):
    """_typed_record before the parse-time tables: flattens the interface
    and builds its attribute and relationship maps for every record."""
    if not isinstance(doc, dict) or "interface" not in doc or "id" not in doc:
        raise TypeMismatch(f"record line {lineno}: missing interface/id")
    iface_name = doc["interface"]
    if iface_name not in schema.interfaces:
        raise UnknownInterface(f"record line {lineno}: unknown interface {iface_name!r}")
    flat = flattened(schema, iface_name)
    attrs = {n: t for n, t, _ in flat if isinstance(t, SourceType)}
    rels = {n: t for n, t, _ in flat if isinstance(t, Relationship)}

    values = {}
    for name, value in sorted((doc.get("values") or {}).items()):
        if name not in attrs:
            raise TypeMismatch(f"record line {lineno}: {iface_name!r} has no attribute {name!r}")
        values[name] = reference_coerce(attrs[name], value, f"{iface_name}.{name}")
    for name in attrs:
        if name not in values:
            raise TypeMismatch(f"record line {lineno}: missing value for {iface_name}.{name}")

    links = {}
    for name, ids in sorted((doc.get("links") or {}).items()):
        if name not in rels:
            raise TypeMismatch(f"record line {lineno}: {iface_name!r} has no relationship {name!r}")
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise TypeMismatch(f"record line {lineno}: links for {name!r} must be a list of ids")
        rel = rels[name]
        if rel.cardinality == "one" and len(ids) > 1:
            raise TypeMismatch(f"record line {lineno}: {name!r} links more than one target")
        links[name] = tuple(sorted(set(ids)))
    for name in rels:
        links.setdefault(name, ())
    return SourceRecord(iface_name, str(doc["id"]), values, links)


def reference_coerce(typ, value, where):
    """coerce before the lazy labels: formats where for every value and
    rebuilds a struct's field map for every struct value."""
    if typ.kind in ("short", "long"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatch(f"{where}: expected an integer, got {value!r}")
        return value
    if typ.kind == "double":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatch(f"{where}: expected a number, got {value!r}")
        return float(value)
    if typ.kind in ("string", "date", "image-ref"):
        if not isinstance(value, str):
            raise TypeMismatch(f"{where}: expected a string, got {value!r}")
        return value
    if typ.kind == "struct":
        if not isinstance(value, dict):
            raise TypeMismatch(f"{where}: expected a struct value, got {value!r}")
        known = dict(typ.fields)
        out = {}
        for fname, fval in value.items():
            if fname not in known:
                raise TypeMismatch(f"{where}.{fname}: unknown struct field")
            out[fname] = reference_coerce(known[fname], fval, f"{where}.{fname}")
        for fname in known:
            if fname not in out:
                raise TypeMismatch(f"{where}.{fname}: missing struct field")
        return dict(sorted(out.items()))
    if typ.kind == "set":
        if not isinstance(value, list):
            raise TypeMismatch(f"{where}: expected a set (list), got {value!r}")
        items = [reference_coerce(typ.element, v, where + "[]") for v in value]
        try:
            return sorted(set(items))
        except TypeError:
            return sorted(items, key=json.dumps)
    raise TypeMismatch(f"{where}: unsupported type {typ.kind!r}")


NESTED_SCHEMA = parse_source_schema(
    "interface N { attribute Set<Struct P { Short a, Set<Double> b }> ps;"
    " attribute Struct Q { Struct R { Date d } r, Set<String> s } q;"
    " relationship Set<N> peers; }"
)
SHORT_TEXT = st.text(alphabet="abcé_", max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | SHORT_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(SHORT_TEXT, inner, max_size=3),
    max_leaves=6,
)
SCALAR_VALUES = {
    "string": SHORT_TEXT,
    "date": SHORT_TEXT,
    "image-ref": SHORT_TEXT,
    "short": st.integers(-3, 3),
    "long": st.integers(-3, 3),
    "double": st.integers(-3, 3) | st.floats(allow_nan=False),
}


def valid_values(typ):
    if typ.kind == "struct":
        return st.fixed_dictionaries({n: valid_values(t) for n, t in typ.fields})
    if typ.kind == "set":
        return st.lists(valid_values(typ.element), max_size=3)
    return SCALAR_VALUES[typ.kind]


def mutate(draw, doc):
    """One random change that a faulty source could make to a record."""
    values, links = doc["values"], doc["links"]

    def some_key(d):
        return draw(st.sampled_from(sorted(d))) if d else None

    kind = draw(st.integers(0, 12))
    if kind == 0 and values:
        del values[some_key(values)]
    elif kind == 1:
        values[draw(SHORT_TEXT)] = draw(JSON_VALUES)
    elif kind == 2 and values:
        values[some_key(values)] = draw(JSON_VALUES)
    elif kind == 3:
        # reach into a struct, or a set of structs, one level down
        nested = [v for v in values.values() if isinstance(v, dict)]
        nested += [e for v in values.values() if isinstance(v, list) for e in v if isinstance(e, dict)]
        if nested:
            target = draw(st.sampled_from(nested))
            if target and draw(st.booleans()):
                del target[some_key(target)]
            else:
                target[draw(SHORT_TEXT)] = draw(JSON_VALUES)
    elif kind == 4:
        sets = [v for v in values.values() if isinstance(v, list)]
        if sets:
            draw(st.sampled_from(sets)).append(draw(JSON_VALUES))
    elif kind == 5 and links:
        links[some_key(links)] = draw(JSON_VALUES)
    elif kind == 6:
        links[draw(SHORT_TEXT)] = draw(st.lists(SHORT_TEXT, max_size=2))
    elif kind == 7 and links:
        del links[some_key(links)]
    elif kind == 8 and links:
        links[some_key(links)] = ["a", "b"]
    elif kind == 9:
        doc["interface"] = draw(SHORT_TEXT | JSON_VALUES)
    elif kind == 10:
        doc.pop(draw(st.sampled_from(["interface", "id", "values", "links"])), None)
    elif kind == 11:
        doc[draw(st.sampled_from(["id", "values", "links"]))] = draw(JSON_VALUES)
    elif kind == 12:
        doc.clear()


_mostly_true = st.sampled_from((True, True, True, False))


@st.composite
def record_documents(draw, schema):
    """A record document for schema: valid, or changed up to three times."""
    iface = draw(st.sampled_from(sorted(schema.interfaces)))
    flat = draw(st.permutations(flattened(schema, iface)))
    values, links = {}, {}
    for name, typ, _owner in flat:
        if isinstance(typ, Relationship):
            if draw(_mostly_true):
                links[name] = draw(
                    st.lists(SHORT_TEXT, max_size=1 if typ.cardinality == "one" else 3)
                )
        else:
            values[name] = draw(valid_values(typ))
    doc = {"interface": iface, "id": draw(SHORT_TEXT), "values": values, "links": links}
    for _ in range(draw(st.integers(0, 3))):
        if isinstance(doc.get("values"), dict) and isinstance(doc.get("links"), dict):
            mutate(draw, doc)
    return doc


def outcome(typed_record, schema_arg, doc):
    """The record as key-ordered JSON, or the exception's class and text."""
    try:
        rec = typed_record(schema_arg, doc, 7)
    except Exception as exc:  # the comparison is the point: any class counts
        return ("raised", type(exc).__name__, str(exc))
    return ("record", rec, json.dumps([rec.interface, rec.id, rec.values, rec.links]))


def distinct_members(value):
    """value with each set's repeated members dropped; a reference set is
    sorted, so its repeats are neighbours."""
    if isinstance(value, dict):
        return {name: distinct_members(v) for name, v in value.items()}
    if isinstance(value, list):
        members = [distinct_members(v) for v in value]
        return [v for i, v in enumerate(members) if i == 0 or v != members[i - 1]]
    return value


def expected_outcome(schema, doc):
    """The reference's outcome, except in three cases. An interface or id
    that is not a string is rejected: the reference crashes on an
    unhashable interface, calls any other unknown, and turns any id into
    its str(). A values or links member present but neither an object
    nor null is rejected when ingestion reaches it, values first: the
    reference reads a falsy one as {} and crashes on a truthy one. A set
    of structs or of sets holds each member once: the reference
    deduplicates only hashable members and keeps a repeated struct."""
    if isinstance(doc, dict) and "interface" in doc and "id" in doc:
        if not (isinstance(doc["interface"], str) and isinstance(doc["id"], str)):
            return ("raised", "TypeMismatch", "record line 7: interface and id must be strings")
    got = outcome(reference_typed_record, schema, copy.deepcopy(doc))
    known = (
        isinstance(doc, dict) and "id" in doc
        and isinstance(doc.get("interface"), str) and doc["interface"] in schema.interfaces
    )
    if not known:
        return got

    def misshapen(part):
        return doc.get(part) is not None and not isinstance(doc[part], dict)

    if misshapen("values"):
        return ("raised", "TypeMismatch", "record line 7: values must be an object")
    if misshapen("links") and (got[0] == "record" or got[1] == "AttributeError"):
        return ("raised", "TypeMismatch", "record line 7: links must be an object")
    if got[0] == "record":
        rec = replace(got[1], values=distinct_members(got[1].values))
        return ("record", rec, json.dumps([rec.interface, rec.id, rec.values, rec.links]))
    return got


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_ingestion_matches_per_record_flattening(src_schema, data):
    schema = data.draw(st.sampled_from([src_schema, NESTED_SCHEMA]))
    doc = data.draw(record_documents(schema))
    assert outcome(_typed_record, schema.tables, doc) == expected_outcome(schema, doc)


def nested_types(typ):
    """typ and every type within it."""
    yield typ
    if typ.kind == "struct":
        for _name, field_type in typ.fields:
            yield from nested_types(field_type)
    if typ.kind == "set":
        yield from nested_types(typ.element)


NESTED_TYPES = [
    inner for typ in NESTED_SCHEMA.table("N").attributes.values() for inner in nested_types(typ)
]


def coerced(check, *args):
    """What check returns, as canonical JSON text, or the text it raises."""
    try:
        return ("value", json.dumps(distinct_members(check(*args))))
    except TypeMismatch as exc:
        return ("raised", str(exc))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_coerce_matches_reference(data):
    typ = data.draw(st.sampled_from(NESTED_TYPES))
    value = data.draw(JSON_VALUES | valid_values(typ))
    assert coerced(coerce, typ, copy.deepcopy(value), "N", "x") == coerced(
        reference_coerce, typ, copy.deepcopy(value), "N.x"
    )


@pytest.mark.parametrize(
    "typ, value, path",
    [(scalar("double"), 10**400, ""), (set_of(scalar("double")), [1, -(10**400)], "[]")],
    ids=["double", "set-member"],
)
def test_coerce_names_a_double_beyond_every_float(typ, value, path):
    with pytest.raises(TypeMismatch) as err:
        coerce(typ, value, "ETABLISSEMENT", "budget")
    assert str(err.value) == (
        f"ETABLISSEMENT.budget{path}: expected a number, got an integer too large for a double"
    )

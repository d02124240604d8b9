"""Lifecycle engine: load, refresh diffing, archival, freeze, persistence."""

import contextlib
import json
import os
import random
import re
import zlib
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

import reference
from conftest import (
    assert_indexes,
    hospital_records,
    resealed,
    sealed_header,
    snapshot_lines,
    store_header,
    store_to_dict,
    subtypes,
    year,
)
from tdw import engine
from tdw.dsl import parse_warehouse_def, print_warehouse_def
from tdw.engine import (
    apply_archival_state,
    dumps_store,
    merge_archive,
    patch_specific,
    save_store,
)
from tdw.errors import (
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
from tdw.expr import Specialize
from tdw.model import (
    RetentionConfig,
    State,
    check_state_disjointness,
    check_subclass_laws,
    effective_filters,
    flatten_type,
    lifecycle_span,
    transitive_supers,
)
from tdw.source import ingest_snapshot, parse_source_schema
from tdw.temporal import Instant, domain, extend_end


# every initial load, store load and refresh in this module also checks the
# store's indexes against ones rebuilt from its objects


def initial_load(*args, **kwargs):
    store = engine.initial_load(*args, **kwargs)
    assert_indexes(store)
    return store


def refresh(store, *args, **kwargs):
    try:
        return engine.refresh(store, *args, **kwargs)
    finally:
        assert_indexes(store)


def load_store(path):
    store = engine.load_store(path)
    assert_indexes(store)
    return store


def edited(change):
    """A damage to a store file's object line: decode its head document,
    change it, encode it, and keep the past states' documents after it."""

    def damage(line):
        head, *past = line.split("\t")
        item = json.loads(head)
        change(item)
        return "\t".join([json.dumps(item), *past])

    return damage


def in_layout(like, bounds):
    """A domain document of the given intervals in the layout of like, a
    domain document: v6's and v5's [start, end] list, or the older {"unit",
    "intervals"}."""
    return {"intervals": bounds, "unit": "year"} if isinstance(like, dict) else bounds


def with_domain(bounds):
    """A damage to a head document: its current state's domain set to the
    given intervals, in the layout it holds."""
    return lambda item: item["current"].update(domain=in_layout(item["current"]["domain"], bounds))


# damages to an object line's head document, which in the v3 layout is
# the whole line, each with the start of the error's detail
HEAD_DAMAGE = {
    "object-without-current": (edited(lambda item: item.pop("current")), "KeyError: 'current'"),
    "domain-not-an-object": (
        edited(lambda item: item["current"].update(domain=[1990])),
        "TypeError: 'int' object is not iterable",
    ),
    "one-bound-interval": (
        edited(with_domain([[20]])), "ValueError: not enough values to unpack (expected 2, got 1)"
    ),
    "empty-interval": (edited(with_domain([[21, 20]])), "ValueError: empty interval [1991, 1990]"),
    "archives-not-a-list": (
        edited(lambda item: item.update(archives=None)),
        "TypeError: 'NoneType' object is not iterable",
    ),
    "not-json": (
        lambda line: "{not json",
        "JSONDecodeError: Expecting property name enclosed in double quotes",
    ),
    "value-not-an-object": (
        edited(lambda item: item["current"].update(value=[])),
        "TypeError: a state holds a list, not an object",
    ),
    "aggregates-not-an-object": (
        edited(
            lambda item: item.update(
                archives=[{"domain": in_layout(item["current"]["domain"], [[18, 18]]),
                           "aggregates": []}]
            )
        ),
        "TypeError: a state holds a list, not an object",
    ),
}


def past_doc(line, bounds, value):
    """A past state's document of the given intervals and value, in the
    layout of the object line's domains."""
    like = json.loads(line.split("\t", 1)[0])["current"]["domain"]
    return encode({"domain": in_layout(like, bounds), "value": value})


# domains of two intervals, each sound alone, that are not canonical
# together, and the detail of the error each raises
NON_CANONICAL = {
    "overlapping": (
        [[16, 17], [17, 18]],
        "ValueError: a domain's intervals [1986..1987] and [1987..1988] overlap",
    ),
    "out-of-order": (
        [[18, 18], [16, 16]],
        "ValueError: a domain's intervals [1988..1988] and [1986..1986] are out of order",
    ),
    "contiguous": (
        [[16, 16], [17, 18]],
        "ValueError: a domain's intervals [1986..1986] and [1987..1988] are contiguous",
    ),
}


def non_canonical(place, bounds):
    """A damage giving an object line's current state, a past state after
    a TAB, or an archive state a domain of the given intervals."""
    if place == "current":
        return edited(with_domain(bounds))
    if place == "archive":
        return edited(lambda item: item.update(
            archives=[{"domain": in_layout(item["current"]["domain"], bounds), "aggregates": {}}]
        ))
    return lambda line: line + "\t" + past_doc(line, bounds, {})


# damages to a v6 or v4 object line, each with the start of the detail of
# the error that decoding the line whole raises
OBJECT_LINE_DAMAGE = {
    **HEAD_DAMAGE,
    "past-in-the-head": (
        edited(lambda item: item.update(past=[])),
        "ValueError: an object's head document holds past states",
    ),
    "past-not-json": (
        lambda line: line + "\t{not json",
        "JSONDecodeError: Expecting property name enclosed in double quotes",
    ),
    "past-start-after-end": (
        lambda line: line + "\t" + past_doc(line, [[21, 20]], {}),
        "ValueError: empty interval [1991, 1990]",
    ),
    "tab-inside-a-document": (
        lambda line: line.replace('"CHU ', '"\tCHU ', 1),
        "JSONDecodeError: Invalid control character",
    ),
    "tab-and-comma-as-separators": (
        lambda line: line.replace('"CHU ', '"\tCHU ', 1) + "," + past_doc(line, [[19, 19]], {}),
        "JSONDecodeError: Invalid control character",
    ),
    # a TAB that JSON reads as white space inside the head document
    "tab-between-tokens": (
        lambda line: line.replace(":", ":\t", 1),
        "ValueError: an object line parts its documents with more than TABs",
    ),
    "comma-between-documents": (
        lambda line: line + "," + past_doc(line, [[19, 19]], {}),
        "ValueError: an object line parts its documents with more than TABs",
    ),
    "empty-past-document": (lambda line: line + "\t", "JSONDecodeError: Expecting value"),
    "past-value-not-an-object": (
        lambda line: line + "\t" + past_doc(line, [[19, 19]], []),
        "TypeError: a state holds a list, not an object",
    ),
    "active-current-spans-no-granule": (
        edited(with_domain([])), "ValueError: a domain spans no granule"
    ),
    **{
        f"{name}-{place}-domain": (non_canonical(place, bounds), detail)
        for place in ("current", "past", "archive")
        for name, (bounds, detail) in NON_CANONICAL.items()
    },
}
# where a sealed v6 line, whose head alone is decoded at first read and
# its past states one by one, raises another error than decoded whole
SEALED_DETAIL = {
    "tab-inside-a-document": "JSONDecodeError: Unterminated string",
    "tab-and-comma-as-separators": "JSONDecodeError: Unterminated string",
    "tab-between-tokens": "JSONDecodeError: Expecting value",
    "comma-between-documents": "JSONDecodeError: Extra data",
}
# where v4 to v1 lines, whose domains are {"intervals", "unit"}
# objects, raise another error
OLDER_DETAIL = {
    "domain-not-an-object": "TypeError: list indices must be integers or slices, not str",
}


# a membership over Hôpitaux_Publics, whose extension holds the
# Etablissements composites 8 and 9 besides the hospitals 3 and 4
GRANDS_HOPITAUX = (
    "\ninterface Grands_Hôpitaux (extend Hôpitaux_Publics) {\n}\n"
    "mapping Grands_Hôpitaux = specialize(h: Hôpitaux_Publics, h.budget > 0);\n"
)


def with_grands_hopitaux(oids):
    """Declare Grands_Hôpitaux in a store header and give it oids."""

    def change(head):
        head["warehouse_def"] += GRANDS_HOPITAUX
        head["memberships"] = {**head["memberships"], "Grands_Hôpitaux": oids}

    return change


# header memberships that name no single-operand specialization, an oid
# that no object has, or an oid that a refresh could not select from the
# membership's operand: a hospital among the young surgeons, or a
# composite of the operand's subclass
MEMBERSHIP_DAMAGE = [
    lambda head: head.update(memberships={"Jeunes_Chirurgiens": [999]}),
    lambda head: head.update(memberships={"Chirurgiens": [1]}),
    lambda head: head.update(memberships={"Fantômes": []}),
    lambda head: head.update(memberships=["Jeunes_Chirurgiens"]),
    lambda head: head.update(memberships={"Jeunes_Chirurgiens": [3]}),
    with_grands_hopitaux([3, 8]),
]
MEMBERSHIP_DAMAGE_IDS = [
    "membership-oid-no-object-has", "membership-of-an-owning-class",
    "membership-of-an-unknown-class", "memberships-not-an-object",
    "membership-oid-outside-its-operand", "membership-oid-a-composite-of-its-operand",
]

# header oid counters that are not an integer at least the largest oid (9):
# the next new object would take a held oid, or an oid that is no integer
OID_COUNTER_DAMAGE = [0, 8, "x", None, 9.0]
OID_COUNTER_DAMAGE_IDS = [
    "oid-counter-zero", "oid-counter-below-the-largest-oid", "oid-counter-a-string",
    "oid-counter-null", "oid-counter-a-float",
]

# an object index entry (oid 1, a surgeon) naming a class that owns no
# objects (unknown, a generalization, a membership class), a status that
# is neither active nor frozen, or a source key that is not one or more
# pairs of a source interface and a string id
INDEX_DAMAGE = [("class", "Fantômes"), ("class", "Personnes"),
                ("class", "Jeunes_Chirurgiens"), ("status", "zombie"),
                ("key", []), ("key", "ab"), ("key", [["PRATICIEN", "p1", "x"]]),
                ("key", [["PRATICIEN"]]), ("key", [["Fantômes", "p1"]]),
                ("key", [["PRATICIEN", 1]])]
INDEX_DAMAGE_IDS = [
    "index-class-unknown", "index-class-a-generalization",
    "index-class-a-membership", "index-status-unknown",
    "index-key-empty", "index-key-a-string", "index-key-pair-of-three",
    "index-key-pair-of-one", "index-key-interface-unknown", "index-key-id-not-a-string",
]


# the key of composite oid 8, which stands for hospital 3 and service 5,
# naming a missing oid, an object of another class than the one named, a
# class its operand does not read, or one object too many or too few; a
# string where an oid belongs, which makes it a key of the older form,
# its operands' source pairs one after the other; an older key that
# splits among the operands' objects no way; and older keys of oids 8
# and 9 that both read as hospital 3 and service 5
OLDER_KEY = [["ETABLISSEMENT", "e1"], ["ETABLISSEMENT", "e1"], ["SERVICE", "s1"]]
COMPOSITE_DAMAGE = {
    "composite-ref-missing-oid": (
        {8: [["Hôpitaux_Publics", 0], ["Services", 5]]},
        "oid 8 names Hôpitaux_Publics:0, which no object has"),
    "composite-ref-another-class": (
        {8: [["Services", 3], ["Services", 5]]},
        "oid 8 names Services:3, which is of class 'Hôpitaux_Publics'"),
    "composite-ref-class-not-read": (
        {8: [["Chirurgiens", 1], ["Services", 5]]},
        "oid 8 names Chirurgiens:1, of a class its operand does not read"),
    "composite-one-ref-too-many": (
        {8: [["Hôpitaux_Publics", 3], ["Services", 5], ["Services", 6]]},
        "oid 8 names 3 objects for 2 operands"),
    "composite-one-ref-too-few": (
        {8: [["Hôpitaux_Publics", 3]]}, "oid 8 names 1 objects for 2 operands"),
    "composite-ref-a-string-oid": (
        {8: [["Hôpitaux_Publics", "3"], ["Services", 5]]},
        "oid 8's source key splits no way among its operands' objects"),
    "composite-older-key-splitting-no-way": (
        {8: [["ETABLISSEMENT", "e1"], ["SERVICE", "s1"]]},
        "oid 8's source key splits no way among its operands' objects"),
    "composite-older-keys-reading-as-one": (
        {8: OLDER_KEY, 9: OLDER_KEY}, "two objects share one class and source key"),
}


def v1_keys_damage(keys):
    """Set the given oids' keys in a v1 document, in its identity table too."""

    def damage(doc):
        for obj in doc["objects"]:
            obj["source_key"] = keys.get(obj["oid"], obj["source_key"])
        for entry in doc["identity"]:
            entry[1] = keys.get(entry[2], entry[1])

    return damage


def header_keys_damage(keys):
    """Set the given oids' keys in a v2, v3 or v4 header's object index."""

    def damage(head):
        for entry in head["objects"]:
            entry[3] = keys.get(entry[0], entry[3])

    return damage


def v1_index_damage(field, value):
    """Set oid 1's field in a v1 document, and a class or key in its
    identity entry [class, source key, oid] too, which must agree with
    the objects."""

    def damage(doc):
        obj = doc["objects"][0]
        obj[{"key": "source_key"}.get(field, field)] = value
        if field in ("class", "key"):
            for entry in doc["identity"]:
                if entry[2] == obj["oid"]:
                    entry[field == "key"] = value

    return damage


def oid_counter_damage(value):
    """Set the oid counter of a v1 document or of a later header."""
    return lambda head: head.update(oid_counter=value)


def v2_index_damage(field, value):
    """Set oid 1's field in a v2 or v3 header's index entry [oid, class,
    status, source key]."""
    slot = {"class": 1, "status": 2, "key": 3}[field]
    return lambda head: head["objects"][0].__setitem__(slot, value)


@pytest.fixture()
def store(src_schema, wdef, make_snapshot):
    return initial_load(src_schema, wdef, make_snapshot(1990))


def by_key(store, class_name, sid):
    """The first object of the class whose source pairs name the source id."""
    for oid, obj in store.objects.items():
        if obj.class_name == class_name and any(s == sid for _i, s in source_pairs(store, oid)):
            return obj
    raise AssertionError(f"no {class_name} object for {sid}")


def source_pairs(store, oid) -> list:
    """The object's source pairs: an extraction object's key, and a
    composite's operand objects' source pairs one after the other, the key
    that builds before composites were keyed by their operand objects wrote."""
    obj = store.objects[oid]
    if store.schema.classes[obj.class_name].role != "composite":
        return [list(pair) for pair in obj.source_key]
    return [pair for _cname, ref in obj.source_key for pair in source_pairs(store, ref)]


class TestInitialLoad:
    def test_extensions_match_selection_oracle(self, store, make_snapshot):
        snap = make_snapshot(1990)
        surgeons = {
            rec.id
            for rec in snap.records.values()
            if rec.interface == "PRATICIEN" and rec.values["catégorie"] == "chirurgie"
        }
        loaded = {
            obj.source_key[0][1]
            for oid, obj in store.objects.items()
            if obj.class_name == "Chirurgiens"
        }
        assert loaded == surgeons == {"p1", "p2"}

    def test_superclass_extension_contains_subclass(self, store):
        assert set(store.extension_of("Chirurgiens")) <= set(store.extension_of("Personnes"))
        assert set(store.extension_of("Etablissements")) <= set(
            store.extension_of("Hôpitaux_Publics")
        )
        assert set(store.extension_of("Etablissements")) <= set(store.extension_of("Services"))

    def test_fresh_objects_shape(self, store):
        for obj in store.objects.values():
            assert obj.status == "active"
            assert obj.past == [] and obj.archives == []
            assert [(iv.start.tick, iv.end.tick) for iv in obj.current.domain.intervals] == [
                (20, 20)
            ]

    def test_relation_slots_rewritten_to_oids(self, store):
        p1 = by_key(store, "Chirurgiens", "p1")
        s1 = by_key(store, "Services", "s1")
        assert p1.current.value["travaille"] == [s1.oid]
        assert p1.current.value["dirige"] == s1.oid
        assert s1.current.value["équipe"] == sorted(
            [by_key(store, "Chirurgiens", "p1").oid, by_key(store, "Chirurgiens", "p2").oid]
        )

    def test_empty_snapshot(self, src_schema, wdef):
        snap = ingest_snapshot(src_schema, [], year(1990))
        store = initial_load(src_schema, wdef, snap)
        assert store.objects == {}
        for name in store.schema.classes:
            assert store.extension_of(name) == []

    def test_surgeon_at_private_clinic_dangles(self, src_schema, wdef, make_snapshot):
        snap = make_snapshot(1990, extra_private_team=True)
        with pytest.raises(DanglingRelationTarget):
            initial_load(src_schema, wdef, snap)

    def test_specific_slots_initialized_null(self, store):
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        assert hop.current.value["année_création"] is None

    def test_computed_slot_valued(self, store):
        assert by_key(store, "Hôpitaux_Publics", "e1").current.value["nb_services"] == 2
        assert by_key(store, "Hôpitaux_Publics", "e2").current.value["nb_services"] == 1

    def test_memberships(self, store):
        young = store.extension_of("Jeunes_Chirurgiens")
        assert young == [by_key(store, "Chirurgiens", "p1").oid]


class TestRefresh:
    def test_no_change_all_carried(self, src_schema, wdef, make_snapshot):
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        snap = make_snapshot(1991)
        # rebuild 1991 with 1990's values so nothing changes
        snap_same = ingest_snapshot(
            src_schema, snapshot_lines(hospital_records(1990)), year(1991)
        )
        report = refresh(store, snap_same)
        for name in ("Chirurgiens", "Hôpitaux_Publics", "Services", "Etablissements"):
            counts = report.classes[name]
            assert counts.historized == 0 and counts.updated == 0 and counts.created == 0
            assert counts.carried == len(
                [o for o in store.objects.values() if o.class_name == name]
            )
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        assert hop.past == []
        assert [(iv.start.tick, iv.end.tick) for iv in hop.current.domain.intervals] == [
            (20, 21)
        ]

    def test_temporal_change_historizes_whole_value(self, store, make_snapshot):
        refresh(store, make_snapshot(1991))
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        assert len(hop.past) == 1
        past = hop.past[0]
        assert past.value["budget"] == 2000000.0
        assert past.value["nom"] == "CHU Purpan"  # full value, not only the slot
        assert [(iv.start.tick, iv.end.tick) for iv in past.domain.intervals] == [(20, 20)]
        assert hop.current.value["budget"] == 2050000.0

    def test_non_temporal_change_updates_in_place(self, src_schema, wdef, make_snapshot):
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        records = hospital_records(1990)
        for r in records:
            if r["id"] == "p1":
                r["values"]["nom"] = "Bernard-Machin"  # nom is not temporal
        snap = ingest_snapshot(src_schema, snapshot_lines(records), year(1991))
        report = refresh(store, snap)
        counts = report.classes["Chirurgiens"]
        assert counts.updated == 1 and counts.historized == 0
        p1 = by_key(store, "Chirurgiens", "p1")
        assert p1.past == []
        assert p1.current.value["nom"] == "Bernard-Machin"
        # the pre-change value is gone: evolutions outside the filter are lossy
        assert store.value_at(p1.oid, Instant("year", 20))[1]["nom"] == "Bernard-Machin"

    def test_category_change_freezes_surgeon(self, src_schema, wdef, make_snapshot):
        store = initial_load(src_schema, wdef, make_snapshot(1990, with_extra_surgeon=True))
        # oracle: p4 leaves the selection predicate's extension
        snap = make_snapshot(1991, with_extra_surgeon=True, extra_surgeon_category="cardiologie")
        assert all(
            rec.values["catégorie"] != "chirurgie"
            for rec in snap.records.values()
            if rec.id == "p4"
        )
        refresh(store, snap)
        p4 = by_key(store, "Chirurgiens", "p4")
        assert p4.status == "frozen"
        assert [(iv.start.tick, iv.end.tick) for iv in p4.current.domain.intervals] == [
            (20, 20)
        ]

    def test_returning_key_thaws_its_frozen_object(self, src_schema, wdef, make_snapshot):
        store = initial_load(src_schema, wdef, make_snapshot(1990, with_extra_surgeon=True))
        refresh(store, make_snapshot(1991, with_extra_surgeon=True,
                                     extra_surgeon_category="cardiologie"))
        p4 = by_key(store, "Chirurgiens", "p4")
        assert p4.status == "frozen"
        frozen, past = p4.current, len(p4.past)
        # the key reappears inside the selection: the frozen state is pushed
        # as it is and a current state opens at the refresh
        report = refresh(store, make_snapshot(1992, with_extra_surgeon=True))
        p4 = by_key(store, "Chirurgiens", "p4")
        assert p4.status == "active"
        assert len(p4.past) == past + 1 and p4.past[-1] == frozen
        assert [(iv.start.tick, iv.end.tick) for iv in p4.current.domain.intervals] == [(22, 22)]
        assert p4.current.value["spécialité"] == "viscérale"
        assert check_state_disjointness(p4) == []
        covered = {t for s in (p4.current, *p4.past) for iv in s.domain.intervals
                   for t in range(iv.start.tick, iv.end.tick + 1)}
        assert 21 not in covered and {20, 22} <= covered  # a lifecycle with a gap
        c = report.classes["Chirurgiens"]  # the thaw counts as historized
        assert (c.created, c.frozen, c.carried + c.updated + c.historized) == (0, 0, 3)
        refresh(store, make_snapshot(1993, with_extra_surgeon=True))
        assert by_key(store, "Chirurgiens", "p4").status == "active"
        assert len([o for o in store.objects.values() if o.class_name == "Chirurgiens"]) == 3

    def test_non_monotonic_instant_rejected_and_atomic(self, store, make_snapshot):
        before = dumps_store(store)
        with pytest.raises(NonMonotonicInstant):
            refresh(store, make_snapshot(1990))
        assert dumps_store(store) == before

    def test_unit_mismatch(self, store, src_schema):
        snap = ingest_snapshot(
            src_schema, snapshot_lines(hospital_records(1991)), Instant("month", 252)
        )
        with pytest.raises(UnitMismatch):
            refresh(store, snap)

    def test_instant_other_than_the_snapshot_rejected(self, store, make_snapshot):
        before = dumps_store(store)
        with pytest.raises(Error, match="snapshot was taken at 1991, not at 1992"):
            refresh(store, make_snapshot(1991), year(1992))
        assert dumps_store(store) == before

    def test_a_mistyped_frozen_value_is_a_type_mismatch(self, src_schema, wdef, make_snapshot):
        # a refresh derives every active value again, but reads a frozen
        # object's stored value as it is: here p4's, through the
        # Jeunes_Chirurgiens membership, whose predicate compares it
        store = initial_load(src_schema, wdef, make_snapshot(1990, with_extra_surgeon=True))
        refresh(store, make_snapshot(1991))
        p4 = by_key(store, "Chirurgiens", "p4")
        assert p4.status == "frozen"
        p4.current.value["année_naissance"] = {}
        before = store_to_dict(store)
        with pytest.raises(TypeMismatch) as error:
            refresh(store, make_snapshot(1992))
        assert str(error.value) == (
            f"oid {p4.oid}: Chirurgiens.année_naissance: expected an integer, got {{}}"
        )
        assert store_to_dict(store) == before

    def test_failed_refresh_leaves_store_untouched(self, src_schema, wdef, make_snapshot):
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        before = dumps_store(store)
        with pytest.raises(DanglingRelationTarget):
            refresh(store, make_snapshot(1991, extra_private_team=True))
        assert dumps_store(store) == before

    def test_report_balance_invariant(self, src_schema, wdef, make_snapshot):
        store = initial_load(src_schema, wdef, make_snapshot(1990, with_extra_surgeon=True))
        # the classes that own objects: every class a report counts
        sizes = Counter(o.class_name for o in store.objects.values())
        for y, knobs in [
            (1991, dict(with_extra_surgeon=True)),
            (1992, dict(with_extra_surgeon=True, extra_surgeon_category="cardiologie")),
            (1993, dict(with_extra_surgeon=True, extra_surgeon_category="cardiologie")),
        ]:
            report = refresh(store, make_snapshot(y, **knobs))
            assert set(sizes) <= set(report.classes), y
            for name, c in report.classes.items():
                assert (
                    c.carried + c.updated + c.historized + c.frozen == sizes[name]
                ), f"{y}/{name}"
                sizes[name] += c.created

    def test_domains_stay_disjoint_and_inside_span(self, store, make_snapshot):
        for y in range(1991, 1997):
            refresh(store, make_snapshot(y))
        for obj in store.objects.values():
            assert check_state_disjointness(obj) == []
            span = lifecycle_span(obj)
            assert span.start.tick >= 20 and span.end.tick <= 26

    def test_extension_laws_survive_refreshes(self, store, make_snapshot, schema):
        from tdw.model import is_subclass

        for y in range(1991, 1995):
            refresh(store, make_snapshot(y))
            for sub in schema.classes:
                for sup in schema.classes:
                    if is_subclass(store.schema, sub, sup):
                        assert set(store.extension_of(sub)) <= set(store.extension_of(sup))

    def test_history_retrievable_until_and_only_until_eviction(self, store, make_snapshot):
        hop_oid = by_key(store, "Hôpitaux_Publics", "e1").oid
        # two historizing refreshes: 1990's value is a retrievable past state
        refresh(store, make_snapshot(1991))
        refresh(store, make_snapshot(1992))
        kind, value = store.value_at(hop_oid, year(1990))
        assert kind == "past" and value["budget"] == 2000000.0
        # the third historization evicts it into the archive
        refresh(store, make_snapshot(1993))
        kind, payload = store.value_at(hop_oid, year(1990))
        assert kind == "archive"
        assert payload["budget"]["value"] == 2000000.0

    def test_new_source_object_created_mid_life(self, src_schema, wdef, make_snapshot):
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        report = refresh(store, make_snapshot(1991, with_extra_surgeon=True))
        assert report.classes["Chirurgiens"].created == 1
        p4 = by_key(store, "Chirurgiens", "p4")
        assert [(iv.start.tick, iv.end.tick) for iv in p4.current.domain.intervals] == [
            (21, 21)
        ]

    def test_refresh_period_warning(self, src_schema, wdef, make_snapshot):
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        report = refresh(store, make_snapshot(1992))  # declared period is 1 year
        assert any("refresh period" in w for w in report.warnings)

    def test_incomparable_refresh_period_warns_and_refreshes(
        self, src_schema, edw_text, make_snapshot
    ):
        text = edw_text.replace("refresh every 1 year;", "refresh every 1 week;")
        assert text != edw_text
        store = initial_load(src_schema, parse_warehouse_def(text), make_snapshot(1990))
        report = refresh(store, make_snapshot(1991))
        assert report.warnings == [
            "environment 'Evolutions': refresh period unit 'week' is not comparable with 'year'"
        ]
        assert report.classes["Hôpitaux_Publics"].historized == 2
        assert store.last_refresh == year(1991)

    def test_incomparable_retention_unit_is_rejected_at_the_build(
        self, src_schema, edw_text, make_snapshot
    ):
        text = edw_text.replace("keep 2 past states;", "keep past 2 weeks;")
        assert text != edw_text
        with pytest.raises(MixedUnits) as err:
            initial_load(src_schema, parse_warehouse_def(text), make_snapshot(1990))
        assert str(err.value) == (
            "environment 'Evolutions': retention unit 'week' is not comparable with 'year'"
        )
        # a comparable unit is converted, rounding up to whole years
        text = edw_text.replace("keep 2 past states;", "keep past 13 months;")
        store = initial_load(src_schema, parse_warehouse_def(text), make_snapshot(1990))
        for y in (1991, 1992, 1993):
            refresh(store, make_snapshot(y))
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        assert [s.domain.intervals[-1].end for s in hop.past] == [year(1991), year(1992)]

    def test_undeclared_colliding_names_are_ignored(
        self, src_schema, edw_text, make_snapshot, tmp_path
    ):
        # the join exposes both h.nom and s.nom, neither declared
        text = edw_text + (
            "\ninterface Téléphones {\n    D_attribute String téléphone;\n}\n"
            "mapping Téléphones = join(h: ETABLISSEMENT, s: SERVICE, h.organisation contains s);\n"
        )
        store = initial_load(src_schema, parse_warehouse_def(text), make_snapshot(1990))
        phones = {
            store.objects[oid].source_key: store.objects[oid].current.value
            for oid in store.direct_extension("Téléphones")
        }
        assert phones[(("ETABLISSEMENT", "e1"), ("SERVICE", "s1"))] == {
            "téléphone": "05 61 11 22 33"
        }
        assert len(phones) >= 3
        store = saved_and_loaded(store, str(tmp_path / "h.store"))
        report = refresh(store, make_snapshot(1991))
        assert report.classes["Téléphones"].carried == len(phones)
        assert store.objects[store.direct_extension("Téléphones")[0]].current.value.keys() == {
            "téléphone"
        }

    def test_incomparable_retention_unit_in_a_stored_definition_is_rejected_at_refresh(
        self, store, tmp_path, make_snapshot
    ):
        # older builds made such a store, the build not checking the unit
        header, lines = dumps_store(store).split("\n", 1)
        doc = store_header(header)
        doc["warehouse_def"] = doc["warehouse_def"].replace(
            "keep 2 past states;", "keep past 2 weeks;"
        )
        assert "keep past 2 weeks;" in doc["warehouse_def"]
        path = tmp_path / "weeks.store"
        path.write_text(sealed_header(doc) + "\n" + lines, encoding="utf-8")
        loaded = load_store(str(path))
        text = dumps_store(loaded)
        with pytest.raises(MixedUnits) as err:
            refresh(loaded, make_snapshot(1991))
        assert str(err.value) == (
            "environment 'Evolutions': retention unit 'week' is not comparable with 'year'"
        )
        assert dumps_store(loaded) == text and loaded.last_refresh == year(1990)

    def test_a_stored_current_state_ending_at_the_refresh_rejects_it(
        self, store, tmp_path, make_snapshot
    ):
        # older builds stored a patch dated after the last refresh as a
        # later end of the object's current state, the store's now staying
        header, *lines = dumps_store(store)[:-1].split("\n")
        assert store.objects[3].class_name == "Hôpitaux_Publics"
        lines[2] = edited(with_domain([[20, 23]]))(lines[2])
        path = tmp_path / "late.store"
        # such a line read from an older file is written as it was stored
        # by this build's next save, so with its CRC-32
        path.write_text(resealed("\n".join([header, *lines]) + "\n"), encoding="utf-8")
        loaded = load_store(str(path))
        text = path.read_text(encoding="utf-8")
        with pytest.raises(
            NonMonotonicInstant,
            match="^refresh at 1991 is not after 1993, where the current state of object 3 ends$",
        ):
            refresh(loaded, make_snapshot(1991))
        assert dumps_store(loaded) == text
        report = refresh(loaded, make_snapshot(1994))
        assert report.classes["Hôpitaux_Publics"].historized == 2
        assert [s.domain for s in loaded.objects[3].past] == [domain("year", (20, 23))]
        assert_states_disjoint(loaded)

    def test_gap_refresh_extends_to_previous_granule(self, src_schema, wdef, make_snapshot):
        # nothing is known between extraction points: a change observed in
        # 1993 means the old value held through 1992
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        refresh(store, make_snapshot(1993))
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        assert [(iv.start.tick, iv.end.tick) for iv in hop.past[0].domain.intervals] == [
            (20, 22)
        ]
        assert [(iv.start.tick, iv.end.tick) for iv in hop.current.domain.intervals] == [
            (23, 23)
        ]

    def test_gap_freeze_closes_before_refresh(self, src_schema, wdef, make_snapshot):
        store = initial_load(src_schema, wdef, make_snapshot(1990, with_extra_surgeon=True))
        refresh(store, make_snapshot(1994))  # p4 vanished some time before 1994
        p4 = by_key(store, "Chirurgiens", "p4")
        assert p4.status == "frozen"
        assert [(iv.start.tick, iv.end.tick) for iv in p4.current.domain.intervals] == [
            (20, 23)
        ]

    def test_monthly_granularity_store(self, src_schema, wdef):
        from tdw.temporal import parse_instant

        def month_snapshot(text_instant, at_year):
            return ingest_snapshot(
                src_schema,
                snapshot_lines(hospital_records(at_year)),
                parse_instant(text_instant),
            )

        store = initial_load(src_schema, wdef, month_snapshot("1990-01", 1990))
        report = refresh(store, month_snapshot("1990-02", 1990))
        # nothing changed between the two months: everything carries
        assert report.classes["Hôpitaux_Publics"].carried == 2
        # yearly declared period vs one month elapsed triggers the warning
        assert any("refresh period" in w for w in report.warnings)
        report = refresh(store, month_snapshot("1990-03", 1991))
        assert report.classes["Hôpitaux_Publics"].historized == 2
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        assert hop.current.domain.unit == "month"
        assert [(iv.start.tick, iv.end.tick) for iv in hop.past[0].domain.intervals] == [
            (240, 241)
        ]


def layered_text(edw_text: str) -> str:
    """The fixture with chained specializations: Tres_Jeunes, a membership
    over the membership Jeunes_Chirurgiens, declared before it; Riches, a
    membership over the composite Etablissements; and Tres_Riches, one
    over Riches."""
    head = "interface Jeunes_Chirurgiens (extend Chirurgiens) {\n}\n"
    assert edw_text.count(head) == 1
    return edw_text.replace(
        head, "interface Tres_Jeunes (extend Jeunes_Chirurgiens) {\n}\n\n" + head
    ) + (
        "interface Riches (extend Etablissements) { }\n"
        "interface Tres_Riches (extend Riches) { }\n"
        "mapping Tres_Jeunes = specialize(c: Jeunes_Chirurgiens,\n"
        "    c.année_naissance >= 1975);\n"
        "mapping Riches = specialize(e: Etablissements, e.budget > 0);\n"
        "mapping Tres_Riches = specialize(r: Riches, r.budget > 1000000);\n"
    )


class TestSpecializationOrder:
    """A specialization is evaluated after every class its operands name,
    at the same extraction point, whatever the declaration order."""

    @pytest.fixture()
    def layered(self, src_schema, edw_text):
        return parse_warehouse_def(layered_text(edw_text))

    # each added class, its operand and its predicate
    SELECTIONS = {
        "Tres_Jeunes": ("Jeunes_Chirurgiens", lambda v: v["année_naissance"] >= 1975),
        "Riches": ("Etablissements", lambda v: v["budget"] > 0),
        # a membership of a membership reads the composites its operand
        # selected
        "Tres_Riches": ("Riches", lambda v: v["budget"] > 1000000),
    }

    def test_each_specialization_follows_its_operands(self, src_schema, layered, make_snapshot):
        knobs = dict(with_extra_surgeon=True)
        store = initial_load(src_schema, layered, make_snapshot(1990, **knobs))
        for y in (1990, 1991, 1992, 1993):
            if y > 1990:
                if y >= 1992:
                    knobs["extra_surgeon_category"] = "cardiologie"
                refresh(store, make_snapshot(y, **knobs))
            for name, (operand, holds) in self.SELECTIONS.items():
                expected = {
                    oid
                    for oid in store.extension_of(operand)
                    if holds(store.objects[oid].current.value)
                }
                assert expected, name  # not vacuous
                assert store.by_class[name] == expected, f"{y}/{name}"
            assert_indexes(store)

    def test_membership_reads_its_operand_without_subclass_composites(
        self, src_schema, edw_text, make_snapshot
    ):
        # Hôpitaux_Publics's extension holds its subclass Etablissements's
        # composites; Riches2 selects none of them, declared before
        # Etablissements or after it
        interface = "interface Etablissements (extend"
        mapping = "mapping Etablissements ="
        riches = (
            "interface Riches2 (extend Hôpitaux_Publics) { }\n",
            "mapping Riches2 = specialize(h: Hôpitaux_Publics, h.budget > 0);\n",
        )
        assert edw_text.count(interface) == edw_text.count(mapping) == 1
        texts = [
            edw_text.replace(interface, riches[0] + interface).replace(
                mapping, riches[1] + mapping
            ),
            edw_text + "".join(riches),
        ]
        stores = [
            initial_load(src_schema, parse_warehouse_def(text), make_snapshot(1990))
            for text in texts
        ]
        for y in (1990, 1991, 1992):
            if y > 1990:
                for store in stores:
                    refresh(store, make_snapshot(y))
            hospitals = [by_key(stores[0], "Hôpitaux_Publics", e).oid for e in ("e1", "e2")]
            assert [s.direct_extension("Riches2") for s in stores] == [hospitals] * 2
            assert stores[0].direct_extension("Etablissements")  # not vacuous
            before, after = (without_definition(dumps_store(s)) for s in stores)
            assert before == after


def walked_extension(store, class_name: str) -> list:
    """Store.extension_of as it was before the class lattice: the class's
    own members and, recursively, each direct subclass's extension."""
    oids = set(store.direct_extension(class_name))
    for sub, cls in store.schema.classes.items():
        if class_name in cls.supers:
            oids.update(walked_extension(store, sub))
    return sorted(oids)


def walked_operand(store, class_name: str) -> list:
    """The operand read before the class lattice: the class's extension
    without the objects of its specialization subclasses."""
    schema = store.schema
    theirs = {
        name
        for name, cls in schema.classes.items()
        if isinstance(cls.mapping, Specialize) and class_name in transitive_supers(schema, name)
    }
    return [
        oid
        for oid in walked_extension(store, class_name)
        if store.objects[oid].class_name not in theirs
    ]


class TestLatticeReads:
    """Each class's subtree and role, which resolve fixes, answer the
    extension and operand reads as the walks over the schema they
    replaced did."""

    BENCH = Path(__file__).resolve().parents[1] / "bench"

    # a composite three levels below Hôpitaux_Publics, whose extension
    # holds it only through the subtree's transitive closure
    DEEP = (
        "interface Riches_Services (extend Riches, Services) { }\n"
        "mapping Riches_Services = specialize(r: Riches, s: Services, r.organisation contains s);\n"
    )

    @pytest.fixture(params=["fixture", "hopital.edw", "hopital_long.edw", "layered", "deep"])
    def definition(self, request, edw_text):
        if request.param == "fixture":
            return parse_warehouse_def(edw_text)
        if request.param in ("layered", "deep"):
            deep = self.DEEP if request.param == "deep" else ""
            return parse_warehouse_def(layered_text(edw_text) + deep)
        return parse_warehouse_def((self.BENCH / request.param).read_text(encoding="utf-8"))

    def test_reads_equal_the_walks(self, src_schema, definition, make_snapshot):
        store = initial_load(src_schema, definition, make_snapshot(1990, with_extra_surgeon=True))
        for y in (1990, 1991):
            if y > 1990:
                # the extra surgeon leaves surgery: their object freezes
                knobs = dict(with_extra_surgeon=True, extra_surgeon_category="cardiologie")
                refresh(store, make_snapshot(y, **knobs))
            for name in store.schema.classes:
                assert store.extension_of(name) == walked_extension(store, name), (y, name)
                assert engine._operand_oids(store, name) == walked_operand(store, name), (y, name)
            # not vacuous: some class's composite subclass is left out of its
            # operand read, and every class has members
            assert any(
                engine._operand_oids(store, name) != store.extension_of(name)
                for name in store.schema.classes
            )
            assert all(store.extension_of(name) for name in store.schema.classes)


def without_definition(text: str) -> tuple[dict, str]:
    """A store file's header, without the warehouse definition's text,
    and its object lines."""
    header, lines = text.split("\n", 1)
    doc = store_header(header)
    del doc["warehouse_def"]
    return doc, lines


# a composite over the generalization Personnes, whose subclasses
# Chirurgiens and Anciens hold two objects of one surgeon
EQUIPIERS = (
    "interface Equipiers (extend Personnes, Services) { }\n"
    "mapping Equipiers = specialize(x: Personnes, s: Services, x.année_naissance < 1970);\n"
)


def with_anciens(edw_text: str) -> str:
    """The fixture definition plus a second subclass of Personnes, Anciens
    (every practitioner born before 1990, so surgeons p1 and p2 are also
    Anciens), and a membership of Personnes."""
    head = "interface Jeunes_Chirurgiens (extend Chirurgiens) {\n}\n"
    lift = "c.année_naissance, c: Chirurgiens);"
    assert edw_text.count(head) == 1 and edw_text.count(lift) == 1
    return edw_text.replace(
        head,
        head + "\ninterface Anciens (extend Personnes) {\n"
        "    D_attribute String no_praticien;\n}\n"
        "\ninterface Nés_Avant_1980 (extend Personnes) {\n}\n",
    ).replace(lift, "c.année_naissance, c: Chirurgiens, a: Anciens);") + (
        "mapping Anciens = project(p.nom, p.prénom, p.adresse, p.année_naissance,\n"
        "    p.no_praticien, select(p: PRATICIEN, p.année_naissance < 1990));\n"
        "mapping Nés_Avant_1980 = specialize(x: Personnes, x.année_naissance < 1980);\n"
    )


def with_medecins(edw_text: str) -> str:
    """The fixture definition plus Médecins, a subclass of Personnes
    selecting the practitioners Chirurgiens does not: of category
    "médecine" rather than "chirurgie"."""
    head = "interface Jeunes_Chirurgiens (extend Chirurgiens) {\n}\n"
    lift = "c.année_naissance, c: Chirurgiens);"
    assert edw_text.count(head) == 1 and edw_text.count(lift) == 1
    return edw_text.replace(
        head,
        head + "\ninterface Médecins (extend Personnes) {\n"
        "    D_attribute String no_praticien;\n}\n",
    ).replace(lift, "c.année_naissance, c: Chirurgiens, m: Médecins);") + (
        "mapping Médecins = project(p.nom, p.prénom, p.adresse, p.année_naissance,\n"
        "    p.no_praticien, select(p: PRATICIEN, p.catégorie = \"médecine\"));\n"
    )


# a composite over the generalization Personnes: each practitioner born
# in 1980 or later, p4 alone, with each public hospital of a budget over
# 1,600,000 (e1 from the start, e2 from 1994)
TUTELLES = (
    "interface Tutelles (extend Personnes, Hôpitaux_Publics) { }\n"
    "mapping Tutelles = specialize(x: Personnes, h: Hôpitaux_Publics where h.budget > 1600000,\n"
    "    x.année_naissance >= 1980);\n"
)


class TestMembership:
    """A single-operand specialization selects members of its operand's
    extension by oid."""

    def test_members_may_share_a_source_record(
        self, src_schema, edw_text, make_snapshot, tmp_path
    ):
        wdef = parse_warehouse_def(with_anciens(edw_text))
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        p1 = sorted(
            o.oid for o in store.objects.values() if o.source_key == (("PRATICIEN", "p1"),)
        )
        assert [store.objects[oid].class_name for oid in p1] == ["Chirurgiens", "Anciens"]
        personnes = store.extension_of("Personnes")
        assert len(personnes) == 5  # everyone is born before 1980
        assert store.direct_extension("Nés_Avant_1980") == personnes
        store = saved_and_loaded(store, str(tmp_path / "h.store"))
        refresh(store, make_snapshot(1991))
        assert store.direct_extension("Nés_Avant_1980") == store.extension_of("Personnes")
        assert set(p1) <= store.by_class["Nés_Avant_1980"]


class TestCompositeIdentity:
    """A composite is keyed by its operand objects, one per operand."""

    def test_two_objects_of_one_record_stand_in_distinct_composites(
        self, src_schema, edw_text, make_snapshot, tmp_path
    ):
        # Personnes reads surgeon p2 as a Chirurgiens object and as an
        # Anciens one, both with p2's source key
        wdef = parse_warehouse_def(with_anciens(edw_text) + EQUIPIERS)
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        for y in (1991, 1992):
            refresh(store, make_snapshot(y))
        p2 = [by_key(store, cname, "p2").oid for cname in ("Chirurgiens", "Anciens")]
        assert store.objects[p2[0]].source_key == store.objects[p2[1]].source_key
        s1 = service(store, "e1", "s1").oid
        equipiers = {
            store.objects[oid].source_key: oid for oid in store.direct_extension("Equipiers")
        }
        pair = [equipiers[((cname, oid), ("Services", s1))]
                for cname, oid in zip(("Chirurgiens", "Anciens"), p2)]
        assert pair[0] != pair[1]
        assert all(store.objects[oid].status == "active" for oid in pair)
        loaded = saved_and_loaded(store, str(tmp_path / "h.store"))
        assert dumps_store(loaded) == dumps_store(store)

    def test_a_composite_over_a_membership_names_its_members(
        self, src_schema, edw_text, make_snapshot, tmp_path
    ):
        # Riches_Services's first operand, the membership Riches, selects
        # Etablissements composites, which its keys name; a key of the
        # older form splits among them too
        wdef = parse_warehouse_def(layered_text(edw_text) + TestLatticeReads.DEEP)
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        keys = [store.objects[oid].source_key for oid in store.direct_extension("Riches_Services")]
        assert keys and all(key[0][0] == "Etablissements" for key in keys)
        path = tmp_path / "h.store"
        loaded = saved_and_loaded(store, str(path))
        assert store_to_dict(loaded) == store_to_dict(store)
        path.write_text(v4_text(store), encoding="utf-8")
        assert store_to_dict(load_store(str(path))) == store_to_dict(store)


class TestArchival:
    def test_count_bound_keeps_two(self, store, make_snapshot):
        for y in range(1991, 1994):
            refresh(store, make_snapshot(y))
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        assert len(hop.past) == 2 and len(hop.archives) == 1
        # replay oracle: three pushes minus the retention bound of two
        assert [s.value["budget"] for s in hop.past] == [2050000.0, 2100000.0]
        arch = hop.archives[0]
        assert arch.aggregates["budget"] == {
            "function": "avg",
            "count": 1,
            "sum": 2000000.0,
            "value": 2000000.0,
        }

    def test_membership_in_an_environment_archives_under_its_objects_class(
        self, src_schema, edw_text, make_snapshot
    ):
        # Jeunes_Chirurgiens's extension is a set of Chirurgiens objects, so
        # p1, a young surgeon, evicts under Chirurgiens only
        envs = "class Personnes, Chirurgiens,"
        assert edw_text.count(envs) == 1
        text = edw_text.replace(envs, "class Jeunes_Chirurgiens, Personnes, Chirurgiens,")
        store = initial_load(src_schema, parse_warehouse_def(text), make_snapshot(1990))
        for y in range(1991, 1996):
            report = refresh(store, make_snapshot(y))
        evictions = {c: n.archived_evictions for c, n in report.classes.items()}
        assert {c: n for c, n in evictions.items() if n} == {
            "Chirurgiens": 2, "Hôpitaux_Publics": 2
        }

    def test_unbounded_env_without_archives_never_evicts(
        self, src_schema, edw_text, make_snapshot
    ):
        # no retention bound is legal only while nothing needs archiving
        text = (
            edw_text.replace("keep 2 past states;", "")
            .replace("    archive last(spécialité), avg(revenus);\n", "")
            .replace("    archive avg(budget), avg(nb_services);\n", "")
        )
        wdef = parse_warehouse_def(text)
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        for y in range(1991, 1996):
            refresh(store, make_snapshot(y))
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        assert len(hop.past) == 5 and hop.archives == []

    def test_duration_bound(self, src_schema, edw_text, make_snapshot):
        text = edw_text.replace("keep 2 past states;", "keep past 2 years;")
        wdef = parse_warehouse_def(text)
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        for y in range(1991, 1996):
            refresh(store, make_snapshot(y))
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        # states ending more than two years before the refresh are gone
        assert all(25 - s.domain.intervals[-1].end.tick <= 2 for s in hop.past)
        assert len(hop.archives) == 1

    def test_duration_bound_converts_units(self, src_schema, edw_text, make_snapshot):
        # 24 months rescale to 2 years against a year-granule store
        months = edw_text.replace("keep 2 past states;", "keep past 24 months;")
        years = edw_text.replace("keep 2 past states;", "keep past 2 years;")
        stores = []
        for text in (months, years):
            store = initial_load(
                src_schema, parse_warehouse_def(text), make_snapshot(1990)
            )
            for y in range(1991, 1996):
                refresh(store, make_snapshot(y))
            stores.append(store)
        a = [s.domain.intervals for s in by_key(stores[0], "Hôpitaux_Publics", "e1").past]
        b = [s.domain.intervals for s in by_key(stores[1], "Hôpitaux_Publics", "e1").past]
        assert a == b

    def test_non_archived_properties_discarded(self, store, make_snapshot):
        for y in range(1991, 1994):
            refresh(store, make_snapshot(y))
        arch = by_key(store, "Hôpitaux_Publics", "e1").archives[0]
        assert set(arch.aggregates) == {"budget", "nb_services"}  # nom, ville... dropped

    def test_surgeon_archive_uses_last_and_avg(self, src_schema, wdef, make_snapshot):
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        for y in range(1991, 1995):
            refresh(store, make_snapshot(y))
        p1 = by_key(store, "Chirurgiens", "p1")
        arch = p1.archives[0]
        assert arch.aggregates["spécialité"]["function"] == "last"
        assert arch.aggregates["spécialité"]["value"] == "orthopédie"
        evicted = [90000.0 + 1000 * k for k in range(len(p1.past) and 2)]
        assert arch.aggregates["revenus"]["count"] == 2
        assert arch.aggregates["revenus"]["value"] == sum(evicted) / len(evicted)


MULTI_LIFT_ODL = """
interface CLINIQUE { attribute String nom; attribute Short lits; }
interface LABO { attribute String nom; attribute Double surface; }
"""

MULTI_LIFT_EDW = """
warehouse Sites;
interface Sites_Soins { D_attribute String nom; }
interface Cliniques (extend Sites_Soins) { D_attribute Short lits; }
interface Labos (extend Sites_Soins) { D_attribute Double surface; }
mapping Cliniques = select(c: CLINIQUE, c.lits >= 0);
mapping Labos = select(l: LABO, l.surface >= 0);
mapping Sites_Soins = generalize(c.nom, c: Cliniques, l: Labos);
"""


class TestMultiOperandGeneralize:
    def _store(self):
        src = parse_source_schema(MULTI_LIFT_ODL)
        wdef = parse_warehouse_def(MULTI_LIFT_EDW)
        lines = [
            '{"interface": "CLINIQUE", "id": "c1", "values": {"nom": "Nord", "lits": 40}}',
            '{"interface": "CLINIQUE", "id": "c2", "values": {"nom": "Sud", "lits": 25}}',
            '{"interface": "LABO", "id": "l1", "values": {"nom": "Central", "surface": 320.0}}',
        ]
        snap = ingest_snapshot(src, lines, year(1990))
        return initial_load(src, wdef, snap)

    def test_super_extension_is_union_of_operands(self):
        store = self._store()
        assert len(store.extension_of("Cliniques")) == 2
        assert len(store.extension_of("Labos")) == 1
        assert set(store.extension_of("Sites_Soins")) == set(
            store.extension_of("Cliniques")
        ) | set(store.extension_of("Labos"))

    def test_subclass_laws_hold(self):
        from tdw.model import check_subclass_laws

        store = self._store()
        exts = {n: set(store.extension_of(n)) for n in store.schema.classes}
        assert check_subclass_laws(store.schema, "Cliniques", "Sites_Soins", exts) == []
        assert check_subclass_laws(store.schema, "Labos", "Sites_Soins", exts) == []

    def test_common_property_type_must_match(self):
        # the lifted nom is a String in CLINIQUE and a Long in LABO: the
        # Labos operand cannot give Sites_Soins' String nom
        odl = MULTI_LIFT_ODL.replace(
            "interface LABO { attribute String nom;", "interface LABO { attribute Long nom;"
        )
        assert odl != MULTI_LIFT_ODL
        src = parse_source_schema(odl)
        from tdw.errors import UnresolvedSourceProperty

        with pytest.raises(Error) as err:
            initial_load(src, parse_warehouse_def(MULTI_LIFT_EDW), ingest_snapshot(src, [], year(1990)))
        assert type(err.value) is UnresolvedSourceProperty
        assert str(err.value) == "Labos.nom: declared String, source provides Long"


FULL_LIFT_EDW = """
warehouse Sites;
interface Sites_Soins { D_attribute String nom; D_attribute Short lits; }
interface Cliniques (extend Sites_Soins) { }
mapping Cliniques = select(c: CLINIQUE, c.lits >= 0);
mapping Sites_Soins = generalize(c.nom, c.lits, c: Cliniques);
"""


class TestGeneralize:
    """A generalization's type is what the resolver accepted and its
    extension is what the engine derives from the operands' objects."""

    def test_lift_person_properties(self, store):
        lifted = ["nom", "prénom", "adresse", "année_naissance"]
        schema = store.schema
        assert [p.name for p in flatten_type(schema, "Personnes")] == lifted
        assert not {p.name for p in schema.classes["Chirurgiens"].structure} & set(lifted)
        assert schema.classes["Chirurgiens"].supers == ("Personnes",)

        def keys(name):
            return {store.objects[oid].source_key for oid in store.extension_of(name)}

        assert keys("Personnes") == keys("Chirurgiens")

    def test_full_structure_lift_builds(self):
        src = parse_source_schema(MULTI_LIFT_ODL)
        lines = [
            '{"interface": "CLINIQUE", "id": "c1", "values": {"nom": "Nord", "lits": 40}}',
            '{"interface": "CLINIQUE", "id": "c2", "values": {"nom": "Sud", "lits": 25}}',
        ]
        store = initial_load(
            src, parse_warehouse_def(FULL_LIFT_EDW), ingest_snapshot(src, lines, year(1990))
        )
        assert store.schema.classes["Cliniques"].structure == []
        exts = {n: set(store.extension_of(n)) for n in store.schema.classes}
        assert len(exts["Cliniques"]) == 2
        assert exts["Sites_Soins"] == exts["Cliniques"]
        assert check_subclass_laws(store.schema, "Cliniques", "Sites_Soins", exts) == []

    def test_extension_is_superset(self, store):
        exts = {n: set(store.extension_of(n)) for n in store.schema.classes}
        for sub in ("Chirurgiens", "Jeunes_Chirurgiens"):
            assert exts[sub] and exts["Personnes"] >= exts[sub]
            assert check_subclass_laws(store.schema, sub, "Personnes", exts) == []


class TestMergeArchive:
    def test_last_replaces(self):
        state = State(domain("year", (20, 20)), {"spécialité": "cardio"})
        arch = merge_archive(None, state, {"spécialité": "last"})
        assert arch.aggregates["spécialité"] == {"function": "last", "value": "cardio"}
        newer = State(domain("year", (21, 21)), {"spécialité": "neuro"})
        arch = merge_archive(arch, newer, {"spécialité": "last"})
        assert arch.aggregates["spécialité"]["value"] == "neuro"

    def test_fold_order_irrelevant_for_min_max_sum(self):
        import itertools

        values = [7, 3, None, 11]  # a null marker, skipped by every fold
        archi = {"x": "sum", "y": "min", "z": "max"}
        results = set()
        for perm in itertools.permutations(values):
            arch = None
            for i, v in enumerate(perm):
                state = State(domain("year", (20 + i, 20 + i)), {"x": v, "y": v, "z": v})
                arch = merge_archive(arch, state, archi)
            results.add(
                (
                    arch.aggregates["x"]["value"],
                    arch.aggregates["y"]["value"],
                    arch.aggregates["z"]["value"],
                )
            )
        assert results == {(21, 3, 11)}

    def test_avg_is_exact_not_mean_of_means(self):
        arch = None
        for i, v in enumerate([None, 100, 200, None, 250]):
            arch = merge_archive(
                arch, State(domain("year", (20 + i, 20 + i)), {"x": v}), {"x": "avg"}
            )
        # arithmetic mean of the three values, not a mean of partial means,
        # and the null markers counted in neither
        assert arch.aggregates["x"]["value"] == (100 + 200 + 250) / 3
        assert arch.aggregates["x"]["count"] == 3
        assert arch.aggregates["x"]["sum"] == 550

    def test_domain_accumulates(self):
        a = merge_archive(None, State(domain("year", (20, 20)), {"x": 1}), {"x": "sum"})
        b = merge_archive(a, State(domain("year", (21, 21)), {"x": 2}), {"x": "sum"})
        assert [(iv.start.tick, iv.end.tick) for iv in b.domain.intervals] == [(20, 21)]

    def test_count_counts_evictions(self):
        arch = None
        for i in range(3):
            arch = merge_archive(
                arch, State(domain("year", (20 + i, 20 + i)), {"x": 9}), {"x": "count"}
            )
        assert arch.aggregates["x"] == {"function": "count", "value": 3}

    def test_merging_leaves_the_prior_archive_unchanged(self):
        archi = {"x": "avg", "y": "last", "z": "count"}
        prior = merge_archive(None, State(domain("year", (20, 20)), {"x": 1, "y": "a"}), archi)
        before = json.dumps(prior.aggregates, sort_keys=True)
        merged = merge_archive(prior, State(domain("year", (21, 21)), {"x": 3, "y": "b"}), archi)
        assert json.dumps(prior.aggregates, sort_keys=True) == before
        assert merged.aggregates["x"] == {"function": "avg", "count": 2, "sum": 4, "value": 2.0}
        assert merged.aggregates["y"]["value"] == "b" and merged.aggregates["z"]["value"] == 2

    def test_avg_of_one_hundred_then_two_hundred(self):
        arch = merge_archive(
            None, State(domain("year", (20, 20)), {"revenus": 100}), {"revenus": "avg"}
        )
        arch = merge_archive(
            arch, State(domain("year", (21, 21)), {"revenus": 200}), {"revenus": "avg"}
        )
        assert arch.aggregates["revenus"]["value"] == 150
        assert arch.aggregates["revenus"]["count"] == 2
        assert arch.aggregates["revenus"]["sum"] == 300


class TestPatchSpecific:
    def test_set_and_read_back(self, store):
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        patch_specific(store, hop.oid, "année_création", 1956, year(1990))
        assert store.value_at(hop.oid, year(1990))[1]["année_création"] == 1956

    def test_derived_property_rejected(self, store):
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        with pytest.raises(NotSpecificProperty):
            patch_specific(store, hop.oid, "budget", 1.0, year(1990))

    def test_composite_object_rejected(self, store):
        # a composite's value mirrors its operands', set again at every refresh
        composite = by_key(store, "Etablissements", "s1")
        text = dumps_store(store)
        with pytest.raises(
            NotSpecificProperty, match="Etablissements.année_création mirrors its operands"
        ):
            patch_specific(store, composite.oid, "année_création", 1950, year(1990))
        assert dumps_store(store) == text

    def test_frozen_object_rejected(self, src_schema, wdef, make_snapshot):
        store = initial_load(src_schema, wdef, make_snapshot(1990, with_extra_surgeon=True))
        refresh(store, make_snapshot(1991, with_extra_surgeon=True,
                                     extra_surgeon_category="cardiologie"))
        p4 = by_key(store, "Chirurgiens", "p4")
        with pytest.raises(FrozenObject):
            patch_specific(store, p4.oid, "année_création", 1, year(1992))

    def test_temporal_specific_patch_historizes(self, src_schema, edw_text, make_snapshot):
        text = edw_text.replace(
            "temporal budget, nb_services, organisation;",
            "temporal budget, nb_services, organisation, année_création;",
        )
        store = initial_load(src_schema, parse_warehouse_def(text), make_snapshot(1990))
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        patch_specific(store, hop.oid, "année_création", 1956, year(1991))
        assert len(hop.past) == 1
        assert hop.past[0].value["année_création"] is None
        assert hop.current.value["année_création"] == 1956

    def test_a_patch_after_the_last_refresh_forces_the_next_refresh_after_it(
        self, store, make_snapshot
    ):
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        patch_specific(store, hop.oid, "année_création", 1956, year(1993))
        assert store.last_refresh == year(1993)
        e2 = by_key(store, "Hôpitaux_Publics", "e2")
        assert e2.current.domain.intervals[-1].end == year(1993)
        text = dumps_store(store)
        # a refresh at 1991 would historize e1 inside its patched state
        with pytest.raises(NonMonotonicInstant, match="refresh at 1991 is not after 1993"):
            refresh(store, make_snapshot(1991))
        assert dumps_store(store) == text
        # the refresh period counts from the patch's date
        assert refresh(store, make_snapshot(1994)).warnings == []
        assert_states_disjoint(store)

    def test_a_temporal_patch_closes_the_old_state_before_its_date(
        self, src_schema, edw_text, make_snapshot
    ):
        text = edw_text.replace(
            "temporal budget, nb_services, organisation;",
            "temporal budget, nb_services, organisation, année_création;",
        )
        store = initial_load(src_schema, parse_warehouse_def(text), make_snapshot(1990))
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        old = dict(hop.current.value)
        patch_specific(store, hop.oid, "année_création", 1956, year(1992))
        hop = store.objects[hop.oid]
        assert store.value_at(hop.oid, year(1991)) == ("past", old)
        assert [(iv.start.tick, iv.end.tick) for iv in hop.past[0].domain.intervals] == [
            (20, 21)
        ]
        assert store.value_at(hop.oid, year(1992)) == ("current", {**old, "année_création": 1956})
        assert_states_disjoint(store)
        with pytest.raises(NonMonotonicInstant):
            refresh(store, make_snapshot(1991))

    def test_ill_typed_value_rejected(self, store):
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        with pytest.raises(TypeMismatch) as err:
            patch_specific(store, hop.oid, "année_création", "1956", year(1990))
        assert str(err.value) == "Hôpitaux_Publics.année_création: expected an integer, got '1956'"
        assert hop.current.value["année_création"] is None

    def test_other_unit_rejected(self, store):
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        with pytest.raises(UnitMismatch, match="patch unit 'month' differs from store unit"):
            patch_specific(store, hop.oid, "année_création", 1956, Instant("month", 240))
        assert hop.current.value["année_création"] is None

    def test_unknown_oid(self, store):
        with pytest.raises(UnknownOid):
            patch_specific(store, 99999, "année_création", 1, year(1990))

    def test_patched_value_survives_refreshes(self, store, make_snapshot):
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        patch_specific(store, hop.oid, "année_création", 1956, year(1990))
        for y in range(1991, 1995):
            refresh(store, make_snapshot(y))
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        assert hop.current.value["année_création"] == 1956
        # the composite mirrors its constituent's patched slot
        composite = next(
            o for o in store.objects.values() if o.class_name == "Etablissements"
        )
        assert composite.current.value["année_création"] == 1956

    @pytest.fixture()
    def referents(self, src_schema, edw_text, make_snapshot):
        """The fixture store with specific relations from Services to
        Chirurgiens: a to-many référents and a to-one référent."""
        head = "interface Services {\n"
        assert edw_text.count(head) == 1
        text = edw_text.replace(
            head,
            head + "    S_relationship Set<Chirurgiens> référents;\n"
            "    S_relationship <Chirurgiens> référent;\n",
        )
        return initial_load(src_schema, parse_warehouse_def(text), make_snapshot(1990))

    @pytest.mark.parametrize(
        "prop, value",
        [("référents", "abc"), ("référents", None), ("référents", 1), ("référents", [1, "2"]),
         ("référents", [True]), ("référents", [3]), ("référents", [99]),
         ("référent", "abc"), ("référent", [1]), ("référent", 3), ("référent", 1.0)],
        ids=["many-a-string", "many-null", "many-an-oid", "many-a-string-oid", "many-a-bool",
             "many-not-a-surgeon", "many-no-object", "one-a-string", "one-a-list",
             "one-not-a-surgeon", "one-a-float"],
    )
    def test_relation_value_must_name_target_objects(self, referents, prop, value):
        service = by_key(referents, "Services", "s1")
        with pytest.raises(TypeMismatch, match=f"Services.{prop}: expected "):
            patch_specific(referents, service.oid, prop, value, year(1990))
        assert service.current.value[prop] is None

    def test_relation_value_is_stored_as_derived_oids_are(self, referents, make_snapshot):
        service = by_key(referents, "Services", "s1")
        surgeons = referents.extension_of("Chirurgiens")
        patch_specific(referents, service.oid, "référents", surgeons[::-1] * 2, year(1990))
        patch_specific(referents, service.oid, "référent", surgeons[0], year(1990))
        assert service.current.value["référents"] == surgeons
        refresh(referents, make_snapshot(1991))
        composite = by_key(referents, "Etablissements", "s1")
        assert composite.current.value["référents"] == surgeons
        assert composite.current.value["référent"] == surgeons[0]
        patch_specific(referents, service.oid, "référent", None, year(1991))
        assert referents.objects[service.oid].current.value["référent"] is None


class TestPersistence:
    def test_save_load_round_trip(self, store, tmp_path, make_snapshot):
        refresh(store, make_snapshot(1991))
        path = str(tmp_path / "h.store")
        save_store(store, path)
        again = load_store(path)
        assert dumps_store(again) == dumps_store(store)
        assert again.last_refresh == store.last_refresh
        assert again.extension_of("Chirurgiens") == store.extension_of("Chirurgiens")

    def test_serialization_is_sorted_and_stable(self, store):
        a = dumps_store(store)
        b = dumps_store(store)
        assert a == b
        header, first = (store_header(line) for line in a.split("\n")[:2])
        assert list(header.keys()) == sorted(header.keys())
        assert list(first.keys()) == sorted(first.keys())

    def test_store_file_is_a_header_and_one_line_per_object_in_oid_order(
        self, store, make_snapshot
    ):
        for y in (1991, 1992, 1993):
            refresh(store, make_snapshot(y))
        text = dumps_store(store)
        assert text.endswith("\n")
        header, *lines = text[:-1].split("\n")
        # the header document, then a TAB and the document's CRC-32
        header, crc = header.split("\t")
        assert int(crc) == zlib.crc32(header.encode("utf-8"))
        header = json.loads(header)
        # an object's line: its head document, then each past state's
        # document after a TAB, oldest first
        docs = [[json.loads(doc) for doc in line.split("\t")] for line in lines]
        v1 = store_to_dict(store)
        assert [o["oid"] for o in v1["objects"]] == sorted(store.objects)
        assert header == {
            "format": "tdw-store-v6",
            **{
                k: v1[k]
                for k in ("source_schema", "warehouse_def", "last_refresh", "oid_counter",
                          "memberships")
            },
            # each entry ends with the CRC-32 of its object's line
            "objects": [
                [o["oid"], o["class"], o["status"], o["source_key"],
                 zlib.crc32((line + "\n").encode("utf-8"))]
                for o, line in zip(v1["objects"], lines)
            ],
        }
        # an active object's current state ends at the last refresh, which
        # its line leaves implied: the line's interval ends at its start
        for o in v1["objects"]:
            if o["status"] == "active":
                ((start, end),) = o["current"]["domain"]["intervals"]
                assert end == store.last_refresh.tick
                o["current"]["domain"]["intervals"] = [[start, start]]
        # a domain is written as its intervals, in the unit of last_refresh
        for o in v1["objects"]:
            for state in (o["current"], *o["past"], *o["archives"]):
                assert state["domain"].pop("unit") == "year"
                state["domain"] = state["domain"]["intervals"]
        assert any(o["archives"] for o in v1["objects"])
        assert any(o["past"] for o in v1["objects"])
        # a past state's document is a reverse delta against its newer
        # neighbour, the current state for the newest: its domain, the
        # names it lacks that the neighbour holds or its class archives,
        # if any, and each property that differs or that its class archives
        left_out = 0
        for o in v1["objects"]:
            archived = effective_filters(store.schema, o["class"])[1]
            newer, deltas = o["current"]["value"], []
            for state in reversed(o["past"]):
                value = state["value"]
                delta = {k: v for k, v in value.items()
                         if k in archived or k not in newer or newer[k] != v}
                gone = sorted((newer.keys() | archived.keys()) - value.keys())
                deltas.append({"domain": state["domain"], **({"gone": gone} if gone else {}),
                               "value": delta})
                left_out += len(value) - len(delta)
                newer = value
            o["past"] = deltas[::-1]
        assert left_out
        # a head leaves out an empty archives list
        assert docs == [
            [{"current": o["current"], **({"archives": o["archives"]} if o["archives"] else {})},
             *o["past"]]
            for o in v1["objects"]
        ]

    def test_dumps_of_a_loaded_store_equals_the_file(self, store, tmp_path, make_snapshot):
        for y in (1991, 1992, 1993):
            refresh(store, make_snapshot(y))
        path = tmp_path / "h.store"
        save_store(store, str(path))
        loaded = load_store(str(path))
        assert dumps_store(loaded).encode("utf-8") == path.read_bytes()
        assert store_to_dict(loaded) == store_to_dict(store)
        assert loaded.identity == store.identity == {
            (o.class_name, o.source_key): oid for oid, o in store.objects.items()
        }

    def test_compact_v1_store_file_loads_and_is_rewritten_as_v2(
        self, store, tmp_path, make_snapshot
    ):
        refresh(store, make_snapshot(1991))
        path = tmp_path / "h.store"
        path.write_text(
            json.dumps(store_to_dict(store), ensure_ascii=False, sort_keys=True,
                       separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        loaded = load_store(str(path))
        assert store_to_dict(loaded) == store_to_dict(store)
        save_store(loaded, str(path))
        assert path.read_text(encoding="utf-8") == dumps_store(store)

    def test_indented_store_file_loads_and_is_rewritten_compact(
        self, store, tmp_path, make_snapshot
    ):
        # the layout store files had before they were written compact
        refresh(store, make_snapshot(1991))
        path = tmp_path / "h.store"
        path.write_text(
            json.dumps(store_to_dict(store), ensure_ascii=False, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        loaded = load_store(str(path))
        assert dumps_store(loaded) == dumps_store(store)
        snap = make_snapshot(1992, with_extra_surgeon=True)
        assert refresh(loaded, snap).to_dict() == refresh(store, snap).to_dict()
        assert dumps_store(loaded) == dumps_store(store)

    def test_loaded_states_share_each_distinct_domain(self, store, tmp_path, make_snapshot):
        for y in (1991, 1992):
            refresh(store, make_snapshot(y))
        path = str(tmp_path / "h.store")
        save_store(store, path)
        loaded = load_store(path)
        # what the decoder builds: each state's stored domain, which an
        # open state grows to end at now on each read, and each archive's
        domains = []
        for o in loaded.objects.values():
            domains += [o.current.stored, *[s.stored for s in o.past]]
            domains += [a.domain for a in o.archives]
        by_value: dict = {}
        for d in domains:
            assert by_value.setdefault(d, d) is d
        assert len(by_value) < len(domains)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: doc.pop("warehouse_def"),
            lambda doc: doc.update(objects=7),
            lambda doc: doc["objects"][0].pop("past"),
            lambda doc: doc["objects"][0]["current"].update(domain=[1990]),
            lambda doc: doc["objects"][0]["current"]["domain"].update(intervals=[[20]]),
            lambda doc: doc["objects"][0]["current"]["domain"].update(intervals=[[21, 20]]),
            lambda doc: doc.update(last_refresh="banana"),
            lambda doc: doc.update(last_refresh=None),
            *MEMBERSHIP_DAMAGE,
            *(v1_index_damage(*d) for d in INDEX_DAMAGE),
            *(oid_counter_damage(v) for v in OID_COUNTER_DAMAGE),
            *(v1_keys_damage(keys) for keys, _detail in COMPOSITE_DAMAGE.values()),
        ],
        ids=[
            "no-warehouse-def", "objects-not-a-list", "object-without-past",
            "domain-not-an-object", "one-bound-interval", "empty-interval", "bad-last-refresh",
            "no-last-refresh",
            *MEMBERSHIP_DAMAGE_IDS,
            *INDEX_DAMAGE_IDS,
            *OID_COUNTER_DAMAGE_IDS,
            *COMPOSITE_DAMAGE,
        ],
    )
    def test_malformed_store_document_is_a_domain_error(self, store, tmp_path, damage):
        doc = store_to_dict(store)
        damage(doc)
        path = tmp_path / "bad.store"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(Error, match="bad.store: malformed store document"):
            load_store(str(path))

    @pytest.mark.parametrize("layout", ["v5", "v4", "v1"])
    @pytest.mark.parametrize("name", list(COMPOSITE_DAMAGE))
    def test_a_damaged_composite_key_names_its_fault(self, store, tmp_path, name, layout):
        keys, detail = COMPOSITE_DAMAGE[name]
        path = tmp_path / "bad.store"
        if layout == "v1":
            doc = store_to_dict(store)
            v1_keys_damage(keys)(doc)
            path.write_text(json.dumps(doc), encoding="utf-8")
        elif layout == "v4":
            header, rest = v4_text(store, older_keys=False).split("\n", 1)
            head = json.loads(header)
            header_keys_damage(keys)(head)
            path.write_text(json.dumps(head) + "\n" + rest, encoding="utf-8")
        else:
            header, rest = dumps_store(store).split("\n", 1)
            head = store_header(header)
            header_keys_damage(keys)(head)
            path.write_text(sealed_header(head) + "\n" + rest, encoding="utf-8")
        with pytest.raises(Error) as error:
            load_store(str(path))
        assert str(error.value) == f"{path}: malformed store document (ValueError: {detail})"

    def test_v1_identity_table_must_match_the_objects(self, store, tmp_path):
        doc = store_to_dict(store)
        doc["identity"][0][2], doc["identity"][1][2] = doc["identity"][1][2], doc["identity"][0][2]
        path = tmp_path / "bad.store"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(
            Error,
            match=r"bad.store: malformed store document \(ValueError: the identity table "
            r"disagrees with the objects\)",
        ):
            load_store(str(path))

    def test_v1_objects_out_of_oid_order_are_rejected(self, store, tmp_path):
        doc = store_to_dict(store)
        doc["objects"].reverse()
        path = tmp_path / "bad.store"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(
            Error,
            match=r"bad.store: malformed store document \(ValueError: oid 8 follows oid 9 in "
            r"the object index\)",
        ):
            load_store(str(path))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda head: head.pop("warehouse_def"),
            lambda head: head.update(objects=7),
            lambda head: head["objects"][0].__delitem__(slice(3, None)),
            lambda head: head["objects"].reverse(),
            lambda head: head["objects"][1].__setitem__(3, head["objects"][0][3]),
            lambda head: head.update(last_refresh="banana"),
            lambda head: head.update(last_refresh=None),
            *MEMBERSHIP_DAMAGE,
            *(v2_index_damage(*d) for d in INDEX_DAMAGE),
            *(oid_counter_damage(v) for v in OID_COUNTER_DAMAGE),
            *(header_keys_damage(keys) for keys, _detail in COMPOSITE_DAMAGE.values()),
        ],
        ids=[
            "no-warehouse-def", "index-not-a-list", "index-entry-of-three",
            "index-out-of-oid-order", "shared-identity", "bad-last-refresh", "no-last-refresh",
            *MEMBERSHIP_DAMAGE_IDS,
            *INDEX_DAMAGE_IDS,
            *OID_COUNTER_DAMAGE_IDS,
            *COMPOSITE_DAMAGE,
        ],
    )
    def test_malformed_v2_header_is_rejected_when_loaded(self, store, tmp_path, damage):
        header, rest = dumps_store(store).split("\n", 1)
        head = store_header(header)
        damage(head)
        path = tmp_path / "bad.store"
        path.write_text(sealed_header(head) + "\n" + rest, encoding="utf-8")
        with pytest.raises(Error, match="bad.store: malformed store document"):
            load_store(str(path))

    def test_membership_over_an_operand_with_composites_loads(self, store, tmp_path):
        header, rest = dumps_store(store).split("\n", 1)
        head = store_header(header)
        with_grands_hopitaux([3, 4])(head)
        path = tmp_path / "h.store"
        path.write_text(sealed_header(head) + "\n" + rest, encoding="utf-8")
        loaded = load_store(str(path))
        assert loaded.extension_of("Grands_Hôpitaux") == [3, 4]
        assert loaded.extension_of("Etablissements") == [8, 9]

    @pytest.mark.parametrize(
        ("membership", "operand"), [("Tres_Riches", "Riches"), ("Riches", "Etablissements")]
    )
    def test_a_membership_over_a_specialization_is_checked(
        self, src_schema, edw_text, make_snapshot, tmp_path, membership, operand
    ):
        # Riches selects Etablissements composites, and Tres_Riches the
        # members of Riches that its header set holds, so a hospital is
        # neither one's to hold
        wdef = parse_warehouse_def(layered_text(edw_text) + TestLatticeReads.DEEP)
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        assert store.objects[3].class_name == "Hôpitaux_Publics"
        header, rest = dumps_store(store).split("\n", 1)
        head = store_header(header)
        assert head["memberships"]["Tres_Riches"]  # not vacuous
        head["memberships"][membership].append(3)
        path = tmp_path / "bad.store"
        path.write_text(sealed_header(head) + "\n" + rest, encoding="utf-8")
        with pytest.raises(Error) as error:
            load_store(str(path))
        assert str(error.value) == (
            f"{path}: malformed store document (ValueError: membership {membership!r} "
            f"holds oid 3, which {operand!r} cannot select)"
        )

    # an oid that equals an integer, as 1.0 or true does, loaded and was
    # written back as read by the next save
    @pytest.mark.parametrize("oid", [1.0, True, "1"], ids=["a-float", "a-bool", "a-string"])
    @pytest.mark.parametrize("place", ["index", "membership"])
    def test_an_oid_that_is_no_integer_is_refused(self, store, tmp_path, place, oid):
        header, rest = dumps_store(store).split("\n", 1)
        head = store_header(header)
        assert head["objects"][0][0] == 1 and head["memberships"] == {"Jeunes_Chirurgiens": [1]}
        if place == "index":
            head["objects"][0][0] = oid
            detail = f"oid {oid!r} is a {type(oid).__name__}, not an integer"
        else:
            head["memberships"]["Jeunes_Chirurgiens"] = [oid]
            detail = f"membership 'Jeunes_Chirurgiens' holds oid {oid!r}, not an integer"
        path = tmp_path / "bad.store"
        path.write_text(resealed(sealed_header(head) + "\n" + rest), encoding="utf-8")
        with pytest.raises(Error) as error:
            load_store(str(path))
        assert str(error.value) == f"{path}: malformed store document (TypeError: {detail})"

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: text.rindex("\n", 0, -1) + 1],
            lambda text: text[:-10],
            lambda text: text + text[text.rindex("\n", 0, -1) + 1 :],
            lambda text: text.replace("\n", "\n\n", 1),
        ],
        ids=["last-line-dropped", "cut-inside-a-line", "extra-line", "blank-line"],
    )
    def test_object_line_count_is_checked_when_loaded(self, store, tmp_path, damage):
        path = tmp_path / "bad.store"
        path.write_text(damage(dumps_store(store)), encoding="utf-8")
        with pytest.raises(
            Error, match=r"bad.store: malformed store document \(ValueError: the index holds"
        ):
            load_store(str(path))

    @pytest.mark.parametrize(
        ("layout", "name"),
        [
            *[pytest.param("v5", name, id=name) for name in OBJECT_LINE_DAMAGE],
            # a sealed line whose newest past value alone is damaged decodes
            # whole but for that value, whose read raises, as a deferred
            # state's does in TestChecksums
            *[pytest.param("sealed", name, id=f"sealed-{name}") for name in OBJECT_LINE_DAMAGE
              if name != "past-value-not-an-object"],
            *[pytest.param("v4", name, id=f"v4-{name}") for name in OBJECT_LINE_DAMAGE],
            # the one-document line of the older layout, decoded on its own path
            *[pytest.param("v3", name, id=f"v3-{name}")
              for name in ("object-without-past", *HEAD_DAMAGE)],
        ],
    )
    def test_malformed_object_line_is_rejected_when_first_read(
        self, store, tmp_path, make_snapshot, layout, name
    ):
        # a damaged v6 line (the "v5" cases, named when that was the
        # sealed layout) fails its checksum and is decoded whole; a
        # sealed one, its index entry holding the damaged line's CRC-32 as
        # a writer handed that line would write it, is decoded head first;
        # v4 and v3 lines have no checksums and are decoded whole
        if name == "object-without-past":
            damage, detail = edited(lambda item: item.pop("past")), "KeyError: 'past'"
        else:
            damage, detail = OBJECT_LINE_DAMAGE[name]
        if layout == "sealed":
            detail = SEALED_DETAIL.get(name, detail)
        elif layout in ("v4", "v3"):
            detail = OLDER_DETAIL.get(name, detail)
        writer = {"v4": partial(v4_text, older_keys=False), "v3": v3_text}.get(layout, dumps_store)
        header, *lines = writer(store)[:-1].split("\n")
        lines[2] = damage(lines[2])
        text = "\n".join([header, *lines]) + "\n"
        path = tmp_path / "bad.store"
        path.write_text(resealed(text) if layout == "sealed" else text, encoding="utf-8")
        loaded = load_store(str(path))  # the header is sound
        oids = sorted(loaded.objects)
        damaged, other = loaded.objects[oids[2]], loaded.objects[oids[3]]
        assert other.current == store.objects[oids[3]].current
        assert damaged.status == store.objects[oids[2]].status
        error = f"{path}: malformed store document ({detail}"

        def first_read():
            # a sealed line's past states are decoded on their first read
            [(s.stored, s.value) for s in damaged.past]

        reads = [first_read, lambda: damaged.current, lambda: damaged.archives]
        if layout == "sealed":
            # a save checks an unread line's CRC-32 alone, and writes it as read
            assert dumps_store(loaded) == path.read_text(encoding="utf-8")
        else:
            reads.append(lambda: dumps_store(loaded))
        reads.append(lambda: refresh(loaded, make_snapshot(1991)))
        for read in reads:
            with pytest.raises(Error) as raised:
                read()
            assert str(raised.value).startswith(error)
            assert damaged._load is not None  # a failed decode leaves it deferred

    def test_failed_replace_keeps_the_prior_file_and_no_temporary(
        self, store, tmp_path, make_snapshot
    ):
        path = tmp_path / "h.store"
        save_store(store, str(path))
        before = path.read_bytes()
        refresh(store, make_snapshot(1991))
        with mock.patch.object(engine.os, "replace", side_effect=OSError("disk gone")):
            with pytest.raises(OSError, match="disk gone"):
                save_store(store, str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.store"]

    def test_a_save_syncs_the_file_before_the_rename_and_the_folder_after(
        self, store, tmp_path
    ):
        path = tmp_path / "h.store"
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            calls.append(("fsync", st.st_ino, st.st_size))
            real_fsync(fd)

        def rename(src, dst):
            calls.append(("replace", src, dst))
            real_replace(src, dst)

        with mock.patch.object(engine.os, "fsync", fsync), \
                mock.patch.object(engine.os, "replace", rename):
            save_store(store, str(path))
        written = path.stat()
        folder = tmp_path.stat()
        assert calls == [
            ("fsync", written.st_ino, written.st_size),
            ("replace", f"{path}.tmp", str(path)),
            ("fsync", folder.st_ino, folder.st_size),
        ]
        assert written.st_size == len(dumps_store(store).encode("utf-8"))

    def test_failed_sync_keeps_the_prior_file_and_no_temporary(self, store, tmp_path):
        path = tmp_path / "h.store"
        save_store(store, str(path))
        before = path.read_bytes()
        with mock.patch.object(engine.os, "fsync", side_effect=OSError("disk gone")):
            with pytest.raises(OSError, match="disk gone"):
                save_store(store, str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.store"]

    def test_failed_write_keeps_the_prior_file_and_no_temporary(self, store, tmp_path):
        path = tmp_path / "h.store"
        save_store(store, str(path))
        before = path.read_bytes()
        next(iter(store.objects.values())).current.value["nom"] = {1, 2}  # no JSON form
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            save_store(store, str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.store"]

    def test_value_at_store_level(self, store):
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        assert store.value_at(hop.oid, year(1989)) is None
        kind, value = store.value_at(hop.oid, year(1990))
        assert kind == "current" and value["nom"] == "CHU Purpan"
        with pytest.raises(UnknownOid):
            store.value_at(424242, year(1990))


def mutants(data: bytes, rng: random.Random):
    """Torn and damaged copies of a store file's bytes, each named: cut at
    every line boundary and at 40 sampled offsets, and 60 sampled bytes
    each changed to another value."""
    ends = [at + 1 for at, byte in enumerate(data[:-1]) if byte == 0x0A]
    for end in sorted({0, *ends, *rng.sample(range(1, len(data)), 40)}):
        yield f"cut at {end}", data[:end]
    for at in rng.sample(range(len(data)), 60):
        changed = bytearray(data)
        changed[at] ^= rng.randrange(1, 256)
        yield f"byte {at} changed", bytes(changed)


class TestChecksums:
    """Every byte of a v6 store file is under a CRC-32: the header's own,
    or its object line's in the header's index."""

    def test_a_torn_or_damaged_file_never_loads_as_another_store(
        self, store, tmp_path, make_snapshot
    ):
        refresh(store, make_snapshot(1991))
        data = dumps_store(store).encode("utf-8")
        path = tmp_path / "torn.store"
        snap = make_snapshot(1992)
        escaped = []
        for name, mutant in mutants(data, random.Random("torn writes")):
            path.write_bytes(mutant)
            try:
                loaded = engine.load_store(str(path))
                for obj in loaded.objects.values():  # read every object whole
                    [(s.domain, s.value) for s in (obj.current, *obj.past)]
                    [a.aggregates for a in obj.archives]
                engine.refresh(loaded, snap)
            except Error as exc:
                if not str(exc).startswith(f"{path}: "):
                    escaped.append((name, str(exc)))
            else:
                escaped.append((name, "loaded and refreshed"))
        assert escaped == []

    def test_a_header_that_fails_its_checksum_is_rejected(self, store, tmp_path):
        # a change that leaves another sound store: one more past state kept
        text = dumps_store(store)
        assert text.count("keep 2 past states;") == 1
        path = tmp_path / "bad.store"
        path.write_text(text.replace("keep 2 past states;", "keep 3 past states;"), encoding="utf-8")
        with pytest.raises(Error) as error:
            load_store(str(path))
        assert str(error.value) == (
            f"{path}: malformed store document (ValueError: the header fails its checksum)"
        )

    def test_a_line_that_still_parses_fails_its_checksum(self, store, tmp_path, make_snapshot):
        header, *lines = dumps_store(store)[:-1].split("\n")
        assert '"nom":"CHU Purpan"' in lines[2]
        lines[2] = lines[2].replace('"nom":"CHU Purpan"', '"nom":"CHU Rangueil"')
        path = tmp_path / "bad.store"
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        loaded = load_store(str(path))
        error = f"{path}: malformed store document (ValueError: the line of oid 3 fails its checksum)"
        for read in (lambda: loaded.objects[3].current, lambda: dumps_store(loaded),
                     lambda: refresh(loaded, make_snapshot(1991))):
            with pytest.raises(Error) as raised:
                read()
            assert str(raised.value) == error
        assert loaded.objects[4].current == store.objects[4].current

    @pytest.mark.parametrize("crc", [None, "0", 1.5, True], ids=["null", "string", "float", "bool"])
    def test_an_index_entry_whose_crc_is_no_integer_is_rejected(self, store, tmp_path, crc):
        # a line that the index gives no CRC-32 would be read unchecked
        header, rest = dumps_store(store).split("\n", 1)
        head = store_header(header)
        head["objects"][2][4] = crc
        path = tmp_path / "bad.store"
        path.write_text(sealed_header(head) + "\n" + rest, encoding="utf-8")
        with pytest.raises(Error) as error:
            load_store(str(path))
        assert str(error.value) == (
            f"{path}: malformed store document (ValueError: oid 3 has CRC-32 {crc!r},"
            " not an integer)"
        )

    def test_a_deferred_past_state_that_fails_its_checks_names_the_file(
        self, store, tmp_path, make_snapshot
    ):
        # a writer that sealed what it was handed: the checksums hold, the
        # oldest past state of oid 3 does not
        for y in (1991, 1992):
            refresh(store, make_snapshot(y))
        header, *lines = dumps_store(store)[:-1].split("\n")
        head, oldest, *newer = lines[2].split("\t")
        assert newer and json.loads(oldest)["domain"] == [[20, 20]]
        lines[2] = "\t".join([head, '{"domain":[],"value":[]}', *newer])
        path = tmp_path / "bad.store"
        path.write_text(resealed("\n".join([header, *lines]) + "\n"), encoding="utf-8")
        loaded = load_store(str(path))
        obj = loaded.objects[3]
        assert obj.current == store.objects[3].current
        assert obj.past[-1] == store.objects[3].past[-1]
        for _ in range(2):  # a failed decode leaves the state deferred
            with pytest.raises(Error) as error:
                obj.past[0].domain
            assert str(error.value) == (
                f"{path}: malformed store document (ValueError: a domain spans no granule)"
            )
        lines[2] = "\t".join([head, '{"domain":[[20,20]],"value":[]}', *newer])
        path.write_text(resealed("\n".join([header, *lines]) + "\n"), encoding="utf-8")
        oldest = load_store(str(path)).objects[3].past[0]
        assert oldest.domain == domain("year", (20, 20))  # decoded alone
        with pytest.raises(Error) as error:
            oldest.value
        assert str(error.value) == (
            f"{path}: malformed store document (TypeError: a state holds a list, not an object)"
        )

    def test_an_older_domain_in_another_unit_than_the_store_is_rejected(self, store, tmp_path):
        text = v4_text(store)
        assert text.count('"unit":"year"') > 1
        path = tmp_path / "bad.store"
        path.write_text(text.replace('"unit":"year"', '"unit":"month"', 1), encoding="utf-8")
        loaded = load_store(str(path))
        with pytest.raises(Error) as error:
            loaded.objects[1].current
        assert str(error.value) == (
            f"{path}: malformed store document "
            "(ValueError: a domain is in 'month', not the store's 'year')"
        )


# ---------------------------------------------------------------------------
# link resolution through the source-id index

SUPER_TARGET_ODL = """
interface MEDECIN {
    attribute String nom;
    relationship Set<UNITE> unites inverse UNITE::medecins;
}
interface UNITE {
    attribute String nom;
    relationship Set<MEDECIN> medecins inverse MEDECIN::unites;
}
"""

# Unites.medecins targets Soignants, a generalization that owns no objects
SUPER_TARGET_EDW = """
warehouse Soins;
interface Soignants { D_attribute String nom; }
interface Medecins (extend Soignants) { D_relationship Set<Unites> unites; }
interface Unites { D_attribute String nom; D_relationship Set<Soignants> medecins; }
mapping Medecins = m: MEDECIN;
mapping Soignants = generalize(m.nom, m: Medecins);
mapping Unites = u: UNITE;
"""


def snapshot_with_s1_at(src_schema, at_year: int, *homes: str):
    """The hospital source at at_year, service s1 in the organisation of
    exactly the given hospitals."""
    records = hospital_records(at_year)
    for r in records:
        if r["interface"] == "ETABLISSEMENT":
            others = [s for s in r["links"]["organisation"] if s != "s1"]
            r["links"]["organisation"] = sorted(others + ["s1"] * (r["id"] in homes))
    return ingest_snapshot(src_schema, snapshot_lines(records), year(at_year))


def service(store, hospital: str, sid: str):
    key = (("ETABLISSEMENT", hospital), ("SERVICE", sid))
    return store.objects[store.identity[("Services", key)]]


# every pair of services whose first is the emergency ward: the pair
# (s2, s2) names SERVICE:s2 twice
SELF_JOIN_EDW = """
warehouse Paires;
interface Paires { D_attribute String nom; }
mapping Paires = project(a.nom, join(a: SERVICE, b: SERVICE, a.nom = "Urgences"));
"""


class TestLinkResolution:
    def test_source_id_with_several_counterparts(self, store, src_schema):
        # s1 moves from e1 to e2: pass 1 creates the (e2, s1) service and
        # freezes (e1, s1), so links to s1 name the one in the result
        refresh(store, snapshot_with_s1_at(src_schema, 1991, "e2"))
        old, new = service(store, "e1", "s1"), service(store, "e2", "s1")
        assert (old.status, new.status) == ("frozen", "active")
        p1 = by_key(store, "Chirurgiens", "p1").current.value
        assert (p1["travaille"], p1["dirige"]) == ([new.oid], new.oid)
        assert new.oid in by_key(store, "Hôpitaux_Publics", "e2").current.value["organisation"]

    def test_moved_back_service_links_to_its_thawed_object(self, store, src_schema):
        # back at e1, s1's key is in the result again: the frozen (e1, s1)
        # thaws, and the link names it
        refresh(store, snapshot_with_s1_at(src_schema, 1991, "e2"))
        past = len(service(store, "e1", "s1").past)
        for y in (1992, 1993):
            refresh(store, snapshot_with_s1_at(src_schema, y, "e1"))
        old, new = service(store, "e1", "s1"), service(store, "e2", "s1")
        assert (old.status, new.status) == ("active", "frozen")
        assert len(old.past) == past + 1
        assert [[(iv.start.tick, iv.end.tick) for iv in s.domain.intervals]
                for s in (old.past[-1], old.current)] == [[(20, 20)], [(22, 23)]]
        assert check_state_disjointness(old) == []
        p1 = by_key(store, "Chirurgiens", "p1").current.value
        assert (p1["travaille"], p1["dirige"]) == ([old.oid], old.oid)
        assert old.oid in by_key(store, "Hôpitaux_Publics", "e1").current.value["organisation"]

    def test_several_counterparts_none_in_the_result(self, store, src_schema):
        # s1 leaves every hospital after its move, but p1 still works
        # there: both its objects are frozen, and neither stands in
        refresh(store, snapshot_with_s1_at(src_schema, 1991, "e2"))
        before = dumps_store(store)
        with pytest.raises(DanglingRelationTarget, match="SERVICE:s1 has several counterpart"):
            refresh(store, snapshot_with_s1_at(src_schema, 1992))
        assert dumps_store(store) == before

    def test_self_join_key_holds_its_oid_once_under_a_repeated_pair(
        self, src_schema, make_snapshot, tmp_path
    ):
        # only a self-join's key names a pair twice; a composite's names objects
        store = initial_load(src_schema, parse_warehouse_def(SELF_JOIN_EDW), make_snapshot(1990))
        twice = (("SERVICE", "s2"), ("SERVICE", "s2"))
        oid = store.identity[("Paires", twice)]
        assert store.source_index[("SERVICE", "s2")].count(oid) == 1
        loaded = saved_and_loaded(store, str(tmp_path / "h.store"))
        assert loaded.source_index == store.source_index
        assert_indexes(loaded)

    def test_team_naming_a_practitioner_outside_surgery(self, store, src_schema):
        # p3 has always been a cardiologist, so no Chirurgiens object
        # stands for them
        records = hospital_records(1991)
        for r in records:
            if r["id"] == "p3":
                r["links"]["travaille"] = ["s2"]
            if r["id"] == "s2":
                r["links"]["équipe"] = ["p3"]
        snap = ingest_snapshot(src_schema, snapshot_lines(records), year(1991))
        before = dumps_store(store)
        with pytest.raises(
            DanglingRelationTarget,
            match="PRATICIEN:p3 has no counterpart\\(s\\) in class 'Chirurgiens'",
        ):
            refresh(store, snap)
        assert dumps_store(store) == before

    def test_subclass_members_stand_in_when_target_owns_nothing(self):
        src = parse_source_schema(SUPER_TARGET_ODL)
        doctor = {"interface": "MEDECIN", "values": {"nom": "A"}, "links": {"unites": ["u1"]}}
        ward = {"interface": "UNITE", "values": {"nom": "U"}, "links": {"medecins": ["m1", "m2"]}}
        lines = snapshot_lines([{**doctor, "id": "m1"}, {**doctor, "id": "m2"}, {**ward, "id": "u1"}])
        store = initial_load(
            src, parse_warehouse_def(SUPER_TARGET_EDW), ingest_snapshot(src, lines, year(1990))
        )
        assert store.direct_extension("Soignants") == []
        unit = by_key(store, "Unites", "u1")
        doctors = [by_key(store, "Medecins", m).oid for m in ("m1", "m2")]
        assert unit.current.value["medecins"] == sorted(doctors)

    def test_link_to_object_created_in_the_same_refresh(self, store):
        records = hospital_records(1992)
        for r in records:
            if r["id"] == "e2":
                r["links"]["organisation"] = ["s3", "s5"]
        records += [
            {
                "interface": "SERVICE",
                "id": "s5",
                "values": {"nom": "Pédiatrie", "téléphone": "01 40 00 00 00"},
                "links": {"équipe": ["p6"], "est_dirigé": []},
            },
            {
                "interface": "PRATICIEN",
                "id": "p6",
                "values": {
                    "nom": "Noir", "prénom": "Léa",
                    "adresse": {"libelle": "1 rue Haute", "ville": "Paris", "code_postal": 75001},
                    "année_naissance": 1985, "no_praticien": "PR-006",
                    "catégorie": "chirurgie", "spécialité": "pédiatrique", "revenus": 60000,
                },
                "links": {"travaille": ["s5"], "dirige": []},
            },
        ]
        snap = ingest_snapshot(store.source_schema, snapshot_lines(records), year(1992))
        report = refresh(store, snap)
        assert report.classes["Chirurgiens"].created == 1
        assert report.classes["Services"].created == 1
        p6 = by_key(store, "Chirurgiens", "p6")
        s5 = by_key(store, "Services", "s5")
        assert p6.current.value["travaille"] == [s5.oid]
        assert s5.current.value["équipe"] == [p6.oid]

    def test_loaded_store_refreshes_like_the_store_in_memory(
        self, store, tmp_path, make_snapshot
    ):
        refresh(store, make_snapshot(1991))
        path = str(tmp_path / "h.store")
        save_store(store, path)
        loaded = load_store(path)
        assert_indexes(loaded)
        snap = make_snapshot(1992, with_extra_surgeon=True)
        assert refresh(loaded, snap).to_dict() == refresh(store, snap).to_dict()
        assert dumps_store(loaded) == dumps_store(store)


# ---------------------------------------------------------------------------
# the structural working copy keeps refresh and archival atomic


def object_forms(objects) -> dict:
    return {
        oid: (repr(o.current), repr(o.past), repr(o.archives), o.status)
        for oid, o in objects.items()
    }


def corrupt_oldest_budget(store, sid: str) -> None:
    """Give a hospital's oldest past state a budget no avg can fold."""
    hop = by_key(store, "Hôpitaux_Publics", sid)
    hop.past[0] = State(hop.past[0].domain, {**hop.past[0].value, "budget": "n/a"})


class TestWorkingCopyAtomicity:
    def test_successful_refresh_leaves_prior_objects_alone(self, store, make_snapshot):
        refresh(store, make_snapshot(1991))
        held = dict(store.objects)
        forms = object_forms(held)
        for y in (1992, 1993):
            refresh(store, make_snapshot(y))
        assert object_forms(held) == forms
        assert by_key(store, "Hôpitaux_Publics", "e1").archives  # the refreshes evicted

    def test_failed_apply_archival_is_atomic(self, store, make_snapshot):
        for y in (1991, 1992):
            refresh(store, make_snapshot(y))
        corrupt_oldest_budget(store, "e2")
        before, held = dumps_store(store), dict(store.objects)
        forms = object_forms(held)
        env = store.schema.environments["Evolutions"]
        keep_none = replace(env, config=RetentionConfig(keep_past_count=0))
        # keeping no past state evicts surgeons and e1 before e2 fails
        with pytest.raises(TypeMismatch):
            apply_archival_state(store.working_copy(), keep_none, year(1992))
        assert dumps_store(store) == before
        assert all(store.objects[oid] is obj for oid, obj in held.items())
        assert object_forms(held) == forms

    def test_refresh_failing_in_archival_after_historizing_is_atomic(
        self, store, make_snapshot
    ):
        for y in (1991, 1992):
            refresh(store, make_snapshot(y))
        corrupt_oldest_budget(store, "e2")
        before, held = dumps_store(store), dict(store.objects)
        forms = object_forms(held)
        # pass 2 historizes every hospital; pass 5 then evicts the bad state
        with pytest.raises(TypeMismatch):
            refresh(store, make_snapshot(1993))
        assert dumps_store(store) == before
        assert all(store.objects[oid] is obj for oid, obj in held.items())
        assert object_forms(held) == forms

    @pytest.mark.parametrize("failing_pass", [2, 5])
    def test_failed_refresh_leaves_every_index_as_it_was(
        self, store, tmp_path, make_snapshot, failing_pass
    ):
        for y in (1991, 1992):
            refresh(store, make_snapshot(y))
        store = saved_and_loaded(store, str(tmp_path / "h.store"))
        # the extra surgeon is a new object and a new Jeunes_Chirurgiens
        # member, which pass 1 and pass 3 add before each failure
        if failing_pass == 2:
            snap = make_snapshot(1993, with_extra_surgeon=True, extra_private_team=True)
            error = DanglingRelationTarget
        else:
            corrupt_oldest_budget(store, "e2")
            snap = make_snapshot(1993, with_extra_surgeon=True)
            error = TypeMismatch
        assert lined(store)  # read from the store file, for the next save
        before = index_forms(store)
        with pytest.raises(error):
            refresh(store, snap)
        assert index_forms(store) == before


def index_forms(store) -> tuple:
    """Copies of the store's indexes, object lines and last refresh."""
    return (
        dict(store.identity),
        dict(store.source_index),
        {name: set(oids) for name, oids in store.by_class.items()},
        {oid: obj.line for oid, obj in store.objects.items()},
        store.last_refresh,
    )


def lined(store) -> set:
    """The oids of the objects that hold the line read from their store file."""
    return {oid for oid, obj in store.objects.items() if obj.line is not None}


class TestCopyOnWrite:
    def test_refresh_touches_only_what_it_changes(self, store, make_snapshot):
        refresh(store, make_snapshot(1991))
        held, before = dict(store.objects), object_forms(store.objects)
        with touch_spy() as touched:
            report = refresh(store, make_snapshot(1992)).to_dict()
        assert_touched_what_changed(before, store, touched, report)
        carried = [oid for oid in held if oid not in touched]
        assert carried and len(touched) < len(store.objects)
        # a carried object is the very object the store held before, and
        # reads its end from the store's last refresh
        for oid in carried:
            assert store.objects[oid] is held[oid]
            assert store.objects[oid].current.domain.intervals[-1].end == year(1992)

    def test_a_save_encodes_only_touched_objects(self, store, tmp_path, make_snapshot):
        refresh(store, make_snapshot(1991))
        path = str(tmp_path / "h.store")
        save_store(store, path)
        loaded = load_store(path)
        assert lined(loaded) == loaded.objects.keys()
        with touch_spy() as touched:
            refresh(loaded, make_snapshot(1992))
        # the save encodes the touched objects and writes the others' lines
        assert lined(loaded) == loaded.objects.keys() - touched
        text = dumps_store(loaded)
        assert text == dumps_anew(loaded)
        refresh(store, make_snapshot(1992))
        assert text == dumps_store(store)

    def test_a_save_encodes_each_past_state_once(
        self, store, tmp_path, make_snapshot, monkeypatch
    ):
        for y in (1991, 1992):
            refresh(store, make_snapshot(y))
        path = str(tmp_path / "h.store")
        save_store(store, path)
        encoded = []
        real = engine._state_dict

        def counted(state):
            encoded.append(state)
            return real(state)

        monkeypatch.setattr(engine, "_state_dict", counted)
        loaded = load_store(path)
        held = {id(s) for o in loaded.objects.values() for s in o.past}
        with touch_spy() as touched:
            report = refresh(loaded, make_snapshot(1993)).to_dict()
        counts = report["classes"].values()
        assert sum(c["historized"] for c in counts) and sum(c["archived_evictions"] for c in counts)
        assert encoded == []
        save_store(loaded, path)
        past = [s for o in loaded.objects.values() for s in o.past]
        created = [s for s in past if id(s) not in held]
        assert created and len(created) < len(past)
        # one encode for each past state the refresh pushed, none for those
        # read from the file, and one head for each object it touched
        encoded_past = [s for s in encoded if any(s is p for p in past)]
        assert sorted(map(id, encoded_past)) == sorted(map(id, created))
        assert len(encoded) - len(encoded_past) == len(touched)
        encoded.clear()
        assert dumps_store(loaded) == Path(path).read_text(encoding="utf-8")
        assert len(encoded) == len(touched)  # the heads again, and no past state

    def test_a_patch_after_the_last_refresh_moves_the_store_now(
        self, store, tmp_path, make_snapshot
    ):
        refresh(store, make_snapshot(1991))
        hop = by_key(store, "Hôpitaux_Publics", "e1")
        with touch_spy() as touched:
            patch_specific(store, hop.oid, "année_création", 1956, year(1994))
        assert touched == {hop.oid}
        assert store.last_refresh == year(1994)
        # every open state runs to the patch's date, and none stores an end
        # past its start
        for obj in store.objects.values():
            if obj.status == "active":
                last = obj.current.stored.intervals[-1]
                assert last.end == last.start
                assert obj.current.domain.intervals[-1].end == year(1994)
        path = str(tmp_path / "h.store")
        loaded = saved_and_loaded(store, path)
        assert loaded.last_refresh == year(1994)
        assert loaded.objects[hop.oid].current == store.objects[hop.oid].current
        with pytest.raises(NonMonotonicInstant, match="refresh at 1992 is not after 1994"):
            refresh(loaded, make_snapshot(1992))
        snap = make_snapshot(1995)
        assert refresh(loaded, snap).to_dict() == refresh(store, snap).to_dict()
        assert dumps_store(loaded) == dumps_store(store)

    def test_a_v2_file_reads_the_same_and_is_rewritten_whole(
        self, store, tmp_path, make_snapshot
    ):
        for y in (1991, 1992, 1993):
            refresh(store, make_snapshot(y))
        patched_late(store, "e2", 1961, year(1995))
        path = tmp_path / "h.store"
        path.write_text(v2_text(store), encoding="utf-8")
        loaded = load_store(str(path))
        assert lined(loaded) == set()
        assert store_to_dict(loaded) == store_to_dict(store)
        save_store(loaded, str(path))
        assert path.read_text(encoding="utf-8") == dumps_store(store)
        assert_refreshes_alike_after_the_late_end(store, str(path), make_snapshot)

    def test_a_v3_file_reads_the_same_and_is_rewritten_whole(
        self, store, tmp_path, make_snapshot
    ):
        for y in (1991, 1992, 1993):
            refresh(store, make_snapshot(y))
        patched_late(store, "e2", 1961, year(1995))
        path = tmp_path / "h.store"
        path.write_text(v3_text(store), encoding="utf-8")
        loaded = load_store(str(path))
        assert lined(loaded) == set()
        assert store_to_dict(loaded) == store_to_dict(store)
        save_store(loaded, str(path))
        assert path.read_text(encoding="utf-8") == dumps_store(store)
        assert store_header(path.read_text(encoding="utf-8").split("\n", 1)[0])["format"] == (
            "tdw-store-v6"
        )
        assert_refreshes_alike_after_the_late_end(store, str(path), make_snapshot)

    def test_a_v5_file_reads_the_same_and_is_rewritten_whole(
        self, store, tmp_path, make_snapshot
    ):
        for y in (1991, 1992, 1993):
            refresh(store, make_snapshot(y))
        patched_late(store, "e2", 1961, year(1995))
        path = tmp_path / "h.store"
        path.write_text(v5_text(store, older_keys=False), encoding="utf-8")
        loaded = load_store(str(path))
        assert lined(loaded) == set()
        assert store_to_dict(loaded) == store_to_dict(store)
        save_store(loaded, str(path))
        assert path.read_text(encoding="utf-8") == dumps_store(store)
        assert store_header(path.read_text(encoding="utf-8").split("\n", 1)[0])["format"] == (
            "tdw-store-v6"
        )
        assert_refreshes_alike_after_the_late_end(store, str(path), make_snapshot)

    @pytest.mark.parametrize("layout", ["v5", "v4", "v3", "v2", "v1"])
    def test_an_older_composite_key_reads_as_its_operand_objects(
        self, src_schema, edw_text, tmp_path, make_snapshot, layout
    ):
        # older builds keyed a composite by its operands' source pairs one
        # after the other: an Etablissements key holds its hospital's pair
        # and its service's, which holds the establishment again, and an
        # Equipes key is an Etablissements key and then a surgeon's
        store = initial_load(
            src_schema, parse_warehouse_def(edw_text + EQUIPES), make_snapshot(1990)
        )
        refresh(store, make_snapshot(1991))
        composites = {name: store.direct_extension(name) for name in ("Etablissements", "Equipes")}
        assert all(composites.values())
        path = tmp_path / "h.store"
        text = OLDER_WRITERS[layout](store)
        assert '[["ETABLISSEMENT","e1"],["ETABLISSEMENT","e1"],["SERVICE","s1"],' \
            '["PRATICIEN","p1"]]' in text
        path.write_text(text, encoding="utf-8")
        loaded = load_store(str(path))
        assert store_to_dict(loaded) == store_to_dict(store)
        assert_indexes(loaded)
        snap = make_snapshot(1992)
        report = refresh(loaded, snap).to_dict()
        assert report == refresh(store, snap).to_dict()
        for name in composites:
            assert report["classes"][name]["created"] == report["classes"][name]["frozen"] == 0
            assert loaded.direct_extension(name) == composites[name]
        save_store(loaded, str(path))
        # the next save writes each composite's key as its operand objects
        index = store_header(path.read_text(encoding="utf-8").split("\n", 1)[0])["objects"]
        refs = [ref for _oid, cname, _status, key, _crc in index if cname in composites
                for ref in key]
        assert refs and all(type(oid) is int for _cname, oid in refs)
        assert path.read_text(encoding="utf-8") == dumps_store(store)

    @pytest.mark.parametrize("layout", ["v5", "v4", "v1"])
    def test_an_older_key_through_a_composite_keyed_by_objects_splits_no_way(
        self, src_schema, edw_text, tmp_path, make_snapshot, layout
    ):
        # an index that mixes the two forms, which no build wrote: the
        # Etablissements keys name their operand objects, while each Equipes
        # key still holds an Etablissements key as its source pairs, which
        # no entry holds now
        store = initial_load(
            src_schema, parse_warehouse_def(edw_text + EQUIPES), make_snapshot(1990)
        )
        refresh(store, make_snapshot(1991))
        keys = {oid: [list(ref) for ref in store.objects[oid].source_key]
                for oid in store.direct_extension("Etablissements")}
        equipes = store.direct_extension("Equipes")
        assert keys and equipes
        text = OLDER_WRITERS[layout](store)
        if layout in ("v5", "v4"):
            header, rest = text.split("\n", 1)
            head = store_header(header)
            for entry in head["objects"]:
                entry[3] = keys.get(entry[0], entry[3])
            text = (sealed_header(head) if layout == "v5" else encode(head)) + "\n" + rest
        else:
            doc = json.loads(text)
            for o in doc["objects"]:
                o["source_key"] = keys.get(o["oid"], o["source_key"])
            doc["identity"] = sorted([o["class"], o["source_key"], o["oid"]]
                                     for o in doc["objects"])
            text = encode(doc) + "\n"
        path = tmp_path / "h.store"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(Error) as error:
            load_store(str(path))
        assert str(error.value) == (
            f"{path}: malformed store document (ValueError: oid {min(equipes)}'s source key"
            " splits no way among its operands' objects)"
        )

    def test_a_record_moved_between_subclasses_keeps_its_composites(
        self, edw_text, tmp_path, make_snapshot
    ):
        # written by a build that keyed a composite by its operands' source
        # pairs: with_medecins + TUTELLES built at 1990 with p4 a surgeon,
        # then refreshed at 1991 to 1994 with p4 of category "médecine".
        # The surgeon, oid 3, froze at 1991 and Médecins oid 12 took the
        # same source key; Tutelles oid 11, p4 with e1, was kept through the
        # move, and oid 13, p4 with e2, was made at 1994. Each key splits
        # two ways, through the frozen surgeon or the active physician
        path = tmp_path / "h.store"
        path.write_bytes((STORES / "tutelles_1994.store").read_bytes())
        head = store_header(path.read_text(encoding="utf-8").split("\n", 1)[0])
        wdef = parse_warehouse_def(with_medecins(edw_text) + TUTELLES)
        assert head["warehouse_def"] == print_warehouse_def(wdef)
        assert [entry[3] for entry in head["objects"] if entry[0] in (11, 13)] == [
            [["PRATICIEN", "p4"], ["ETABLISSEMENT", "e1"]],
            [["PRATICIEN", "p4"], ["ETABLISSEMENT", "e2"]],
        ]
        loaded = load_store(str(path))
        assert [loaded.objects[oid].status for oid in (3, 12)] == ["frozen", "active"]
        # each reads as the physician, the object that build read last,
        # though oid 12 follows oid 11
        assert [loaded.objects[oid].source_key for oid in (11, 13)] == [
            (("Médecins", 12), ("Hôpitaux_Publics", 4)),
            (("Médecins", 12), ("Hôpitaux_Publics", 5)),
        ]
        snap = make_snapshot(1995, with_extra_surgeon=True, extra_surgeon_category="médecine")
        # the counts that build reported at 1995
        names = ["created", "carried", "updated", "historized", "frozen", "archived_evictions"]
        counts = {
            "Chirurgiens": [0, 0, 0, 2, 1, 2], "Etablissements": [0, 0, 2, 0, 0, 0],
            "Hôpitaux_Publics": [0, 0, 0, 2, 0, 2], "Médecins": [0, 1, 0, 0, 0, 0],
            "Services": [0, 3, 0, 0, 0, 0], "Tutelles": [0, 0, 2, 0, 0, 0],
        }
        report = refresh(loaded, snap).to_dict()
        assert report["classes"] == {
            name: dict(zip(names, row)) for name, row in counts.items()
        }
        assert saved_and_loaded(loaded, str(path)).objects[11].source_key[0] == ("Médecins", 12)

    def test_a_split_of_equal_activity_reads_as_the_highest_oids(
        self, edw_text, tmp_path, make_snapshot
    ):
        # tutelles_1994.store refreshed at 1995 without p4 by the build that
        # wrote it: the surgeon, oid 3, and the physician, oid 12, are both
        # frozen, and so are Tutelles oids 11 and 13. Each key splits two
        # ways with one active object, the hospital, and reads as the
        # highest oids, the physician, whom that build read last
        path = tmp_path / "h.store"
        path.write_bytes((STORES / "tutelles_1995.store").read_bytes())
        head = store_header(path.read_text(encoding="utf-8").split("\n", 1)[0])
        assert head["format"] == "tdw-store-v4"
        assert [entry[3] for entry in head["objects"] if entry[0] in (11, 13)] == [
            [["PRATICIEN", "p4"], ["ETABLISSEMENT", "e1"]],
            [["PRATICIEN", "p4"], ["ETABLISSEMENT", "e2"]],
        ]
        loaded = load_store(str(path))
        assert [loaded.objects[oid].status for oid in (3, 11, 12, 13)] == ["frozen"] * 4
        assert [loaded.objects[oid].source_key for oid in (11, 13)] == [
            (("Médecins", 12), ("Hôpitaux_Publics", 4)),
            (("Médecins", 12), ("Hôpitaux_Publics", 5)),
        ]
        # p4 back as a physician: that build thawed oid 12 and, through him,
        # both composites, and reported these counts at 1996
        snap = make_snapshot(1996, with_extra_surgeon=True, extra_surgeon_category="médecine")
        names = ["created", "carried", "updated", "historized", "frozen", "archived_evictions"]
        counts = {
            "Chirurgiens": [0, 0, 0, 2, 1, 2], "Etablissements": [0, 0, 2, 0, 0, 0],
            "Hôpitaux_Publics": [0, 0, 0, 2, 0, 2], "Médecins": [0, 0, 0, 1, 0, 0],
            "Services": [0, 3, 0, 0, 0, 0], "Tutelles": [0, 0, 0, 2, 0, 0],
        }
        assert refresh(loaded, snap).to_dict() == {
            "at": "1996",
            "classes": {name: dict(zip(names, row)) for name, row in counts.items()},
            "warnings": [],
        }
        assert [loaded.objects[oid].status for oid in (3, 11, 12, 13)] == [
            "frozen", "active", "active", "active",
        ]


    def test_a_committed_v4_store_reads_the_same_and_is_rewritten_whole(
        self, store, tmp_path, make_snapshot
    ):
        # written by a build of the v4 layout from the hospital fixture:
        # built at 1990, refreshed at 1991 and 1992 with the extra surgeon
        # p4 and at 1993 without him
        path = tmp_path / "h.store"
        path.write_bytes((STORES / "hopital_1993.store").read_bytes())
        header = path.read_text(encoding="utf-8").split("\n", 1)[0]
        assert store_header(header)["format"] == "tdw-store-v4"
        for y, extra in ((1991, True), (1992, True), (1993, False)):
            refresh(store, make_snapshot(y, with_extra_surgeon=extra))
        loaded = load_store(str(path))
        assert lined(loaded) == set()
        assert store_to_dict(loaded) == store_to_dict(store)
        snap = make_snapshot(1994)
        report = refresh(loaded, snap).to_dict()
        assert report == refresh(store, snap).to_dict()
        # the counts that build reported at 1994
        names = ["created", "carried", "updated", "historized", "frozen", "archived_evictions"]
        counts = {
            "Chirurgiens": [0, 0, 0, 2, 1, 2], "Etablissements": [0, 0, 2, 0, 0, 0],
            "Hôpitaux_Publics": [0, 0, 0, 2, 0, 2], "Services": [0, 3, 0, 0, 0, 0],
        }
        assert report["classes"] == {name: dict(zip(names, row)) for name, row in counts.items()}
        save_store(loaded, str(path))
        text = path.read_text(encoding="utf-8")
        assert text == dumps_store(store)
        assert store_header(text.split("\n", 1)[0])["format"] == "tdw-store-v6"

    def test_a_committed_v5_store_reads_the_same_and_is_rewritten_whole(
        self, store, tmp_path, make_snapshot
    ):
        # written by a build of the v5 layout with the history of
        # hopital_1993.store: built at 1990, refreshed at 1991 and 1992 with
        # the extra surgeon p4 and at 1993 without him
        path = tmp_path / "h.store"
        path.write_bytes((STORES / "hopital_1993_v5.store").read_bytes())
        written = path.read_text(encoding="utf-8")
        assert store_header(written.split("\n", 1)[0])["format"] == "tdw-store-v5"
        for y, extra in ((1991, True), (1992, True), (1993, False)):
            refresh(store, make_snapshot(y, with_extra_surgeon=extra))
        loaded = load_store(str(path))
        assert lined(loaded) == set()
        assert store_to_dict(loaded) == store_to_dict(store)
        # the test's v5 writer writes what that build wrote
        assert v5_text(loaded, older_keys=False) == written
        snap = make_snapshot(1994)
        report = refresh(loaded, snap).to_dict()
        assert report == refresh(store, snap).to_dict()
        # the counts that the v4 build reported at 1994
        names = ["created", "carried", "updated", "historized", "frozen", "archived_evictions"]
        counts = {
            "Chirurgiens": [0, 0, 0, 2, 1, 2], "Etablissements": [0, 0, 2, 0, 0, 0],
            "Hôpitaux_Publics": [0, 0, 0, 2, 0, 2], "Services": [0, 3, 0, 0, 0, 0],
        }
        assert report["classes"] == {name: dict(zip(names, row)) for name, row in counts.items()}
        save_store(loaded, str(path))
        text = path.read_text(encoding="utf-8")
        assert text == dumps_store(store)
        assert store_header(text.split("\n", 1)[0])["format"] == "tdw-store-v6"

    def test_a_refresh_that_historizes_and_evicts_nothing_decodes_no_past_state(
        self, store, src_schema, tmp_path, make_snapshot, monkeypatch
    ):
        for y in (1991, 1992):
            refresh(store, make_snapshot(y))
        path = str(tmp_path / "h.store")
        save_store(store, path)
        decoded = []
        real = engine._StateDecoder.past

        def counted(self, state, name):
            decoded.append((state, name))
            return real(self, state, name)

        monkeypatch.setattr(engine._StateDecoder, "past", counted)
        loaded = load_store(path)
        # the sources of 1992 again, a year later
        snap = ingest_snapshot(src_schema, snapshot_lines(hospital_records(1992)), year(1993))
        with touch_spy() as touched:
            report = refresh(loaded, snap).to_dict()
        save_store(loaded, path)
        counts = report["classes"].values()
        assert not any(c["historized"] or c["archived_evictions"] for c in counts)
        untouched = [obj for oid, obj in loaded.objects.items() if oid not in touched]
        assert any(len(obj.past) > 1 for obj in untouched)
        # a first read decodes the newest past state's domain, which the
        # current state must start after, and no other past document
        newest = [obj.past[-1] for obj in loaded.objects.values() if obj.past]
        assert sorted(map(id, (state for state, _name in decoded))) == sorted(map(id, newest))
        assert {name for _state, name in decoded} == {"stored"}
        assert lined(loaded) == {obj.oid for obj in untouched}
        refresh(store, snap)
        assert Path(path).read_text(encoding="utf-8") == dumps_store(store)

    @pytest.mark.parametrize(
        "retention", ["keep 2 past states;", "keep past 2 years;"], ids=["count", "duration"]
    )
    def test_a_refresh_that_evicts_decodes_each_evicted_document_once(
        self, src_schema, edw_text, tmp_path, make_snapshot, monkeypatch, retention
    ):
        wdef = parse_warehouse_def(edw_text.replace("keep 2 past states;", retention))
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        for y in (1991, 1992):
            refresh(store, make_snapshot(y))
        path = str(tmp_path / "h.store")
        save_store(store, path)
        decoded = []
        past, archived = engine._StateDecoder.past, engine._StateDecoder.archived

        def counted_past(self, state, name):
            decoded.append((state, name))
            return past(self, state, name)

        def counted_archived(self, state, names):
            decoded.append((state, "archived"))
            return archived(self, state, names)

        monkeypatch.setattr(engine._StateDecoder, "past", counted_past)
        monkeypatch.setattr(engine._StateDecoder, "archived", counted_archived)
        loaded = load_store(path)
        # a first read decodes the head and the newest past state's domain
        held = {oid: list(obj.past) for oid, obj in loaded.objects.items()}
        newest = {id(states[-1]) for states in held.values() if states}
        assert sorted(id(state) for state, _name in decoded) == sorted(newest)
        assert {name for _state, name in decoded} == {"stored"}
        decoded.clear()
        report = refresh(loaded, make_snapshot(1993)).to_dict()
        evicted = {id(s) for oid, states in held.items() for s in states
                   if all(s is not kept for kept in loaded.objects[oid].past)}
        assert len(evicted) == sum(c["archived_evictions"] for c in report["classes"].values()) > 0
        # each evicted document once, for its archived properties, and no
        # other past value; a duration tests the oldest states' domains,
        # as it did before deltas, the first one kept being the newest,
        # whose domain the first read decoded
        assert sorted(id(state) for state, name in decoded if name == "archived") == sorted(evicted)
        assert {name for _state, name in decoded} <= {"archived", "stored"}
        tested = {id(state) for state, name in decoded if name == "stored"}
        assert tested == (evicted if retention.startswith("keep past") else set())
        assert refresh(store, make_snapshot(1993)).to_dict() == report
        decoded.clear()
        save_store(loaded, path)
        assert decoded == []
        assert Path(path).read_text(encoding="utf-8") == dumps_store(store)


class TestReverseDeltas:
    """A past state's document is a reverse delta against its newer
    neighbour, the current state for the newest, whose value an update in
    place or a patch replaces: the save encodes the newest document again
    against the value it replaced it with."""

    @staticmethod
    def reloaded_history(store, tmp_path, make_snapshot):
        for y in (1991, 1992):
            refresh(store, make_snapshot(y))
        path = str(tmp_path / "h.store")
        save_store(store, path)
        return path, load_store(path)

    def test_an_update_in_place_encodes_the_newest_past_document_again(
        self, store, src_schema, tmp_path, make_snapshot
    ):
        path, loaded = self.reloaded_history(store, tmp_path, make_snapshot)
        p1 = by_key(loaded, "Chirurgiens", "p1")
        before = p1.past[-1].value
        assert len(p1.past) == 2 and before["nom"] == "Bernard"
        # the sources of 1992 a year later, with a new name for p1, which
        # is not in the class's temporal filter
        records = hospital_records(1992)
        assert records[0]["id"] == "p1"
        records[0]["values"]["nom"] = "Bernard-Roux"
        snap = ingest_snapshot(src_schema, snapshot_lines(records), year(1993))
        report = refresh(loaded, snap).to_dict()
        assert report["classes"]["Chirurgiens"]["updated"] == 1
        assert report == refresh(store, snap).to_dict()
        p1 = by_key(loaded, "Chirurgiens", "p1")
        assert p1.current.value["nom"] == "Bernard-Roux"
        again = saved_and_loaded(loaded, path)
        assert store_to_dict(again) == store_to_dict(loaded) == store_to_dict(store)
        assert by_key(again, "Chirurgiens", "p1").past[-1].value == before
        # the newest document holds the old name, which now differs
        newest = json.loads(Path(path).read_text(encoding="utf-8")
                            .split("\n")[1 + sorted(again.objects).index(p1.oid)]
                            .split("\t")[-1])
        assert newest["value"]["nom"] == "Bernard"

    def test_a_property_the_older_state_lacks_stays_absent(self, store, tmp_path, make_snapshot):
        for y in (1991, 1992):
            refresh(store, make_snapshot(y))
        p1 = by_key(store, "Chirurgiens", "p1")
        oldest = p1.past[0]
        lacking = {k: v for k, v in oldest.value.items() if k not in ("nom", "revenus")}
        p1.past[0] = State(oldest.stored, lacking)
        path = str(tmp_path / "h.store")
        loaded = saved_and_loaded(store, path)
        line = Path(path).read_text(encoding="utf-8").split("\n")[1 + sorted(store.objects)
                                                                  .index(p1.oid)]
        # what the newer state holds, and what the class archives, sorted
        # between the domain and the value
        assert line.split("\t")[1].startswith(
            '{"domain":[[20,20]],"gone":["nom","revenus"],"value":{'
        )
        assert by_key(loaded, "Chirurgiens", "p1").past[0].value == lacking
        assert store_to_dict(loaded) == store_to_dict(store)

    @pytest.mark.parametrize(
        "gone, detail",
        [("nom", "TypeError: a state's gone names are a str, not a list"),
         (["revenus"], "ValueError: a past state holds 'revenus', which it lists as gone")],
        ids=["not-a-list", "held-and-gone"],
    )
    def test_a_damaged_gone_list_names_the_file(self, store, tmp_path, make_snapshot, gone, detail):
        for y in (1991, 1992):
            refresh(store, make_snapshot(y))
        header, *lines = dumps_store(store)[:-1].split("\n")
        head, *past = lines[0].split("\t")
        doc = json.loads(past[-1])
        doc["gone"] = gone
        lines[0] = "\t".join([head, *past[:-1], encode(doc)])
        path = tmp_path / "bad.store"
        path.write_text(resealed("\n".join([header, *lines]) + "\n"), encoding="utf-8")
        loaded = load_store(str(path))
        assert loaded.objects[1].past[0].stored == store.objects[1].past[0].stored
        for read in (lambda: loaded.objects[1].past[0].value,
                     lambda: loaded.objects[1].past[-1].archived({"revenus": "avg"})):
            with pytest.raises(Error) as raised:
                read()
            assert str(raised.value) == f"{path}: malformed store document ({detail})"

    def test_a_past_document_without_an_archived_property_names_the_file(
        self, store, tmp_path, make_snapshot
    ):
        # a writer that sealed what it was handed: the oldest past document
        # of surgeon oid 1, which the refresh at 1993 evicts, lacks revenus,
        # which its class archives
        for y in (1991, 1992):
            refresh(store, make_snapshot(y))
        header, *lines = dumps_store(store)[:-1].split("\n")
        head, oldest, *newer = lines[0].split("\t")
        doc = json.loads(oldest)
        del doc["value"]["revenus"]
        lines[0] = "\t".join([head, encode(doc), *newer])
        path = tmp_path / "bad.store"
        path.write_text(resealed("\n".join([header, *lines]) + "\n"), encoding="utf-8")
        loaded = load_store(str(path))
        error = (f"{path}: malformed store document (ValueError: a past state leaves out"
                 " 'revenus', which its class archives)")
        with pytest.raises(Error) as raised:
            refresh(loaded, make_snapshot(1993))
        assert str(raised.value) == error
        assert dumps_store(loaded) == path.read_text(encoding="utf-8")
        with pytest.raises(Error) as raised:
            load_store(str(path)).objects[1].past[0].archived({"revenus": "avg"})
        assert str(raised.value) == error


def patched_late(store, hospital: str, created: int, t: Instant) -> None:
    """A patch of the hospital's année_création dated t, after the last
    refresh, as older builds stored it: the patched value, and the end of
    the object's current state moved to t while the store's now stays.
    Store files those builds wrote hold such a later end, read as written."""
    hop = store.touch(by_key(store, "Hôpitaux_Publics", hospital).oid)
    assert t.tick > store.last_refresh.tick
    hop.current.value["année_création"] = created
    hop.current.stored = extend_end(hop.current.stored, t.tick)
    assert hop.current.domain.intervals[-1].end == t


def assert_refreshes_alike_after_the_late_end(store, path: str, make_snapshot) -> None:
    """The store patched_late left at 1995, and the file it was written
    to: both reject a refresh at 1994, which would close the current state
    inside it, and report alike at 1996."""
    for held in (load_store(path), store):
        with pytest.raises(NonMonotonicInstant, match="not after 1995, where the current state"):
            refresh(held, make_snapshot(1994))
    snap = make_snapshot(1996)
    assert refresh(load_store(path), snap).to_dict() == refresh(store, snap).to_dict()
    assert_states_disjoint(store)


# a composite over the composite Etablissements
EQUIPES = (
    "interface Equipes (extend Etablissements, Chirurgiens) { }\n"
    "mapping Equipes = specialize(e: Etablissements, c: Chirurgiens, e.équipe contains c);\n"
)

# store files written by older builds
STORES = Path(__file__).parent / "stores"

encode = partial(json.dumps, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def older_index(store) -> list:
    """The object index [oid, class, status, key] as older builds wrote
    it: a composite's key its source pairs, not its operand objects."""
    return [[oid, o.class_name, o.status, source_pairs(store, oid)]
            for oid, o in sorted(store.objects.items())]


def older_header(store, layout: str) -> dict:
    """A v4, v3 or v2 header: the v1 document's fields and the older index."""
    v1 = store_to_dict(store)
    header = {k: v1[k] for k in ("source_schema", "warehouse_def", "last_refresh",
                                 "oid_counter", "memberships")}
    header["format"] = f"tdw-store-{layout}"
    header["objects"] = older_index(store)
    return header


def older_domain(d) -> dict:
    return {"unit": d.unit, "intervals": [[iv.start.tick, iv.end.tick] for iv in d.intervals]}


def older_state(s) -> dict:
    """A state as v4 and v3 files held it, an open one with its stored end."""
    return {"domain": older_domain(s.stored), "value": s.value}


def older_head(o) -> dict:
    return {
        "current": older_state(o.current),
        "archives": [{"domain": older_domain(a.domain), "aggregates": a.aggregates}
                     for a in o.archives],
    }


def v4_text(store, older_keys: bool = True) -> str:
    """The store in the tdw-store-v4 layout as older builds wrote it: no
    checksums, each domain with its unit, every head with its archives,
    and each past state after a TAB; older_keys=False keys composites by
    their operand objects, as the last v4 builds did."""
    header = older_header(store, "v4")
    if not older_keys:
        header["objects"] = [[oid, o.class_name, o.status, o.source_key]
                             for oid, o in sorted(store.objects.items())]
    lines = [
        "\t".join([encode(older_head(o)), *(encode(older_state(s)) for s in o.past)])
        for _oid, o in sorted(store.objects.items())
    ]
    return "\n".join([encode(header), *lines]) + "\n"


def v2_text(store) -> str:
    """The store in the tdw-store-v2 layout: every state's domain as it
    read at the last refresh, and a later end as it was stored."""
    v1 = store_to_dict(store)
    lines = [encode({k: o[k] for k in ("current", "past", "archives")}) for o in v1["objects"]]
    return "\n".join([encode(older_header(store, "v2")), *lines]) + "\n"


def v1_text(store) -> str:
    """The store as one compact tdw-store-v1 document, with the identity
    table that layout held."""
    doc = store_to_dict(store)
    keys = {oid: key for oid, _cname, _status, key in older_index(store)}
    for o in doc["objects"]:
        o["source_key"] = keys[o["oid"]]
    doc["identity"] = sorted([o["class"], o["source_key"], o["oid"]] for o in doc["objects"])
    return encode(doc) + "\n"


def v3_text(store) -> str:
    """The store in the tdw-store-v3 layout, which held each object's past
    states inside its one line document {"archives", "current", "past"}."""
    lines = [
        encode({**older_head(o), "past": [older_state(s) for s in o.past]})
        for _oid, o in sorted(store.objects.items())
    ]
    return "\n".join([encode(older_header(store, "v3")), *lines]) + "\n"


def v5_text(store, older_keys: bool = True) -> str:
    """The store in the tdw-store-v5 layout: sealed by CRC-32s as v6 is,
    domains as [start, end] lists, empty archives left out, and each past
    state's value whole after a TAB; older_keys=False keys composites by
    their operand objects, as v5 builds did."""

    def bounds(d):
        return [[iv.start.tick, iv.end.tick] for iv in d.intervals]

    def state(s):
        return {"domain": bounds(s.stored), "value": s.value}

    entries = older_index(store) if older_keys else [
        [oid, o.class_name, o.status, o.source_key] for oid, o in sorted(store.objects.items())
    ]
    lines = []
    for entry in entries:
        o = store.objects[entry[0]]
        head = {"current": state(o.current)}
        if o.archives:
            head["archives"] = [{"aggregates": a.aggregates, "domain": bounds(a.domain)}
                                for a in o.archives]
        lines.append("\t".join([encode(head), *(encode(state(s)) for s in o.past)]))
        entry.append(zlib.crc32((lines[-1] + "\n").encode("utf-8")))
    header = older_header(store, "v5")
    header["objects"] = entries
    return "\n".join([sealed_header(header), *lines]) + "\n"


OLDER_WRITERS = {"v5": v5_text, "v4": v4_text, "v3": v3_text, "v2": v2_text, "v1": v1_text}


# ---------------------------------------------------------------------------
# the index against the whole-extension scan it replaced


def scan_relation_oid(store, live, class_name, prop, source_target, _wanted, rid):
    """Link resolution before the source-id index: scan the target class's
    extension for an object whose source key names the linked record, the
    one in live, this refresh's extraction result, winning over others."""
    src = store.source_schema
    wanted = subtypes(src, source_target) if source_target in src.interfaces else {source_target}

    def matches(oid):
        return any(i in wanted and sid == rid for i, sid in store.objects[oid].source_key)

    hits = [oid for oid in store.direct_extension(prop.target) if matches(oid)]
    if not hits:
        hits = [oid for oid in store.extension_of(prop.target) if matches(oid)]
    if len(hits) > 1:
        hits = [oid for oid in hits if oid in live] or hits
    if len(hits) != 1:
        raise DanglingRelationTarget(
            f"{class_name}.{prop.name}: source object {source_target}:{rid} has "
            f"{'no' if not hits else 'several'} counterpart(s) in class {prop.target!r}"
        )
    return hits[0]


HOSPITALS = ("e1", "e2", "e3")
SERVICES = ("s1", "s2", "s3", "s4")
SURGEONS = ("p1", "p2", "p3", "p4")
_mostly = st.sampled_from((True, True, True, False))


@st.composite
def hospital_sequences(draw):
    """Yearly record lists in which services vanish, return and now and
    then move to another hospital, and practitioners come and go, change
    service and leave or rejoin surgery.

    Only a practitioner with a Chirurgiens object, a surgeon now or a
    former one whose object is frozen, works in a service: the Services
    mapping links a team to Chirurgiens, and a team naming anyone else
    is rejected (see test_team_naming_a_practitioner_outside_surgery).
    """
    homes = {s: draw(st.sampled_from(HOSPITALS)) for s in SERVICES}
    surgeons: set[str] = set()  # practitioners who have been surgeons
    years = []
    for step in range(draw(st.integers(2, 5))):
        open_hospitals = {e for e in HOSPITALS if draw(_mostly)}
        where = {}
        for s in SERVICES:
            fate = draw(st.sampled_from(("home", "home", "home", "gone", "moved")))
            if fate == "moved":
                homes[s] = HOSPITALS[(HOSPITALS.index(homes[s]) + 1) % len(HOSPITALS)]
            if fate != "gone" and homes[s] in open_hospitals:
                where[s] = homes[s]
        staff = {}
        for p in SURGEONS:
            if draw(_mostly):
                chosen = draw(st.sets(st.sampled_from(SERVICES), max_size=2))
                surgeon = draw(_mostly)
                if surgeon:
                    surgeons.add(p)
                works = [s for s in chosen if s in where and p in surgeons]
                staff[p] = (sorted(works), surgeon)
        directors = {}
        for p, (works, _surgeon) in staff.items():
            if works and draw(st.booleans()) and works[0] not in directors:
                directors[works[0]] = p
        records = []
        for e in sorted(open_hospitals):
            records.append({
                "interface": "ETABLISSEMENT", "id": e,
                "values": {"nom": e, "statut": "public",
                           "adresse": {"libelle": e, "ville": "Toulouse", "code_postal": 31000},
                           "budget": 1000 + 10 * step},
                "links": {"organisation": sorted(s for s, h in where.items() if h == e)},
            })
        for s in sorted(where):
            records.append({
                "interface": "SERVICE", "id": s,
                "values": {"nom": s, "téléphone": "0"},
                "links": {"équipe": sorted(p for p, (w, _) in staff.items() if s in w),
                          "est_dirigé": [directors[s]] if s in directors else []},
            })
        for p, (works, surgeon) in sorted(staff.items()):
            records.append({
                "interface": "PRATICIEN", "id": p,
                "values": {"nom": p, "prénom": p,
                           "adresse": {"libelle": p, "ville": "Toulouse", "code_postal": 31000},
                           "année_naissance": 1960 + 5 * SURGEONS.index(p),
                           "no_praticien": p,
                           "catégorie": "chirurgie" if surgeon else "cardiologie",
                           "spécialité": "x", "revenus": 100 + step},
                "links": {"travaille": works,
                          "dirige": [s for s, d in directors.items() if d == p]},
            })
        years.append(records)
    return years


class TestLinkIndexAgainstScan:
    @settings(max_examples=60, deadline=None)
    @given(hospital_sequences())
    def test_every_relation_slot_matches_the_extension_scan(
        self, src_schema, edw_text, tmp_path_factory, years
    ):
        path = str(tmp_path_factory.mktemp("steps") / "h.store")
        stores = {"index": None, "scan": None}
        for step, records in enumerate(years):
            snap = ingest_snapshot(src_schema, snapshot_lines(records), year(1990 + step))
            outcomes = {}
            for mode in stores:
                resolver = engine._relation_oid if mode == "index" else scan_relation_oid
                with mock.patch.object(engine, "_relation_oid", resolver):
                    try:
                        if stores[mode] is None:
                            wdef = parse_warehouse_def(edw_text)
                            stores[mode] = initial_load(src_schema, wdef, snap)
                            outcomes[mode] = "loaded"
                        else:
                            outcomes[mode] = refresh(stores[mode], snap).to_dict()
                    except Error as exc:
                        outcomes[mode] = (type(exc).__name__, str(exc))
            assert outcomes["index"] == outcomes["scan"]
            if stores["index"] is not None:
                assert dumps_store(stores["index"]) == dumps_store(stores["scan"])
                save_store(stores["index"], path)
                assert dumps_store(load_store(path)) == dumps_store(stores["index"])


# ---------------------------------------------------------------------------
# the engine against the naive reference model of the refresh rules


@st.composite
def hospital_histories(draw):
    """hospital_sequences() with a retention bound by count, by duration or
    both, the specific année_création in or out of the hospitals' temporal
    filter, and after each step up to two patches of it, dated from one
    year before the last refresh to two years after it."""
    keep_count = draw(st.sampled_from((None, 1, 2)))
    keep_years = draw(st.sampled_from((None, 1, 2) if keep_count else (1, 2)))
    temporal_creation = draw(st.booleans())
    patches = [
        draw(st.lists(st.tuples(st.sampled_from(HOSPITALS), st.sampled_from((None, 1950, 1960)),
                                st.integers(-1, 2)), max_size=2))
        for _ in range(5)
    ]
    return keep_count, keep_years, temporal_creation, draw(hospital_sequences()), patches


def history_edw(edw_text, keep_count, keep_years, temporal_creation) -> str:
    bounds = []
    if keep_count is not None:
        bounds.append(f"keep {keep_count} past states;")
    if keep_years is not None:
        bounds.append(f"keep past {keep_years} years;")
    text = edw_text.replace("keep 2 past states;", " ".join(bounds))
    if temporal_creation:
        text = text.replace("temporal budget,", "temporal année_création, budget,")
    # a membership of Hôpitaux_Publics declared after Etablissements, a
    # composite subclass of Hôpitaux_Publics, and a composite over the
    # generalization Personnes, whose two subclasses hold two objects of
    # one surgeon
    return with_anciens(text) + (
        "interface Riches (extend Hôpitaux_Publics) { }\n"
        f"mapping Riches = specialize(h: Hôpitaux_Publics, h.budget > {reference.RICH});\n"
        + EQUIPIERS
    )


def model_identity(store, oid):
    """The object's identity as the reference model names it: its class
    and key, a composite's key its operand objects' identities."""
    obj = store.objects[oid]
    if store.schema.classes[obj.class_name].role != "composite":
        return (obj.class_name, obj.source_key)
    return (obj.class_name, tuple(model_identity(store, ref) for _cname, ref in obj.source_key))


def engine_value(store, payload, relations):
    """A value read from the store, with each oid named by its identity."""
    out = dict(payload)
    for prop in relations:
        v = out.get(prop)
        if isinstance(v, list):
            out[prop] = sorted(model_identity(store, oid) for oid in v)
        elif v is not None:
            out[prop] = model_identity(store, v)
    return out


def assert_engine_matches_model(store, model, ticks) -> None:
    """Every object's state at every tick, and every class's extension."""
    idents = {oid: model_identity(store, oid) for oid in store.objects}
    assert sorted(idents.values()) == sorted(model.objects)
    for oid, ident in idents.items():
        relations = reference.RELATIONS[ident[0]]
        for tick in ticks:
            located = store.value_at(oid, Instant("year", tick))
            if located is not None and located[0] != "archive":
                located = (located[0], engine_value(store, located[1], relations))
            assert located == model.value_at(ident, tick), (ident, tick)
    for name, members in model.extensions().items():
        assert {idents[oid] for oid in store.extension_of(name)} == members, name


def assert_states_disjoint(store) -> None:
    """No two states of any object hold one granule."""
    for oid, obj in store.objects.items():
        assert check_state_disjointness(obj) == [], oid


@contextlib.contextmanager
def touch_spy():
    """The oids passed to Store.touch while the block runs."""
    touched: set = set()
    real = engine.Store.touch

    def spy(self, oid):
        touched.add(oid)
        return real(self, oid)

    with mock.patch.object(engine.Store, "touch", spy):
        yield touched


def assert_touched_what_changed(before: dict, store, touched: set, report: dict) -> None:
    """A refresh touched exactly the objects it changed: created, updated,
    historized, newly frozen or evicting ones, not the whole store."""
    after = object_forms(store.objects)
    new = after.keys() - before.keys()
    changed = {oid for oid in before if after[oid] != before[oid]}
    assert touched - new == changed
    counts = report["classes"].values()
    assert len(new) == sum(c["created"] for c in counts)
    # a thawed object changes status too, but counts as historized
    frozen = sum(before[oid][3] != after[oid][3] == "frozen" for oid in before)
    diffed = sum(c["updated"] + c["historized"] for c in counts) + frozen
    assert diffed <= len(changed) <= diffed + sum(c["archived_evictions"] for c in counts)


def dumps_anew(store) -> str:
    """dumps_store of the store with no line kept from its file and no
    past state's text, so that every document is encoded anew."""

    def anew(obj):
        cur = obj.current
        return replace(
            obj.copy(),
            current=State(cur.stored, cur.value, cur.now),
            past=[State(s.stored, s.value) for s in obj.past],
        )

    objects = {oid: anew(obj) for oid, obj in store.objects.items()}
    return dumps_store(replace(store, objects=objects))


def saved_and_loaded(store, path: str):
    """The store saved and loaded back, as each command does: the save
    writes each untouched line and each past state's text as they were
    read or first encoded, and a from-scratch encoding gives the same
    bytes, and a save of the loaded store gives them too."""
    text = dumps_store(store)
    assert text == dumps_anew(store)
    save_store(store, path)
    loaded = load_store(path)
    assert dumps_store(loaded).encode("utf-8") == Path(path).read_bytes()
    return loaded


class TestReferenceModel:
    @settings(max_examples=80, deadline=None)
    @given(hospital_histories())
    def test_engine_follows_the_reference_model(
        self, src_schema, edw_text, tmp_path_factory, history
    ):
        path = str(tmp_path_factory.mktemp("steps") / "h.store")
        keep_count, keep_years, temporal_creation, years, patches = history
        text = history_edw(edw_text, keep_count, keep_years, temporal_creation)
        model = reference.ReferenceWarehouse(keep_count, keep_years, temporal_creation)
        store = None
        seen: set[int] = set()
        for step, records in enumerate(years):
            t = year(1990 + step)
            seen.add(t.tick)
            snap = ingest_snapshot(src_schema, snapshot_lines(records), t)
            try:
                expected = model.refresh(records, t.tick)
            except reference.Rejected as exc:
                expected = exc.args[0]
            try:
                if store is None:
                    store = initial_load(src_schema, parse_warehouse_def(text), snap)
                    outcome = "loaded"  # a load returns no report
                    expected = expected if isinstance(expected, str) else "loaded"
                else:
                    before = object_forms(store.objects)
                    with touch_spy() as touched:
                        outcome = refresh(store, snap).to_dict()
                    assert_touched_what_changed(before, store, touched, outcome)
                    classes, warnings = expected
                    expected = {"at": str(1990 + step), "classes": classes, "warnings": warnings}
            except Error as exc:
                outcome = type(exc).__name__
            assert outcome == expected
            event(f"step {step}: {outcome if isinstance(outcome, str) else 'refreshed'}")
            if store is None:
                continue
            assert_states_disjoint(store)
            for sid, value, offset in patches[step]:
                tick = store.last_refresh.tick + offset
                seen.add(tick)
                ident = ("Hôpitaux_Publics", (("ETABLISSEMENT", sid),))
                oid = store.identity.get(ident)
                if oid is None:
                    continue
                try:
                    model.patch(ident, value, tick)
                    expected = "patched"
                except reference.Rejected as exc:
                    expected = exc.args[0]
                try:
                    patch_specific(store, oid, "année_création", value, Instant("year", tick))
                    outcome = "patched"
                except Error as exc:
                    outcome = type(exc).__name__
                assert outcome == expected
                assert_states_disjoint(store)
                event(f"patch: {outcome}")
            ticks = range(min(seen) - 1, max(seen) + 2)
            assert_engine_matches_model(store, model, ticks)
            store = saved_and_loaded(store, path)


# ---------------------------------------------------------------------------
# a refresh's active extension against a fresh build of its snapshot


def active_extension(store) -> dict[str, dict]:
    """Each class's active objects, named as model_identity names them,
    with their current values: specific properties left out, which a
    patch sets and a refresh keeps, and each link named by its target."""
    out = {}
    for name in store.schema.classes:
        objects = {}
        for oid in store.extension_of(name):
            obj = store.objects[oid]
            if obj.status == "active":
                flat = flatten_type(store.schema, obj.class_name)
                value = {p.name: obj.current.value.get(p.name)
                         for p in flat if p.origin != "specific"}
                relations = [p.name for p in flat if p.is_relation]
                objects[model_identity(store, oid)] = engine_value(store, value, relations)
        out[name] = objects
    return out


DANGLING = re.compile(r"(\S+)\.(\S+): source object (\S+):(\S+) has no counterpart")


def assert_answered_by_a_former_member(store, error: DanglingRelationTarget) -> None:
    """The known exemption from the oracle: a link that a fresh build
    rejects, since no object of the target class names the linked record,
    is one the refreshed store answers with a frozen former member of
    that class, as README's link rule says."""
    owner, prop_name, iface, rid = DANGLING.match(str(error)).groups()
    target = next(p for p in flatten_type(store.schema, owner) if p.name == prop_name).target
    wanted = subtypes(store.source_schema, iface)
    former = {
        oid for oid in store.extension_of(target)
        if store.objects[oid].status == "frozen"
        and any(i in wanted and sid == rid for i, sid in store.objects[oid].source_key)
    }
    answered = []
    for oid in store.direct_extension(owner):
        obj = store.objects[oid]
        linked = obj.current.value.get(prop_name)
        linked = linked if isinstance(linked, list) else [linked]
        if obj.status == "active" and former.intersection(linked):
            answered.append(oid)
    assert answered, str(error)


EXEMPTION = "exempt: a frozen former member answers a link"


def refresh_against_fresh_builds(src_schema, text, years, patches, seen: Counter) -> None:
    """Refresh a store through years, and after each refresh, which ends
    at a snapshot S, compare every class's active extension with that of
    initial_load over S alone; then patch année_création as patches say.
    seen counts the refreshes compared, those the exemption answers, and
    the steps rejected, which end at no snapshot."""
    store = None
    for step, records in enumerate(years):
        snap = ingest_snapshot(src_schema, snapshot_lines(records), year(1990 + step))
        built = store is None
        try:
            if built:
                store = engine.initial_load(src_schema, parse_warehouse_def(text), snap)
            else:
                engine.refresh(store, snap)
        except Error as exc:
            seen[f"step rejected: {type(exc).__name__}"] += 1
        else:
            if not built:
                try:
                    fresh = engine.initial_load(src_schema, parse_warehouse_def(text), snap)
                except DanglingRelationTarget as exc:
                    assert_answered_by_a_former_member(store, exc)
                    seen[EXEMPTION] += 1
                else:
                    assert active_extension(store) == active_extension(fresh), step
                    seen["compared"] += 1
        for sid, value, offset in patches[step] if store is not None else ():
            oid = store.identity.get(("Hôpitaux_Publics", (("ETABLISSEMENT", sid),)))
            t = Instant("year", store.last_refresh.tick + offset)
            if oid is not None:
                with contextlib.suppress(Error):
                    patch_specific(store, oid, "année_création", value, t)


class TestRefreshAgainstFreshBuild:
    """ROADMAP item 9's oracle: after any history of refreshes ending at
    snapshot S, each class holds the active objects, with the same
    values, that a fresh build over S alone holds, objects named by their
    source keys, composites by their operands and links by their targets
    (Gupta and Mumick, "Maintenance of Materialized Views", 1995). The one
    exemption, a link that a frozen former member answers, is counted and
    must occur."""

    def run(self, strategy, examples, check):
        seen: Counter = Counter()

        @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
        @given(strategy)
        def steps(drawn):
            check(drawn, seen)

        steps()
        assert seen["compared"] > 0 and seen[EXEMPTION] > 0, seen
        return seen

    def test_over_hospital_sequences(self, src_schema, edw_text):
        self.run(
            hospital_sequences(), 40,
            lambda years, seen: refresh_against_fresh_builds(
                src_schema, edw_text, years, [()] * len(years), seen),
        )

    def test_over_hospital_histories(self, src_schema, edw_text):
        def check(history, seen):
            keep_count, keep_years, temporal_creation, years, patches = history
            text = history_edw(edw_text, keep_count, keep_years, temporal_creation)
            refresh_against_fresh_builds(src_schema, text, years, patches, seen)

        self.run(hospital_histories(), 40, check)

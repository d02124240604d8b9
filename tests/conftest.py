"""Shared fixtures: the hospital source/warehouse pair and snapshot factory."""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import pytest

from tdw.dsl import parse_warehouse_def, resolve
from tdw.expr import format_mapping
from tdw.source import ingest_snapshot, parse_source_schema
from tdw.temporal import Instant, format_instant

FIXTURES = Path(__file__).parent / "fixtures"


def year(y: int) -> Instant:
    return Instant("year", y - 1970)


@pytest.fixture(scope="session")
def odl_text() -> str:
    return (FIXTURES / "hopital.odl").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def edw_text() -> str:
    return (FIXTURES / "hopital.edw").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def edw_without_services_text() -> str:
    return (FIXTURES / "hopital_sans_services.edw").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def src_schema(odl_text):
    return parse_source_schema(odl_text)


@pytest.fixture()
def wdef(edw_text):
    # function-scoped, so a test may change the parsed records
    return parse_warehouse_def(edw_text)


@pytest.fixture()
def schema(wdef, src_schema):
    return resolve(wdef, src_schema)


def _adresse(libelle: str, ville: str, cp: int) -> dict:
    return {"libelle": libelle, "ville": ville, "code_postal": cp}


def hospital_records(
    at_year: int,
    *,
    with_extra_surgeon: bool = False,
    extra_surgeon_category: str = "chirurgie",
    extra_private_team: bool = False,
) -> list[dict]:
    """The hospital source at a given year.

    Budgets and the surgeons' incomes drift every year so each yearly
    refresh sees a value change. The optional extra surgeon works in no
    service, which lets tests move him out of the selection predicate
    (or drop him) without breaking source consistency. The optional
    private team adds a surgeon working only at the private clinic.
    """
    step = at_year - 1990
    records = [
        {
            "interface": "PRATICIEN",
            "id": "p1",
            "values": {
                "nom": "Bernard",
                "prénom": "Alice",
                "adresse": _adresse("3 rue des Lilas", "Toulouse", 31000),
                "année_naissance": 1975,
                "no_praticien": "PR-001",
                "catégorie": "chirurgie",
                "spécialité": "orthopédie",
                "revenus": 90000 + 1000 * step,
            },
            "links": {"travaille": ["s1"], "dirige": ["s1"]},
        },
        {
            "interface": "PRATICIEN",
            "id": "p2",
            "values": {
                "nom": "Dupont",
                "prénom": "Marc",
                "adresse": _adresse("8 avenue Foch", "Toulouse", 31400),
                "année_naissance": 1960,
                "no_praticien": "PR-002",
                "catégorie": "chirurgie",
                "spécialité": "cardiaque",
                "revenus": 120000 + 2000 * step,
            },
            "links": {"travaille": ["s1", "s3"], "dirige": ["s3"]},
        },
        {
            "interface": "PRATICIEN",
            "id": "p3",
            "values": {
                "nom": "Petit",
                "prénom": "Claire",
                "adresse": _adresse("12 place du Capitole", "Toulouse", 31000),
                "année_naissance": 1968,
                "no_praticien": "PR-003",
                "catégorie": "cardiologie",
                "spécialité": "rythmologie",
                "revenus": 80000,
            },
            "links": {"travaille": [], "dirige": []},
        },
        {
            "interface": "ETABLISSEMENT",
            "id": "e1",
            "values": {
                "nom": "CHU Purpan",
                "statut": "public",
                "adresse": _adresse("330 avenue de Grande-Bretagne", "Toulouse", 31059),
                "budget": 2000000 + 50000 * step,
            },
            "links": {"organisation": ["s1", "s2"]},
        },
        {
            "interface": "ETABLISSEMENT",
            "id": "e2",
            "values": {
                "nom": "Hôpital Nord",
                "statut": "public",
                "adresse": _adresse("1 rue de la Santé", "Paris", 75014),
                "budget": 1500000 + 30000 * step,
            },
            "links": {"organisation": ["s3"]},
        },
        {
            "interface": "ETABLISSEMENT",
            "id": "e3",
            "values": {
                "nom": "Clinique Pasteur",
                "statut": "privé",
                "adresse": _adresse("45 avenue de Lombez", "Toulouse", 31300),
                "budget": 900000,
            },
            "links": {"organisation": ["s4"] if extra_private_team else []},
        },
        {
            "interface": "SERVICE",
            "id": "s1",
            "values": {"nom": "Chirurgie générale", "téléphone": "05 61 11 22 33"},
            "links": {"équipe": ["p1", "p2"], "est_dirigé": ["p1"]},
        },
        {
            "interface": "SERVICE",
            "id": "s2",
            "values": {"nom": "Urgences", "téléphone": "05 61 11 22 44"},
            "links": {"équipe": [], "est_dirigé": []},
        },
        {
            "interface": "SERVICE",
            "id": "s3",
            "values": {"nom": "Chirurgie cardiaque", "téléphone": "01 40 55 66 77"},
            "links": {"équipe": ["p2"], "est_dirigé": ["p2"]},
        },
        {
            "interface": "PATIENT",
            "id": "pa1",
            "values": {
                "nom": "Martin",
                "prénom": "Luc",
                "adresse": _adresse("7 rue Neuve", "Blagnac", 31700),
                "année_naissance": 1952,
                "no_insee": "152033100001",
                "cle_insee": "97",
            },
            "links": {},
        },
        {
            "interface": "CONSULTATION",
            "id": "c1",
            "values": {
                "date": f"{at_year}-03-15",
                "commentaires": "contrôle annuel",
                "diagnostic": "RAS",
                "analyses": ["img-001"],
            },
            "links": {"patient": ["pa1"], "praticien": ["p3"]},
        },
    ]
    if with_extra_surgeon:
        records.append(
            {
                "interface": "PRATICIEN",
                "id": "p4",
                "values": {
                    "nom": "Roux",
                    "prénom": "Jean",
                    "adresse": _adresse("2 impasse Verte", "Muret", 31600),
                    "année_naissance": 1980,
                    "no_praticien": "PR-004",
                    "catégorie": extra_surgeon_category,
                    "spécialité": "viscérale",
                    "revenus": 70000,
                },
                "links": {"travaille": [], "dirige": []},
            }
        )
    if extra_private_team:
        records.append(
            {
                "interface": "PRATICIEN",
                "id": "p5",
                "values": {
                    "nom": "Blanc",
                    "prénom": "Eva",
                    "adresse": _adresse("9 rue Basse", "Toulouse", 31000),
                    "année_naissance": 1972,
                    "no_praticien": "PR-005",
                    "catégorie": "chirurgie",
                    "spécialité": "plastique",
                    "revenus": 95000,
                },
                "links": {"travaille": ["s4"], "dirige": ["s4"]},
            }
        )
        records.append(
            {
                "interface": "SERVICE",
                "id": "s4",
                "values": {"nom": "Chirurgie esthétique", "téléphone": "05 62 00 00 00"},
                "links": {"équipe": ["p5"], "est_dirigé": ["p5"]},
            }
        )
    return records


def store_header(line: str) -> dict:
    """The header document of a store file's first line, which a v5 file
    seals with a TAB and the document's CRC-32."""
    return json.loads(line.split("\t", 1)[0])


def sealed_header(head: dict) -> str:
    """A v5 header line for the document head, without its newline, in
    the writer's compact form."""
    text = json.dumps(head, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return f"{text}\t{zlib.crc32(text.encode('utf-8'))}"


def resealed(text: str) -> str:
    """A v5 store file's text with each index entry's CRC-32 set to its
    object line's and the header sealed again: what a writer would write
    that was handed the edited lines."""
    header, *lines = text[:-1].split("\n")
    head = store_header(header)
    for entry, line in zip(head["objects"], lines):
        entry[4] = zlib.crc32((line + "\n").encode("utf-8"))
    return "\n".join([sealed_header(head), *lines]) + "\n"


def snapshot_lines(records: list[dict]) -> list[str]:
    return [json.dumps(r, ensure_ascii=False) for r in records]


def snapshot_to_lines(snap) -> list[str]:
    """Canonical line-delimited form, keys sorted, records ordered by key."""
    lines = []
    for key in sorted(snap.records):
        rec = snap.records[key]
        doc = {
            "id": rec.id,
            "interface": rec.interface,
            "links": {k: list(v) for k, v in sorted(rec.links.items())},
            "values": rec.values,
        }
        lines.append(json.dumps(doc, ensure_ascii=False, sort_keys=True))
    return lines


def flattened(src_schema, iface: str) -> list:
    """Own plus inherited properties of an interface, supers first:
    (property name, SourceType or Relationship, owner interface) triples."""
    return list(src_schema.table(iface).flat)


def subtypes(src_schema, iface: str) -> set[str]:
    """iface plus every interface that transitively extends it."""
    return set(src_schema.table(iface).subtypes)


def find_property(src_schema, iface: str, prop: str):
    """The SourceType or Relationship of iface's (possibly inherited) prop."""
    for n, t, _owner in flattened(src_schema, iface):
        if n == prop:
            return t
    return None


@pytest.fixture()
def make_snapshot(src_schema):
    def factory(at_year: int, **knobs):
        records = hospital_records(at_year, **knobs)
        return ingest_snapshot(src_schema, snapshot_lines(records), year(at_year))

    return factory


def assert_indexes(store) -> None:
    """The store's identity and source-id indexes, and its class index's
    owning-class entries, equal ones rebuilt from its objects, the
    source-id index holding an extraction object's oid once under each
    pair of its key, and no composite's; each membership class's entry
    holds only objects of the store."""
    rebuilt: dict = {}
    for oid in sorted(store.objects):
        obj = store.objects[oid]
        if store.schema.classes[obj.class_name].role == "extraction":
            for pair in dict.fromkeys(obj.source_key):
                rebuilt.setdefault(pair, []).append(oid)
    assert {pair: sorted(oids) for pair, oids in store.source_index.items()} == rebuilt
    assert store.identity == {(o.class_name, o.source_key): oid for oid, o in store.objects.items()}
    by_class: dict = {}
    for oid, obj in store.objects.items():
        by_class.setdefault(obj.class_name, set()).add(oid)
    memberships = store.membership_classes()
    assert {n: oids for n, oids in store.by_class.items() if n not in memberships} == by_class
    for name in memberships:
        assert store.by_class.get(name, set()) <= store.objects.keys()


def store_to_dict(store) -> dict:
    """The store as one tdw-store-v1 document, the layout store files had
    before the header and one line per object: writes v1 files for the
    compatibility tests, and compares stores across the two layouts."""

    def domain_dict(d):
        return {"unit": d.unit, "intervals": [[iv.start.tick, iv.end.tick] for iv in d.intervals]}

    def state_dict(s):
        return {"domain": domain_dict(s.domain), "value": s.value}

    objects = []
    for oid in sorted(store.objects):
        obj = store.objects[oid]
        objects.append(
            {
                "oid": oid,
                "class": obj.class_name,
                "status": obj.status,
                "source_key": [list(pair) for pair in obj.source_key],
                "current": state_dict(obj.current),
                "past": [state_dict(s) for s in obj.past],
                "archives": [
                    {"domain": domain_dict(a.domain), "aggregates": a.aggregates}
                    for a in obj.archives
                ],
            }
        )
    return {
        "format": "tdw-store-v1",
        "source_schema": store.source_text,
        "warehouse_def": store.warehouse_text,
        "last_refresh": format_instant(store.last_refresh) if store.last_refresh else None,
        "oid_counter": store.oid_counter,
        "identity": [
            [cname, [list(p) for p in key], oid]
            for (cname, key), oid in sorted(store.identity.items())
        ],
        "memberships": {
            name: sorted(store.by_class[name])
            for name in sorted(store.membership_classes())
            if name in store.by_class
        },
        "objects": objects,
    }


def schema_to_dict(schema) -> dict:
    """A resolved warehouse schema as one canonical document, for
    determinism checks."""

    def config_dict(cfg):
        return {
            "refresh_period": list(cfg.refresh_period) if cfg.refresh_period else None,
            "keep_past_count": cfg.keep_past_count,
            "keep_past_duration": list(cfg.keep_past_duration) if cfg.keep_past_duration else None,
        }

    classes = {}
    for name in sorted(schema.classes):
        cls = schema.classes[name]
        classes[name] = {
            "supers": sorted(cls.supers),
            "structure": [
                {
                    "name": p.name,
                    "origin": p.origin,
                    "kind": p.kind,
                    "type": str(p.value_type) if p.value_type else None,
                    "target": p.target,
                    "cardinality": p.cardinality,
                    "inverse": p.inverse,
                    "source_path": list(p.source_path) if p.source_path else None,
                }
                for p in cls.structure
            ],
            "tempo": sorted(cls.tempo),
            "archi": dict(sorted(cls.archi.items())),
            "mapping": format_mapping(cls.mapping) if cls.mapping is not None else None,
            "source_origins": sorted(cls.source_origins),
        }
    environments = {}
    for name in sorted(schema.environments):
        env = schema.environments[name]
        environments[name] = {"classes": list(env.classes), "config": config_dict(env.config)}
    return {
        "name": schema.name,
        "classes": classes,
        "environments": environments,
        "config": config_dict(schema.global_config),
    }

"""Acceptance suite.

Each test implements one acceptance criterion end to end and prints a
PASS line on success (run with -s or -v to see them). Expected values
come from independent oracles computed inside this module, never from
the code under test.
"""

import json
import operator
import random
import time

from conftest import hospital_records, snapshot_lines, store_to_dict, year
from tdw.algebra import (
    ClassBuild,
    Row,
    build_from_interface,
    eval_aliased,
    eval_augment,
    eval_extraction,
    eval_hide,
    eval_join,
    eval_project,
    eval_select,
)
from tdw.dsl import parse_warehouse_def, resolve, resolve_with_violations
from tdw.engine import dumps_store, initial_load, refresh, save_store
from tdw.expr import AggCall, AugmentBinding, Comparison, Containment, Path, Predicate
from tdw.model import PropertyDef, effective_filters, flatten_type, is_subclass, validate_schema
from tdw.source import ingest_snapshot, parse_source_schema, scalar, set_of
from tdw.temporal import Instant, coalesce, domain_contains, domain_union, interval, validate_domain

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _passed(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {label}")


# ---------------------------------------------------------------------------
# criterion 1: paper-fixture elaboration


def test_criterion_1_fixture_elaboration(src_schema, odl_text, edw_text, edw_without_services_text):
    started = time.perf_counter()
    src = parse_source_schema(odl_text)
    schema = resolve(parse_warehouse_def(edw_text), src)
    assert len(schema.classes) == 6
    assert len(schema.environments) == 1
    assert len(schema.environments["Evolutions"].classes) == 4
    assert validate_schema(schema) == []

    _schema2, violations = resolve_with_violations(
        parse_warehouse_def(edw_without_services_text), src
    )
    closure = [v for v in violations if v.kind == "relation-closure"]
    assert len(closure) == 1 and len(violations) == 1
    assert closure[0].subject == "Services"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"elaboration took {elapsed:.3f}s"
    _passed(1, f"6 classes, 1 environment, one closure violation ({elapsed * 1000:.0f} ms)")


# ---------------------------------------------------------------------------
# criterion 2: extraction semantics against brute-force oracles


def _dict_rows(build: ClassBuild):
    names = build.names()
    return [(r.key, dict(zip(names, r.values))) for r in build.rows]


def _oracle_project(rows, names):
    return [(k, {n: v[n] for n in names}) for k, v in rows]


def _oracle_hide(rows, all_names, hidden):
    keep = [n for n in all_names if n not in hidden]
    return _oracle_project(rows, keep)


def _oracle_select(rows, name, op, lit):
    return [(k, v) for k, v in rows if v[name] is not None and _OPS[op](v[name], lit)]


def _oracle_join_contains(left: ClassBuild, right: ClassBuild, set_slot: str):
    """Nested-loop join; rows keep both sides' value tuples verbatim."""
    slot = left.names().index(set_slot)
    out = []
    for lrow in left.rows:
        for rrow in right.rows:
            if rrow.key[-1][1] in (lrow.values[slot] or []):
                out.append((lrow.key + rrow.key, lrow.values + rrow.values))
    return sorted(out)


def _oracle_aggregate(rows, fn, slot):
    out = []
    for k, v in rows:
        members = v[slot]
        if fn == "count":
            out.append((k, len(members)))
        elif fn == "sum":
            out.append((k, sum(members) if members else 0))
        elif not members:
            out.append((k, None))
        elif fn == "avg":
            out.append((k, sum(members) / len(members)))
        elif fn == "max":
            out.append((k, max(members)))
        else:
            out.append((k, min(members)))
    return out


def test_criterion_2_mapping_semantics_vs_oracles(src_schema):
    snap = ingest_snapshot(
        src_schema, snapshot_lines(hospital_records(1990)), year(1990)
    )
    assert len(snap.records) <= 30

    # hand-built snapshot, all five extraction functions row-for-row
    etab = build_from_interface(src_schema, "ETABLISSEMENT", "h", snap)
    projected = eval_project(
        [(Path(("h", "nom")), None), (Path(("h", "budget")), None)], etab
    )
    assert _dict_rows(projected) == _oracle_project(_dict_rows(etab), ["nom", "budget"])

    hidden = eval_hide([Path(("h", "adresse")), Path(("h", "statut"))], etab)
    assert _dict_rows(hidden) == _oracle_hide(
        _dict_rows(etab), etab.names(), ["adresse", "statut"]
    )

    prat = build_from_interface(src_schema, "PRATICIEN", "p", snap)
    selected = eval_select(
        Predicate((Comparison(Path(("p", "catégorie")), "=", "chirurgie"),)), prat
    )
    assert _dict_rows(selected) == _oracle_select(_dict_rows(prat), "catégorie", "=", "chirurgie")
    assert len(selected.rows) == 2

    public = eval_aliased(
        eval_select(
            Predicate((Comparison(Path(("e", "statut")), "=", "public"),)),
            build_from_interface(src_schema, "ETABLISSEMENT", "e", snap),
        ),
        "h",
    )
    services = build_from_interface(src_schema, "SERVICE", "s", snap)
    joined = eval_join(
        public, services, Predicate((Containment(Path(("h", "organisation")), "s"),))
    )
    assert [(r.key, r.values) for r in joined.rows] == _oracle_join_contains(
        public, services, "organisation"
    )
    assert len(joined.rows) == 3

    augmented = eval_augment(
        [AugmentBinding("nb", agg=AggCall("count", Path(("h", "organisation"))))], etab
    )
    assert [(k, v["nb"]) for k, v in _dict_rows(augmented)] == _oracle_aggregate(
        _dict_rows(etab), "count", "organisation"
    )

    # 1000 randomized small instances, 200 per function
    rng = random.Random(20260808)
    mismatches = 0
    for _ in range(200):
        build = _random_build(rng)
        rows = _dict_rows(build)
        names = [n for n in build.names() if rng.random() < 0.6] or ["a"]
        got = _dict_rows(eval_project([(Path((n,)), None) for n in names], build))
        mismatches += got != _oracle_project(rows, names)
    for _ in range(200):
        build = _random_build(rng)
        rows = _dict_rows(build)
        hidden_names = [n for n in build.names() if rng.random() < 0.5]
        got = _dict_rows(eval_hide([Path((n,)) for n in hidden_names], build))
        mismatches += got != _oracle_hide(rows, build.names(), hidden_names)
    for _ in range(200):
        build = _random_build(rng)
        rows = _dict_rows(build)
        op = rng.choice(list(_OPS))
        lit = rng.randrange(0, 5)
        got = _dict_rows(eval_select(Predicate((Comparison(Path(("a",)), op, lit),)), build))
        mismatches += got != _oracle_select(rows, "a", op, lit)
    for _ in range(200):
        left, right = _random_build(rng, "l"), _random_build(rng, "r")
        got = eval_join(left, right, Predicate((Containment(Path(("l", "r")), "r"),)))
        oracle = _oracle_join_contains(left, right, "r")
        mismatches += [(r.key, r.values) for r in got.rows] != oracle
    for _ in range(200):
        build = _random_build(rng)
        rows = _dict_rows(build)
        fn = rng.choice(["count", "sum", "avg", "max", "min"])
        got = eval_augment([AugmentBinding("agg", agg=AggCall(fn, Path(("bag",))))], build)
        got_pairs = [(k, v["agg"]) for k, v in _dict_rows(got)]
        mismatches += got_pairs != _oracle_aggregate(rows, fn, "bag")
    assert mismatches == 0
    _passed(2, "five extraction functions match brute-force oracles on 1000 random instances")


def _random_build(rng: random.Random, binder: str = "x") -> ClassBuild:
    structure = [
        PropertyDef("a", "derived", "attribute", scalar("long"), binder=binder),
        PropertyDef("b", "derived", "attribute", scalar("string"), binder=binder),
        PropertyDef("bag", "derived", "attribute", set_of(scalar("long")), binder=binder),
        PropertyDef("r", "derived", "association", None, "T", "many", binder=binder),
    ]
    rows = []
    for i in range(rng.randrange(0, 7)):
        rows.append(
            Row(
                ((binder.upper(), f"{binder}{i}"),),
                (
                    rng.randrange(0, 5),
                    rng.choice(["x", "y", "z"]),
                    sorted(rng.sample(range(10), rng.randrange(0, 4))),
                    sorted(rng.sample([f"r{k}" for k in range(5)], rng.randrange(0, 3))),
                ),
                ((binder, f"{binder}{i}"),),
            )
        )
    return ClassBuild(structure, rows)


# ---------------------------------------------------------------------------
# criterion 3: hierarchization laws on the fixture


def test_criterion_3_hierarchization_laws(src_schema, wdef, make_snapshot):
    from tdw.model import check_subclass_laws

    store = initial_load(src_schema, wdef, make_snapshot(1990))
    schema = store.schema
    extensions = {name: set(store.extension_of(name)) for name in schema.classes}
    pairs = [
        ("Chirurgiens", "Personnes"),
        ("Jeunes_Chirurgiens", "Chirurgiens"),
        ("Etablissements", "Hôpitaux_Publics"),
        ("Etablissements", "Services"),
    ]
    for sub, sup in pairs:
        assert is_subclass(schema, sub, sup), (sub, sup)
        assert check_subclass_laws(schema, sub, sup, extensions) == [], (sub, sup)
        # type superset: every inherited property definition is present
        sub_names = {p.name for p in flatten_type(schema, sub)}
        sup_names = {p.name for p in flatten_type(schema, sup)}
        assert sub_names >= sup_names, (sub, sup)
        # extension subset over the loaded store
        assert set(store.extension_of(sub)) <= set(store.extension_of(sup)), (sub, sup)

    # filter inheritance applies inside the environment...
    chir_tempo, chir_archi = effective_filters(schema, "Chirurgiens")
    pers_tempo, pers_archi = effective_filters(schema, "Personnes")
    assert chir_tempo >= pers_tempo and "adresse" in chir_tempo
    assert set(chir_archi) >= set(pers_archi)
    # ...and not outside it
    assert effective_filters(schema, "Jeunes_Chirurgiens") == (frozenset(), {})
    _passed(3, "subclass laws and environment-scoped filter inheritance hold")


# ---------------------------------------------------------------------------
# criterion 4: yearly replay with bounded history and exact archive means


def test_criterion_4_yearly_replay_archive_exact(src_schema, wdef, make_snapshot):
    store = initial_load(src_schema, wdef, make_snapshot(1990))
    hop_oid = next(
        oid
        for oid, obj in store.objects.items()
        if obj.class_name == "Hôpitaux_Publics" and obj.source_key == (("ETABLISSEMENT", "e1"),)
    )

    def budget(y: int) -> float:
        return float(2000000 + 50000 * (y - 1990))

    for k, y in enumerate(range(1991, 2001), start=1):
        refresh(store, make_snapshot(y))
        obj = store.objects[hop_oid]
        if k >= 4:
            assert len(obj.past) == 2 and len(obj.archives) == 1
            # oracle: the evicted states are the years before the two kept ones
            evicted = [budget(v) for v in range(1990, y - 2)]
            agg = obj.archives[0].aggregates["budget"]
            assert agg["count"] == len(evicted)
            assert agg["sum"] == sum(evicted)
            assert agg["value"] == sum(evicted) / len(evicted)  # tolerance 0
            nb = obj.archives[0].aggregates["nb_services"]
            assert nb["value"] == 2.0 and nb["count"] == len(evicted)
            assert [s.value["budget"] for s in obj.past] == [budget(y - 2), budget(y - 1)]
    _passed(4, "1 current + 2 past + 1 archive from the 4th refresh on; archive avg exact")


# ---------------------------------------------------------------------------
# criterion 5: temporal-domain invariants on 10,000 random interval sets


def test_criterion_5_temporal_invariants():
    rng = random.Random(5150)
    failures = 0
    for _ in range(10000):
        items = []
        for _k in range(rng.randrange(0, 7)):
            s = rng.randrange(0, 60)
            items.append(interval("day", s, s + rng.randrange(0, 8)))
        expected = {g for iv in items for g in range(iv.start.tick, iv.end.tick + 1)}
        d = coalesce(items, "day")
        if validate_domain(d) != []:
            failures += 1
        if set(d.granules()) != expected:
            failures += 1
        other_items = []
        for _k in range(rng.randrange(0, 5)):
            s = rng.randrange(0, 60)
            other_items.append(interval("day", s, s + rng.randrange(0, 8)))
        other = coalesce(other_items, "day")
        union = domain_union(d, other)
        if set(union.granules()) != expected | set(other.granules()):
            failures += 1
        probe = Instant("day", rng.randrange(0, 70))
        if domain_contains(d, probe) != (probe.tick in expected):
            failures += 1
    assert failures == 0
    _passed(5, "coalesce/union/contains agree with the bit-set oracle on 10,000 sets")


# ---------------------------------------------------------------------------
# criterion 6: replay determinism


def test_criterion_6_replay_determinism(src_schema, edw_text, make_snapshot, tmp_path):
    def run() -> str:
        wdef = parse_warehouse_def(edw_text)
        store = initial_load(src_schema, wdef, make_snapshot(1990))
        for y in range(1991, 2001):
            refresh(store, make_snapshot(y))
        return store

    first, second = run(), run()
    assert dumps_store(first) == dumps_store(second)
    path_a, path_b = str(tmp_path / "a.store"), str(tmp_path / "b.store")
    save_store(first, path_a)
    save_store(second, path_b)
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        assert fa.read() == fb.read()
    _passed(6, "build + 10 refreshes twice yields byte-identical store files")


# ---------------------------------------------------------------------------
# criterion 7: freeze semantics


def _object_form(store, oid) -> str:
    entry = next(o for o in store_to_dict(store)["objects"] if o["oid"] == oid)
    return json.dumps(entry, ensure_ascii=False, sort_keys=True)


def _frozen_oids(store) -> set:
    return {oid for oid, obj in store.objects.items() if obj.status == "frozen"}


def test_criterion_7_freeze_semantics(src_schema, edw_text, make_snapshot):
    for mode in ("predicate-exit", "removal"):
        wdef = parse_warehouse_def(edw_text)
        store = initial_load(src_schema, wdef, make_snapshot(1990, with_extra_surgeon=True))
        for y in (1991, 1992):
            refresh(store, make_snapshot(y, with_extra_surgeon=True))
        assert _frozen_oids(store) == set()
        target_oid = next(
            oid
            for oid, obj in store.objects.items()
            if obj.source_key == (("PRATICIEN", "p4"),)
        )
        if mode == "predicate-exit":
            knobs = dict(with_extra_surgeon=True, extra_surgeon_category="cardiologie")
        else:
            knobs = dict(with_extra_surgeon=False)
        refresh(store, make_snapshot(1993, **knobs))
        # exactly the affected object froze, one granule before the refresh
        assert _frozen_oids(store) == {target_oid}, mode
        frozen = store.objects[target_oid]
        end = frozen.current.domain.intervals[-1].end.tick
        assert end == year(1993).tick - 1
        form = _object_form(store, target_oid)
        for y in range(1994, 1999):
            refresh(store, make_snapshot(y, **knobs))
            assert _object_form(store, target_oid) == form, (mode, y)
        assert _frozen_oids(store) == {target_oid}
    _passed(7, "vanished source objects freeze at t-1 and stay byte-stable for 5 refreshes")

"""Construction algebra evaluators against brute-force oracles."""

import itertools
import random

import pytest

from conftest import hospital_records, snapshot_lines, year
from tdw.algebra import (
    ClassBuild,
    Row,
    build_from_interface,
    eval_augment,
    eval_extraction,
    eval_hide,
    eval_join,
    eval_project,
    eval_select,
    eval_specialize,
)
from tdw.errors import (
    AmbiguousProperty,
    EmptyOperands,
    NameCollision,
    NonNumericAggregate,
    TypeInferenceError,
    UnknownProperty,
)
from tdw.expr import (
    AggCall,
    AugmentBinding,
    Comparison,
    Containment,
    Path,
    Predicate,
)
from tdw.model import PropertyDef, flatten_type
from tdw.source import ingest_snapshot, scalar, set_of


@pytest.fixture()
def snap(src_schema):
    return ingest_snapshot(src_schema, snapshot_lines(hospital_records(1990)), year(1990))


@pytest.fixture()
def etab(src_schema, snap):
    return build_from_interface(src_schema, "ETABLISSEMENT", "h", snap)


def p(*segs):
    return Path(tuple(segs))


def comparison(path, op, lit):
    return Predicate((Comparison(path, op, lit),))


# ---------------------------------------------------------------------------
# hand-built random builds and independent oracles


def random_build(rng: random.Random, binder: str, rows: int | None = None) -> ClassBuild:
    structure = [
        PropertyDef("a", "derived", "attribute", scalar("long"), binder=binder),
        PropertyDef("b", "derived", "attribute", scalar("string"), binder=binder),
        PropertyDef("bag", "derived", "attribute", set_of(scalar("long")), binder=binder),
        PropertyDef("r", "derived", "association", None, "T", "many", binder=binder),
    ]
    n = rng.randrange(0, 7) if rows is None else rows
    out = []
    for i in range(n):
        key = ((binder.upper(), f"{binder}{i}"),)
        values = (
            rng.randrange(0, 5),
            rng.choice(["x", "y", "z"]),
            sorted(rng.sample(range(10), rng.randrange(0, 4))),
            sorted(rng.sample([f"t{k}" for k in range(5)], rng.randrange(0, 3))),
        )
        out.append(Row(key, values, ((binder, f"{binder}{i}"),)))
    return ClassBuild(structure, out)


def rows_as_dicts(build: ClassBuild):
    names = build.names()
    assert len(set(names)) == len(names), f"colliding property names {names}"
    return [dict(zip(names, r.values)) for r in build.rows]


def oracle_project(build: ClassBuild, names: list[str]):
    return [{n: r[n] for n in names} for r in rows_as_dicts(build)]


def oracle_hide(build: ClassBuild, names: list[str]):
    keep = [n for n in build.names() if n not in names]
    return oracle_project(build, keep)


def oracle_select(build: ClassBuild, name: str, op: str, lit):
    import operator

    table = {
        "=": operator.eq,
        "!=": operator.ne,
        "<": operator.lt,
        "<=": operator.le,
        ">": operator.gt,
        ">=": operator.ge,
    }
    return [r for r in rows_as_dicts(build) if table[op](r[name], lit)]


class TestProject:
    def test_hospital_projection(self, etab):
        out = eval_project(
            [(p("h", "nom"), None), (p("h", "adresse", "ville"), "ville"),
             (p("h", "budget"), None), (p("h", "organisation"), None)],
            etab,
        )
        assert out.names() == ["nom", "ville", "budget", "organisation"]
        assert len(out.rows) == 3
        by_key = {r.key[0][1]: dict(zip(out.names(), r.values)) for r in out.rows}
        assert by_key["e1"]["ville"] == "Toulouse"
        assert by_key["e2"]["ville"] == "Paris"

    def test_identity_projection(self, etab):
        out = eval_project([(p(n), None) for n in etab.names()], etab)
        assert out.names() == etab.names()
        assert [r.values for r in out.rows] == [r.values for r in etab.rows]

    def test_row_count_preserved_and_matches_oracle(self):
        rng = random.Random(1)
        for _ in range(50):
            build = random_build(rng, "x")
            names = [n for n in build.names() if rng.random() < 0.6] or ["a"]
            out = eval_project([(p(n), None) for n in names], build)
            assert len(out.rows) == len(build.rows)
            assert rows_as_dicts(out) == oracle_project(build, names)

    def test_unknown_property(self, etab):
        with pytest.raises(UnknownProperty):
            eval_project([(p("h", "fantôme"), None)], etab)


class TestHide:
    def test_join_hide_yields_services_structure(self, src_schema, snap):
        public = eval_select(
            comparison(p("e", "statut"), "=", "public"),
            build_from_interface(src_schema, "ETABLISSEMENT", "e", snap),
        )
        from tdw.algebra import eval_aliased

        left = eval_aliased(public, "h")
        right = build_from_interface(src_schema, "SERVICE", "s", snap)
        joined = eval_join(left, right, Predicate((Containment(p("h", "organisation"), "s"),)))
        out = eval_hide(
            [p("h", "nom"), p("h", "statut"), p("h", "adresse"), p("h", "budget"),
             p("h", "organisation"), p("s", "téléphone")],
            joined,
        )
        assert out.names() == ["nom", "équipe", "est_dirigé"]
        assert len(out.rows) == 3

    def test_unqualified_ambiguous_hide_rejected(self, src_schema, snap):
        from tdw.algebra import eval_aliased

        left = eval_aliased(build_from_interface(src_schema, "ETABLISSEMENT", "e", snap), "h")
        right = build_from_interface(src_schema, "SERVICE", "s", snap)
        joined = eval_join(left, right, Predicate((Containment(p("h", "organisation"), "s"),)))
        with pytest.raises(AmbiguousProperty):
            eval_hide([p("nom")], joined)

    def test_empty_hide_is_identity(self, etab):
        out = eval_hide([], etab)
        assert out.names() == etab.names()
        assert [r.values for r in out.rows] == [r.values for r in etab.rows]

    def test_duality_with_project(self):
        rng = random.Random(2)
        for _ in range(50):
            build = random_build(rng, "x")
            hidden = [n for n in build.names() if rng.random() < 0.5]
            out = eval_hide([p(n) for n in hidden], build)
            assert rows_as_dicts(out) == oracle_hide(build, hidden)
            complement = [n for n in build.names() if n not in hidden]
            assert rows_as_dicts(out) == rows_as_dicts(
                eval_project([(p(n), None) for n in complement], build)
            )


class TestAugment:
    def test_count_over_three_services(self, src_schema):
        # a hospital linking three services: count yields 3
        records = hospital_records(1990)
        for r in records:
            if r["id"] == "e1":
                r["links"]["organisation"] = ["s1", "s2", "s3"]
            if r["id"] == "e2":
                r["links"]["organisation"] = []
        snap = ingest_snapshot(src_schema, snapshot_lines(records), year(1990))
        build = build_from_interface(src_schema, "ETABLISSEMENT", "h", snap)
        out = eval_augment(
            [AugmentBinding("nb_services", agg=AggCall("count", p("h", "organisation")))],
            build,
        )
        by_key = {r.key[0][1]: dict(zip(out.names(), r.values)) for r in out.rows}
        assert by_key["e1"]["nb_services"] == 3
        assert by_key["e2"]["nb_services"] == 0
        # oracle: per-row length of the link set
        raw = {r.key[0][1]: dict(zip(build.names(), r.values)) for r in build.rows}
        for k, row in by_key.items():
            assert row["nb_services"] == len(raw[k]["organisation"])

    def test_specific_slot_gets_null_marker(self, etab):
        out = eval_augment([AugmentBinding("année_création", type_name="Short")], etab)
        prop = next(pr for pr in out.structure if pr.name == "année_création")
        assert prop.origin == "specific"
        assert all(dict(zip(out.names(), r.values))["année_création"] is None for r in out.rows)

    def test_empty_set_conventions(self):
        structure = [
            PropertyDef("bag", "derived", "attribute", set_of(scalar("double")), binder="x"),
        ]
        rows = [Row((("X", "x0"),), ([],), (("x", "x0"),))]
        build = ClassBuild(structure, rows)
        out = eval_augment(
            [
                AugmentBinding("s", agg=AggCall("sum", p("x", "bag"))),
                AugmentBinding("m", agg=AggCall("avg", p("x", "bag"))),
                AugmentBinding("lo", agg=AggCall("min", p("x", "bag"))),
            ],
            build,
        )
        row = dict(zip(out.names(), out.rows[0].values))
        assert row["s"] == 0
        assert row["m"] is None
        assert row["lo"] is None

    def test_numeric_aggregates_match_oracle(self):
        rng = random.Random(3)
        for _ in range(50):
            build = random_build(rng, "x")
            out = eval_augment(
                [
                    AugmentBinding("total", agg=AggCall("sum", p("x", "bag"))),
                    AugmentBinding("mean", agg=AggCall("avg", p("x", "bag"))),
                    AugmentBinding("hi", agg=AggCall("max", p("x", "bag"))),
                    AugmentBinding("n", agg=AggCall("count", p("x", "bag"))),
                ],
                build,
            )
            for before, after in zip(rows_as_dicts(build), rows_as_dicts(out)):
                bag = before["bag"]
                assert after["total"] == sum(bag)
                assert after["mean"] == (sum(bag) / len(bag) if bag else None)
                assert after["hi"] == (max(bag) if bag else None)
                assert after["n"] == len(bag)

    def test_name_collision(self, etab):
        with pytest.raises(NameCollision):
            eval_augment([AugmentBinding("nom", type_name="String")], etab)

    def test_non_numeric_aggregate(self, etab):
        with pytest.raises(NonNumericAggregate):
            eval_augment(
                [AugmentBinding("x", agg=AggCall("sum", p("h", "organisation")))], etab
            )

    def test_count_needs_a_set(self, etab):
        with pytest.raises(TypeInferenceError):
            eval_augment([AugmentBinding("x", agg=AggCall("count", p("h", "nom")))], etab)


class TestSelect:
    def test_category_filter(self, src_schema, snap):
        build = build_from_interface(src_schema, "PRATICIEN", "p", snap)
        out = eval_select(comparison(p("p", "catégorie"), "=", "chirurgie"), build)
        assert [r.key[0][1] for r in out.rows] == ["p1", "p2"]
        # oracle: brute-force filter
        expected = [
            r for r in rows_as_dicts(build) if r["catégorie"] == "chirurgie"
        ]
        assert rows_as_dicts(out) == expected

    def test_tautology_keeps_rows(self, src_schema, snap):
        build = build_from_interface(src_schema, "PRATICIEN", "p", snap)
        out = eval_select(comparison(p("p", "revenus"), ">=", 0), build)
        assert len(out.rows) == len(build.rows)

    def test_public_hospitals(self, etab):
        out = eval_select(comparison(p("h", "statut"), "=", "public"), etab)
        assert len(out.rows) == 2
        assert rows_as_dicts(out) == oracle_select(etab, "statut", "=", "public")

    def test_random_filters_match_oracle(self):
        rng = random.Random(4)
        for _ in range(60):
            build = random_build(rng, "x")
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            lit = rng.randrange(0, 5)
            out = eval_select(comparison(p("x", "a"), op, lit), build)
            assert rows_as_dicts(out) == oracle_select(build, "a", op, lit)

    def test_structure_unchanged(self, etab):
        out = eval_select(comparison(p("h", "statut"), "=", "public"), etab)
        assert out.structure == etab.structure


class TestJoin:
    def test_containment_join_row_count(self, src_schema, snap):
        from tdw.algebra import eval_aliased

        left = eval_aliased(
            eval_select(
                comparison(p("e", "statut"), "=", "public"),
                build_from_interface(src_schema, "ETABLISSEMENT", "e", snap),
            ),
            "h",
        )
        right = build_from_interface(src_schema, "SERVICE", "s", snap)
        out = eval_join(left, right, Predicate((Containment(p("h", "organisation"), "s"),)))
        # oracle: nested loops over the two extensions
        expected = 0
        for lrow in rows_as_dicts(left):
            for rrow in right.rows:
                if rrow.key[0][1] in lrow["organisation"]:
                    expected += 1
        assert expected == 3
        assert len(out.rows) == 3
        assert all(len(r.key) == 2 for r in out.rows)

    def test_false_predicate_empty(self, src_schema, snap):
        left = build_from_interface(src_schema, "ETABLISSEMENT", "e", snap)
        right = build_from_interface(src_schema, "SERVICE", "s", snap)
        out = eval_join(left, right, comparison(p("e", "nom"), "=", "✗"))
        assert out.rows == []

    def test_bounded_by_product_and_matches_nested_loop(self):
        rng = random.Random(5)
        for _ in range(40):
            left = random_build(rng, "l")
            right = random_build(rng, "r")
            out = eval_join(left, right, Predicate((Containment(p("l", "r"), "r"),)))
            assert len(out.rows) <= len(left.rows) * len(right.rows)
            expected = []
            for lrow in left.rows:
                lvals = dict(zip(["a", "b", "bag", "r"], lrow.values))
                for rrow in right.rows:
                    if rrow.binder_id("r") in lvals["r"]:
                        expected.append(lrow.key + rrow.key)
            assert [r.key for r in out.rows] == sorted(expected)

    def test_binder_collision_rejected(self):
        rng = random.Random(6)
        left = random_build(rng, "x")
        right = random_build(rng, "x")
        with pytest.raises(NameCollision):
            eval_join(left, right, comparison(p("a"), "=", 1))

    def test_nested_three_way_join(self):
        rng = random.Random(9)

        def linked_build(binder: str, n: int, targets: list[str]) -> ClassBuild:
            structure = [
                PropertyDef("a", "derived", "attribute", scalar("long"), binder=binder),
                PropertyDef("r", "derived", "association", None, "T", "many", binder=binder),
            ]
            rows = [
                Row(
                    ((binder.upper(), f"{binder}{i}"),),
                    (i, sorted(rng.sample(targets, rng.randrange(0, len(targets))))),
                    ((binder, f"{binder}{i}"),),
                )
                for i in range(n)
            ]
            return ClassBuild(structure, rows)

        c = linked_build("c", 4, ["x"])
        b = linked_build("b", 4, [f"c{i}" for i in range(4)])
        a = linked_build("a", 4, [f"b{i}" for i in range(4)])
        inner = eval_join(a, b, Predicate((Containment(p("a", "r"), "b"),)))
        outer = eval_join(inner, c, Predicate((Containment(p("b", "r"), "c"),)))
        expected = sorted(
            ar.key + br.key + cr.key
            for ar in a.rows
            for br in b.rows
            for cr in c.rows
            if br.binder_id("b") in dict(zip(a.names(), ar.values))["r"]
            and cr.binder_id("c") in dict(zip(b.names(), br.values))["r"]
        )
        assert expected, "fixture should produce at least one 3-way match"
        assert [r.key for r in outer.rows] == expected
        assert len(outer.structure) == 6  # binder-qualified, nothing lost

    def test_operands_over_one_class_build_distinct_keys(self):
        # a row's key is its operands' keys concatenated, so combinations
        # that repeat a pair in different places stay apart
        def build(binder):
            structure = [PropertyDef("a", "derived", "attribute", scalar("long"), binder=binder)]
            rows = [Row(key, (1,), ((binder, key),)) for key in [(("E", "1"),), (("E", "2"),)]]
            return ClassBuild(structure, rows)

        keys = [
            tuple(("E", i) for i in ids) for ids in itertools.product("12", repeat=3)
        ]
        out = eval_specialize(
            [("a", build("a")), ("b", build("b")), ("c", build("c"))],
            comparison(p("a", "a"), ">=", 1),
        )
        assert [r.key for r in out.rows] == keys
        pairs = eval_join(build("a"), build("b"), comparison(p("a", "a"), ">=", 1))
        out = eval_join(pairs, build("c"), comparison(p("c", "a"), ">=", 1))
        assert [r.key for r in out.rows] == keys

    def test_twenty_by_twenty_matches_nested_loop(self):
        rng = random.Random(7)
        left = random_build(rng, "l", rows=20)
        right = random_build(rng, "r", rows=20)
        out = eval_join(left, right, Predicate((Containment(p("l", "r"), "r"),)))
        expected = sorted(
            lrow.key + rrow.key
            for lrow in left.rows
            for rrow in right.rows
            if rrow.binder_id("r") in dict(zip(left.names(), lrow.values))["r"]
        )
        assert [r.key for r in out.rows] == expected
        assert len(out.rows) <= 400


class TestExtraction:
    def test_surgeons_nine_properties(self, schema, src_schema, snap):
        build = eval_extraction(schema.classes["Chirurgiens"].mapping, src_schema, snap)
        assert len(build.rows) == 2
        assert_declared_once(schema, "Chirurgiens", build)

    def test_public_hospitals_structure(self, schema, src_schema, snap):
        build = eval_extraction(schema.classes["Hôpitaux_Publics"].mapping, src_schema, snap)
        assert set(build.names()) == {
            "nom", "ville", "budget", "organisation", "nb_services", "année_création",
        }

    def test_services_structure(self, schema, src_schema, snap):
        build = eval_extraction(schema.classes["Services"].mapping, src_schema, snap)
        assert build.names() == ["nom", "équipe", "est_dirigé"]

    def test_structure_only_evaluation(self, schema, src_schema):
        build = eval_extraction(schema.classes["Chirurgiens"].mapping, src_schema, None)
        assert build.rows == []
        assert_declared_once(schema, "Chirurgiens", build)


def assert_declared_once(schema, class_name: str, build: ClassBuild) -> None:
    """Each of the class's nine declared properties has exactly one slot in
    the mapping's output, which may hold undeclared ones beside them."""
    declared = [p.name for p in flatten_type(schema, class_name)]
    assert len(declared) == 9
    names = build.names()
    assert {n: names.count(n) for n in declared} == dict.fromkeys(declared, 1)


def surgeons_build(schema, src_schema, snap) -> ClassBuild:
    return eval_extraction(schema.classes["Chirurgiens"].mapping, src_schema, snap)


def linked(rng: random.Random, binder: str, n: int, targets: list[str], carried=()) -> ClassBuild:
    """n rows whose set-valued r links to some of targets; every row also
    carries the binders in carried, as rows whose properties were hidden do."""
    structure = [
        PropertyDef("a", "derived", "attribute", scalar("long"), binder=binder),
        PropertyDef("r", "derived", "association", None, "T", "many", binder=binder),
    ]
    rows = [
        Row(
            ((binder.upper(), f"{binder}{i}"),),
            (rng.randrange(0, 3), sorted(rng.sample(targets, rng.randrange(0, len(targets) + 1)))),
            ((binder, f"{binder}{i}"),) + tuple((b, f"{b}{rng.randrange(n)}") for b in carried),
        )
        for i in range(n)
    ]
    return ClassBuild(structure, rows)


def naive_matches(sides: list[ClassBuild], pred: Predicate) -> list[tuple]:
    """Keys of every concatenated tuple satisfying pred, by brute force;
    pred holds binder-qualified ">=" comparisons and containments."""
    structure = [prop for side in sides for prop in side.structure]
    out = []
    for picked in itertools.product(*(side.rows for side in sides)):
        row = Row(
            tuple(kv for r in picked for kv in r.key),
            tuple(v for r in picked for v in r.values),
            tuple(b for r in picked for b in r.binders),
        )
        ok = True
        for atom in pred.atoms:
            binder, name = atom.path.segments
            idx = next(
                i for i, prop in enumerate(structure) if (prop.binder, prop.name) == (binder, name)
            )
            if isinstance(atom, Comparison):
                ok = ok and row.values[idx] >= atom.literal
            else:
                ok = ok and row.binder_id(atom.binder) in row.values[idx]
        if ok:
            out.append(row.key)
    return sorted(out)


class TestContainmentHashJoin:
    """Joins and specializations driven by a containment atom build only
    the tuples that can match; each case is checked against brute force."""

    def test_join_both_directions_and_extra_atoms(self):
        rng = random.Random(11)
        for _ in range(30):
            left = linked(rng, "l", rng.randrange(0, 6), [f"r{i}" for i in range(5)])
            right = linked(rng, "r", 5, [f"l{i}" for i in range(6)])
            for atoms in [
                (Containment(p("l", "r"), "r"),),
                (Comparison(p("r", "a"), ">=", 1), Containment(p("l", "r"), "r")),
                (Containment(p("r", "r"), "l"),),  # set on the right: nested loop
                (Containment(p("l", "r"), "r"), Containment(p("r", "r"), "l")),
            ]:
                pred = Predicate(atoms)
                out = eval_join(left, right, pred)
                assert [r.key for r in out.rows] == naive_matches([left, right], pred)

    def test_join_binder_carried_by_left_rows(self):
        # left rows carry a hidden "r" binder, which a joined row answers first
        rng = random.Random(12)
        for _ in range(20):
            left = linked(rng, "l", 4, [f"r{i}" for i in range(4)], carried=("r",))
            right = linked(rng, "r", 4, [])
            pred = Predicate((Containment(p("l", "r"), "r"),))
            out = eval_join(left, right, pred)
            assert [r.key for r in out.rows] == naive_matches([left, right], pred)

    def test_three_operand_specialization(self):
        rng = random.Random(13)
        for _ in range(20):
            a = linked(rng, "a", 4, [f"b{i}" for i in range(4)])
            b = linked(rng, "b", 4, [f"c{i}" for i in range(4)])
            c = linked(rng, "c", 4, [f"a{i}" for i in range(4)])
            pred = Predicate(
                (
                    Containment(p("a", "r"), "b"),
                    Comparison(p("c", "a"), ">=", 1),
                    Containment(p("b", "r"), "c"),
                    Containment(p("c", "r"), "a"),  # set after its binder: tested
                )
            )
            out = eval_specialize([("a", a), ("b", b), ("c", c)], pred)
            assert [r.key for r in out.rows] == naive_matches([a, b, c], pred)


class TestSpecialize:
    def test_young_surgeons(self, schema, src_schema, snap):
        build = surgeons_build(schema, src_schema, snap)
        out = eval_specialize(
            [("c", build)],
            comparison(p("c", "année_naissance"), ">=", 1970),
        )
        assert [r.key for r in out.rows] == [((("PRATICIEN", "p1"),))]
        assert {r.key for r in out.rows} <= {r.key for r in build.rows}

    def test_tautology_single_operand_keeps_extension(self, schema, src_schema, snap):
        build = surgeons_build(schema, src_schema, snap)
        out = eval_specialize(
            [("c", build)], comparison(p("c", "revenus"), ">=", 0)
        )
        assert [r.key for r in out.rows] == [r.key for r in build.rows]

    def test_two_operand_composite(self, schema, src_schema, snap):
        hospitals = eval_extraction(
            schema.classes["Hôpitaux_Publics"].mapping, src_schema, snap
        )
        toulouse = eval_select(comparison(p("ville"), "=", "Toulouse"), hospitals)
        services = eval_extraction(schema.classes["Services"].mapping, src_schema, snap)
        # at the build level, containment matches the right row's own id
        out = eval_specialize(
            [("e", toulouse), ("s", services)],
            Predicate((Containment(p("e", "organisation"), "s"),)),
        )
        assert set(out.names()) == set(hospitals.names()) | set(services.names())

    def test_empty_operands(self):
        with pytest.raises(EmptyOperands):
            eval_specialize([], comparison(p("x"), "=", 1))


class TestCommutation:
    def test_selection_commutes_with_projection(self):
        rng = random.Random(8)
        for _ in range(40):
            build = random_build(rng, "x")
            names = ["a", "b"]
            pred = comparison(p("a"), ">=", rng.randrange(0, 5))
            first = eval_project([(p(n), None) for n in names], eval_select(pred, build))
            second = eval_select(pred, eval_project([(p(n), None) for n in names], build))
            assert rows_as_dicts(first) == rows_as_dicts(second)


def increasing(build: ClassBuild) -> bool:
    keys = [r.key for r in build.rows]
    return all(a < b for a, b in zip(keys, keys[1:]))


class TestRowOrder:
    """Rows are ordered where keys are made: build_from_interface reads
    sorted records, eval_join and eval_specialize sort the keys they
    concatenate, and every other node keeps its input's order."""

    def test_interface_builds_are_in_key_order(self, src_schema, snap):
        for name in src_schema.interfaces:
            assert increasing(build_from_interface(src_schema, name, "x", snap))

    def test_every_node_keeps_or_makes_key_order(self):
        rng = random.Random(15)
        for _ in range(60):
            build, other = random_build(rng, "x"), random_build(rng, "y")
            lit = rng.randrange(0, 5)
            outs = [
                eval_project([(p("b"), None), (p("x", "a"), "c")], build),
                eval_hide([p("bag")], build),
                eval_augment([AugmentBinding("n", agg=AggCall("count", p("x", "bag")))], build),
                eval_select(comparison(p("x", "a"), ">=", lit), build),
                eval_join(other, build, comparison(p("y", "a"), "<=", lit)),
                eval_specialize([("y", other), ("x", build)], comparison(p("x", "a"), "!=", lit)),
                eval_specialize([("x", build)], comparison(p("x", "a"), "<", lit)),
            ]
            assert increasing(build)
            assert all(increasing(out) for out in outs)


def random_predicate(rng: random.Random, binder: str) -> Predicate:
    atoms = []
    for _ in range(rng.randrange(0, 3)):
        kind = rng.choice(["a", "b", "r"])
        if kind == "a":
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            atoms.append(Comparison(p(binder, "a"), op, rng.randrange(0, 5)))
        elif kind == "b":
            atoms.append(Comparison(p(binder, "b"), rng.choice(["=", "!="]), rng.choice("xyz")))
        else:
            atoms.append(Containment(p(binder, "r"), binder))
    return Predicate(tuple(atoms))


def test_select_picks_what_a_one_operand_specialize_picks():
    # the engine selects a membership's members with eval_select
    rng = random.Random(16)
    for _ in range(80):
        build = random_build(rng, "x")
        pred = random_predicate(rng, "x")
        selected = eval_select(pred, build)
        specialized = eval_specialize([("x", build)], pred)
        assert [r.binder_id("x") for r in selected.rows] == [
            r.binder_id("x") for r in specialized.rows
        ]

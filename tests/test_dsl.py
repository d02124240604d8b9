"""Warehouse definition language: parsing, printing, resolution."""

import hashlib
import json
import re

import pytest

from conftest import FIXTURES, find_property, schema_to_dict
from tdw import cli
from tdw.dsl import (
    parse_mapping,
    parse_warehouse_def,
    print_warehouse_def,
    resolve,
    resolve_with_violations,
)
from tdw.errors import (
    Error,
    InverseMismatch,
    ParseError,
    PropertyConflict,
    ResolveError,
    TypeInferenceError,
    UnknownClass,
    UnknownFunction,
    UnresolvedSourceProperty,
)
from tdw.expr import (
    Aliased,
    Augment,
    Comparison,
    Containment,
    Generalize,
    Hide,
    Join,
    Path,
    Predicate,
    Project,
    Select,
    SourceRef,
    Specialize,
    format_mapping,
)
from tdw.model import RetentionConfig
from tdw.source import parse_source_schema


def with_warehouse_config(edw_text: str) -> str:
    """The definition with a warehouse-wide config block before its mappings."""
    assert edw_text.count("mapping Personnes") == 1
    return edw_text.replace(
        "mapping Personnes",
        "config { refresh every 1 year; keep past 3 years; }\nmapping Personnes",
    )


class TestParseWarehouseDef:
    def test_fixture_shape(self, edw_text):
        wdef = parse_warehouse_def(edw_text)
        assert list(wdef.classes) == [
            "Personnes",
            "Chirurgiens",
            "Jeunes_Chirurgiens",
            "Hôpitaux_Publics",
            "Services",
            "Etablissements",
        ]
        assert len(wdef.environments) == 1
        env = wdef.environments["Evolutions"]
        assert env.name == "Evolutions" and len(env.classes) == 4
        assert env.config.refresh_period == (1, "year")
        assert env.config.keep_past_count == 2
        assert all(c.mapping is not None for c in wdef.classes.values())

    def test_origin_prefixes(self, edw_text):
        wdef = parse_warehouse_def(edw_text)
        hop = wdef.classes["Hôpitaux_Publics"]
        origins = {p.name: p.origin for p in hop.structure}
        assert origins["budget"] == "derived"
        assert origins["nb_services"] == "computed"
        assert origins["année_création"] == "specific"
        assert origins["organisation"] == "derived"
        kinds = {p.name: p.kind for p in hop.structure}
        assert kinds["organisation"] == "composition"

    def test_bare_attribute_defaults_to_derived(self, edw_text):
        wdef = parse_warehouse_def(edw_text)
        personnes = wdef.classes["Personnes"]
        adresse = next(p for p in personnes.structure if p.name == "adresse")
        assert adresse.origin == "derived"

    def test_minimal_class(self):
        wdef = parse_warehouse_def("interface X { }")
        assert len(wdef.classes) == 1
        assert wdef.classes["X"].tempo == () and wdef.classes["X"].archi == {}

    def test_archive_outside_filters_block_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse_warehouse_def("archive avg(revenus);")

    def test_filters_block_contents(self, edw_text):
        wdef = parse_warehouse_def(edw_text)
        chir = wdef.classes["Chirurgiens"]
        assert chir.tempo == ("spécialité", "revenus", "travaille", "dirige")
        assert list(chir.archi.items()) == [("spécialité", "last"), ("revenus", "avg")]

    @pytest.mark.parametrize(
        "archive, col",
        [("archive avg(x), sum(x);", 32), ("archive avg(x); archive last(x);", 40)],
        ids=["one-list", "two-lists"],
    )
    def test_property_archived_twice_rejected(self, tmp_path, capsys, archive, col):
        text = f"interface A {{ D_attribute Double x; }}\nwith filters {{ {archive} }}"
        with pytest.raises(ParseError) as exc:
            parse_warehouse_def(text)
        expected = "a single archive function for 'x'"
        assert (exc.value.line, exc.value.col, exc.value.expected) == (2, col, expected)
        edw = tmp_path / "twice.edw"
        edw.write_text(text, encoding="utf-8")
        odl = str(FIXTURES / "hopital.odl")
        assert cli.main(["validate", "--source-schema", odl, "--warehouse", str(edw)]) == 1
        assert capsys.readouterr().err == f"error: {edw}:2:{col}: expected {expected}\n"

    @pytest.mark.parametrize(
        "entry, position",
        [
            ("keep 1.5 past states;", (15, "an integer count (found '1.5')")),
            ("refresh every 1.5 years;", (24, "an integer count (found '1.5')")),
            ("keep past 1.5 years;", (20, "an integer count (found '1.5')")),
            ("keep past 2 yearss;", (22, "a time unit (found 'yearss')")),
            ("refresh every 1 s;", (26, "a time unit (found 's')")),
            ("refresh every 0 years;", (24, "a positive refresh period (found '0')")),
        ],
        ids=["count", "period", "duration", "two-s", "bare-s", "zero-period"],
    )
    def test_config_entry_rejected_at_its_token(self, entry, position):
        text = f"Environment E {{ class A;\nconfig {{ {entry} }} }}"
        with pytest.raises(ParseError) as exc:
            parse_warehouse_def(text)
        assert (exc.value.line, exc.value.col, exc.value.expected) == (2, *position)

    @pytest.mark.parametrize(
        "text, error, message, line, col",
        [
            ("interface A { }\ninterface A { }",
             ParseError, "a unique class name ('A' repeats)", 2, 1),
            ("interface A { }\nmapping A = p: P;\nmapping A = p: P;",
             ParseError, "a single mapping for 'A'", 3, 1),
            ("interface A { } with filters { keep x; }",
             ParseError, "'temporal' or 'archive'", 1, 32),
            ("Environment E { class A; config { keep 2 past stat; } }",
             ParseError, "'states'", 1, 47),
            ("config { hold 1; }", ParseError, "'refresh' or 'keep'", 1, 10),
            ("config { refresh every 0 years; }",
             ParseError, "a positive refresh period (found '0')", 1, 24),
            ("mapping A = select;", ParseError, "'(' after 'select'", 1, 13),
            ("mapping A = hide(a.x as y, a: P);", ParseError, "no rename inside hide", 1, 26),
            ("mapping A = augment(p: P);", ParseError, "at least one augment binding", 1, 26),
            # a name after ':' that is no type keyword starts the child
            ("mapping A = augment(x : Foo, p: P);", ParseError, "')' (found ',')", 1, 28),
            ("mapping A = augment(x, p: P);",
             ParseError, "':=' or ':' in augment binding", 1, 22),
            ("mapping A = generalize(a: X, a.nom, b: Y);",
             ParseError, "another operand (properties come before operands)", 1, 30),
            ("mapping A = project(1, p: P);", ParseError, "'ident' (found '1')", 1, 21),
        ],
        ids=[
            "class-repeated", "second-mapping", "filters-keyword", "keep-past-stat",
            "config-keyword", "warehouse-zero-period", "function-without-paren",
            "rename-inside-hide", "augment-without-binding", "specific-binding-not-a-type",
            "binding-without-colon", "operand-before-property", "project-a-number",
        ],
    )
    def test_rejection_names_its_error_and_position(self, text, error, message, line, col):
        with pytest.raises(Error) as exc:
            parse_warehouse_def(text)
        e = exc.value
        assert (type(e), e.expected, e.line, e.col) == (error, message, line, col)

    def test_config_unit_takes_one_optional_s(self):
        text = "Environment E { class A; config { refresh every 2 months; keep past 1 year; } }"
        config = parse_warehouse_def(text).environments["E"].config
        assert (config.refresh_period, config.keep_past_duration) == ((2, "month"), (1, "year"))

    def test_unknown_archive_function(self):
        text = 'interface A { D_attribute Double x; }\nwith filters { archive median(x); }'
        with pytest.raises(ParseError):
            parse_warehouse_def(text)

    def test_computed_relationship_rejected(self):
        with pytest.raises(ParseError):
            parse_warehouse_def("interface A { C_relationship Set<A> r; }")

    def test_inverse_on_another_class_names_its_line(self):
        text = "interface B { }\ninterface A { D_relationship Set<B> r inverse C::s; }"
        with pytest.raises(InverseMismatch, match=r"^line 2: 'r' declares inverse on 'C' but"):
            parse_warehouse_def(text)

    @pytest.mark.parametrize(
        "keyword, printed",
        [
            ("attribute", "D_attribute"), ("D_attribute", "D_attribute"),
            ("C_attribute", "C_attribute"), ("S_attribute", "S_attribute"),
            ("relationship", "D_relationship"), ("D_relationship", "D_relationship"),
            ("S_relationship", "S_relationship"), ("composition", "D_composition"),
            ("D_composition", "D_composition"),
        ],
    )
    def test_property_keyword_prints_prefixed(self, keyword, printed):
        member = "String x;" if keyword.endswith("attribute") else "Set<A> x;"
        wdef = parse_warehouse_def(f"interface A {{ {keyword} {member} }}")
        text = print_warehouse_def(wdef)
        assert f"    {printed} {member}" in text.splitlines()
        assert parse_warehouse_def(text).classes == wdef.classes

    def test_inverse_rule_reads_alike_in_both_languages(self, src_schema):
        decls = (
            "interface A { %s Set<B> r inverse B::x; }\n"
            "interface B { %s Set<A> x inverse A::y; }"
        )
        detail = "A.r declares inverse B::x, which is missing or does not point back"
        with pytest.raises(InverseMismatch, match=f"^line 1: {re.escape(detail)}$"):
            parse_source_schema(decls % ("relationship", "relationship"))
        wdef = parse_warehouse_def(decls % ("S_relationship", "S_relationship"))
        with pytest.raises(InverseMismatch, match=f"^{re.escape(detail)}$"):
            resolve(wdef, src_schema)

    def test_name_lists(self):
        wdef = parse_warehouse_def(
            "interface A (extend B, C) { }\nwith filters { temporal x, y; }\n"
            "Environment E { class A, B; }"
        )
        assert wdef.classes["A"].supers == ("B", "C")
        assert wdef.classes["A"].tempo == ("x", "y")
        assert wdef.environments["E"].classes == ("A", "B")
        for text in (
            "interface A (extend B, ) { }",
            "interface A { } with filters { temporal x y; }",
            "Environment E { class ; }",
        ):
            with pytest.raises(ParseError):
                parse_warehouse_def(text)

    @pytest.mark.parametrize(
        "parse, text, position",
        [
            (parse_source_schema, "interface A (extend", (1, 20, "'ident' (found 'eof')")),
            (parse_warehouse_def, "mapping X =", (2, 12, "a mapping expression")),
            (parse_warehouse_def, "interface A {", (2, 14, "a property declaration")),
            (parse_warehouse_def, "mapping X = select(p: P, p.a =",
             (2, 31, "'number' (found 'eof')")),
            (parse_warehouse_def, "mapping X = specialize(a",
             (2, 25, "a comparison operator or 'contains'")),
        ],
        ids=["odl-extend", "edw-mapping", "edw-interface", "edw-comparison", "edw-lookahead"],
    )
    def test_text_cut_at_eof_names_where_and_what(self, parse, text, position):
        if parse is parse_warehouse_def:
            text = "warehouse W;\n" + text
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col, exc.value.expected) == position


class TestParseMapping:
    def test_selection_over_source(self):
        expr = parse_mapping('select(p: PRATICIEN, p.catégorie = "chirurgie")')
        assert isinstance(expr, Select)
        assert expr.child == SourceRef("PRATICIEN", "p")
        (atom,) = expr.pred.atoms
        assert atom == Comparison(Path(("p", "catégorie")), "=", "chirurgie")

    def test_three_deep_chain_with_alias(self):
        expr = parse_mapping(
            "augment(nb_services := count(h.organisation), année_création : Short, "
            "project(h.nom, h.adresse.ville, h.budget, h.organisation, "
            'select(e: ETABLISSEMENT, e.statut = "public") as h))'
        )
        assert isinstance(expr, Augment)
        assert [b.name for b in expr.bindings] == ["nb_services", "année_création"]
        assert expr.bindings[0].agg.function == "count"
        assert expr.bindings[1].type_name == "Short"
        proj = expr.child
        assert isinstance(proj, Project)
        assert [str(p) for p, _r in proj.items] == [
            "h.nom",
            "h.adresse.ville",
            "h.budget",
            "h.organisation",
        ]
        aliased = proj.child
        assert isinstance(aliased, Aliased) and aliased.binder == "h"
        assert isinstance(aliased.child, Select)

    def test_specialization_with_unicode_operator(self):
        expr = parse_mapping("specialize(c: Chirurgiens, c.année_naissance ≥ 1970)")
        assert isinstance(expr, Specialize)
        (operand,) = expr.operands
        assert operand.binder == "c" and operand.class_name == "Chirurgiens"
        (atom,) = expr.pred.atoms
        assert atom == Comparison(Path(("c", "année_naissance")), ">=", 1970)

    def test_join_with_containment(self):
        expr = parse_mapping(
            'join(select(e: ETABLISSEMENT, e.statut = "public") as h, s: SERVICE, '
            "h.organisation contains s)"
        )
        assert isinstance(expr, Join)
        (atom,) = expr.pred.atoms
        assert atom == Containment(Path(("h", "organisation")), "s")

    def test_containment_unicode_alias(self):
        a = parse_mapping("join(h: A, s: B, h.r ∋ s)")
        b = parse_mapping("join(h: A, s: B, h.r contains s)")
        assert a == b

    def test_generalize(self):
        expr = parse_mapping(
            "generalize(c.nom, c.prénom, c.adresse, c.année_naissance, c: Chirurgiens)"
        )
        assert isinstance(expr, Generalize)
        assert len(expr.props) == 4 and len(expr.operands) == 1

    def test_operand_where_clause(self):
        expr = parse_mapping(
            'specialize(e: Hôpitaux_Publics where e.ville = "Toulouse", s: Services, '
            "e.organisation contains s)"
        )
        assert isinstance(expr, Specialize)
        assert expr.operands[0].where is not None
        assert expr.operands[1].where is None

    def test_specialize_without_operands(self):
        with pytest.raises(ParseError, match="specialize needs at least one operand"):
            parse_mapping("specialize(x.a = 1)")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse_mapping("frobnicate(p: X)")

    def test_hide(self):
        expr = parse_mapping("hide(h.nom, s.téléphone, join(h: A, s: B, h.r contains s))")
        assert isinstance(expr, Hide) and len(expr.paths) == 2

    def test_last_is_not_an_augment_function(self):
        with pytest.raises(UnknownFunction):
            parse_mapping("augment(x := last(p.revenus), p: PRATICIEN)")

    def test_conjunction(self):
        expr = parse_mapping('select(p: P, p.a = 1 and p.b != "z")')
        assert len(expr.pred.atoms) == 2
        assert parse_mapping(format_mapping(expr)) == expr

    def test_hide_requires_a_property(self):
        with pytest.raises(ParseError):
            parse_mapping("hide(join(h: A, s: B, h.r contains s))")


from hypothesis import given, strategies as st

_literal_text = st.text(
    alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
    max_size=20,
)


class TestRoundTrips:
    @given(_literal_text)
    def test_string_literals_round_trip(self, text):
        expr = Select(SourceRef("P", "p"), Predicate((Comparison(Path(("p", "x")), "=", text),)))
        assert parse_mapping(format_mapping(expr)) == expr

    @given(st.integers(min_value=-10**9, max_value=10**9))
    def test_integer_literals_round_trip(self, number):
        expr = Select(SourceRef("P", "p"), Predicate((Comparison(Path(("p", "x")), ">=", number),)))
        assert parse_mapping(format_mapping(expr)) == expr

    def test_warehouse_def_fixpoint(self, edw_text, edw_without_services_text):
        for text in (edw_text, edw_without_services_text):
            wdef = parse_warehouse_def(text)
            printed = print_warehouse_def(wdef)
            again = parse_warehouse_def(printed)
            assert print_warehouse_def(again) == printed
            assert list(again.classes) == list(wdef.classes)
            assert [c.mapping for c in again.classes.values()] == [
                c.mapping for c in wdef.classes.values()
            ]

    def test_warehouse_config_block_prints_a_fixpoint(self, edw_text):
        printed = print_warehouse_def(parse_warehouse_def(with_warehouse_config(edw_text)))
        assert "\n\nconfig {\n    refresh every 1 year;\n    keep past 3 years;\n}\n" in printed
        assert print_warehouse_def(parse_warehouse_def(printed)) == printed

    def test_warehouse_config_fills_what_an_environment_leaves_out(self, edw_text):
        wdef = parse_warehouse_def(with_warehouse_config(edw_text))
        assert wdef.retention_for(wdef.environments["Evolutions"]) == RetentionConfig(
            (1, "year"), 2, (3, "year")
        )

    @pytest.mark.parametrize(
        "path, digest",
        [
            (FIXTURES / "hopital.edw",
             "290722ac22a1fa869a7015858438ba9ad19997ea14ad6fba5c066fd9179c1090"),
            (FIXTURES.parents[1] / "bench" / "hopital.edw",
             "290722ac22a1fa869a7015858438ba9ad19997ea14ad6fba5c066fd9179c1090"),
            (FIXTURES.parents[1] / "bench" / "hopital_long.edw",
             "1148f8d1e3ddaaa585c5d88ba267b44326ceb6461c5819f04259bfbdbe5a4695"),
            (FIXTURES / "hopital_sans_services.edw",
             "50ed1b006dc83f39ffcec95285120bb12c7cfb2456b43b7fbbd030c1ec63236e"),
        ],
        ids=["fixture", "bench", "bench-long", "fixture-sans-services"],
    )
    def test_canonical_text_is_pinned(self, path, digest):
        """The printed text is what a new store's header holds."""
        printed = print_warehouse_def(parse_warehouse_def(path.read_text(encoding="utf-8")))
        assert hashlib.sha256(printed.encode("utf-8")).hexdigest() == digest

    def test_mappings_print_in_class_order(self):
        text = (
            "mapping B = project(p.nom, p: P);\n"
            "interface A { D_attribute String nom; }\n"
            "interface B { D_attribute String nom; }\n"
            "mapping A = project(p.nom, p: P);\n"
        )
        printed = print_warehouse_def(parse_warehouse_def(text))
        assert printed.splitlines()[-2:] == [
            "mapping A = project(p.nom, p: P);",
            "mapping B = project(p.nom, p: P);",
        ]
        assert print_warehouse_def(parse_warehouse_def(printed)) == printed

    def test_mapping_format_fixpoint(self, edw_text):
        wdef = parse_warehouse_def(edw_text)
        for cls in wdef.classes.values():
            assert parse_mapping(format_mapping(cls.mapping)) == cls.mapping


class TestResolve:
    def test_fixture_resolves(self, schema):
        assert len(schema.classes) == 6
        revenus = next(
            p for p in schema.classes["Chirurgiens"].structure if p.name == "revenus"
        )
        assert revenus.value_type.kind == "double"
        assert revenus.source_path == ("revenus",)

    def test_source_origins_recorded(self, schema):
        assert set(schema.classes["Chirurgiens"].source_origins) == {"PRATICIEN"}
        assert set(schema.classes["Services"].source_origins) == {
            "ETABLISSEMENT",
            "SERVICE",
        }
        assert set(schema.classes["Etablissements"].source_origins) == {
            "ETABLISSEMENT",
            "SERVICE",
        }

    def test_struct_path_provenance(self, schema):
        ville = next(
            p for p in schema.classes["Hôpitaux_Publics"].structure if p.name == "ville"
        )
        assert ville.source_path == ("adresse", "ville")

    def test_resolve_leaves_the_parsed_definition(self, src_schema, edw_text):
        wdef = parse_warehouse_def(edw_text)
        parsed = schema_to_dict(wdef)
        schema = resolve(wdef, src_schema)
        assert schema is not wdef
        assert schema_to_dict(wdef) == parsed
        assert schema_to_dict(schema) != parsed  # source origins and paths filled in

    def test_resolved_mapping_is_the_parsed_one(self, src_schema):
        # a mapping may produce properties its class does not declare, as
        # Chirurgiens's select over PRATICIEN does; resolution ignores them
        bench = FIXTURES.parents[1] / "bench"
        paths = [FIXTURES / "hopital.edw", bench / "hopital.edw", bench / "hopital_long.edw"]
        for path in paths:
            wdef = parse_warehouse_def(path.read_text(encoding="utf-8"))
            schema = resolve(wdef, src_schema)
            assert wdef.classes["Chirurgiens"].mapping is not None, path
            for name, cls in schema.classes.items():
                assert cls.mapping is wdef.classes[name].mapping, (path, name)

    def test_computed_without_binding(self, src_schema, edw_text):
        broken = edw_text.replace("nb_services := count(h.organisation), ", "")
        with pytest.raises(TypeInferenceError):
            resolve(parse_warehouse_def(broken), src_schema)

    def test_derived_absent_from_source(self, src_schema, edw_text):
        broken = edw_text.replace(
            "D_attribute String no_praticien;",
            "D_attribute String no_praticien;\n    D_attribute String fantôme;",
        )
        with pytest.raises(UnresolvedSourceProperty):
            resolve(parse_warehouse_def(broken), src_schema)

    def test_derived_type_must_match_source(self, src_schema, edw_text):
        broken = edw_text.replace(
            "D_attribute String no_praticien;", "D_attribute Long no_praticien;"
        )
        with pytest.raises(UnresolvedSourceProperty):
            resolve(parse_warehouse_def(broken), src_schema)

    def test_strict_promotes_violations(self, src_schema, edw_without_services_text):
        wdef = parse_warehouse_def(edw_without_services_text)
        with pytest.raises(ResolveError) as err:
            resolve(wdef, src_schema)
        assert [v.kind for v in err.value.violations] == ["relation-closure"]

    def test_generalize_operand_must_extend_the_super(self, src_schema, edw_text):
        broken = edw_text.replace(
            "interface Chirurgiens (extend Personnes) {", "interface Chirurgiens {"
        )
        with pytest.raises(ResolveError):
            resolve(parse_warehouse_def(broken), src_schema)

    def test_specialize_supers_must_match_operands(self, src_schema, edw_text):
        broken = edw_text.replace(
            "interface Jeunes_Chirurgiens (extend Chirurgiens) {",
            "interface Jeunes_Chirurgiens (extend Personnes) {",
        )
        with pytest.raises(ResolveError):
            resolve(parse_warehouse_def(broken), src_schema)

    def test_hierarchization_inside_extraction_rejected(self, src_schema, edw_text):
        broken = edw_text.replace(
            'mapping Chirurgiens = select(p: PRATICIEN, p.catégorie = "chirurgie");',
            'mapping Chirurgiens = select(specialize(c: Personnes, c.nom != ""), '
            'p.catégorie = "chirurgie");',
        )
        with pytest.raises(ResolveError):
            resolve(parse_warehouse_def(broken), src_schema)

    def test_circular_mappings_rejected(self):
        src = parse_source_schema("interface P { attribute String nom; }")
        wdef = parse_warehouse_def(
            "interface G { D_attribute String nom; }\n"
            "interface O (extend G) { }\n"
            "mapping G = generalize(o.nom, o: O);\n"
            'mapping O = specialize(g: G, g.nom = "x");\n'
        )
        with pytest.raises(ResolveError, match=r"circular hierarchization .*\['G', 'O'\]"):
            resolve_with_violations(wdef, src)

    def test_resolution_deterministic(self, src_schema, edw_text):
        def once():
            schema = resolve(parse_warehouse_def(edw_text), src_schema)
            return json.dumps(schema_to_dict(schema), ensure_ascii=False, sort_keys=True)

        assert once() == once()

    def test_every_derived_attribute_type_equals_source(self, schema, src_schema):
        for cls in schema.classes.values():
            if not cls.source_origins:
                continue
            for p in cls.structure:
                if p.origin != "derived" or p.is_relation or not p.source_path:
                    continue
                matches = []
                for iface in cls.source_origins:
                    t = find_property(src_schema, iface, p.source_path[0])
                    if t is None or not hasattr(t, "kind"):
                        continue
                    for seg in p.source_path[1:]:
                        t = dict(t.fields)[seg]
                    matches.append(t)
                assert p.value_type in matches, f"{cls.name}.{p.name}"

    @pytest.mark.parametrize(
        "decl, mapping, message",
        [
            ("C_attribute Short n", "augment(n := count(p.notes), p: P)", None),
            ("C_attribute Long n", "augment(n := count(p.notes), p: P)", None),
            ("C_attribute Double n", "augment(n := sum(p.notes), p: P)", None),
            ("C_attribute Double n", "augment(n := avg(p.notes), p: P)", None),
            ("C_attribute Long n", "augment(n := max(p.notes), p: P)", None),
            ("C_attribute Long n", "augment(n := min(p.notes), p: P)", None),
            ("C_attribute Double n", "augment(n := count(p.notes), p: P)",
             "W.n: count result cannot be stored as Double"),
            ("C_attribute Long n", "augment(n := sum(p.notes), p: P)",
             "W.n: sum result cannot be stored as Long"),
            ("C_attribute Short n", "augment(n := avg(p.notes), p: P)",
             "W.n: avg result cannot be stored as Short"),
            ("C_attribute Short n", "augment(n := max(p.notes), p: P)",
             "W.n: max result cannot be stored as Short"),
            # the slot that produces n is the outer augment's, not the hidden one's
            ("C_attribute Short n",
             "augment(n := avg(p.notes), hide(n, augment(n := count(p.notes), p: P)))",
             "W.n: avg result cannot be stored as Short"),
            ("C_attribute Short n",
             "augment(n := count(p.notes), hide(n, augment(n := avg(p.notes), p: P)))", None),
            ("C_attribute Long m", "project(p.nom, n as m, augment(n := count(p.notes), p: P))",
             None),
        ],
        ids=["count-short", "count-long", "sum-double", "avg-double", "max-long", "min-long",
             "count-double", "sum-long", "avg-short", "max-short", "avg-over-hidden-count",
             "count-over-hidden-avg", "renamed-count"],
    )
    def test_computed_type_rule(self, decl, mapping, message):
        """A computed property is checked against the aggregate of the
        output slot that produces it."""
        src = parse_source_schema(
            "interface P { attribute String nom; attribute Set<Long> notes; }"
        )
        wdef = parse_warehouse_def(f"interface W {{ {decl}; }}\nmapping W = {mapping};\n")
        if message is None:
            resolve(wdef, src)
        else:
            with pytest.raises(TypeInferenceError) as err:
                resolve(wdef, src)
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("interface W { D_attribute String nom; D_attribute String nom; }\n"
             "mapping W = project(p.nom, p: P);",
             PropertyConflict, "'W' declares 'nom' twice"),
            ("interface W { D_attribute String nom; }\n"
             "Environment E { class W; }\nEnvironment E { class W; }\n"
             "mapping W = project(p.nom, p: P);",
             PropertyConflict, "environment 'E' declared twice"),
            ("interface W { D_attribute String nom; }\n"
             "mapping W = project(p.nom, p: P);\nmapping Z = project(p.nom, p: P);",
             UnknownClass, "mapping declared for unknown class 'Z'"),
            ('interface V { }\nmapping V = specialize(f: Fantome, f.nom = "x");',
             UnknownClass, "mapping of 'V' names unknown class 'Fantome'"),
            ("interface G { D_attribute String nom; }\n"
             "interface O (extend G) { D_attribute String nom; }\n"
             "mapping G = generalize(o.nom, o: O);\nmapping O = project(p.nom, p: P);",
             ResolveError, "'O' must inherit 'nom' from 'G', not declare it"),
            ("interface W { D_attribute String nom; D_attribute Short age; }\n"
             "interface V (extend W) { D_attribute Short age; }\n"
             "mapping W = project(p.nom, p.age, p: P);\n"
             "mapping V = specialize(w: W, w.age > 30);",
             ResolveError,
             "'V' specializes its operands and must not declare own properties "
             "(declares ['age'])"),
            ("interface W { D_attribute String nom; }\n"
             "mapping W = join(p: P, s: S, p.sv contains s);",
             UnresolvedSourceProperty, "W.nom: mapping produces several properties named 'nom'"),
            ("interface W { D_attribute String nom; S_attribute Short k; }\n"
             "mapping W = augment(k : Long, project(p.nom, p: P));",
             TypeInferenceError, "W.k: declared Short, mapping says Long"),
            ("interface Wp { D_attribute String nom; D_relationship <Wq> sv; }\n"
             "interface Wq { D_attribute String nom; }\n"
             "mapping Wp = project(p.nom, p.sv, p: P);\nmapping Wq = project(s.nom, s: S);",
             UnresolvedSourceProperty,
             "Wp.sv: declared relation does not match the source relation"),
            ("interface Wp { D_attribute String nom; D_relationship Set<Wq> sv; }\n"
             "interface Wq { D_attribute String nom; }\n"
             "mapping Wp = project(p.nom, p.sv, p: P);\nmapping Wq = project(p.nom, p: P);",
             UnresolvedSourceProperty,
             "Wp.sv: target class 'Wq' is not built from source 'S'"),
            ("interface Wp { D_attribute String nom; D_relationship Set<Vq> sv; }\n"
             "interface Wq { D_attribute String nom; }\n"
             "interface Vq (extend Wq) { }\n"
             "mapping Wp = project(p.nom, p.sv, p: P);\nmapping Wq = project(s.nom, s: S);\n"
             'mapping Vq = specialize(q: Wq, q.nom = "x");',
             UnresolvedSourceProperty,
             "Wp.sv: target class 'Vq' is a specialization, whose members are decided "
             "after links"),
            ("interface Wp { D_attribute String nom; D_relationship Set<Vc> sv; }\n"
             "interface Wq { D_attribute String nom; }\n"
             "interface Wr { D_attribute Short age; }\n"
             "interface Vc (extend Wq, Wr) { }\n"
             "mapping Wp = project(p.nom, p.sv, p: P);\nmapping Wq = project(s.nom, s: S);\n"
             "mapping Wr = project(p.age, p: P);\n"
             "mapping Vc = specialize(q: Wq, r: Wr, r.age > 0);",
             UnresolvedSourceProperty,
             "Wp.sv: target class 'Vc' is a specialization, whose members are decided "
             "after links"),
        ],
        ids=["property-declared-twice", "environment-declared-twice",
             "mapping-of-an-unknown-class", "operand-of-an-unknown-class",
             "lifted-property-declared", "specialization-declares-its-own",
             "unhidden-join-duplicates-a-name", "specific-type-differs",
             "to-one-over-a-set-relation", "target-built-from-another-source",
             "target-a-membership", "target-a-composite"],
    )
    def test_rejected_definition(self, text, error, message):
        src = parse_source_schema(
            "interface P { attribute String nom; attribute Short age; "
            "relationship Set<S> sv inverse S::eq; }\n"
            "interface S { attribute String nom; relationship Set<P> eq inverse P::sv; }\n"
        )
        with pytest.raises(Error) as err:
            resolve(parse_warehouse_def(text), src)
        assert (type(err.value), str(err.value)) == (error, message)


PERSONNES_MAPPING = (
    "mapping Personnes = generalize(c.nom, c.prénom, c.adresse, c.année_naissance, "
    "c: Chirurgiens);"
)


class TestGeneralizeResolution:
    """The resolver's generalize rules, on the inputs the algebra's own
    generalize evaluator was once tested with."""

    def test_empty_operands(self):
        with pytest.raises(ParseError, match="generalize needs properties and operands"):
            parse_mapping("generalize(c.nom)")

    def test_unknown_lifted_property(self, src_schema, edw_text):
        broken = edw_text.replace(
            PERSONNES_MAPPING, "mapping Personnes = generalize(c.fantôme, c: Chirurgiens);"
        )
        with pytest.raises(ResolveError, match="must declare exactly"):
            resolve(parse_warehouse_def(broken), src_schema)

    def test_lift_takes_whole_properties(self, src_schema, edw_text):
        broken = edw_text.replace(
            PERSONNES_MAPPING,
            "mapping Personnes = generalize(c.adresse.ville, c: Chirurgiens);",
        )
        with pytest.raises(ResolveError, match="lifts whole properties"):
            resolve(parse_warehouse_def(broken), src_schema)

    def test_bare_property_names_lift_as_qualified_ones(self, src_schema, edw_text, schema):
        bare = edw_text.replace(
            PERSONNES_MAPPING,
            "mapping Personnes = generalize(nom, prénom, adresse, année_naissance, "
            "c: Chirurgiens);",
        )
        assert bare != edw_text
        got = schema_to_dict(resolve(parse_warehouse_def(bare), src_schema))
        want = schema_to_dict(schema)
        assert got["classes"]["Personnes"].pop("mapping") == (
            "generalize(nom, prénom, adresse, année_naissance, c: Chirurgiens)"
        )
        want["classes"]["Personnes"].pop("mapping")
        assert got == want

    def test_lifted_path_under_an_unknown_binder(self, src_schema, edw_text):
        broken = edw_text.replace(
            PERSONNES_MAPPING, PERSONNES_MAPPING.replace("c.nom,", "x.nom,", 1)
        )
        assert broken != edw_text
        with pytest.raises(ResolveError) as err:
            resolve(parse_warehouse_def(broken), src_schema)
        assert str(err.value) == "generalize path x.nom names unknown binder 'x'"

    def test_operand_where_rejected(self, src_schema, edw_text):
        broken = edw_text.replace(
            PERSONNES_MAPPING,
            PERSONNES_MAPPING.replace("c: Chirurgiens", 'c: Chirurgiens where c.nom = "zzz"'),
        )
        assert broken != edw_text
        with pytest.raises(ResolveError, match="takes no where"):
            resolve_with_violations(parse_warehouse_def(broken), src_schema)

    def test_lifted_property_differing_through_another_super(self):
        src = parse_source_schema("interface P { attribute String nom; }")
        wdef = parse_warehouse_def(
            "interface G { D_attribute String nom; }\n"
            "interface K { D_attribute Long nom; }\n"
            "interface O (extend G, K) { }\n"
            "mapping G = generalize(o.nom, o: O);\n"
            'mapping O = select(p: P, p.nom != "");\n'
        )
        _schema, violations = resolve_with_violations(wdef, src)
        assert [(v.kind, v.subject) for v in violations] == [("property-conflict", "O")]


ETABLISSEMENTS_MAPPING = (
    'mapping Etablissements = specialize(e: Hôpitaux_Publics where e.ville = "Toulouse", '
    "s: Services,\n    e.organisation contains s);"
)


class TestSpecializeResolution:
    def test_one_binder_for_two_operands_rejected(self, src_schema, edw_text):
        assert ETABLISSEMENTS_MAPPING in edw_text
        broken = edw_text.replace(
            ETABLISSEMENTS_MAPPING,
            'mapping Etablissements = specialize(e: Hôpitaux_Publics where e.ville = "Toulouse", '
            "e: Services, e.organisation contains e);",
        )
        with pytest.raises(ResolveError) as err:
            resolve(parse_warehouse_def(broken), src_schema)
        assert str(err.value) == "specialize binder 'e' names more than one operand"

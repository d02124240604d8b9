"""Warehouse definition language: parsing, printing, resolution."""

import json
import re

import pytest

from conftest import FIXTURES, find_property, schema_to_dict
from tdw.dsl import (
    parse_mapping,
    parse_warehouse_def,
    print_warehouse_def,
    resolve,
    resolve_with_violations,
)
from tdw.errors import (
    InverseMismatch,
    ParseError,
    ResolveError,
    TypeInferenceError,
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
from tdw.source import parse_source_schema


class TestParseWarehouseDef:
    def test_fixture_shape(self, edw_text):
        wdef = parse_warehouse_def(edw_text)
        assert [c.name for c in wdef.classes] == [
            "Personnes",
            "Chirurgiens",
            "Jeunes_Chirurgiens",
            "Hôpitaux_Publics",
            "Services",
            "Etablissements",
        ]
        assert len(wdef.environments) == 1
        env = wdef.environments[0]
        assert env.name == "Evolutions" and len(env.classes) == 4
        assert env.config.refresh_period == (1, "year")
        assert env.config.keep_past_count == 2
        assert set(wdef.mappings) == {c.name for c in wdef.classes}

    def test_origin_prefixes(self, edw_text):
        wdef = parse_warehouse_def(edw_text)
        hop = next(c for c in wdef.classes if c.name == "Hôpitaux_Publics")
        origins = {p.name: p.origin for p in hop.properties}
        assert origins["budget"] == "derived"
        assert origins["nb_services"] == "computed"
        assert origins["année_création"] == "specific"
        assert origins["organisation"] == "derived"
        kinds = {p.name: p.kind for p in hop.properties}
        assert kinds["organisation"] == "composition"

    def test_bare_attribute_defaults_to_derived(self, edw_text):
        wdef = parse_warehouse_def(edw_text)
        personnes = next(c for c in wdef.classes if c.name == "Personnes")
        adresse = next(p for p in personnes.properties if p.name == "adresse")
        assert adresse.origin == "derived"

    def test_minimal_class(self):
        wdef = parse_warehouse_def("interface X { }")
        assert len(wdef.classes) == 1
        assert wdef.classes[0].tempo == () and wdef.classes[0].archi == ()

    def test_archive_outside_filters_block_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse_warehouse_def("archive avg(revenus);")

    def test_filters_block_contents(self, edw_text):
        wdef = parse_warehouse_def(edw_text)
        chir = next(c for c in wdef.classes if c.name == "Chirurgiens")
        assert chir.tempo == ("spécialité", "revenus", "travaille", "dirige")
        assert chir.archi == (("last", "spécialité"), ("avg", "revenus"))

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
        assert wdef.classes[0].extends == ("B", "C")
        assert wdef.classes[0].tempo == ("x", "y")
        assert wdef.environments[0].classes == ("A", "B")
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
            assert [c.name for c in again.classes] == [c.name for c in wdef.classes]
            assert again.mappings == wdef.mappings

    def test_mapping_format_fixpoint(self, edw_text):
        wdef = parse_warehouse_def(edw_text)
        for expr in wdef.mappings.values():
            assert parse_mapping(format_mapping(expr)) == expr


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

    def test_resolved_mapping_is_the_parsed_one(self, src_schema):
        # a mapping may produce properties its class does not declare, as
        # Chirurgiens's select over PRATICIEN does; resolution ignores them
        bench = FIXTURES.parents[1] / "bench"
        paths = [FIXTURES / "hopital.edw", bench / "hopital.edw", bench / "hopital_long.edw"]
        for path in paths:
            wdef = parse_warehouse_def(path.read_text(encoding="utf-8"))
            schema = resolve(wdef, src_schema)
            assert "Chirurgiens" in wdef.mappings, path
            for name, cls in schema.classes.items():
                assert cls.mapping is wdef.mappings.get(name), (path, name)

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

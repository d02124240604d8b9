"""Temporal core: unit order, coalescing, domains, instant notation.

The independent oracle for every domain operation is a plain set of
granule integers (bit-set semantics).
"""

import random

import pytest
from hypothesis import given, strategies as st

from tdw.errors import MixedUnits, UnknownUnit
from tdw.temporal import (
    Instant,
    Interval,
    TemporalDomain,
    coalesce,
    compare_units,
    convert_count,
    domain,
    domain_contains,
    domain_union,
    extend_end,
    format_instant,
    interval,
    parse_instant,
    validate_domain,
)


def granules(d: TemporalDomain) -> set[int]:
    return set(d.granules())


def intervals_to_granules(pairs) -> set[int]:
    out = set()
    for s, e in pairs:
        out |= set(range(s, e + 1))
    return out


class TestCompareUnits:
    def test_month_finer_than_year(self):
        assert compare_units("month", "year") == "finer"

    def test_reflexive_equal(self):
        assert compare_units("year", "year") == "equal"

    def test_week_month_incomparable(self):
        # oracle: no integer number of week granules tiles a month granule
        from tdw.temporal import _UNIT_DAYS

        assert _UNIT_DAYS["month"] % _UNIT_DAYS["week"] != 0
        assert compare_units("week", "month") == "incomparable"

    def test_week_incomparable_with_month_family(self):
        for coarse in ("month", "quarter", "semester"):
            assert compare_units("week", coarse) == "incomparable"
            assert compare_units(coarse, "week") == "incomparable"

    def test_antisymmetry(self):
        units = ("year", "semester", "quarter", "month", "week", "day")
        for u1 in units:
            for u2 in units:
                r1, r2 = compare_units(u1, u2), compare_units(u2, u1)
                if r1 == "finer":
                    assert r2 == "coarser"
                elif r1 == "coarser":
                    assert r2 == "finer"
                else:
                    assert r1 == r2

    def test_transitivity(self):
        units = ("year", "semester", "quarter", "month", "week", "day")
        for a in units:
            for b in units:
                for c in units:
                    if compare_units(a, b) == "finer" and compare_units(b, c) == "finer":
                        assert compare_units(a, c) == "finer"

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnit):
            compare_units("fortnight", "year")


class TestConvertCount:
    def test_coarser_to_finer_multiplies(self):
        assert convert_count(2, "year", "month") == 24

    def test_finer_to_coarser_rounds_up(self):
        assert convert_count(13, "month", "year") == 2

    def test_incomparable_raises(self):
        with pytest.raises(MixedUnits):
            convert_count(1, "week", "month")


class TestCoalesce:
    def test_adjacent_years_merge(self):
        # oracle: granule union of {1990..1991} and {1992..1995}
        parts = [(1990, 1991), (1992, 1995)]
        expected = intervals_to_granules(parts)
        d = coalesce([interval("year", s, e) for s, e in parts], "year")
        assert granules(d) == expected
        assert [(iv.start.tick, iv.end.tick) for iv in d.intervals] == [(1990, 1995)]

    def test_empty_input(self):
        d = coalesce([], "year")
        assert d.empty and d.unit == "year"

    def test_gap_preserved_and_sorted(self):
        parts = [(1993, 1995), (1990, 1991)]
        expected = intervals_to_granules(parts)
        d = coalesce([interval("year", s, e) for s, e in parts], "year")
        assert granules(d) == expected
        assert [(iv.start.tick, iv.end.tick) for iv in d.intervals] == [
            (1990, 1991),
            (1993, 1995),
        ]

    def test_mixed_units_rejected(self):
        with pytest.raises(MixedUnits):
            coalesce([interval("month", 0, 1)], "year")

    def test_an_interval_with_bounds_in_two_units_is_rejected(self):
        with pytest.raises(MixedUnits, match="interval bounds use 'year' and 'month'"):
            Interval(Instant("year", 1990), Instant("month", 5))


class TestValidateDomain:
    def test_overlap_is_disjointness_violation(self):
        d = domain("year", (1990, 1993), (1992, 1995))
        kinds = [v.kind for v in validate_domain(d)]
        assert kinds == ["disjoint"]

    def test_canonical_two_interval_domain_ok(self):
        assert validate_domain(domain("year", (1990, 1991), (1993, 1995))) == []

    def test_contiguity_violation(self):
        # oracle: coalesce yields a different interval count
        d = domain("year", (1990, 1991), (1992, 1995))
        assert len(coalesce(list(d.intervals), "year").intervals) != len(d.intervals)
        kinds = [v.kind for v in validate_domain(d)]
        assert kinds == ["ordered-non-contiguous"]

    def test_unit_uniformity_violation(self):
        d = TemporalDomain("year", (interval("month", 0, 2),))
        assert [v.kind for v in validate_domain(d)] == ["unit-uniform"]

    def test_out_of_order_violation(self):
        d = domain("year", (1995, 1996), (1990, 1991))
        assert "ordered-non-contiguous" in [v.kind for v in validate_domain(d)]


class TestDomainUnion:
    def test_adjacent_absorbed(self):
        d = domain_union(domain("year", (1990, 1990)), domain("year", (1991, 1992)))
        assert granules(d) == intervals_to_granules([(1990, 1992)])
        assert len(d.intervals) == 1

    def test_empty_is_identity(self):
        d = domain("year", (1990, 1991), (1995, 1995))
        assert domain_union(d, domain("year")) == d

    def test_overlap_absorbed(self):
        d = domain_union(domain("year", (1990, 1991)), domain("year", (1991, 1994)))
        assert [(iv.start.tick, iv.end.tick) for iv in d.intervals] == [(1990, 1994)]

    def test_mixed_units(self):
        with pytest.raises(MixedUnits):
            domain_union(domain("year", (0, 1)), domain("month", (0, 1)))


class TestDomainContains:
    def test_gap_granule(self):
        d = domain("year", (1990, 1991), (1993, 1995))
        assert not domain_contains(d, Instant("year", 1992))

    def test_boundary_inclusive(self):
        assert domain_contains(domain("year", (1990, 1991)), Instant("year", 1990))

    def test_wrong_unit(self):
        with pytest.raises(MixedUnits):
            domain_contains(domain("year", (1990, 1991)), Instant("month", 1990))


class TestExtendEnd:
    def test_grows_last_interval(self):
        d = extend_end(domain("year", (1990, 1991)), 1993)
        assert [(iv.start.tick, iv.end.tick) for iv in d.intervals] == [(1990, 1993)]

    def test_noop_when_already_past(self):
        d = domain("year", (1990, 1995))
        assert extend_end(d, 1991) == d


# -- randomized properties against the bit-set oracle -----------------------

ticks = st.integers(min_value=0, max_value=50)


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    out = []
    for _ in range(n):
        s = draw(ticks)
        e = draw(st.integers(min_value=s, max_value=min(50, s + 10)))
        out.append(interval("day", s, e))
    return out


@given(interval_sets())
def test_coalesce_always_canonical(items):
    d = coalesce(items, "day")
    assert validate_domain(d) == []
    assert granules(d) == {g for iv in items for g in range(iv.start.tick, iv.end.tick + 1)}


@given(interval_sets())
def test_coalesce_idempotent(items):
    d = coalesce(items, "day")
    assert coalesce(list(d.intervals), "day") == d


@given(interval_sets(), interval_sets())
def test_union_matches_bitset(a, b):
    da, db = coalesce(a, "day"), coalesce(b, "day")
    assert granules(domain_union(da, db)) == granules(da) | granules(db)
    assert domain_union(da, db) == domain_union(db, da)


@given(interval_sets(), interval_sets(), interval_sets())
def test_union_associative(a, b, c):
    da, db, dc = (coalesce(x, "day") for x in (a, b, c))
    assert domain_union(domain_union(da, db), dc) == domain_union(da, domain_union(db, dc))


@given(interval_sets(), ticks)
def test_contains_matches_membership(items, t):
    d = coalesce(items, "day")
    member = any(iv.start.tick <= t <= iv.end.tick for iv in items)
    assert domain_contains(d, Instant("day", t)) == member


def test_randomized_suite_seeded():
    # a quick seeded sweep mirroring the acceptance criterion at small scale
    rng = random.Random(7)
    for _ in range(500):
        items = [
            interval("day", s, s + rng.randrange(0, 6))
            for s in (rng.randrange(0, 40) for _ in range(rng.randrange(0, 6)))
        ]
        d = coalesce(items, "day")
        assert validate_domain(d) == []


# -- textual instant notation ------------------------------------------------


class TestInstantNotation:
    def test_year_sugar(self):
        assert parse_instant("1990") == Instant("year", 20)
        assert format_instant(Instant("year", 20)) == "1990"

    def test_month_sugar(self):
        assert parse_instant("1990-03") == Instant("month", 242)
        assert format_instant(Instant("month", 242)) == "1990-03"

    def test_generic_form(self):
        assert parse_instant("quarter:-3") == Instant("quarter", -3)
        assert format_instant(Instant("week", 12)) == "week:12"

    def test_roundtrip_instants(self):
        for unit, tick in [
            ("year", -30),
            ("year", 0),
            ("year", 55),
            ("month", -1),
            ("month", 0),
            ("month", 242),
            ("day", 12345),
            ("semester", 3),
        ]:
            t = Instant(unit, tick)
            assert parse_instant(format_instant(t)) == t

    def test_roundtrip_canonical_strings(self):
        for text in ["1969", "1990", "2024", "1969-12", "1990-03", "day:0", "week:-2"]:
            assert format_instant(parse_instant(text)) == text

    def test_bad_month(self):
        with pytest.raises(ValueError):
            parse_instant("1990-13")

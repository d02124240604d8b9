"""Discrete time: units, instants, intervals, and temporal domains.

Time is linear and discrete. Each unit slices the time line into granules
of a fixed nominal size (no calendar arithmetic: a month is 30 days, a
year 360). An instant is an integer granule count since the start of 1970
in its unit; an interval is a closed granule range; a temporal domain is
the canonical form of a granule set: ordered, disjoint, non-contiguous
intervals sharing one unit.

All values here are immutable and safe to share between tasks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import MixedUnits, UnknownUnit

# Nominal granule sizes in days. The finer-than partial order is
# divisibility of these sizes: week (7) divides nothing above it, which
# keeps it incomparable with the month family.
_UNIT_DAYS = {
    "year": 360,
    "semester": 180,
    "quarter": 90,
    "month": 30,
    "week": 7,
    "day": 1,
}

UNITS = tuple(_UNIT_DAYS)

# Sugar notation anchors ticks to calendar year numbers.
_EPOCH_YEAR = 1970

_YEAR_RE = re.compile(r"^-?\d+$")
_MONTH_RE = re.compile(r"^(-?\d+)-(\d{2})$")
_GENERIC_RE = re.compile(r"^([a-z]+):(-?\d+)$")


def _days(unit: str) -> int:
    try:
        return _UNIT_DAYS[unit]
    except KeyError:
        raise UnknownUnit(f"unknown time unit {unit!r}") from None


def compare_units(u1: str, u2: str) -> str:
    """Compare two registered units under the finer-than partial order.

    Returns one of "finer", "coarser", "equal", "incomparable", where
    "finer" means u1 is finer than u2 (an integer number of u1 granules
    tiles one u2 granule).
    """
    d1, d2 = _days(u1), _days(u2)
    if u1 == u2:
        return "equal"
    if d1 < d2 and d2 % d1 == 0:
        return "finer"
    if d2 < d1 and d1 % d2 == 0:
        return "coarser"
    return "incomparable"


def convert_count(count: int, from_unit: str, to_unit: str) -> int:
    """Rescale a granule count between comparable units.

    Rounds up when moving to a coarser unit so a converted retention
    bound never shrinks below the requested span.
    """
    rel = compare_units(from_unit, to_unit)
    if rel == "equal":
        return count
    if rel == "coarser":
        return count * (_days(from_unit) // _days(to_unit))
    if rel == "finer":
        factor = _days(to_unit) // _days(from_unit)
        return -(-count // factor)
    raise MixedUnits(f"units {from_unit!r} and {to_unit!r} are incomparable")


@dataclass(frozen=True)
class Instant:
    """A single granule: unit plus tick count since the 1970 epoch."""

    unit: str
    tick: int

    def __post_init__(self):
        _days(self.unit)

    def __str__(self) -> str:
        return format_instant(self)


@dataclass(frozen=True)
class Interval:
    """Closed granule range [start, end] in one unit; never empty."""

    start: Instant
    end: Instant

    def __post_init__(self):
        if self.start.unit != self.end.unit:
            raise MixedUnits(
                f"interval bounds use {self.start.unit!r} and {self.end.unit!r}"
            )
        if self.start.tick > self.end.tick:
            raise ValueError(f"empty interval [{self.start}, {self.end}]")

    @property
    def unit(self) -> str:
        return self.start.unit

    def __str__(self) -> str:
        return f"[{self.start}..{self.end}]"


def interval(unit: str, start: int, end: int) -> Interval:
    return Interval(Instant(unit, start), Instant(unit, end))


@dataclass(frozen=True)
class TemporalDomain:
    """An ordered sequence of intervals; canonical iff validate_domain is ok.

    Construction performs no checking so that malformed domains can be
    represented and diagnosed; build canonical domains with coalesce().
    """

    unit: str
    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        _days(self.unit)

    @property
    def empty(self) -> bool:
        return not self.intervals

    def granules(self) -> Iterator[int]:
        for iv in self.intervals:
            yield from range(iv.start.tick, iv.end.tick + 1)

    def __str__(self) -> str:
        return "<" + "; ".join(str(iv) for iv in self.intervals) + ">"


def domain(unit: str, *bounds: tuple[int, int]) -> TemporalDomain:
    """Shorthand: domain("year", (1990, 1991), (1993, 1995)) with raw ticks."""
    return TemporalDomain(unit, tuple(interval(unit, s, e) for s, e in bounds))


@dataclass(frozen=True)
class DomainViolation:
    kind: str  # unit-uniform | disjoint | ordered-non-contiguous
    message: str


def coalesce(intervals: Iterable[Interval], unit: str) -> TemporalDomain:
    """Canonicalize a set of intervals into a TemporalDomain.

    The result covers exactly the union of the input granule sets;
    overlapping and adjacent intervals are merged.
    """
    items = list(intervals)
    for iv in items:
        if iv.unit != unit:
            raise MixedUnits(f"interval {iv} does not use unit {unit!r}")
    items.sort(key=lambda iv: (iv.start.tick, iv.end.tick))
    merged: list[list[int]] = []
    for iv in items:
        if merged and iv.start.tick <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], iv.end.tick)
        else:
            merged.append([iv.start.tick, iv.end.tick])
    return domain(unit, *[(s, e) for s, e in merged])


def validate_domain(d: TemporalDomain) -> list[DomainViolation]:
    """Check the domain properties; empty list means canonical. Each
    interval is non-empty already, since Interval rejects a start after
    its end."""
    out: list[DomainViolation] = []
    for iv in d.intervals:
        if iv.unit != d.unit:
            out.append(
                DomainViolation(
                    "unit-uniform", f"interval {iv} uses {iv.unit!r}, domain uses {d.unit!r}"
                )
            )
    for a, b in zip(d.intervals, d.intervals[1:]):
        if b.start.tick <= a.end.tick and a.start.tick <= b.end.tick:
            out.append(DomainViolation("disjoint", f"intervals {a} and {b} overlap"))
        elif b.end.tick < a.start.tick:
            out.append(
                DomainViolation("ordered-non-contiguous", f"intervals {a} and {b} are out of order")
            )
        elif b.start.tick == a.end.tick + 1:
            out.append(
                DomainViolation(
                    "ordered-non-contiguous", f"intervals {a} and {b} are contiguous (coalescable)"
                )
            )
    return out


def _require_same_unit(u1: str, u2: str) -> None:
    if u1 != u2:
        raise MixedUnits(f"domain units differ: {u1!r} vs {u2!r}")


def domain_union(d1: TemporalDomain, d2: TemporalDomain) -> TemporalDomain:
    _require_same_unit(d1.unit, d2.unit)
    return coalesce(list(d1.intervals) + list(d2.intervals), d1.unit)


def domain_contains(d: TemporalDomain, t: Instant) -> bool:
    _require_same_unit(d.unit, t.unit)
    return any(iv.start.tick <= t.tick <= iv.end.tick for iv in d.intervals)


def extend_end(d: TemporalDomain, tick: int) -> TemporalDomain:
    """Grow the last interval's end to tick (no-op if already past it)."""
    if not d.intervals:
        raise ValueError("cannot extend an empty domain")
    last = d.intervals[-1]
    if tick <= last.end.tick:
        return d
    grown = interval(d.unit, last.start.tick, tick)
    return TemporalDomain(d.unit, d.intervals[:-1] + (grown,))


def format_instant(t: Instant) -> str:
    """Canonical text: year and month use calendar sugar, others unit:tick."""
    if t.unit == "year":
        return str(_EPOCH_YEAR + t.tick)
    if t.unit == "month":
        year, m = divmod(t.tick, 12)
        return f"{_EPOCH_YEAR + year}-{m + 1:02d}"
    return f"{t.unit}:{t.tick}"


def parse_instant(text: str) -> Instant:
    """Inverse of format_instant; also accepts unit:tick for every unit."""
    m = _GENERIC_RE.match(text)
    if m:
        return Instant(m.group(1), int(m.group(2)))
    if _YEAR_RE.match(text):
        return Instant("year", int(text) - _EPOCH_YEAR)
    m = _MONTH_RE.match(text)
    if m:
        month = int(m.group(2))
        if not 1 <= month <= 12:
            raise ValueError(f"month out of range in instant {text!r}")
        return Instant("month", (int(m.group(1)) - _EPOCH_YEAR) * 12 + month - 1)
    raise ValueError(f"unrecognized instant notation {text!r}")

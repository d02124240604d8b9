"""A naive reference model of the refresh rules, for differential tests.

It states README's "Semantics worth knowing" directly for the hospital
warehouse of tests/fixtures/hopital.edw plus a membership, Riches, and
shares no code with tdw.engine: the mappings are written out over the
raw snapshot records, each domain is a plain set of ticks, every refresh
and patch works on a deep copy of every object, and nothing is indexed.
Objects are named by their identity (class, source key), and relation
slots hold identities, so the model never allocates an oid.

The rules it states:
- equal values carry the current state forward to the refresh instant;
- a change outside the temporal filter overwrites the current value, and
  the current state extends to the refresh instant;
- a change to a temporal-filter property historizes: the old value's
  state closes at t-1 and a new current state opens at [t, t];
- an object whose source vanishes, or leaves its selection, freezes for
  good, its current state closed at t-1;
- a link names the target class's object whose source key names the
  linked record, and of several, the one in this refresh's result: a
  service that changed hospitals is linked through its new object, and
  one that came back through its old, frozen one;
- a membership holds every object of its operand's own class that meets
  its predicate, frozen ones included, never a composite built by a
  specialization of that operand, whatever the order of the declarations;
- a past state beyond the retention bounds (by count, by duration or
  both) is evicted, and its archive-filter properties fold into one
  archive state with exact avg accumulators;
- a patch of the specific property follows the same filter rule, is
  refused on a frozen object, and a temporal patch must be dated after
  the current state.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

Identity = tuple[str, tuple[tuple[str, str], ...]]

# effective filters of hopital.edw's classes; Etablissements belongs to
# no environment, so it has none
TEMPORAL = {
    "Chirurgiens": {"adresse", "spécialité", "revenus", "travaille", "dirige"},
    "Hôpitaux_Publics": {"budget", "nb_services", "organisation"},
    "Services": {"équipe", "est_dirigé"},
    "Etablissements": set(),
}
ARCHIVE = {
    "Chirurgiens": {"spécialité": "last", "revenus": "avg"},
    "Hôpitaux_Publics": {"budget": "avg", "nb_services": "avg"},
    "Services": {},
}
EXTRACTED = ("Chirurgiens", "Hôpitaux_Publics", "Services")
OWNING = EXTRACTED + ("Etablissements",)
RELATIONS = {
    "Chirurgiens": {"travaille", "dirige"},
    "Hôpitaux_Publics": {"organisation"},
    "Services": {"équipe", "est_dirigé"},
    "Etablissements": {"organisation", "équipe", "est_dirigé"},
}
SPECIFIC = "année_création"
# the budget above which a public hospital is a member of Riches, a
# membership of Hôpitaux_Publics declared after the composite class
# Etablissements, which extends it
RICH = 1005


class Rejected(Exception):
    """The engine must refuse this command; args[0] is the error class name."""


@dataclass
class MState:
    ticks: set[int]
    value: dict[str, Any]


@dataclass
class MObject:
    current: MState
    past: list[MState] = field(default_factory=list)
    archive: MState | None = None  # value holds the aggregates
    frozen: bool = False


def _extend(ticks: set[int], tick: int) -> set[int]:
    """The domain grown to end at tick; unchanged if it already reaches it."""
    return ticks | set(range(max(ticks) + 1, tick + 1))


@dataclass
class ReferenceWarehouse:
    keep_count: int | None
    keep_years: int | None
    temporal_creation: bool = False  # année_création in the hospitals' temporal filter
    objects: dict[Identity, MObject] = field(default_factory=dict)
    memberships: dict[str, set[Identity]] = field(default_factory=dict)
    last: int | None = None

    # -- commands ------------------------------------------------------------

    def refresh(self, records: list[dict], t: int) -> tuple[dict[str, dict[str, int]], list]:
        """Apply one snapshot at tick t (the first one loads); return the
        counts per class and the warnings. Raises Rejected and changes
        nothing on refusal."""
        work = copy.deepcopy(self)
        counts = work._apply(records, t)
        warnings = []
        if self.last is not None and t - self.last != 1:  # "refresh every 1 year"
            warnings.append("environment 'Evolutions': declared refresh period is 1 year(s) "
                            f"but {t - self.last} elapsed")
        self.objects, self.memberships, self.last = work.objects, work.memberships, t
        return counts, warnings

    def patch(self, ident: Identity, value: Any, t: int) -> None:
        work = copy.deepcopy(self.objects)
        obj = work[ident]
        if obj.frozen:
            raise Rejected("FrozenObject")
        new = {**obj.current.value, SPECIFIC: value}
        if new == obj.current.value:
            return
        if self.temporal_creation:
            if t <= max(obj.current.ticks):
                raise Rejected("NonMonotonicInstant")
            obj.past.append(obj.current)
            obj.current = MState({t}, new)
        else:
            obj.current = MState(_extend(obj.current.ticks, t), new)
        self.objects = work

    # -- queries -------------------------------------------------------------

    def value_at(self, ident: Identity, t: int):
        obj = self.objects[ident]
        if t in obj.current.ticks:
            return ("current", obj.current.value)
        for s in obj.past:
            if t in s.ticks:
                return ("past", s.value)
        if obj.archive is not None and t in obj.archive.ticks:
            return ("archive", obj.archive.value)
        return None

    def extensions(self) -> dict[str, set[Identity]]:
        own = {c: {i for i in self.objects if i[0] == c} for c in OWNING}
        return {
            "Personnes": own["Chirurgiens"],
            "Chirurgiens": own["Chirurgiens"],
            "Jeunes_Chirurgiens": self.memberships["Jeunes_Chirurgiens"],
            "Riches": self.memberships["Riches"],
            "Hôpitaux_Publics": own["Hôpitaux_Publics"] | own["Etablissements"],
            "Services": own["Services"] | own["Etablissements"],
            "Etablissements": own["Etablissements"],
        }

    # -- one extraction point ------------------------------------------------

    def _apply(self, records: list[dict], t: int) -> dict[str, dict[str, int]]:
        initial = self.last is None
        counts = {c: dict.fromkeys(("created", "carried", "updated", "historized", "frozen",
                                    "archived_evictions"), 0) for c in OWNING}
        rows = _extraction_rows(records)
        created = set()
        for ident in rows:  # every new object exists before any link resolves
            if ident not in self.objects:
                self.objects[ident] = MObject(MState({t}, {}))
                created.add(ident)
                counts[ident[0]]["created"] += 1
        for cname in EXTRACTED:
            for ident, (values, links) in rows.items():
                if ident[0] != cname or self.objects[ident].frozen:
                    continue
                value = dict(values)
                for prop, (target, iface, ids, many) in links.items():
                    hits = [self._resolve(target, iface, rid, rows) for rid in ids]
                    value[prop] = sorted(hits) if many else (hits[0] if hits else None)
                if cname == "Hôpitaux_Publics":
                    value[SPECIFIC] = self.objects[ident].current.value.get(SPECIFIC)
                self._diff(ident, value, t, ident in created, counts)
            self._freeze(cname, {i for i in rows if i[0] == cname}, t)
        self.memberships = {
            "Jeunes_Chirurgiens": self._members(
                "Chirurgiens", lambda v: v["année_naissance"] >= 1970),
            "Riches": self._members("Hôpitaux_Publics", lambda v: v["budget"] > RICH),
        }
        composite_rows = self._composite_rows()
        for ident, value in composite_rows.items():
            if ident not in self.objects:
                self.objects[ident] = MObject(MState({t}, value))
                counts["Etablissements"]["created"] += 1
            elif not self.objects[ident].frozen:
                self._diff(ident, value, t, False, counts)
        self._freeze("Etablissements", set(composite_rows), t)
        if not initial:
            for ident, obj in self.objects.items():
                if ident[0] in ARCHIVE:
                    counts[ident[0]]["archived_evictions"] += self._evict(ident, obj, t)
        for ident, obj in self.objects.items():
            counts[ident[0]]["frozen"] += obj.frozen
        return counts

    def _members(self, cname: str, holds) -> set[Identity]:
        return {i for i, o in self.objects.items() if i[0] == cname and holds(o.current.value)}

    def _resolve(self, target: str, iface: str, rid: str, result) -> Identity:
        """The one object of the target class (or, failing that, of its
        extension) whose source key names the linked record, the ones in
        result, this refresh's extraction result, coming first."""
        named = [i for i in self.objects if (iface, rid) in i[1]]
        hits = [i for i in named if i[0] == target]
        if not hits:
            sub = {"Services": "Etablissements"}.get(target)
            hits = [i for i in named if i[0] == sub]
        hits = [i for i in hits if i in result] or hits
        if len(hits) != 1:
            raise Rejected("DanglingRelationTarget")
        return hits[0]

    def _diff(self, ident: Identity, value: dict, t: int, new: bool, counts) -> None:
        obj = self.objects[ident]
        c = counts[ident[0]]
        old = obj.current
        if new:
            obj.current = MState(old.ticks, value)
        elif old.value == value:
            obj.current = MState(_extend(old.ticks, t), old.value)
            c["carried"] += 1
        elif {p for p in value if value.get(p) != old.value.get(p)} & self._temporal(ident[0]):
            obj.past.append(MState(_extend(old.ticks, t - 1), old.value))
            obj.current = MState({t}, value)
            c["historized"] += 1
        else:
            obj.current = MState(_extend(old.ticks, t), value)
            c["updated"] += 1

    def _temporal(self, cname: str) -> set[str]:
        extra = {SPECIFIC} if self.temporal_creation and cname == "Hôpitaux_Publics" else set()
        return TEMPORAL[cname] | extra

    def _freeze(self, cname: str, present: set[Identity], t: int) -> None:
        for ident, obj in self.objects.items():
            if ident[0] == cname and not obj.frozen and ident not in present:
                obj.frozen = True
                obj.current = MState(_extend(obj.current.ticks, t - 1), obj.current.value)

    def _composite_rows(self) -> dict[Identity, dict]:
        out = {}
        for h, ho in self.objects.items():
            if h[0] != "Hôpitaux_Publics" or ho.frozen or ho.current.value["ville"] != "Toulouse":
                continue
            for s, so in self.objects.items():
                if s[0] != "Services" or so.frozen or s not in ho.current.value["organisation"]:
                    continue
                out[("Etablissements", h[1] + s[1])] = {**ho.current.value, **so.current.value}
        return out

    def _evict(self, ident: Identity, obj: MObject, t: int) -> int:
        evicted = 0
        while obj.past:
            over_count = self.keep_count is not None and len(obj.past) > self.keep_count
            over_age = self.keep_years is not None and t - max(obj.past[0].ticks) > self.keep_years
            if not (over_count or over_age):
                break
            old = obj.past.pop(0)
            archi = ARCHIVE[ident[0]]
            if archi:
                obj.archive = _fold(obj.archive, old, archi)
            evicted += 1
        return evicted


def _fold(archive: MState | None, old: MState, archi: dict[str, str]) -> MState:
    aggregates = copy.deepcopy(archive.value) if archive else {}
    for prop, fn in archi.items():
        v = old.value.get(prop)
        entry = aggregates.setdefault(prop, {"function": fn})
        if fn == "last":
            entry["value"] = v
        elif v is None:
            entry.setdefault("value", None)
        else:  # avg, with exact accumulators
            entry["count"] = entry.get("count", 0) + 1
            entry["sum"] = entry.get("sum", 0) + v
            entry["value"] = entry["sum"] / entry["count"]
    ticks = (archive.ticks if archive else set()) | old.ticks
    return MState(ticks, aggregates)


def _extraction_rows(records: list[dict]) -> dict[Identity, tuple[dict, dict]]:
    """hopital.edw's extraction mappings over the raw records: identity ->
    (values without relations, relation slot -> (target class, source
    interface, linked ids, many))."""
    rows = {}
    by_id = {(r["interface"], r["id"]): r for r in records}
    for r in records:
        v, links = r["values"], r["links"]
        if r["interface"] == "PRATICIEN" and v["catégorie"] == "chirurgie":
            key = (("PRATICIEN", r["id"]),)
            values = {p: v[p] for p in ("nom", "prénom", "adresse", "année_naissance",
                                        "no_praticien", "spécialité")}
            values["revenus"] = float(v["revenus"])
            rows[("Chirurgiens", key)] = (values, {
                "travaille": ("Services", "SERVICE", links["travaille"], True),
                "dirige": ("Services", "SERVICE", links["dirige"], False),
            })
        if r["interface"] == "ETABLISSEMENT" and v["statut"] == "public":
            key = (("ETABLISSEMENT", r["id"]),)
            values = {"nom": v["nom"], "ville": v["adresse"]["ville"],
                      "budget": float(v["budget"]), "nb_services": len(links["organisation"])}
            rows[("Hôpitaux_Publics", key)] = (values, {
                "organisation": ("Services", "SERVICE", links["organisation"], True),
            })
            for sid in links["organisation"]:
                s = by_id[("SERVICE", sid)]
                rows[("Services", key + (("SERVICE", sid),))] = ({"nom": s["values"]["nom"]}, {
                    "équipe": ("Chirurgiens", "PRATICIEN", s["links"]["équipe"], True),
                    "est_dirigé": ("Chirurgiens", "PRATICIEN", s["links"]["est_dirigé"], False),
                })
    return rows

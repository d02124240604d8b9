"""Seeded generator of yearly snapshots of the hospital source.

The shape follows the hospital fixture (``tests/fixtures/hopital.odl``):
public hospitals own services staffed by surgeons, private clinics own
services staffed by other practitioners, and patients have one
consultation a year. Only the records' size and drift are scaled.

Every snapshot is valid for ``tdw.source.ingest_snapshot``: links and
their inverses agree, each service belongs to exactly one establishment,
and no surgeon works in a private clinic (the warehouse keeps only
public services, so such a link would have no target).

Drift is drawn as exact counts (a fraction of the population, rounded),
so the amount of change per year is the same for every seed and only
which records change depends on it. The generator also returns its own
ground truth per year: the surgeons hired and the public hospitals whose
budget changed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

CITIES = [
    ("Toulouse", 31000),
    ("Paris", 75014),
    ("Lyon", 69003),
    ("Bordeaux", 33000),
    ("Montpellier", 34000),
]
SURNAMES = ["Bernard", "Dupont", "Petit", "Martin", "Roux", "Blanc", "Durand", "Moreau",
            "Laurent", "Simon", "Michel", "Lefèvre", "Garcia", "Faure", "André", "Mercier"]
FIRST_NAMES = ["Alice", "Marc", "Claire", "Luc", "Jean", "Eva", "Paul", "Léa", "Hugo",
               "Chloé", "Louis", "Inès", "Jules", "Zoé", "Noé", "Anaïs"]
SPECIALTIES = ["orthopédie", "cardiaque", "viscérale", "plastique", "neurochirurgie",
               "thoracique", "vasculaire", "pédiatrique"]
SERVICE_NAMES = ["Chirurgie générale", "Chirurgie cardiaque", "Chirurgie viscérale",
                 "Orthopédie", "Neurochirurgie", "Chirurgie thoracique"]
OTHER_CATEGORIES = ["cardiologie", "pédiatrie", "radiologie", "dermatologie"]
STREETS = ["rue des Lilas", "avenue Foch", "place du Capitole", "rue Neuve",
           "impasse Verte", "rue Basse", "boulevard Carnot", "allée des Pins"]


@dataclass(frozen=True)
class Drift:
    """Yearly fractions of change; each is applied as an exact count."""

    budget: float = 0.1  # public hospitals whose budget changes (temporal)
    income: float = 0.1  # surgeons whose income changes (temporal)
    address: float = 0.02  # surgeons who move house (temporal)
    move: float = 0.02  # surgeons who change service (temporal)
    rename: float = 0.01  # surgeons and services renamed (non-temporal)
    retire: float = 0.01  # surgeons who leave the source
    hire: float = 0.01  # new surgeons, relative to the current staff


@dataclass(frozen=True)
class Shape:
    hospitals: int  # public hospitals
    services_per_hospital: int = 4
    surgeons_per_service: int = 3
    private_clinics: int = 8
    patients: int = 180


@dataclass
class Year:
    year: int
    lines: list[str]
    hires: int  # surgeons that are new this year
    budget_changed: set[str] = field(default_factory=set)  # public hospital ids


class HospitalSource:
    """Evolving hospital source; ``next_year()`` yields one snapshot."""

    def __init__(self, seed: int, shape: Shape, drift: Drift, first_year: int = 2000):
        self.rng = random.Random(seed)
        self.drift = drift
        self.year = first_year - 1
        self.started = False
        self.next_id = 0
        self.establishments: dict[str, dict] = {}
        self.services: dict[str, dict] = {}
        self.practitioners: dict[str, dict] = {}
        self.patients: dict[str, dict] = {}
        for _ in range(shape.hospitals):
            self._add_establishment("public", shape.services_per_hospital,
                                    shape.surgeons_per_service, "chirurgie")
        for _ in range(shape.private_clinics):
            self._add_establishment("privé", 2, 3, None)
        for _ in range(shape.patients):
            pid = self._fresh("pa")
            self.patients[pid] = {
                "nom": self.rng.choice(SURNAMES),
                "prénom": self.rng.choice(FIRST_NAMES),
                "adresse": self._address(),
                "année_naissance": self.rng.randint(1930, 2010),
                "no_insee": f"{self.rng.randrange(10**12):012d}",
                "cle_insee": f"{self.rng.randrange(1, 98):02d}",
            }

    # -- population ----------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self.next_id += 1
        return f"{prefix}{self.next_id}"

    def _address(self) -> dict:
        city, cp = self.rng.choice(CITIES)
        street = f"{self.rng.randint(1, 200)} {self.rng.choice(STREETS)}"
        return {"libelle": street, "ville": city, "code_postal": cp}

    def _add_establishment(self, statut: str, n_services: int, team: int, category) -> None:
        eid = self._fresh("e" if statut == "public" else "k")
        # cities in turn: a fixed share of hospitals is in Toulouse, so the
        # composite class Etablissements has the same size for every seed
        city, cp = CITIES[len(self.establishments) % len(CITIES)]
        self.establishments[eid] = {
            "nom": f"{'CHU' if statut == 'public' else 'Clinique'} {eid}",
            "statut": statut,
            "adresse": {"libelle": f"{self.rng.randint(1, 400)} avenue {eid}",
                        "ville": city, "code_postal": cp},
            "budget": float(self.rng.randrange(500, 5000) * 1000),
            "services": [],
        }
        for _ in range(n_services):
            sid = self._fresh("s")
            self.services[sid] = {
                "nom": self.rng.choice(SERVICE_NAMES),
                "téléphone": f"0{self.rng.randint(1, 5)} {self.rng.randrange(10**8):08d}",
                "team": [],
                "director": None,
            }
            self.establishments[eid]["services"].append(sid)
            for i in range(team):
                pid = self._hire(sid, category)
                if i == 0:
                    self.services[sid]["director"] = pid

    def _hire(self, sid: str | None, category: str | None) -> str:
        pid = self._fresh("p")
        self.practitioners[pid] = {
            "nom": self.rng.choice(SURNAMES),
            "prénom": self.rng.choice(FIRST_NAMES),
            "adresse": self._address(),
            "année_naissance": self.rng.randint(1950, 1995),
            "no_praticien": f"PR-{pid}",
            "catégorie": category or self.rng.choice(OTHER_CATEGORIES),
            "spécialité": self.rng.choice(SPECIALTIES),
            "revenus": float(self.rng.randrange(60, 200) * 1000),
            "service": sid,
        }
        if sid is not None:
            self.services[sid]["team"].append(pid)
        return pid

    def _public_services(self) -> list[str]:
        return [sid for e in self.establishments.values() if e["statut"] == "public"
                for sid in e["services"]]

    def _surgeons(self) -> list[str]:
        return [p for p, v in self.practitioners.items() if v["catégorie"] == "chirurgie"]

    def _members(self) -> list[str]:
        """Surgeons who direct no service: the ones that may move or retire."""
        directors = {s["director"] for s in self.services.values()}
        return [p for p in self._surgeons() if p not in directors]

    def _pick(self, population: list[str], fraction: float) -> list[str]:
        k = min(len(population), round(fraction * len(population)))
        return self.rng.sample(population, k)

    # -- yearly drift --------------------------------------------------------

    def _drift(self, out: Year) -> None:
        d = self.drift
        public = [e for e, v in self.establishments.items() if v["statut"] == "public"]
        for eid in self._pick(public, d.budget):
            self.establishments[eid]["budget"] += float(self.rng.choice([-1, 1])
                                                        * self.rng.randint(1, 50) * 1000)
            out.budget_changed.add(eid)
        surgeons = self._surgeons()
        for pid in self._pick(surgeons, d.income):
            self.practitioners[pid]["revenus"] += float(self.rng.randint(1, 20) * 500)
        for pid in self._pick(surgeons, d.address):
            self.practitioners[pid]["adresse"] = self._address()
        for pid in self._pick(surgeons, d.rename):
            self.practitioners[pid]["nom"] += "-" + self.rng.choice(SURNAMES)
        for sid in self._pick(self._public_services(), d.rename):
            self.services[sid]["nom"] += " " + str(self.year)
        services = self._public_services()
        for pid in self._pick(self._members(), d.move):
            old = self.practitioners[pid]["service"]
            new = self.rng.choice([s for s in services if s != old])
            self.services[old]["team"].remove(pid)
            self.services[new]["team"].append(pid)
            self.practitioners[pid]["service"] = new
        for pid in self._pick(self._members(), d.retire):
            self.services[self.practitioners[pid]["service"]]["team"].remove(pid)
            del self.practitioners[pid]
        hires = round(d.hire * len(self._surgeons()))
        for _ in range(hires):
            self._hire(self.rng.choice(services), "chirurgie")
        out.hires = hires

    # -- snapshots -----------------------------------------------------------

    def next_year(self) -> Year:
        self.year += 1
        out = Year(self.year, [], 0)
        if self.started:
            self._drift(out)
        else:
            self.started = True
            out.hires = len(self._surgeons())
        out.lines = [json.dumps(r, ensure_ascii=False) for r in self._records()]
        return out

    def _records(self) -> list[dict]:
        records = []
        for eid, e in self.establishments.items():
            records.append({
                "interface": "ETABLISSEMENT", "id": eid,
                "values": {k: e[k] for k in ("nom", "statut", "adresse", "budget")},
                "links": {"organisation": list(e["services"])},
            })
        for sid, s in self.services.items():
            records.append({
                "interface": "SERVICE", "id": sid,
                "values": {"nom": s["nom"], "téléphone": s["téléphone"]},
                "links": {"équipe": list(s["team"]),
                          "est_dirigé": [s["director"]] if s["director"] else []},
            })
        directs = {s["director"]: sid for sid, s in self.services.items() if s["director"]}
        for pid, p in self.practitioners.items():
            values = {k: v for k, v in p.items() if k != "service"}
            records.append({
                "interface": "PRATICIEN", "id": pid, "values": values,
                "links": {"travaille": [p["service"]] if p["service"] else [],
                          "dirige": [directs[pid]] if pid in directs else []},
            })
        others = [p for p, v in self.practitioners.items() if v["catégorie"] != "chirurgie"]
        for n, (paid, pa) in enumerate(self.patients.items()):
            records.append({"interface": "PATIENT", "id": paid, "values": pa, "links": {}})
            records.append({
                "interface": "CONSULTATION", "id": f"c{self.year}-{n}",
                "values": {
                    "date": f"{self.year}-{self.rng.randint(1, 12):02d}-{self.rng.randint(1, 28):02d}",
                    "commentaires": "contrôle annuel",
                    "diagnostic": self.rng.choice(["RAS", "suivi", "à revoir"]),
                    "analyses": [f"img-{self.year}-{n}"],
                },
                "links": {"patient": [paid], "praticien": [self.rng.choice(others)]},
            })
        return records

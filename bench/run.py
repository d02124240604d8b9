#!/usr/bin/env python3
"""Benchmark of tdw's build, refresh and inspect commands.

Usage, from the root of a checkout (tdw need not be installed):

    python3 bench/run.py --workload large_store --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

A workload generates yearly snapshots of a synthetic hospital source from
its seed, then drives the real commands in-process, one client in a
closed loop: ``tdw build`` of the first year, ``tdw refresh`` of each
later year, and ``tdw inspect`` queries on the resulting store. Every
output is checked outside the timed sections. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
measured through ``tdw.cli.main``; with ``--trace 1`` they are the
per-layer ones, from a step-by-step replay that records a span around each
call into a layer (see ``replay.py``), and the tracing overhead. The exit
code is 0 only when every command and check passed. See README.md.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

from gen import Drift, HospitalSource, Shape  # noqa: E402  (bench/ is on sys.path)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    drift: Drift
    warehouse: str  # definition file in bench/
    years: int  # snapshots: one build, then years - 1 refreshes
    builds: int  # builds of the first snapshot per replay; the last one is refreshed
    setups: int  # set-ups per run; setup_s is their median
    queries: int  # inspect queries in the plan
    store_in_setup: bool = False  # set-up also builds the store the queries read


WORKLOADS = {
    w.name: w
    for w in [
        # a store large next to its yearly change set: link resolution and
        # the join dominate, history stays bounded (keep 2 past states)
        Workload("large_store", Shape(40), Drift(), "hopital.edw",
                 years=4, builds=2, setups=7, queries=40),
        # small store, deep history (keep past 20 years) and most values
        # changing every year: copying and serialising history dominate
        Workload("long_history", Shape(8, private_clinics=2, patients=20),
                 Drift(budget=0.9, income=0.9, address=0.1, move=0.05, rename=0.02,
                       retire=0.02, hire=0.02),
                 "hopital_long.edw", years=41, builds=5, setups=7, queries=40),
        # reads beside the writes: queries load a store with past and
        # archived states, so loading, not refreshing, is the cost
        Workload("inspect_reads", Shape(40, private_clinics=4, patients=90),
                 Drift(budget=0.4, income=0.4, address=0.05, move=0.05),
                 "hopital.edw", years=6, builds=1, setups=3, queries=240, store_in_setup=True),
    ]
}

END_TO_END = {
    "setup_s": "s", "build_s": "s", "refresh_s": "s", "inspect_p50_s": "s",
    "inspect_p90_s": "s", "store_bytes": "bytes", "peak_rss_mib": "MiB",
}
SPANS = [
    "cmd.build", "cmd.refresh", "cmd.inspect", "engine.initial_load", "engine.refresh",
    "engine.load_store", "engine.save_store", "engine.dumps_store", "engine.extension_of",
    "engine.value_at", "source.ingest", "dsl.parse", "dsl.resolve", "algebra.extract",
    "algebra.join",
]
REPORT_COUNTS = ["created", "carried", "updated", "historized", "frozen", "archived_evictions"]
PER_LAYER = {
    **{f"{s}_s": "s" for s in SPANS},
    **{f"{s}.self_s": "s" for s in SPANS if s.startswith("cmd.")},
    "source.records": "count", "source.links": "count", "source.snapshot_bytes": "bytes",
    "algebra.rows": "count", "algebra.join_pairs": "count", "algebra.join_hit_ratio": "ratio",
    **{f"engine.{c}": "count" for c in REPORT_COUNTS},
    "engine.objects": "count", "engine.past_states": "count", "engine.archive_states": "count",
    "engine.relation_slots": "count", "engine.bytes_written": "bytes",
    **{f"engine.value_at.{k}": "count" for k in ("current", "past", "archive", "absent")},
    "trace.overhead_frac": "ratio", "failed_ops_frac": "ratio",
}


# The speed of a shared host drifts by tens of percent within seconds.
# A fixed calibration workload (JSON round trip, deep copy and sort of
# records shaped like tdw's) is therefore timed before and after every
# command, and the command's time is scaled by CALIBRATION_S over the mean
# of the two readings: reported times read as seconds on a host where the
# calibration takes CALIBRATION_S. The raw times are printed beside them.
CALIBRATION_S = 0.02
_CALIBRATION_DOC = [
    {"id": f"r{i}", "interface": "X",
     "values": {"n": i, "nom": f"nom-{i}", "budget": i * 1.5,
                "adresse": {"libelle": f"{i} rue", "ville": "Toulouse", "code_postal": 31000}},
     "links": {"a": [f"x{j}" for j in range(i % 5)]}}
    for i in range(800)
]


def calibrate() -> float:
    """Seconds for the fixed workload, garbage collector off: the heap the
    benchmark happens to hold must not change the reading."""
    gc.disable()
    try:
        start = time.perf_counter()
        doc = json.loads(json.dumps(_CALIBRATION_DOC, sort_keys=True))
        copy.deepcopy(doc)
        sorted(doc, key=lambda d: (d["values"]["nom"], d["id"]))
        return time.perf_counter() - start
    finally:
        gc.enable()


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        from replay import Commands, Tracer, TracedCommands

        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        odl, edw = str(BENCH / "hopital.odl"), str(BENCH / workload.warehouse)
        self.plain = Commands(odl, edw)
        self.tracer = Tracer()
        self.traced = TracedCommands(odl, edw, self.tracer)
        self.results = []  # (traced, Result) for every command run
        self.refreshes = []  # the refresh Results of each replay
        self.failures: list[str] = []
        self.setup_times: list[tuple[float, float]] = []  # (raw, scaled)
        self.years = []
        self.ref = None  # what the first replay produced, for the checks and counts
        self.replay_counts: dict[str, float] | None = None
        self.plan = []
        self.calibrations: list[float] = []
        self.calibration: float | None = None  # reading still valid for the next command
        self.request_scale: dict[int, float] = {}  # traced command -> its scale
        self.raw: dict[str, float] = {}  # end-to-end times before scaling

    # -- running commands ----------------------------------------------------

    def _run(self, traced: bool, method: str, *args):
        before = self._calibration()
        result = getattr(self.traced if traced else self.plain, method)(*args)
        self.calibration = None
        result.scale = 2 * CALIBRATION_S / (before + self._calibration())
        if traced:
            self.request_scale[self.tracer.request] = result.scale
        self.results.append((traced, result))
        if not result.ok:
            self._fail(result, f"{method} exited non-zero: {result.error.strip()[-400:]}")
        return result

    def _calibration(self) -> float:
        """A calibration reading taken now, or the one taken after the
        previous command when nothing has run since."""
        if self.calibration is None:
            self.calibration = calibrate()
            self.calibrations.append(self.calibration)
        return self.calibration

    def _fail(self, result, message: str) -> None:
        result.ok = False
        self.failures.append(message)

    def _snapshot(self, year) -> str:
        return str(self.work / "snapshots" / f"{year.year}.jsonl")

    def _generate(self) -> None:
        (self.work / "snapshots").mkdir(parents=True, exist_ok=True)
        source = HospitalSource(self.seed, self.w.shape, self.w.drift)
        self.years = []
        for _ in range(self.w.years):
            year = source.next_year()
            with open(self._snapshot(year), "w", encoding="utf-8") as fh:
                fh.write("\n".join(year.lines) + "\n")
            year.lines = None  # the files are the input from here on
            self.years.append(year)

    def replay(self, traced: bool, store: str) -> None:
        """tdw build of the first year, then tdw refresh of every later one.
        Extra builds of the first year, into stores left alone, come first."""
        first, *later = self.years
        extra = [self._run(traced, "build", self._snapshot(first), first.year, f"{store}.{k}")
                 for k in range(self.w.builds - 1)]
        if traced and self.replay_counts is None:
            self.traced.counts = {}
        results = [self._run(traced, "build", self._snapshot(first), first.year, store)]
        for year in later:
            results.append(self._run(traced, "refresh", store, self._snapshot(year), year.year))
        if traced and self.replay_counts is None:
            self.replay_counts = dict(self.traced.counts)
        self.refreshes.append(results[1:])
        self._check_replay(results, store)
        for result in extra:
            if result.ok and result.out != results[0].out:
                self._fail(result, "a repeated build printed other extensions")
        self.calibration = None

    def inspect(self, traced: bool, store: str, query, expect) -> None:
        result = self._run(traced, "inspect", store, query)
        if result.ok:
            problem = _check_inspect(query, expect, result.out)
            if problem:
                self._fail(result, f"inspect {query}: {problem}")

    # -- output checks (outside every timed section) ---------------------------

    def _check_replay(self, results, store: str) -> None:
        if not all(r.ok for r in results):
            return
        reports = [json.loads(r.out) for r in results[1:]]
        texts = [r.out for r in results]
        with open(store, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        if self.ref is None:
            self._learn(store, texts, sha, reports)
        elif texts != self.ref["texts"] or sha != self.ref["sha"]:
            self._fail(results[-1], "replay is not deterministic: outputs or store differ")
            return
        size = dict(self.ref["sizes"])
        # the class sizes before refresh k follow back from the final store
        for result, report, year in reversed(list(zip(results[1:], reports, self.years[1:]))):
            classes = report["classes"]
            for name, c in classes.items():
                size[name] = size.get(name, 0) - c["created"]
                kept = c["carried"] + c["updated"] + c["historized"] + c["frozen"]
                if kept != size[name]:
                    self._fail(result, f"{year.year} {name}: carried+updated+historized+"
                                       f"frozen = {kept}, class held {size[name]}")
            if classes["Chirurgiens"]["created"] != year.hires:
                self._fail(result, f"{year.year}: {classes['Chirurgiens']['created']} "
                                   f"surgeons created, {year.hires} hired")
            if classes["Hôpitaux_Publics"]["historized"] != len(year.budget_changed):
                self._fail(result, f"{year.year}: {classes['Hôpitaux_Publics']['historized']} "
                                   f"hospitals historized, {len(year.budget_changed)} budgets "
                                   "changed")

    def _learn(self, path: str, texts: list[str], sha: str, reports: list[dict]) -> None:
        """Take from the first replay's store all that the checks, the
        digest and the counts need, then let the store go, so that no
        large object graph of the benchmark's stays alive (and is walked
        by the garbage collector) while commands are timed."""
        from tdw import engine

        store = engine.load_store(path)
        sizes: dict[str, int] = {}
        for obj in store.objects.values():
            sizes[obj.class_name] = sizes.get(obj.class_name, 0) + 1
        self.plan = self._make_plan(store)
        self.ref = {"texts": texts, "sha": sha, "bytes": os.path.getsize(path),
                    "reports": reports, "sizes": sizes, "digest": self._digest(store, texts),
                    "counts": self._store_counts(store)}

    def _make_plan(self, store) -> list:
        """Inspect queries drawn from the seed, each with the answer the
        store holds: a third list a class, a third show an object's
        history, a third an object at a year (before creation, archived,
        past or current)."""
        from replay import Query

        rng = random.Random(f"inspect-{self.seed}")
        extension = {c: store.extension_of(c) for c in sorted(store.schema.classes)}
        populated = [c for c, oids in extension.items() if oids]
        first, last = self.years[0].year, self.years[-1].year
        plan = []
        for i in range(self.w.queries):
            # classes in turn, so that every seed asks for the same mix
            if i % 3 == 0:
                name = sorted(extension)[i // 3 % len(extension)]
                plan.append((Query(name), len(extension[name])))
                continue
            name = populated[i // 3 % len(populated)]
            oid = rng.choice(extension[name])
            if i % 3 == 1:
                obj = store.objects[oid]
                plan.append((Query(name, oid), 1 + len(obj.past) + len(obj.archives)))
                continue
            # a kind of state first, then a year in it, so that rare
            # archived states are asked for too
            years: dict[str, list[int]] = {}
            for year in range(first - 2, last + 1):
                located = store.value_at(oid, _instant(year))
                years.setdefault(located[0] if located else "absent", []).append(year)
            kind = rng.choice(sorted(years))
            plan.append((Query(name, oid, rng.choice(years[kind])), kind))
        return plan

    def _digest(self, store, texts: list[str]) -> str:
        """Refresh reports, then every class's extension and every
        object's state at every replayed year, read through the store."""
        h = hashlib.sha256()
        for text in texts[1:]:
            h.update(text.encode("utf-8"))
        for name in sorted(store.schema.classes):
            h.update(json.dumps([name, store.extension_of(name)]).encode("utf-8"))
        for oid in sorted(store.objects):
            for year in self.years:
                located = store.value_at(oid, _instant(year.year))
                h.update(json.dumps(located, sort_keys=True, ensure_ascii=False).encode("utf-8"))
        return h.hexdigest()

    def _store_counts(self, store) -> dict:
        from tdw.model import flatten_type

        out = {"engine.objects": 0, "engine.past_states": 0, "engine.archive_states": 0,
               "engine.relation_slots": 0}
        relations = {name: [p.name for p in flatten_type(store.schema, name) if p.is_relation]
                     for name in store.schema.classes}
        for obj in store.objects.values():
            out["engine.objects"] += 1
            out["engine.past_states"] += len(obj.past)
            out["engine.archive_states"] += len(obj.archives)
            for prop in relations[obj.class_name]:
                v = obj.current.value.get(prop)
                out["engine.relation_slots"] += len(v) if isinstance(v, list) else v is not None
        outcomes = [expect for q, expect in self.plan if q.at is not None]
        for kind in ("current", "past", "archive", "absent"):
            out[f"engine.value_at.{kind}"] = outcomes.count(kind)
        return out

    # -- the run -------------------------------------------------------------

    def run(self) -> dict:
        self.work.mkdir(parents=True)
        try:
            return self._run_all()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _run_all(self) -> dict:
        w = self.w
        setups = w.setups if not self.trace else 2 if w.store_in_setup else 1
        for i in range(setups):
            before = self._calibration()
            start = time.perf_counter()
            self._generate()
            raw = time.perf_counter() - start
            self.calibration = None
            scaled = raw * 2 * CALIBRATION_S / (before + self._calibration())
            if w.store_in_setup:
                # a traced run traces its last set-up's replay
                first = len(self.results)
                self.replay(self.trace and i == setups - 1, str(self.work / f"setup{i}.store"))
                raw += sum(r.seconds for _t, r in self.results[first:])
                scaled += sum(r.seconds * r.scale for _t, r in self.results[first:])
            self.setup_times.append((raw, scaled))
        deadline = time.perf_counter() + self.seconds
        done = 0
        while True:
            traced = self.trace and done % 2 == 1
            if w.store_in_setup:
                store = str(self.work / f"setup{setups - 1}.store")
                if self.plan:
                    # a traced run asks each query once untraced, then traced
                    turn = done // 2 if self.trace else done
                    self.inspect(traced, store, *self.plan[turn % len(self.plan)])
            else:
                store = str(self.work / f"pass{done}.store")
                self.replay(traced, store)
                for query, expect in self.plan:
                    self.inspect(traced, store, query, expect)
            done += 1
            if self.ref is None or (time.perf_counter() >= deadline
                                    and done >= (2 if self.trace else 1)):
                break
        if self.trace:
            self.tracer.write(str(ROOT / ".bench_work" / f"spans-{w.name}-{self.seed}.jsonl"))
        return self._metrics()

    # -- metrics -------------------------------------------------------------

    def _metrics(self) -> dict:
        attempted = len(self.results)
        failed = sum(1 for _t, r in self.results if not r.ok) + (
            0 if self.ref is not None else 1)
        if self.ref is None:
            self.failures.append("no replay completed")
        self.failed_frac = failed / max(attempted, 1)
        if not self.trace:
            self.raw = self._times(lambda r: r.seconds, 0)
            out = self._times(lambda r: r.seconds * r.scale, 1)
            out["store_bytes"] = self.ref["bytes"] if self.ref else 0
            out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self.samples = {k: sum(1 for _t, r in self.results if r.kind == k and r.ok)
                            for k in ("build", "refresh", "inspect")}
        else:
            out = self._per_layer()
            out["failed_ops_frac"] = self.failed_frac
        units = PER_LAYER if self.trace else END_TO_END
        # all of them, even after a failure, each with its unit
        out = {name: {"value": out.get(name, 0), "unit": unit} for name, unit in units.items()}
        return {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
                "metrics": out}

    def _times(self, seconds, column: int) -> dict:
        times = {k: [seconds(r) for _t, r in self.results if r.kind == k and r.ok]
                 for k in ("build", "refresh", "inspect")}
        return {
            "setup_s": statistics.median(t[column] for t in self.setup_times),
            "build_s": _median(times["build"]),
            # per replay: total refresh time over the refresh count
            "refresh_s": _median([sum(seconds(r) for r in rs) / len(rs) for rs in self.refreshes
                                  if rs and all(r.ok for r in rs)]),
            "inspect_p50_s": _median(times["inspect"]),
            "inspect_p90_s": _p90(times["inspect"]),
        }

    def _per_layer(self) -> dict:
        spans = self.tracer.summary(self.request_scale)
        self.spans = spans
        out = {}
        for name in SPANS:
            s = spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            out[f"{name}_s"] = s["total_s"] / max(s["calls"], 1)
            if name.startswith("cmd."):
                out[f"{name}.self_s"] = s["self_s"] / max(s["calls"], 1)
        counts = self.replay_counts or {}
        for key in ("source.records", "source.links", "source.snapshot_bytes", "algebra.rows",
                    "algebra.join_pairs", "engine.bytes_written"):
            out[key] = counts.get(key, 0)
        out["algebra.join_hit_ratio"] = counts.get("algebra.join_rows", 0) / max(
            counts.get("algebra.join_pairs", 0), 1)
        reports = self.ref["reports"] if self.ref else []
        for c in REPORT_COUNTS:
            out[f"engine.{c}"] = sum(cls[c] for rep in reports for cls in rep["classes"].values())
        out.update(self.ref["counts"] if self.ref else {})
        # overhead: traced minus untraced command time, per command kind
        extra = base = 0.0
        for kind in ("build", "refresh", "inspect"):
            plain = [r.seconds * r.scale for t, r in self.results
                     if not t and r.kind == kind and r.ok]
            traced = [r.seconds * r.scale for t, r in self.results
                      if t and r.kind == kind and r.ok]
            if plain and traced:
                extra += (statistics.fmean(traced) - statistics.fmean(plain)) * len(plain)
                base += sum(plain)
        out["trace.overhead_frac"] = extra / base if base else 0.0
        return out

    def report(self, result: dict) -> None:
        """Human-readable lines; the JSON result line follows them."""
        w = self.w
        for message in self.failures[:20]:
            print(f"FAILED: {message}")
        if self.ref is not None:
            print(f"digest {w.name} seed {self.seed}: {self.ref['digest']}")
        for name, m in result["metrics"].items():
            raw = f"  (raw {self.raw[name]:.6g} s)" if name in self.raw else ""
            print(f"{name} = {m['value']:.6g} {m['unit']}{raw}")
        if not self.trace:
            print(f"failed_ops_frac = {self.failed_frac:.6g} ratio")
        print(f"calibration: median {statistics.median(self.calibrations):.6g} s over "
              f"{len(self.calibrations)} readings; times are scaled to {CALIBRATION_S} s")
        if not self.trace:
            print(f"samples: {self.samples['build']} builds, {self.samples['refresh']} "
                  f"refreshes, {self.samples['inspect']} inspects; "
                  f"{len(self.setup_times)} set-ups")
        else:
            print(f"{'span':24} {'calls':>6} {'total_s':>10} {'self_s':>10}")
            for name in sorted(self.spans):
                s = self.spans[name]
                print(f"{name:24} {s['calls']:6d} {s['total_s']:10.4f} {s['self_s']:10.4f}")


def _check_inspect(query, expect, out: str) -> str | None:
    lines = out.splitlines()
    if query.oid is None:
        if lines[:1] != [f"class {query.class_name}: {expect} object(s)"] \
                or len(lines) != expect + 1:
            return "listing does not match the extension"
        return None
    if not lines or not lines[0].startswith(f"object {query.oid} ("):
        return "wrong object"
    if query.at is not None:
        want = f"at {query.at}: {expect}"
        return None if lines[1:2] == [want] else f"expected {want!r}"
    states = sum(1 for ln in lines if ln.split(" ", 1)[0] in ("current", "past", "archive"))
    return None if states == expect else f"{states} states listed, {expect} held"


def _instant(year: int):
    from tdw.temporal import parse_instant

    return parse_instant(str(year))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are salted per process, and the salt alone moves the
        # command times by up to 10% from one run to the next: run again
        # in place with a fixed salt
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    if not (ROOT / "src" / "tdw" / "__init__.py").is_file():
        print(f"error: no tdw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result = bench.run()
    bench.report(result)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

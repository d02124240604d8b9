"""Command line contract: flags, exit codes, deterministic output."""

import errno
import fcntl
import json
import os
import signal
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from conftest import (
    FIXTURES,
    hospital_records,
    resealed,
    sealed_header,
    snapshot_lines,
    store_header,
    store_to_dict,
    year,
)
from test_engine import v3_text, v4_text, v5_text
from tdw import cli, engine
from tdw.cli import _locked
from tdw.dsl import parse_warehouse_def, print_warehouse_def
from tdw.errors import StoreLocked

ODL = str(FIXTURES / "hopital.odl")
EDW = str(FIXTURES / "hopital.edw")
EDW_BROKEN = str(FIXTURES / "hopital_sans_services.edw")
SRC = Path(__file__).resolve().parents[1] / "src"


def tdw(*args: str, hash_seed: str | None = None):
    env = None if hash_seed is None else {**os.environ, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run(
        [sys.executable, "-m", "tdw.cli", *args],
        capture_output=True,
        text=True,
        cwd=SRC,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def assert_lock_released(store: str) -> None:
    """Nothing holds the store's lock: it can be taken at once."""
    fd = os.open(store + ".lock", os.O_WRONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    finally:
        os.close(fd)


def write_snapshot(path: Path, at_year: int, **knobs) -> str:
    path.write_text(
        "\n".join(snapshot_lines(hospital_records(at_year, **knobs))) + "\n",
        encoding="utf-8",
    )
    return str(path)


def rewrite_header(store: str, **fields) -> None:
    """Set fields of a store file's header line."""
    path = Path(store)
    header, rest = path.read_text(encoding="utf-8").split("\n", 1)
    head = {**store_header(header), **fields}
    path.write_text(sealed_header(head) + "\n" + rest, encoding="utf-8")


@pytest.fixture()
def built(tmp_path):
    store = str(tmp_path / "h.store")
    snap = write_snapshot(tmp_path / "s1990.jsonl", 1990)
    rc, _out, err = tdw(
        "build", "--warehouse", EDW, "--source-schema", ODL,
        "--snapshot", snap, "--at", "1990", "--store", store,
    )
    assert rc == 0, err
    return tmp_path, store


class TestValidate:
    def test_fixture_pair_ok(self):
        rc, out, _ = tdw("validate", "--source-schema", ODL, "--warehouse", EDW)
        assert rc == 0
        assert "6 classes" in out

    def test_missing_endpoint_class(self):
        rc, out, _ = tdw("validate", "--source-schema", ODL, "--warehouse", EDW_BROKEN)
        assert rc == 1
        assert out.count("relation-closure") == 1

    def test_broken_generalize_operand_is_not_a_cycle(self, tmp_path):
        odl = tmp_path / "mini.odl"
        odl.write_text(
            "interface P { attribute String nom; attribute Short age; }", encoding="utf-8"
        )
        edw = tmp_path / "mini.edw"
        edw.write_text(
            "interface G { D_attribute String nom; }\n"
            "interface K { D_attribute Long age; }\n"
            "interface O (extend G, K) { D_attribute Short age; }\n"
            "mapping G = generalize(o.nom, o: O);\n"
            "mapping O = select(p: P, p.age >= 0);\n",
            encoding="utf-8",
        )
        rc, out, err = tdw("validate", "--source-schema", str(odl), "--warehouse", str(edw))
        assert rc == 1
        assert "circular" not in err
        assert "property-conflict [O]" in out
        assert "invalid: 1 violation(s)" in out

    def test_generalize_operand_where_is_a_domain_error(self, tmp_path):
        text = Path(EDW).read_text(encoding="utf-8")
        assert text.count("c: Chirurgiens);") == 1
        edw = tmp_path / "where.edw"
        edw.write_text(
            text.replace("c: Chirurgiens);", 'c: Chirurgiens where c.nom = "zzz");'),
            encoding="utf-8",
        )
        rc, _out, err = tdw("validate", "--source-schema", ODL, "--warehouse", str(edw))
        assert rc == 1
        assert "generalize operand 'c' takes no where" in err

    def test_one_specialize_binder_for_two_operands_is_a_domain_error(self, tmp_path):
        text = Path(EDW).read_text(encoding="utf-8")
        assert text.count("s: Services,\n    e.organisation contains s);") == 1
        edw = tmp_path / "binder.edw"
        edw.write_text(
            text.replace(
                "s: Services,\n    e.organisation contains s);",
                "e: Services, e.organisation contains e);",
            ),
            encoding="utf-8",
        )
        rc, _out, err = tdw("validate", "--source-schema", ODL, "--warehouse", str(edw))
        assert rc == 1
        assert "specialize binder 'e' names more than one operand" in err

    def test_relation_to_a_specialization_is_a_domain_error(self, tmp_path):
        """A refresh rewrites links before it decides a specialization's
        members, so no derived relation may target one."""
        text = Path(EDW).read_text(encoding="utf-8")
        membership = text.replace(" inverse Services::est_dirigé;", ";").replace(
            "<Chirurgiens> est_dirigé inverse Chirurgiens::dirige;",
            "<Jeunes_Chirurgiens> est_dirigé;",
        )
        assert membership.count("inverse") == text.count("inverse") - 2
        edw = tmp_path / "membership.edw"
        edw.write_text(membership, encoding="utf-8")
        rc, _out, err = tdw("validate", "--source-schema", ODL, "--warehouse", str(edw))
        assert rc == 1
        assert err == (
            "error: Services.est_dirigé: target class 'Jeunes_Chirurgiens' is a "
            "specialization, whose members are decided after links\n"
        )

    @pytest.mark.parametrize(
        "written, edited, message",
        [("p.catégorie", "p.catégori",
          "mapping of 'Chirurgiens': no property 'catégori' under binder 'p'"),
         ("c.année_naissance >= 1970", "c.année >= 1970",
          "mapping of 'Jeunes_Chirurgiens': no property 'année' under binder 'c'"),
         ('e.ville = "Toulouse"', 'e.vile = "Toulouse"',
          "mapping of 'Etablissements': no property 'vile' under binder 'e'"),
         ("p: PRATICIEN", "p: NOPE",
          "mapping of 'Chirurgiens': unknown source interface 'NOPE'")],
        ids=["extraction-path", "specialize-predicate", "specialize-where", "unknown-interface"],
    )
    def test_a_mapping_error_names_its_class(self, tmp_path, written, edited, message):
        text = Path(EDW).read_text(encoding="utf-8")
        assert text.count(written) == 1
        edw = tmp_path / "mapping.edw"
        edw.write_text(text.replace(written, edited), encoding="utf-8")
        rc, out, err = tdw("validate", "--source-schema", ODL, "--warehouse", str(edw))
        assert (rc, out, err) == (1, "", f"error: {message}\n")

    def test_archive_avg_of_a_string_is_a_violation(self, tmp_path):
        """avg folds numbers: over a String it would fail every refresh
        from the first eviction of a surgeon's past state on."""
        text = Path(EDW).read_text(encoding="utf-8")
        assert text.count("archive last(spécialité)") == 1
        edw = tmp_path / "avg.edw"
        edw.write_text(text.replace("archive last(spécialité)", "archive avg(spécialité)"),
                       encoding="utf-8")
        rc, out, err = tdw("validate", "--source-schema", ODL, "--warehouse", str(edw))
        assert rc == 1
        assert out == (
            f"{edw}: archive-not-numeric [Chirurgiens]: archive avg(spécialité) needs a "
            "Short, Long or Double attribute\ninvalid: 1 violation(s)\n"
        )
        assert err == ""

    def test_fractional_config_count_names_its_position(self, tmp_path):
        text = Path(EDW).read_text(encoding="utf-8")
        assert text.count("keep 2 past states;") == 1
        edw = tmp_path / "count.edw"
        edw.write_text(text.replace("keep 2 past states;", "keep 1.5 past states;"),
                       encoding="utf-8")
        line = text[: text.index("keep 2 past")].count("\n") + 1
        rc, out, err = tdw("validate", "--source-schema", ODL, "--warehouse", str(edw))
        assert (rc, out) == (1, "")
        assert err == f"error: {edw}:{line}:14: expected an integer count (found '1.5')\n"

    def test_zero_refresh_period_names_its_position(self, tmp_path):
        text = Path(EDW).read_text(encoding="utf-8")
        assert text.count("refresh every 1 year;") == 1
        edw = tmp_path / "zero.edw"
        edw.write_text(text.replace("refresh every 1 year;", "refresh every 0 years;"),
                       encoding="utf-8")
        line = text[: text.index("refresh every 1")].count("\n") + 1
        rc, out, err = tdw("validate", "--source-schema", ODL, "--warehouse", str(edw))
        assert (rc, out) == (1, "")
        assert err == f"error: {edw}:{line}:23: expected a positive refresh period (found '0')\n"

    @pytest.mark.parametrize("verb", ["validate", "plan"])
    def test_cycle_in_an_environment_is_two_violations(self, tmp_path, verb):
        edw = tmp_path / "cycle.edw"
        edw.write_text(
            "interface A (extend B) { D_attribute String nom; } interface B (extend A) { }\n"
            "Environment E { class A; config { keep 1 past states; } }\n",
            encoding="utf-8",
        )
        rc, out, err = tdw(verb, "--source-schema", ODL, "--warehouse", str(edw))
        assert rc == 1
        assert f"{edw}: inheritance-cycle [A]: A -> B -> A\n" in out
        assert f"{edw}: inheritance-cycle [B]: B -> A -> B\n" in out
        assert err == ""

    def test_environment_naming_an_undeclared_class(self, tmp_path):
        edw = tmp_path / "env.edw"
        edw.write_text(
            "interface A { D_attribute String nom; }\n"
            "Environment E { class A, Q; config { keep 1 past states; } }\n",
            encoding="utf-8",
        )
        rc, out, err = tdw("validate", "--source-schema", ODL, "--warehouse", str(edw))
        assert rc == 1
        assert out == (
            f"{edw}: environment-unknown-class [E]: unknown class 'Q'\n"
            "invalid: 1 violation(s)\n"
        )
        assert err == ""

    def test_class_extending_an_undeclared_class(self, tmp_path):
        edw = tmp_path / "super.edw"
        edw.write_text("interface A (extend Z) { D_attribute String nom; }\n", encoding="utf-8")
        rc, out, err = tdw("validate", "--source-schema", ODL, "--warehouse", str(edw))
        assert rc == 1
        assert out == (
            f"{edw}: unknown-super [A]: unknown warehouse class 'Z'\n"
            "invalid: 1 violation(s)\n"
        )
        assert err == ""

    def test_source_inheritance_cycle_is_a_domain_error(self, tmp_path):
        odl = tmp_path / "cycle.odl"
        odl.write_text("interface A (extend B) {} interface B (extend A) {}", encoding="utf-8")
        rc, _out, err = tdw("validate", "--source-schema", str(odl), "--warehouse", EDW)
        assert rc == 1
        assert err == "error: A -> B -> A\n"

    def test_missing_file_is_io_error(self):
        rc, _out, err = tdw("validate", "--source-schema", ODL, "--warehouse", "/nope.edw")
        assert rc == 2
        assert "nope.edw" in err


class TestBenchInputs:
    """The benchmark's definitions stay valid under the grammar: tier-1
    reads them, and never writes under bench/."""

    BENCH = Path(__file__).resolve().parents[1] / "bench"

    @pytest.mark.parametrize("name", ["hopital.edw", "hopital_long.edw"])
    def test_bench_definition_validates_and_prints_a_fixpoint(self, name, capsys):
        edw = self.BENCH / name
        argv = ["validate", "--source-schema", str(self.BENCH / "hopital.odl"), "--warehouse"]
        assert cli.main([*argv, str(edw)]) == 0
        assert capsys.readouterr().out == "ok: 6 classes, 1 environment(s)\n"
        printed = print_warehouse_def(parse_warehouse_def(edw.read_text(encoding="utf-8")))
        assert print_warehouse_def(parse_warehouse_def(printed)) == printed


    def test_traced_replay_runs(self, tmp_path):
        """The benchmark's replay calls the library directly; one traced
        run in a copy keeps its .bench_work out of the checkout."""
        bench = tmp_path / "bench"
        bench.mkdir()
        for f in self.BENCH.iterdir():
            if f.is_file():
                (bench / f.name).write_bytes(f.read_bytes())
        (tmp_path / "src").symlink_to(SRC)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "large_store", "--seed", "1",
             "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert (result["correct"], result["failed"]) == (True, 0)


class TestBuild:
    def test_build_writes_store(self, built):
        _tmp, store = built
        header = store_header(Path(store).read_text(encoding="utf-8").split("\n", 1)[0])
        assert header["format"] == "tdw-store-v6"
        assert header["last_refresh"] == "1990"

    def test_existing_store_rejected(self, built, tmp_path):
        _tmp, store = built
        snap = write_snapshot(tmp_path / "again.jsonl", 1990)
        rc, _out, err = tdw(
            "build", "--warehouse", EDW, "--source-schema", ODL,
            "--snapshot", snap, "--at", "1990", "--store", store,
        )
        assert rc == 1 and "already exists" in err

    def test_store_made_before_the_lock_is_taken_is_kept(self, tmp_path, monkeypatch, capsys):
        # another build creates the store between this one's start and its
        # taking the lock, simulated as the lock's enter
        snap = write_snapshot(tmp_path / "s.jsonl", 1990)
        store = tmp_path / "h.store"

        class racing(_locked):
            def __enter__(self):
                held = super().__enter__()
                store.write_text("another build's store\n", encoding="utf-8")
                return held

        monkeypatch.setattr(cli, "_locked", racing)
        rc = cli.main([
            "build", "--warehouse", EDW, "--source-schema", ODL,
            "--snapshot", snap, "--at", "1990", "--store", str(store),
        ])
        assert rc == 1 and "already exists" in capsys.readouterr().err
        assert store.read_text(encoding="utf-8") == "another build's store\n"
        assert_lock_released(str(store))

    def test_existing_store_is_reported_before_input_errors(self, built, tmp_path):
        _tmp, store = built
        rc, _out, err = tdw(
            "build", "--warehouse", EDW_BROKEN, "--source-schema", ODL,
            "--snapshot", str(tmp_path / "missing.jsonl"), "--at", "1990", "--store", store,
        )
        assert rc == 1 and "already exists" in err

    def test_existing_store_failure_is_one_line_on_stderr(self, built):
        tmp, store = built
        snap = str(tmp / "s1990.jsonl")
        argv = ["--snapshot", snap, "--at", "1990", "--store", store]
        rc, out, err = tdw("build", "--warehouse", EDW, "--source-schema", ODL, *argv)
        assert (rc, out, err) == (1, "", f"error: store {store} already exists\n")

    def test_invalid_schema_writes_nothing(self, tmp_path):
        snap = write_snapshot(tmp_path / "s.jsonl", 1990)
        store = tmp_path / "broken.store"
        rc, _out, _err = tdw(
            "build", "--warehouse", EDW_BROKEN, "--source-schema", ODL,
            "--snapshot", snap, "--at", "1990", "--store", str(store),
        )
        assert rc == 1
        assert not store.exists()

    def test_empty_snapshot_builds_valid_store(self, tmp_path):
        snap = tmp_path / "empty.jsonl"
        snap.write_text("", encoding="utf-8")
        store = str(tmp_path / "empty.store")
        rc, out, err = tdw(
            "build", "--warehouse", EDW, "--source-schema", ODL,
            "--snapshot", str(snap), "--at", "1990", "--store", store,
        )
        assert rc == 0, err
        assert json.loads(out)["extensions"] == {
            name: 0
            for name in (
                "Chirurgiens", "Etablissements", "Hôpitaux_Publics",
                "Jeunes_Chirurgiens", "Personnes", "Services",
            )
        }

    def test_double_beyond_every_float_names_its_slot(self, tmp_path):
        records = hospital_records(1990)
        next(r for r in records if r["id"] == "e1")["values"]["budget"] = 10**400
        snap = tmp_path / "s.jsonl"
        snap.write_text("\n".join(snapshot_lines(records)) + "\n", encoding="utf-8")
        store = tmp_path / "h.store"
        rc, out, err = tdw(
            "build", "--warehouse", EDW, "--source-schema", ODL,
            "--snapshot", str(snap), "--at", "1990", "--store", str(store),
        )
        assert (rc, out) == (1, "")
        assert err == (
            "error: ETABLISSEMENT.budget: expected a number, "
            "got an integer too large for a double\n"
        )
        assert not store.exists()

    def test_integer_past_the_conversion_limit_names_its_line(self, tmp_path):
        records = hospital_records(1990)
        at = next(i for i, r in enumerate(records) if r["id"] == "e1")
        records[at]["values"]["budget"] = 0
        lines = snapshot_lines(records)
        assert lines[at].count('"budget": 0') == 1
        lines[at] = lines[at].replace('"budget": 0', '"budget": ' + "1" * 5001)
        snap = tmp_path / "s.jsonl"
        snap.write_text("\n".join(lines) + "\n", encoding="utf-8")
        store = tmp_path / "h.store"
        rc, out, err = tdw(
            "build", "--warehouse", EDW, "--source-schema", ODL,
            "--snapshot", str(snap), "--at", "1990", "--store", str(store),
        )
        assert (rc, out) == (1, "")
        assert err.startswith(
            f"error: record line {at + 1}: not a valid document (Exceeds the limit"
        )
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not store.exists()


class TestRefresh:
    def test_refresh_updates_store(self, built):
        tmp, store = built
        snap = write_snapshot(tmp / "s1991.jsonl", 1991)
        rc, out, err = tdw("refresh", "--store", store, "--snapshot", snap, "--at", "1991")
        assert rc == 0, err
        report = json.loads(out)
        assert report["at"] == "1991"
        assert report["classes"]["Hôpitaux_Publics"]["historized"] == 2

    def test_stale_at_rejected_store_untouched(self, built):
        tmp, store = built
        before = Path(store).read_bytes()
        snap = write_snapshot(tmp / "s1990b.jsonl", 1990)
        rc, _out, err = tdw("refresh", "--store", store, "--snapshot", snap, "--at", "1990")
        assert rc == 1
        assert "not after" in err
        assert Path(store).read_bytes() == before

    def test_report_file(self, built):
        tmp, store = built
        snap = write_snapshot(tmp / "s1991.jsonl", 1991)
        report_path = tmp / "report.json"
        rc, out, _err = tdw(
            "refresh", "--store", store, "--snapshot", snap, "--at", "1991",
            "--report", str(report_path),
        )
        assert rc == 0
        assert json.loads(report_path.read_text(encoding="utf-8")) == json.loads(out)

    def test_a_report_that_cannot_be_written_saves_nothing(self, built):
        # else the store moves on, and a retry of the refresh is refused
        tmp, store = built
        snap = write_snapshot(tmp / "s1991.jsonl", 1991)
        before = Path(store).read_bytes()
        argv = ["refresh", "--store", store, "--snapshot", snap, "--at", "1991"]
        rc, _out, err = tdw(*argv, "--report", str(tmp / "missing" / "r.json"))
        assert rc != 0
        assert "missing" in err
        assert Path(store).read_bytes() == before
        assert list(tmp.rglob("*.tmp")) == []
        rc, out, err = tdw(*argv, "--report", str(tmp / "r.json"))
        assert rc == 0, err
        assert json.loads((tmp / "r.json").read_text(encoding="utf-8")) == json.loads(out)

    def test_a_store_that_cannot_be_saved_leaves_no_report(self, built, monkeypatch, capsys):
        tmp, store = built
        snap = write_snapshot(tmp / "s1991.jsonl", 1991)
        before = Path(store).read_bytes()

        def fail(*_args):
            raise OSError("disk gone")

        monkeypatch.setattr(engine, "save_store", fail)
        argv = ["refresh", "--store", store, "--snapshot", snap, "--at", "1991"]
        assert cli.main([*argv, "--report", str(tmp / "r.json")]) == 2
        assert "disk gone" in capsys.readouterr().err
        assert Path(store).read_bytes() == before
        assert list(tmp.glob("r.json*")) == []

    @pytest.mark.parametrize("place", ["a-directory", "the-store"])
    def test_a_report_path_that_cannot_take_the_report_saves_nothing(self, built, place):
        # a directory cannot be replaced by the report, and the store's
        # temporary file would be the report's too; either is found only
        # after the save, when a retry of the refresh is refused
        tmp, store = built
        snap = write_snapshot(tmp / "s1991.jsonl", 1991)
        if place == "a-directory":
            report = tmp / "reports"
            report.mkdir()
        else:  # another spelling of the store's path
            report = os.path.join(tmp, ".", "h.store")
        before = Path(store).read_bytes()
        argv = ["refresh", "--store", store, "--snapshot", snap, "--at", "1991"]
        rc, _out, err = tdw(*argv, "--report", str(report))
        assert rc == 2
        expected = "is a directory" if place == "a-directory" else "is the store"
        assert err == f"error: --report {report} {expected}\n"
        assert Path(store).read_bytes() == before
        assert list(tmp.rglob("*.tmp")) == []
        assert_lock_released(store)
        rc, _out, err = tdw(*argv, "--report", str(tmp / "r.json"))
        assert rc == 0, err

    def test_lock_prevents_second_writer(self, built, tmp_path):
        tmp, store = built
        snap = write_snapshot(tmp / "s1991.jsonl", 1991)
        before = Path(store).read_bytes()
        fd = os.open(store + ".lock", os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            rc, _out, err = tdw("refresh", "--store", store, "--snapshot", snap, "--at", "1991")
        finally:
            os.close(fd)
        assert rc == 1 and f"store is locked by another writer ({store}.lock)" in err
        assert Path(store).read_bytes() == before
        rc, _out, err = tdw("refresh", "--store", store, "--snapshot", snap, "--at", "1991")
        assert rc == 0, err

    def test_a_writer_killed_holding_the_lock_leaves_the_store_writable(self, built):
        tmp, store = built
        snap = write_snapshot(tmp / "s1991.jsonl", 1991)
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import sys, time\n"
             "from tdw.cli import _locked\n"
             "with _locked(sys.argv[1]):\n"
             "    print('locked', flush=True)\n"
             "    time.sleep(120)\n",
             store],
            cwd=SRC, stdout=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline() == "locked\n"
            rc, _out, err = tdw("refresh", "--store", store, "--snapshot", snap, "--at", "1991")
            assert rc == 1 and "locked by another writer" in err
        finally:
            holder.kill()  # SIGKILL: the holder runs no cleanup
            holder.wait()
            holder.stdout.close()
        assert holder.returncode == -signal.SIGKILL
        assert Path(store + ".lock").exists()
        rc, _out, err = tdw("refresh", "--store", store, "--snapshot", snap, "--at", "1991")
        assert rc == 0, err

    @pytest.mark.parametrize("counter", [0, "x"], ids=["zero", "a-string"])
    def test_header_oid_counter_below_an_oid_is_malformed(self, built, counter):
        # with 0, the new surgeon would take oid 1 and overwrite surgeon p1
        tmp, store = built
        rewrite_header(store, oid_counter=counter)
        before = Path(store).read_bytes()
        snap = write_snapshot(tmp / "s1991.jsonl", 1991, with_extra_surgeon=True)
        rc, out, err = tdw("refresh", "--store", store, "--snapshot", snap, "--at", "1991")
        assert rc == 1 and out == ""
        assert f"malformed store document (ValueError: oid_counter {counter!r} is not " in err
        assert "Traceback" not in err
        assert Path(store).read_bytes() == before

    def test_malformed_at_is_usage_error(self, built):
        tmp, store = built
        snap = write_snapshot(tmp / "s1991.jsonl", 1991)
        rc, _out, err = tdw("refresh", "--store", store, "--snapshot", snap, "--at", "banana")
        assert rc == 2 and "banana" in err

    def test_corrupted_store_is_domain_error(self, tmp_path):
        bad = tmp_path / "bad.store"
        bad.write_text("{ not json", encoding="utf-8")
        rc, _out, err = tdw("inspect", "--store", str(bad), "--class", "X")
        assert rc == 1 and "store document" in err

    def test_malformed_store_document_is_domain_error(self, tmp_path):
        bad = tmp_path / "bad.store"
        bad.write_text('{"format": "tdw-store-v1", "source_schema": ""}', encoding="utf-8")
        rc, _out, err = tdw("inspect", "--store", str(bad), "--class", "X")
        assert rc == 1
        assert "malformed store document (KeyError: 'warehouse_def')" in err
        assert "Traceback" not in err

    def test_unknown_store_format_names_the_known_ones(self, tmp_path):
        bad = tmp_path / "v9.store"
        bad.write_text('{"format": "tdw-store-v9"}\n', encoding="utf-8")
        rc, out, err = tdw("inspect", "--store", str(bad), "--class", "X")
        assert (rc, out) == (1, "")
        assert err == (
            f"error: {bad}: not a tdw-store-v6, tdw-store-v5, tdw-store-v4, tdw-store-v3, "
            "tdw-store-v2 or tdw-store-v1 document\n"
        )

    @pytest.mark.parametrize(
        "written, edited, detail",
        [("refresh every 1 year;", "refresh every 0 years;",
          "ParseError: line {line}, col 23: expected a positive refresh period (found '0')"),
         ("mapping Services", "mapping Servicez",
          "UnknownClass: mapping declared for unknown class 'Servicez'")],
        ids=["no-longer-parses", "no-longer-resolves"],
    )
    def test_a_stored_definition_that_fails_names_its_store(self, built, written, edited, detail):
        _tmp, store = built
        header = store_header(Path(store).read_text(encoding="utf-8").split("\n", 1)[0])
        text = header["warehouse_def"]
        assert text.count(written) == 1
        rewrite_header(store, warehouse_def=text.replace(written, edited))
        line = text[: text.index(written)].count("\n") + 1
        rc, out, err = tdw("inspect", "--store", store, "--class", "Services")
        assert (rc, out) == (1, "")
        assert err == f"error: {store}: malformed store document ({detail.format(line=line)})\n"


def build_and_refresh(store: str, build_args: list[str], snaps: dict[int, str], seed: str):
    """Each command's output and the store's bytes after it, for a build
    at the first year of snaps and a refresh at each later one, all under
    one interpreter hash seed."""
    first, *later = sorted(snaps)
    rc, out, err = tdw(
        "build", *build_args, "--snapshot", snaps[first], "--at", str(first),
        "--store", store, hash_seed=seed,
    )
    assert rc == 0, err
    seen = [out, Path(store).read_bytes()]
    for y in later:
        rc, out, err = tdw(
            "refresh", "--store", store, "--snapshot", snaps[y], "--at", str(y),
            hash_seed=seed,
        )
        assert rc == 0, err
        seen += [out, Path(store).read_bytes()]
    return seen


LINEAGE_ODL = (
    "interface P { attribute String nom; attribute Long x; }\n"
    "interface Q { attribute String nom; attribute Long x; }\n"
)
LINEAGE_EDW = """warehouse Lignees;
interface A { D_attribute String nom; D_attribute Long x; }
with filters { temporal x; archive avg(x); }
interface B { D_attribute String nom; D_attribute Long x; }
with filters { temporal x; archive sum(x); }
interface K (extend A, B) { }
Environment E {
    class A, B, K;
    config { keep 1 past states; }
}
mapping A = select(p: P, p.x > 0);
mapping B = select(q: Q, q.x > 0);
mapping K = specialize(a: A, b: B, a.x > 0);
"""


class TestDeterminism:
    def test_store_and_reports_independent_of_hash_seed(self, tmp_path):
        """A build and two refreshes give the same bytes whatever the
        interpreter's string hashing, so no output follows set order."""
        years = {
            1990: {"with_extra_surgeon": True},
            1991: {"with_extra_surgeon": True, "extra_surgeon_category": "cardiologie"},
            1992: {},
        }
        snaps = {y: write_snapshot(tmp_path / f"s{y}.jsonl", y, **k) for y, k in years.items()}
        outputs = {
            seed: build_and_refresh(
                str(tmp_path / f"h{seed}.store"), ["--warehouse", EDW, "--source-schema", ODL],
                snaps, seed,
            )
            for seed in ("0", "1")
        }
        assert outputs["0"] == outputs["1"]
        report = json.loads(outputs["0"][4])
        assert report["classes"]["Chirurgiens"]["frozen"] == 1

    def test_inherited_archive_function_independent_of_hash_seed(self, tmp_path):
        """K inherits x's archive filter from A (avg) and from B (sum): the
        later declared super wins under every hash seed."""
        odl, edw = tmp_path / "pq.odl", tmp_path / "k.edw"
        odl.write_text(LINEAGE_ODL, encoding="utf-8")
        edw.write_text(LINEAGE_EDW, encoding="utf-8")
        snaps = {}
        for y in range(1990, 1994):
            records = [
                {"interface": "P", "id": "p1", "values": {"nom": "p", "x": y - 1985}},
                {"interface": "Q", "id": "q1", "values": {"nom": "q", "x": 10 * (y - 1985)}},
            ]
            snaps[y] = str(tmp_path / f"s{y}.jsonl")
            Path(snaps[y]).write_text("\n".join(snapshot_lines(records)) + "\n", encoding="utf-8")
        args = ["--warehouse", str(edw), "--source-schema", str(odl)]
        outputs = {
            seed: build_and_refresh(str(tmp_path / f"h{seed}.store"), args, snaps, seed)
            for seed in ("0", "3")
        }
        assert outputs["0"] == outputs["3"]
        rc, out, err = tdw("inspect", "--store", str(tmp_path / "h0.store"), "--class", "K",
                           "--oid", "3", "--history")
        assert rc == 0, err
        assert out.startswith("object 3 (K, active)")
        assert 'archive <[1990..1991]>:\n  x = {"function": "sum", "value": 110}\n' in out


class TestInspect:
    def test_extension_listing_is_stable(self, built):
        _tmp, store = built
        rc1, out1, _ = tdw("inspect", "--store", store, "--class", "Chirurgiens")
        rc2, out2, _ = tdw("inspect", "--store", store, "--class", "Chirurgiens")
        assert rc1 == rc2 == 0 and out1 == out2
        assert out1.startswith("class Chirurgiens: 2 object(s)")

    def test_a_composite_lists_each_key_pair_once(self, built):
        # a composite's key is its operand objects, hospital 3 and service
        # 5, not their source keys, which both hold the establishment e1
        _tmp, store = built
        rc, out, err = tdw("inspect", "--store", store, "--class", "Etablissements")
        assert rc == 0, err
        assert "  oid 8  [Hôpitaux_Publics:3, Services:5]  active" in out
        assert "ETABLISSEMENT:e1" not in out

    def test_a_self_join_lists_each_key_pair_once(self, tmp_path):
        edw = tmp_path / "paires.edw"
        edw.write_text(
            "warehouse Paires;\n"
            "interface Paires { D_attribute String nom; }\n"
            'mapping Paires = project(a.nom, join(a: SERVICE, b: SERVICE, a.nom = "Urgences"));\n',
            encoding="utf-8",
        )
        store = str(tmp_path / "p.store")
        rc, _out, err = tdw(
            "build", "--warehouse", str(edw), "--source-schema", ODL,
            "--snapshot", write_snapshot(tmp_path / "s1990.jsonl", 1990),
            "--at", "1990", "--store", store,
        )
        assert rc == 0, err
        rc, out, err = tdw("inspect", "--store", store, "--class", "Paires")
        assert rc == 0, err
        assert "  oid 2  [SERVICE:s2]  active" in out
        assert "SERVICE:s2, SERVICE:s2" not in out

    def test_history_blocks_after_eleven_yearly_refreshes(self, built):
        tmp, store = built
        for y in range(1991, 2002):
            snap = write_snapshot(tmp / f"s{y}.jsonl", y)
            rc, _o, err = tdw("refresh", "--store", store, "--snapshot", snap, "--at", str(y))
            assert rc == 0, err
        rc, out, _ = tdw(
            "inspect", "--store", store, "--class", "Hôpitaux_Publics", "--oid", "3",
            "--history",
        )
        assert rc == 0
        blocks = [l for l in out.splitlines() if l.startswith(("current ", "past ", "archive "))]
        assert len(blocks) == 4  # 1 current + 2 past + 1 archive

    def test_unknown_oid(self, built):
        _tmp, store = built
        rc, _out, err = tdw(
            "inspect", "--store", store, "--class", "Chirurgiens", "--oid", "999"
        )
        assert rc == 1 and "999" in err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--class", "Nope"], "unknown class 'Nope'"),
         (["--class", "Chirurgiens", "--oid", "999"], "oid 999 is not in class 'Chirurgiens'")],
        ids=["unknown-class", "oid-not-in-class"],
    )
    def test_unknown_name_is_one_line_on_stderr(self, built, flags, message):
        _tmp, store = built
        rc, out, err = tdw("inspect", "--store", store, *flags)
        assert (rc, out, err) == (1, "", f"error: {message}\n")

    def test_at_before_creation_prints_absent(self, built):
        _tmp, store = built
        rc, out, _ = tdw(
            "inspect", "--store", store, "--class", "Chirurgiens", "--oid", "1",
            "--at", "1980",
        )
        assert rc == 0 and "absent" in out

    def test_at_routes_through_value_at(self, built):
        _tmp, store = built
        rc, out, _ = tdw(
            "inspect", "--store", store, "--class", "Hôpitaux_Publics", "--oid", "3",
            "--at", "1990",
        )
        assert rc == 0 and "current" in out and "2000000" in out

    def test_header_membership_oid_that_no_object_has_is_malformed(self, built):
        _tmp, store = built
        path = Path(store)
        header, rest = path.read_text(encoding="utf-8").split("\n", 1)
        head = store_header(header)
        head["memberships"] = {"Jeunes_Chirurgiens": [999]}
        path.write_text(sealed_header(head) + "\n" + rest, encoding="utf-8")
        rc, out, err = tdw("inspect", "--store", store, "--class", "Jeunes_Chirurgiens")
        assert rc == 1 and out == ""
        assert "malformed store document (ValueError: membership 'Jeunes_Chirurgiens' holds " in err
        assert "Traceback" not in err

    def test_header_membership_oid_its_operand_cannot_select_is_malformed(self, built):
        _tmp, store = built
        rewrite_header(store, memberships={"Jeunes_Chirurgiens": [3]})  # a hospital
        rc, out, err = tdw("inspect", "--store", store, "--class", "Chirurgiens")
        assert rc == 1 and out == ""
        assert (
            "malformed store document (ValueError: membership 'Jeunes_Chirurgiens' holds "
            "oid 3, which 'Chirurgiens' cannot select)" in err
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "slot, value, detail",
        [(1, "Fantômes", "is of class 'Fantômes', which owns no objects"),
         (2, "zombie", "has status 'zombie', not active or frozen"),
         (3, "ab", "has a source key other than [interface, id] pairs"),
         (3, [["PRATICIEN", "p1", "x"]],
          "has a source key other than [interface, id] pairs")],
        ids=["class", "status", "key-a-string", "key-pair-of-three"],
    )
    def test_header_index_entry_is_checked(self, built, slot, value, detail):
        _tmp, store = built
        path = Path(store)
        header, rest = path.read_text(encoding="utf-8").split("\n", 1)
        head = store_header(header)
        head["objects"][0][slot] = value  # oid 1, a young surgeon
        path.write_text(sealed_header(head) + "\n" + rest, encoding="utf-8")
        rc, out, err = tdw("inspect", "--store", store, "--class", "Chirurgiens")
        assert rc == 1 and out == ""
        assert f"malformed store document (ValueError: oid 1 {detail})" in err
        assert "Traceback" not in err

    def test_a_thawed_object_shows_its_lifecycle_gap(self, built):
        # service s1 moves from hospital e1 to e2 at 1991 and back at 1992:
        # its (e1, s1) object, oid 5, is frozen over 1991 and then thaws
        tmp, store = built
        for y, home in ((1991, "e2"), (1992, "e1"), (1993, "e1")):
            records = hospital_records(y)
            for r in records:
                if r["interface"] == "ETABLISSEMENT":
                    others = [s for s in r["links"]["organisation"] if s != "s1"]
                    r["links"]["organisation"] = sorted(others + ["s1"] * (r["id"] == home))
            snap = tmp / f"s{y}.jsonl"
            snap.write_text("\n".join(snapshot_lines(records)) + "\n", encoding="utf-8")
            rc, _o, err = tdw("refresh", "--store", store, "--snapshot", str(snap), "--at", str(y))
            assert rc == 0, err
        argv = ["inspect", "--store", store, "--class", "Services", "--oid", "5"]
        rc, out, err = tdw(*argv)
        assert rc == 0, err
        assert out.startswith("object 5 (Services, active) lifecycle [1990..1990]; [1992..1993]\n")
        rc, out, err = tdw(*argv, "--at", "1991")
        assert rc == 0, err
        assert out.endswith("at 1991: absent\n")

    def test_malformed_at_fails_before_printing(self, built):
        _tmp, store = built
        rc, out, err = tdw(
            "inspect", "--store", store, "--class", "Chirurgiens", "--oid", "1", "--at", "19x3"
        )
        assert (rc, out, err) == (2, "", "error: unrecognized instant notation '19x3'\n")

    @pytest.mark.parametrize(
        "flags, message",
        [(["--at", "1990"], "--at and --history need --oid"),
         (["--history"], "--at and --history need --oid"),
         (["--oid", "1", "--at", "1990", "--history"], "--at excludes --history")],
        ids=["at-without-oid", "history-without-oid", "at-with-history"],
    )
    def test_flags_that_would_be_ignored_are_usage_errors(self, tmp_path, flags, message):
        # the store does not exist: the flags are checked before it is read
        missing = str(tmp_path / "missing.store")
        rc, out, err = tdw("inspect", "--store", missing, "--class", "Chirurgiens", *flags)
        assert (rc, out, err) == (2, "", f"error: {message}\n")


class TestInProcess:
    """Several commands run through cli.main in one process, as the
    benchmark drives them."""

    @pytest.fixture()
    def refreshed(self, built, capsys):
        """The built store refreshed at 1991, which gives hospital oid 3
        a past state."""
        tmp, store = built
        snap = write_snapshot(tmp / "s1991.jsonl", 1991)
        assert cli.main(["refresh", "--store", store, "--snapshot", snap, "--at", "1991"]) == 0
        capsys.readouterr()
        return store

    def test_one_call_leaves_no_flag_to_the_next(self, refreshed, capsys):
        argv = ["inspect", "--store", refreshed, "--class", "Hôpitaux_Publics", "--oid", "3"]
        assert cli.main([*argv, "--history"]) == 0
        assert "\npast <[1990..1990]>:\n" in capsys.readouterr().out
        assert cli.main(argv) == 0
        plain = capsys.readouterr().out
        assert plain.startswith("object 3 (Hôpitaux_Publics, active) lifecycle [1990..1991]\n")
        assert "past" not in plain
        with pytest.raises(SystemExit) as exc:
            cli.main(["inspect", "--store", refreshed])  # --class is missing
        assert exc.value.code == 2
        assert "--class" in capsys.readouterr().err
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == plain

    def test_a_held_lock_refuses_a_second_writer(self, built):
        _tmp, store = built
        with _locked(store):
            with pytest.raises(StoreLocked) as err:
                with _locked(store):
                    pass
        assert str(err.value) == f"store is locked by another writer ({store}.lock)"
        assert_lock_released(store)

    def test_a_lock_that_fails_otherwise_than_held_is_released(
        self, built, monkeypatch, capsys
    ):
        tmp, store = built
        snap = write_snapshot(tmp / "s1991.jsonl", 1991)
        before = Path(store).read_bytes()

        def fail(*_args):
            raise OSError(errno.ENOLCK, "No locks available")

        monkeypatch.setattr(fcntl, "flock", fail)
        assert cli.main(["refresh", "--store", store, "--snapshot", snap, "--at", "1991"]) == 2
        monkeypatch.undo()
        assert capsys.readouterr().err == f"error: [Errno {errno.ENOLCK}] No locks available\n"
        assert_lock_released(store)
        assert Path(store).read_bytes() == before

    @pytest.mark.parametrize(
        "flags, decoded",
        [([], 0), (["--oid", "3", "--history"], 1), (["--oid", "3", "--at", "1990"], 1)],
        ids=["listing", "history", "at"],
    )
    def test_inspect_decodes_only_the_object_it_shows(
        self, refreshed, capsys, monkeypatch, flags, decoded
    ):
        header = store_header(Path(refreshed).read_text(encoding="utf-8").split("\n", 1)[0])
        assert header["format"] == "tdw-store-v6"
        seen = []
        line = engine._StateDecoder.line  # decodes one object line

        def counted(self, *args):
            seen.append(args)
            return line(self, *args)

        monkeypatch.setattr(engine._StateDecoder, "line", counted)
        argv = ["inspect", "--store", refreshed, "--class", "Hôpitaux_Publics", *flags]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith(("class ", "object 3 "))
        assert len(seen) == decoded

    @pytest.mark.parametrize(
        "flags, decoded", [([], set()), (["--oid", "3", "--history"], {3})],
        ids=["listing", "history"],
    )
    def test_a_load_leaves_deferred_every_object_it_does_not_show(
        self, refreshed, capsys, monkeypatch, flags, decoded
    ):
        store = engine.load_store(refreshed)
        assert store.objects and not any(obj.decoded for obj in store.objects.values())
        loaded = []
        load = engine.load_store

        def kept(path):
            loaded.append(load(path))
            return loaded[-1]

        monkeypatch.setattr(engine, "load_store", kept)
        argv = ["inspect", "--store", refreshed, "--class", "Hôpitaux_Publics", *flags]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith(("class ", "object 3 "))
        (store,) = loaded
        assert {oid for oid, obj in store.objects.items() if obj.decoded} == decoded

    @pytest.mark.parametrize("writer", [v5_text, v4_text, v3_text], ids=["v5", "v4", "v3"])
    @pytest.mark.parametrize(
        "flags, decoded", [([], 0), (["--oid", "3", "--history"], 1)], ids=["listing", "history"]
    )
    def test_inspect_of_an_older_file_translates_only_the_object_it_shows(
        self, refreshed, capsys, monkeypatch, writer, flags, decoded
    ):
        argv = ["inspect", "--store", refreshed, "--class", "Hôpitaux_Publics", *flags]
        assert cli.main(argv) == 0
        shown = capsys.readouterr().out
        Path(refreshed).write_text(writer(engine.load_store(refreshed)), encoding="utf-8")
        seen = []
        line = engine._StateDecoder.line  # translates and decodes one object line

        def counted(self, *args):
            seen.append(args)
            return line(self, *args)

        monkeypatch.setattr(engine._StateDecoder, "line", counted)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == shown
        assert len(seen) == decoded


@pytest.fixture()
def damaged(built):
    """The built store with the object line of oid 3, a hospital, replaced
    by text that is not JSON; the header is left sound."""
    tmp, store = built
    path = Path(store)
    header, *lines = path.read_text(encoding="utf-8")[:-1].split("\n")
    oids = [entry[0] for entry in store_header(header)["objects"]]
    lines[oids.index(3)] = "{damaged"
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    return tmp, store


class TestDamagedObjectLine:
    def test_other_objects_and_listings_still_inspect(self, damaged):
        _tmp, store = damaged
        rc, out, err = tdw(
            "inspect", "--store", store, "--class", "Hôpitaux_Publics", "--oid", "4", "--history"
        )
        assert rc == 0, err
        assert out.startswith("object 4 (Hôpitaux_Publics, active) lifecycle")
        rc, out, err = tdw("inspect", "--store", store, "--class", "Hôpitaux_Publics")
        assert rc == 0, err
        assert "  oid 3  [ETABLISSEMENT:e1]  active" in out

    def test_inspecting_the_damaged_object_is_a_domain_error(self, damaged):
        _tmp, store = damaged
        rc, out, err = tdw(
            "inspect", "--store", store, "--class", "Hôpitaux_Publics", "--oid", "3"
        )
        assert rc == 1 and out == ""
        assert "h.store: malformed store document (JSONDecodeError: Expecting" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["refresh", "patch"])
    def test_writers_leave_the_file_as_it_was(self, damaged, verb):
        tmp, store = damaged
        before = Path(store).read_bytes()
        if verb == "refresh":
            snap = write_snapshot(tmp / "s1991.jsonl", 1991)
            args = ("refresh", "--store", store, "--snapshot", snap, "--at", "1991")
        else:  # a sound object: the damaged one is met when the store is saved
            args = ("patch", "--store", store, "--oid", "4", "--set", "année_création=1956",
                    "--at", "1990")
        rc, _out, err = tdw(*args)
        assert rc == 1
        assert "h.store: malformed store document (JSONDecodeError: Expecting" in err
        assert "Traceback" not in err
        assert Path(store).read_bytes() == before
        # no temporary file is left; the lock file stays, as it always does
        assert sorted(p.name for p in tmp.iterdir() if p.name.startswith("h.store")) == [
            "h.store", "h.store.lock"
        ]
        assert_lock_released(store)


# how damaged_unread damages an object line, and the error that reading
# the line raises: the whole line replaced by text that is not JSON, or a
# past state's document after a TAB that is not JSON or whose domain
# starts after it ends
LINE_DAMAGE = {
    "": (lambda line: "{damaged", "JSONDecodeError: Expecting"),
    "past-not-json": (lambda line: line + "\t{damaged", "JSONDecodeError: Expecting"),
    "past-start-after-end": (
        lambda line: line + '\t{"domain":[[21,20]],"value":{}}',
        "ValueError: empty interval [1991, 1990]",
    ),
}


@pytest.fixture(
    params=[
        f"{line}-{damage}" if damage else line
        for damage in LINE_DAMAGE
        for line in ("frozen", "untouched")
    ]
)
def damaged_unread(request, built):
    """The built store refreshed at 1991 without service s2, which freezes
    its Services object and its Etablissements composite, then saved with
    one object line damaged as LINE_DAMAGE says: the frozen composite's,
    which no later refresh reads, or the line of service s1, which the
    next refresh carries without touching. Returns the store's folder and
    path, the damaged object's oid and class, and the error its first
    read names."""
    tmp, store = built
    records = [r for r in hospital_records(1991) if r["id"] != "s2"]
    for r in records:
        if r["id"] == "e1":
            r["links"]["organisation"] = ["s1"]
    snap = tmp / "s1991.jsonl"
    snap.write_text("\n".join(snapshot_lines(records)) + "\n", encoding="utf-8")
    rc, _out, err = tdw("refresh", "--store", store, "--snapshot", str(snap), "--at", "1991")
    assert rc == 0, err
    path = Path(store)
    header, *lines = path.read_text(encoding="utf-8")[:-1].split("\n")
    index = store_header(header)["objects"]
    which, _, damage = request.param.partition("-")
    # a composite's key ends with its service's object, [class, oid]
    (s2,) = [oid for oid, cname, _status, key, _crc in index
             if (cname, key[-1][1]) == ("Services", "s2")]
    wanted = (
        ("Etablissements", "frozen", s2) if which == "frozen"
        else ("Services", "active", "s1")
    )
    (at,) = [i for i, (_oid, cname, status, key, _crc) in enumerate(index)
             if (cname, status, key[-1][1]) == wanted]
    change, error = LINE_DAMAGE[damage]
    lines[at] = change(lines[at])
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    return tmp, store, index[at][0], index[at][1], error


class TestDamagedUnreadLine:
    """A line the next save would write again as it was read is checked
    by its CRC-32 before it is written, and a line that fails it is
    decoded whole: its head and each of its past states' documents."""

    def test_reading_the_damaged_object_is_a_domain_error(self, damaged_unread):
        _tmp, store, oid, cname, error = damaged_unread
        rc, out, err = tdw("inspect", "--store", store, "--class", cname, "--oid", str(oid))
        assert rc == 1 and out == ""
        assert f"h.store: malformed store document ({error}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["refresh", "patch"])
    def test_writers_leave_the_file_as_it_was(self, damaged_unread, verb):
        tmp, store, _oid, _cname, error = damaged_unread
        before = Path(store).read_bytes()
        if verb == "refresh":
            snap = write_snapshot(tmp / "s1992.jsonl", 1992)
            args = ("refresh", "--store", store, "--snapshot", snap, "--at", "1992")
        else:
            args = ("patch", "--store", store, "--oid", "3", "--set", "année_création=1956",
                    "--at", "1991")
        rc, _out, err = tdw(*args)
        assert rc == 1
        assert f"h.store: malformed store document ({error}" in err
        assert "Traceback" not in err
        assert Path(store).read_bytes() == before
        # no temporary file is left; the lock file stays, as it always does
        assert sorted(p.name for p in tmp.iterdir() if p.name.startswith("h.store")) == [
            "h.store", "h.store.lock"
        ]
        assert_lock_released(store)


# how damaged_states changes the line of oid 1, a surgeon with three past
# states, and the error that reading the line raises: a line that still
# parses fails its checksum
STATE_DAMAGE = {
    "past-empty": (
        lambda head, past: past[0].update(domain=[]),
        "ValueError: a domain spans no granule",
    ),
    "archive-empty": (
        lambda head, past: head.update(
            archives=[{"aggregates": {}, "domain": []}]
        ),
        "ValueError: a domain spans no granule",
    ),
    "current-empty": (
        lambda head, past: head["current"].update(domain=[]),
        "ValueError: a domain spans no granule",
    ),
    "past-value-changed": (
        lambda head, past: past[0]["value"].update(nom="Bernard!"),
        "ValueError: the line of oid 1 fails its checksum",
    ),
    "current-overlaps-past": (
        lambda head, past: head["current"].update(domain=[[past[-1]["domain"][-1][1], 23]]),
        "ValueError: a current state starts before its newest past state ends",
    ),
}


@pytest.fixture(scope="module")
def long_store(tmp_path_factory):
    """A store of the benchmark's hopital_long.edw, which keeps past states
    for 20 years, built at 1990 and refreshed yearly to 1993."""
    tmp = tmp_path_factory.mktemp("long")
    store = str(tmp / "h.store")
    edw = str(TestBenchInputs.BENCH / "hopital_long.edw")
    snap = write_snapshot(tmp / "s1990.jsonl", 1990)
    rc, _out, err = tdw(
        "build", "--warehouse", edw, "--source-schema", ODL,
        "--snapshot", snap, "--at", "1990", "--store", store,
    )
    assert rc == 0, err
    for y in (1991, 1992, 1993):
        snap = write_snapshot(tmp / f"s{y}.jsonl", y)
        rc, _out, err = tdw("refresh", "--store", store, "--snapshot", snap, "--at", str(y))
        assert rc == 0, err
    return Path(store).read_bytes()


@pytest.fixture(params=list(STATE_DAMAGE))
def damaged_states(request, tmp_path, long_store):
    """long_store with oid 1's line damaged as STATE_DAMAGE says; returns
    the store's folder and path, and the error its first read names."""
    path = tmp_path / "h.store"
    header, *lines = long_store.decode("utf-8")[:-1].split("\n")
    at = [entry[0] for entry in store_header(header)["objects"]].index(1)
    head, *past = map(json.loads, lines[at].split("\t"))
    assert len(past) == 3 and head["current"]["domain"] == [[23, 23]]
    change, error = STATE_DAMAGE[request.param]
    change(head, past)
    lines[at] = "\t".join(json.dumps(d, ensure_ascii=False) for d in (head, *past))
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    return tmp_path, str(path), error


class TestDamagedStates:
    """An empty domain, or a current state that starts before its newest
    past state ends, is the malformed-store error at the line's first
    read, not a traceback or a refresh that saves the damage."""

    def test_inspect_names_the_damage(self, damaged_states):
        _tmp, store, error = damaged_states
        rc, out, err = tdw("inspect", "--store", store, "--class", "Chirurgiens", "--oid", "1")
        assert (rc, out) == (1, "")
        assert err == f"error: {store}: malformed store document ({error})\n"

    @pytest.mark.parametrize("verb", ["refresh", "patch"])
    def test_writers_leave_the_file_as_it_was(self, damaged_states, verb):
        tmp, store, error = damaged_states
        before = Path(store).read_bytes()
        if verb == "refresh":
            snap = write_snapshot(tmp / "s1994.jsonl", 1994)
            args = ("refresh", "--store", store, "--snapshot", snap, "--at", "1994")
        else:  # a sound object: the damaged one is met when the store is saved
            args = ("patch", "--store", store, "--oid", "3", "--set", "année_création=1956",
                    "--at", "1993")
        rc, out, err = tdw(*args)
        assert (rc, out) == (1, "")
        assert err == f"error: {store}: malformed store document ({error})\n"
        assert Path(store).read_bytes() == before
        assert not Path(store + ".tmp").exists()


def edited_line(text: str, oid: int, change) -> str:
    """A store file's text with the line of oid split into its documents,
    passed to change(head, past) and joined again in the writer's form."""
    header, *lines = text[:-1].split("\n")
    at = [entry[0] for entry in store_header(header)["objects"]].index(oid)
    head, *past = map(json.loads, lines[at].split("\t"))
    change(head, past)
    lines[at] = "\t".join(
        json.dumps(d, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        for d in (head, *past)
    )
    return "\n".join([header, *lines]) + "\n"


# a domain bound that is no integer, as the current, the newest past or an
# archive state's domain of a resealed v6 line, or as the current domain
# of a v4 line, and the error the line's first read raises
FRACTIONAL = [[29.5, 30]]
FRACTIONAL_TICK = {
    "current": lambda head, past: head["current"].update(domain=FRACTIONAL),
    "past": lambda head, past: past[-1].update(domain=FRACTIONAL),
    "archive": lambda head, past: head.update(
        archives=[{"aggregates": {}, "domain": FRACTIONAL}]
    ),
    "v4-current": lambda head, past: head["current"]["domain"].update(intervals=FRACTIONAL),
}


@pytest.fixture(params=list(FRACTIONAL_TICK))
def fractional_tick(request, tmp_path, long_store):
    """long_store with a bound of oid 1's line made fractional as
    FRACTIONAL_TICK says, resealed, or in a v4 file. Returns its path."""
    path = tmp_path / "h.store"
    path.write_bytes(long_store)
    text = long_store.decode("utf-8")
    if request.param.startswith("v4"):
        text = v4_text(engine.load_store(str(path)))
    text = edited_line(text, 1, FRACTIONAL_TICK[request.param])
    path.write_text(text if request.param.startswith("v4") else resealed(text), encoding="utf-8")
    return str(path)


class TestFractionalTick:
    """A domain bound that is no integer is the malformed-store error at
    its line's first read, not a lifecycle with a fractional year."""

    def test_inspect_names_the_damage(self, fractional_tick):
        store = fractional_tick
        rc, out, err = tdw("inspect", "--store", store, "--class", "Chirurgiens", "--oid", "1")
        assert (rc, out) == (1, "")
        assert err == (
            f"error: {store}: malformed store document"
            " (TypeError: a domain bound is a float, not an integer)\n"
        )


# a value of the frozen surgeon p4 that does not fit its slot, and the
# detail of the TypeMismatch a refresh raises, after the object's oid
MISTYPED = {
    "attribute": (
        ("année_naissance", {}), "Chirurgiens.année_naissance: expected an integer, got {}"
    ),
    "to-many-relation": (
        ("travaille", "s1"), "Chirurgiens.travaille: expected null or a list of oids, got 's1'"
    ),
    "to-one-relation": (("dirige", [5]), "Chirurgiens.dirige: expected null or an oid, got [5]"),
}


@pytest.fixture(params=[(name, layout) for name in MISTYPED for layout in ("v5", "v4")],
                ids=lambda param: "-".join(param))
def mistyped(request, tmp_path):
    """The fixture store built at 1990 with the extra surgeon p4 and
    refreshed at 1991 without him, so that his object is frozen, and a
    value of that object set as MISTYPED says, in a resealed v6 line
    (the "v5" case, named when that was the sealed layout) or in a v4
    file. Returns the store's folder and path, and the error."""
    name, layout = request.param
    store = tmp_path / "h.store"
    snap = write_snapshot(tmp_path / "s1990.jsonl", 1990, with_extra_surgeon=True)
    rc, _out, err = tdw(
        "build", "--warehouse", EDW, "--source-schema", ODL,
        "--snapshot", snap, "--at", "1990", "--store", str(store),
    )
    assert rc == 0, err
    snap = write_snapshot(tmp_path / "s1991.jsonl", 1991)
    rc, _out, err = tdw("refresh", "--store", str(store), "--snapshot", snap, "--at", "1991")
    assert rc == 0, err
    text = store.read_text(encoding="utf-8")
    index = store_header(text.split("\n", 1)[0])["objects"]
    [p4] = [oid for oid, cname, status, key, _crc in index
            if key == [["PRATICIEN", "p4"]] and (cname, status) == ("Chirurgiens", "frozen")]
    if layout == "v4":
        text = v4_text(engine.load_store(str(store)))
    (prop, value), detail = MISTYPED[name]
    text = edited_line(text, p4, lambda head, past: head["current"]["value"].update({prop: value}))
    store.write_text(resealed(text) if layout == "v5" else text, encoding="utf-8")
    return tmp_path, str(store), f"oid {p4}: {detail}"


class TestMistypedFrozenValue:
    """A frozen object's stored value, which a refresh reads but does not
    derive again, is checked against its slot: a value that does not fit
    fails the refresh with a TypeMismatch, not a traceback, and the store
    is left as it was."""

    def test_refresh_names_the_slot_and_leaves_the_file(self, mistyped):
        tmp, store, error = mistyped
        before = Path(store).read_bytes()
        snap = write_snapshot(tmp / "s1992.jsonl", 1992)
        rc, out, err = tdw("refresh", "--store", store, "--snapshot", snap, "--at", "1992")
        assert (rc, out, err) == (1, "", f"error: {error}\n")
        assert Path(store).read_bytes() == before
        assert not Path(store + ".tmp").exists()


@pytest.fixture(params=["v5", "v4"])
def mistyped_specific(request, built):
    """The fixture store built at 1990 with the specific année_création of
    hospital oid 3 set to {}, in a resealed v6 line ("v5") or in a v4 file.
    Returns the store's folder and path."""
    tmp, store = built
    text = Path(store).read_text(encoding="utf-8")
    if request.param == "v4":
        text = v4_text(engine.load_store(store))
    mistyped = {"année_création": {}}
    text = edited_line(text, 3, lambda head, past: head["current"]["value"].update(mistyped))
    Path(store).write_text(resealed(text) if request.param == "v5" else text, encoding="utf-8")
    return tmp, store


class TestMistypedSpecificValue:
    """An active object's specific value, which a refresh carries but does
    not derive again, is checked as it is carried: a value that does not
    fit fails the refresh, so no composite over the object copies it, and
    the store is left as it was."""

    def test_refresh_names_the_slot_and_leaves_the_file(self, mistyped_specific):
        tmp, store = mistyped_specific
        before = Path(store).read_bytes()
        snap = write_snapshot(tmp / "s1991.jsonl", 1991)
        rc, out, err = tdw("refresh", "--store", store, "--snapshot", snap, "--at", "1991")
        assert (rc, out) == (1, "")
        assert err == (
            "error: oid 3: Hôpitaux_Publics.année_création: expected an integer, got {}\n"
        )
        assert Path(store).read_bytes() == before
        assert not Path(store + ".tmp").exists()


@pytest.fixture(scope="module")
def archived_store(tmp_path_factory):
    """The fixture store built at 1990 and refreshed yearly to 1993, when
    surgeon oid 1 holds one archive state, [1990..1990]."""
    tmp = tmp_path_factory.mktemp("archived")
    store = str(tmp / "h.store")
    snap = write_snapshot(tmp / "s1990.jsonl", 1990)
    argv = ["--snapshot", snap, "--at", "1990", "--store", store]
    assert cli.main(["build", "--warehouse", EDW, "--source-schema", ODL, *argv]) == 0
    for y in (1991, 1992, 1993):
        snap = write_snapshot(tmp / f"s{y}.jsonl", y)
        assert cli.main(["refresh", "--store", store, "--snapshot", snap, "--at", str(y)]) == 0
    [archive] = engine.load_store(store).objects[1].archives
    assert engine._bounds(archive.domain) == [[20, 20]]
    return Path(store).read_bytes()


@pytest.fixture(params=["v5", "v4"])
def two_archives(request, tmp_path, archived_store):
    """archived_store with a second archive state, over 1985-1986, in the
    head of oid 1, in a resealed v6 line ("v5") or in a v4 file. Returns the
    store's folder and path."""
    path = tmp_path / "h.store"
    path.write_bytes(archived_store)
    text = archived_store.decode("utf-8")
    bounds = [[15, 16]]
    if request.param == "v4":
        text = v4_text(engine.load_store(str(path)))
        bounds = {"intervals": bounds, "unit": "year"}
    second = {"aggregates": {}, "domain": bounds}
    text = edited_line(text, 1, lambda head, past: head["archives"].append(second))
    path.write_text(resealed(text) if request.param == "v5" else text, encoding="utf-8")
    return tmp_path, str(path)


class TestTwoArchiveStates:
    """An object keeps one cumulative archive state, so a head holding two
    is the malformed-store error at its first read: the next eviction
    would otherwise fold into the first and drop the second."""

    @pytest.mark.parametrize("verb", ["inspect", "refresh"])
    def test_a_command_names_the_damage_and_leaves_the_file(self, two_archives, verb):
        tmp, store = two_archives
        before = Path(store).read_bytes()
        if verb == "inspect":
            args = ("inspect", "--store", store, "--class", "Chirurgiens", "--oid", "1",
                    "--history")
        else:
            snap = write_snapshot(tmp / "s1994.jsonl", 1994)
            args = ("refresh", "--store", store, "--snapshot", snap, "--at", "1994")
        rc, out, err = tdw(*args)
        assert (rc, out) == (1, "")
        assert err == (
            f"error: {store}: malformed store document"
            " (ValueError: an object's head holds 2 archive states, not one)\n"
        )
        assert Path(store).read_bytes() == before
        assert not Path(store + ".tmp").exists()


def swapped_oldest(tmp_path: Path, long_store: bytes, layout: str) -> str:
    """long_store with the documents of surgeon oid 1's two oldest past
    states, 1990 and 1991, swapped, in a resealed v6 line or in a v4 file.
    Returns the store's path."""
    path = tmp_path / "h.store"
    path.write_bytes(long_store)
    text = long_store.decode("utf-8")
    if layout == "v4":
        text = v4_text(engine.load_store(str(path)))

    def swap(head, past):
        assert len(past) == 3
        past[0], past[1] = past[1], past[0]

    text = edited_line(text, 1, swap)
    path.write_text(resealed(text) if layout == "v6" else text, encoding="utf-8")
    return str(path)


class TestPastStatesOutOfOrder:
    """A past document's value is laid over its newer neighbour's, so the
    order of the documents decides every older value: wherever two
    neighbours are decoded, the older must end before the newer starts,
    or the line is the malformed-store error naming the file."""

    ERROR = "ValueError: a past state starts before its older neighbour ends"

    @pytest.mark.parametrize("layout", ["v6", "v4"])
    def test_inspect_of_the_history_names_the_damage(self, tmp_path, long_store, layout):
        store = swapped_oldest(tmp_path, long_store, layout)
        before = Path(store).read_bytes()
        rc, _out, err = tdw(
            "inspect", "--store", store, "--class", "Chirurgiens", "--oid", "1", "--history"
        )
        assert rc == 1
        assert err == f"error: {store}: malformed store document ({self.ERROR})\n"
        assert Path(store).read_bytes() == before

    def test_a_refresh_of_a_v4_file_names_the_damage(self, tmp_path, long_store):
        # a v4 line is decoded whole at its first read; a v6 refresh reads
        # the oldest domain alone, so a refresh does not see the order
        store = swapped_oldest(tmp_path, long_store, "v4")
        before = Path(store).read_bytes()
        snap = write_snapshot(tmp_path / "s1994.jsonl", 1994)
        rc, out, err = tdw("refresh", "--store", store, "--snapshot", snap, "--at", "1994")
        assert (rc, out) == (1, "")
        assert err == f"error: {store}: malformed store document ({self.ERROR})\n"
        assert Path(store).read_bytes() == before


class TestOlderFormOutOfPlace:
    """An older layout's form where it does not belong, each rejected with
    an error naming the file: a v4 header sealed as a v6 one is, which
    is read as the start of a v1 document, and a v4 domain in a v6 line."""

    def test_a_sealed_older_header_is_no_valid_document(self, built):
        _tmp, store = built
        text = v4_text(engine.load_store(store))
        header, rest = text.split("\n", 1)
        Path(store).write_text(f"{header}\t{zlib.crc32(header.encode())}\n{rest}",
                               encoding="utf-8")
        rc, out, err = tdw("inspect", "--store", store, "--class", "Chirurgiens")
        assert (rc, out) == (1, "")
        # the decoder skips the TAB as whitespace and stops at the CRC-32
        detail = f"Extra data: line 1 column {len(header) + 2} (char {len(header) + 1})"
        assert err == f"error: {store}: not a valid store document ({detail})\n"

    def test_an_older_domain_in_a_v5_line_is_malformed(self, built):
        _tmp, store = built
        older = {"intervals": [[20, 20]], "unit": "year"}
        text = edited_line(Path(store).read_text(encoding="utf-8"), 1,
                           lambda head, past: head["current"].update(domain=older))
        Path(store).write_text(resealed(text), encoding="utf-8")
        rc, out, err = tdw("inspect", "--store", store, "--class", "Chirurgiens", "--oid", "1")
        assert (rc, out) == (1, "")
        assert err == (
            f"error: {store}: malformed store document"
            " (TypeError: a domain is a dict, not a list)\n"
        )


@pytest.fixture()
def huge_counter(built):
    """The fixture store with a header oid_counter of 5,001 digits, past the
    JSON decoder's integer conversion limit. Returns the store's folder,
    path and the plain ValueError that decoding its header raises."""
    tmp, store = built
    path = Path(store)
    header, rest = path.read_text(encoding="utf-8").split("\n", 1)
    counter = f'"oid_counter":{store_header(header)["oid_counter"]},'
    assert header.count(counter) == 1
    header = header.replace(counter, '"oid_counter":' + "1" * 5001 + ",")
    path.write_text(header + "\n" + rest, encoding="utf-8")
    with pytest.raises(ValueError) as error:
        store_header(header)
    assert not isinstance(error.value, json.JSONDecodeError)
    return tmp, store, error.value


class TestHugeHeaderInteger:
    """A header integer past the decoder's limit is the invalid-store error
    naming the file, not a message that names none."""

    def test_inspect_names_the_file(self, huge_counter):
        _tmp, store, error = huge_counter
        rc, out, err = tdw("inspect", "--store", store, "--class", "Chirurgiens")
        assert (rc, out) == (1, "")
        assert err == f"error: {store}: not a valid store document ({error})\n"

    @pytest.mark.parametrize("verb", ["refresh", "patch"])
    def test_writers_leave_the_file_as_it_was(self, huge_counter, verb):
        tmp, store, error = huge_counter
        before = Path(store).read_bytes()
        if verb == "refresh":
            snap = write_snapshot(tmp / "s1991.jsonl", 1991)
            args = ("refresh", "--store", store, "--snapshot", snap, "--at", "1991")
        else:
            args = ("patch", "--store", store, "--oid", "3", "--set", "année_création=1956",
                    "--at", "1990")
        rc, out, err = tdw(*args)
        assert (rc, out) == (1, "")
        assert err == f"error: {store}: not a valid store document ({error})\n"
        assert Path(store).read_bytes() == before


@pytest.fixture()
def moved_tab(tmp_path, long_store):
    """long_store with oid 1's line damaged so that its TAB count still
    matches its documents: the comma before the current state's "value"
    member becomes a TAB, and the TAB between its first two past documents
    a comma. Returns the store's folder and path."""
    path = tmp_path / "h.store"
    header, *lines = long_store.decode("utf-8")[:-1].split("\n")
    at = [entry[0] for entry in store_header(header)["objects"]].index(1)
    head, first, rest = lines[at].split("\t", 2)
    assert head.count(',"value"') == 1
    lines[at] = "\t".join([head.replace(',"value"', '\t"value"'), f"{first},{rest}"])
    assert lines[at].count("\t") == long_store.decode("utf-8").split("\n")[at + 1].count("\t")
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    return tmp_path, str(path)


class TestDamagedCompositeKey:
    """A composite's index entry naming an oid that no object has is the
    malformed-store error naming the file, whatever the command, and no
    writer changes the file."""

    @pytest.mark.parametrize("verb", ["inspect", "refresh", "patch"])
    def test_each_command_exits_1_and_leaves_the_file(self, built, verb):
        tmp, store = built
        path = Path(store)
        header, rest = path.read_text(encoding="utf-8").split("\n", 1)
        head = store_header(header)
        (entry,) = [e for e in head["objects"] if e[0] == 8]
        assert entry[3] == [["Hôpitaux_Publics", 3], ["Services", 5]]
        entry[3] = [["Hôpitaux_Publics", 0], ["Services", 5]]
        path.write_text(sealed_header(head) + "\n" + rest, encoding="utf-8")
        before = path.read_bytes()
        args = {
            "inspect": ("inspect", "--store", store, "--class", "Etablissements"),
            "refresh": ("refresh", "--store", store, "--snapshot",
                        write_snapshot(tmp / "s1991.jsonl", 1991), "--at", "1991"),
            "patch": ("patch", "--store", store, "--oid", "3", "--set", "année_création=1956",
                      "--at", "1991"),
        }[verb]
        rc, out, err = tdw(*args)
        assert (rc, out) == (1, "")
        assert err == (
            f"error: {store}: malformed store document (ValueError: oid 8 names "
            "Hôpitaux_Publics:0, which no object has)\n"
        )
        assert path.read_bytes() == before


class TestMovedTab:
    """A TAB inside a document is the malformed-store error at the line's
    first read, even where a comma stands in for the separator it left:
    otherwise Store.touch would split the line at the wrong places and
    the next save would write a file that no longer loads."""

    PREFIX = "malformed store document (JSONDecodeError: Expecting"

    def test_inspect_names_the_damage(self, moved_tab):
        _tmp, store = moved_tab
        rc, out, err = tdw(
            "inspect", "--store", store, "--class", "Chirurgiens", "--oid", "1", "--history"
        )
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: {store}: {self.PREFIX}")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("verb", ["refresh", "patch"])
    def test_writers_leave_the_file_as_it_was(self, moved_tab, verb):
        tmp, store = moved_tab
        before = Path(store).read_bytes()
        if verb == "refresh":
            snap = write_snapshot(tmp / "s1994.jsonl", 1994)
            args = ("refresh", "--store", store, "--snapshot", snap, "--at", "1994")
        else:  # a sound object: the damaged one is met when the store is saved
            args = ("patch", "--store", store, "--oid", "3", "--set", "année_création=1956",
                    "--at", "1993")
        rc, out, err = tdw(*args)
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: {store}: {self.PREFIX}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert Path(store).read_bytes() == before


class TestPatch:
    def test_specific_patch_read_back(self, built):
        _tmp, store = built
        rc, _out, err = tdw(
            "patch", "--store", store, "--oid", "3",
            "--set", "année_création=1956", "--at", "1990",
        )
        assert rc == 0, err
        rc, out, _ = tdw(
            "inspect", "--store", store, "--class", "Hôpitaux_Publics", "--oid", "3"
        )
        assert "année_création = 1956" in out

    def test_a_short_holds_an_integer_of_any_size(self, tmp_path):
        # tdw's integers are unbounded: no 16- or 32-bit range is checked
        big = 10**20
        records = hospital_records(1990)
        [p1] = [r for r in records if r["id"] == "p1"]
        p1["values"]["année_naissance"] = big
        snap = tmp_path / "s1990.jsonl"
        snap.write_text("\n".join(snapshot_lines(records)) + "\n", encoding="utf-8")
        store = str(tmp_path / "h.store")
        rc, _out, err = tdw(
            "build", "--warehouse", EDW, "--source-schema", ODL,
            "--snapshot", str(snap), "--at", "1990", "--store", store,
        )
        assert rc == 0, err
        assert engine.load_store(store).objects[1].current.value["année_naissance"] == big
        rc, _out, err = tdw(
            "patch", "--store", store, "--oid", "3", "--set", f"année_création={big}", "--at", "1990"
        )
        assert rc == 0, err
        rc, out, err = tdw(
            "inspect", "--store", store, "--class", "Hôpitaux_Publics", "--oid", "3"
        )
        assert rc == 0, err
        assert f"année_création = {big}\n" in out

    def test_derived_property_rejected(self, built):
        _tmp, store = built
        rc, _out, err = tdw(
            "patch", "--store", store, "--oid", "3", "--set", "budget=1", "--at", "1990"
        )
        assert rc == 1 and "not a specific property" in err

    def test_a_patch_in_place_encodes_the_newest_past_document_again(
        self, tmp_path, archived_store
    ):
        # a patch of the non-temporal année_création gives hospital oid 3,
        # which holds history, a new current value; its newest past
        # document, a delta against the value it replaced, is encoded anew
        store = tmp_path / "h.store"
        store.write_bytes(archived_store)
        held = engine.load_store(str(store))
        before = held.objects[3].past[-1].value
        assert before["année_création"] is None
        rc, _out, err = tdw(
            "patch", "--store", str(store), "--oid", "3",
            "--set", "année_création=1956", "--at", "1993",
        )
        assert rc == 0, err
        engine.patch_specific(held, 3, "année_création", 1956, year(1993))
        patched = engine.load_store(str(store))
        assert store_to_dict(patched) == store_to_dict(held)
        assert patched.objects[3].current.value["année_création"] == 1956
        assert patched.objects[3].past[-1].value == before

    @pytest.mark.parametrize(
        "assignment, code, message",
        [("année_création", 2, "--set expects PROP=VALUE"),
         ("année_création=abc", 1,
          "Hôpitaux_Publics.année_création: expected an integer, got 'abc'")],
        ids=["without-equals", "not-json-is-a-string"],
    )
    def test_bad_assignment_leaves_the_store(self, built, assignment, code, message):
        _tmp, store = built
        before = Path(store).read_bytes()
        rc, out, err = tdw(
            "patch", "--store", store, "--oid", "3", "--set", assignment, "--at", "1991"
        )
        assert (rc, out, err) == (code, "", f"error: {message}\n")
        assert Path(store).read_bytes() == before

    def test_integer_past_the_conversion_limit_names_the_flag_and_property(self, built):
        _tmp, store = built
        before = Path(store).read_bytes()
        rc, out, err = tdw(
            "patch", "--store", store, "--oid", "3",
            "--set", "année_création=" + "1" * 5001, "--at", "1991",
        )
        assert (rc, out) == (1, "")
        assert err.startswith("error: --set année_création: not a valid value (Exceeds the limit")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert Path(store).read_bytes() == before

    def test_composite_object_rejected(self, built):
        _tmp, store = built
        rc, out, _ = tdw("inspect", "--store", store, "--class", "Etablissements")
        assert rc == 0 and "oid 8 " in out
        before = Path(store).read_bytes()
        rc, out, err = tdw(
            "patch", "--store", store, "--oid", "8", "--set", "année_création=1950",
            "--at", "1990",
        )
        assert (rc, out) == (1, "")
        assert "Etablissements.année_création mirrors its operands" in err
        assert Path(store).read_bytes() == before

    def test_relation_value_must_be_target_oids(self, tmp_path):
        # Services gains a specific to-many relation to surgeons
        edw = tmp_path / "referents.edw"
        text = Path(EDW).read_text(encoding="utf-8")
        head = "interface Services {\n"
        assert text.count(head) == 1
        edw.write_text(
            text.replace(head, head + "    S_relationship Set<Chirurgiens> référents;\n"),
            encoding="utf-8",
        )
        store = str(tmp_path / "r.store")
        snap = write_snapshot(tmp_path / "s1990.jsonl", 1990)
        rc, _o, err = tdw(
            "build", "--warehouse", str(edw), "--source-schema", ODL,
            "--snapshot", snap, "--at", "1990", "--store", store,
        )
        assert rc == 0, err
        before = Path(store).read_bytes()
        rc, out, err = tdw(
            "patch", "--store", store, "--oid", "5", "--set", 'référents="abc"', "--at", "1990"
        )
        assert (rc, out) == (1, "")
        assert err == (
            "error: Services.référents: expected a list of oids of class 'Chirurgiens', "
            "got 'abc'\n"
        )
        assert Path(store).read_bytes() == before
        rc, _o, err = tdw(
            "patch", "--store", store, "--oid", "5", "--set", "référents=[2, 1, 2]", "--at", "1990"
        )
        assert rc == 0, err
        rc, out, _ = tdw("inspect", "--store", store, "--class", "Services", "--oid", "5")
        assert "  référents = [1, 2]\n" in out

    def test_frozen_object_rejected(self, tmp_path):
        store = str(tmp_path / "f.store")
        snap0 = write_snapshot(tmp_path / "f1990.jsonl", 1990, with_extra_surgeon=True)
        rc, _o, err = tdw(
            "build", "--warehouse", EDW, "--source-schema", ODL,
            "--snapshot", snap0, "--at", "1990", "--store", store,
        )
        assert rc == 0, err
        snap1 = write_snapshot(
            tmp_path / "f1991.jsonl", 1991,
            with_extra_surgeon=True, extra_surgeon_category="cardiologie",
        )
        rc, _o, err = tdw("refresh", "--store", store, "--snapshot", snap1, "--at", "1991")
        assert rc == 0, err
        rc, out, _ = tdw("inspect", "--store", store, "--class", "Chirurgiens")
        frozen_oid = next(
            line.split()[1] for line in out.splitlines() if line.endswith("frozen")
        )
        rc, _out, err = tdw(
            "patch", "--store", store, "--oid", frozen_oid,
            "--set", "année_création=1", "--at", "1992",
        )
        assert rc == 1 and "frozen" in err


class TestPlan:
    def test_plan_lists_classes_and_level(self):
        rc, out, _ = tdw("plan", "--warehouse", EDW, "--source-schema", ODL)
        assert rc == 0
        assert "plan for warehouse Sante" in out
        for name in (
            "Personnes", "Chirurgiens", "Jeunes_Chirurgiens",
            "Hôpitaux_Publics", "Services", "Etablissements",
        ):
            assert name in out
        assert "historization level: graph" in out
        assert "keep 2 past state(s)" in out
        # supers precede subclasses in the creation order
        assert out.index("1. Personnes") < out.index("Chirurgiens extends Personnes")

    def test_plan_step_lines(self):
        rc, out, _ = tdw("plan", "--warehouse", EDW, "--source-schema", ODL)
        assert rc == 0
        lines = out.splitlines()
        for step in (
            "generalize c.nom, c.prénom, c.adresse, c.année_naissance from c: Chirurgiens",
            "augment nb_services := count(h.organisation), année_création : Short",
            'specialize e: Hôpitaux_Publics where e.ville = "Toulouse", s: Services '
            "on e.organisation contains s",
        ):
            assert "       " + step in lines
        join = lines.index("  5. Services") + 1
        assert lines[join : join + 7] == [
            "       join of:",
            "         from ETABLISSEMENT as e",
            '         select e.statut = "public"',
            "         rebind as h",
            "         from SERVICE as s",
            "       on h.organisation contains s",
            "       hide h.nom, h.statut, h.adresse, h.budget, h.organisation, s.téléphone",
        ]

    def test_single_class_environment_attribute_level(self, tmp_path):
        odl = tmp_path / "mini.odl"
        odl.write_text(
            "interface P { attribute String nom; attribute Short age; }",
            encoding="utf-8",
        )
        edw = tmp_path / "mini.edw"
        edw.write_text(
            "warehouse Mini;\n"
            "interface W { D_attribute String nom; D_attribute Short age; }\n"
            "with filters { temporal nom; }\n"
            "Environment E { class W; }\n"
            "mapping W = select(p: P, p.age >= 0);\n",
            encoding="utf-8",
        )
        rc, out, err = tdw("plan", "--warehouse", str(edw), "--source-schema", str(odl))
        assert rc == 0, err
        assert "historization level: attribute" in out

    def test_no_environment_is_listed_as_none(self, tmp_path):
        odl = tmp_path / "mini.odl"
        odl.write_text("interface P { attribute String nom; }", encoding="utf-8")
        edw = tmp_path / "mini.edw"
        edw.write_text(
            "interface W { D_attribute String nom; }\nmapping W = p: P;\n", encoding="utf-8"
        )
        rc, out, err = tdw("plan", "--warehouse", str(edw), "--source-schema", str(odl))
        assert (rc, err) == (0, "")
        assert out.endswith("\nenvironments:\n  (none)\n")

    def test_retention_lists_a_kept_duration(self, tmp_path):
        text = Path(EDW).read_text(encoding="utf-8")
        assert text.count("keep 2 past states;") == 1
        edw = tmp_path / "duration.edw"
        edw.write_text(text.replace("keep 2 past states;", "keep past 3 years;"),
                       encoding="utf-8")
        rc, out, err = tdw("plan", "--warehouse", str(edw), "--source-schema", ODL)
        assert rc == 0, err
        assert "       retention: refresh every 1 year(s); keep past 3 year(s)\n" in out

    def test_cyclic_supers_fail(self, tmp_path):
        edw = tmp_path / "cycle.edw"
        edw.write_text(
            "interface A (extend B) { }\ninterface B (extend A) { }\n", encoding="utf-8"
        )
        rc, out, _ = tdw("plan", "--warehouse", str(edw), "--source-schema", ODL)
        assert rc == 1
        assert "inheritance-cycle" in out

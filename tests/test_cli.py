"""Command line contract: flags, exit codes, deterministic output."""

import fcntl
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, hospital_records, snapshot_lines
from tdw import cli, engine
from tdw.cli import _locked
from tdw.dsl import parse_warehouse_def, print_warehouse_def

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

    def test_source_inheritance_cycle_is_a_domain_error(self, tmp_path):
        odl = tmp_path / "cycle.odl"
        odl.write_text("interface A (extend B) {} interface B (extend A) {}", encoding="utf-8")
        rc, _out, err = tdw("validate", "--source-schema", str(odl), "--warehouse", EDW)
        assert rc == 1
        assert err == "error: inheritance cycle through 'A'\n"

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


class TestBuild:
    def test_build_writes_store(self, built):
        _tmp, store = built
        header = json.loads(Path(store).read_text(encoding="utf-8").split("\n", 1)[0])
        assert header["format"] == "tdw-store-v4"
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
        outputs = {}
        for seed in ("0", "1"):
            store = str(tmp_path / f"h{seed}.store")
            rc, out, err = tdw(
                "build", "--warehouse", EDW, "--source-schema", ODL,
                "--snapshot", snaps[1990], "--at", "1990", "--store", store, hash_seed=seed,
            )
            assert rc == 0, err
            seen = [out, Path(store).read_bytes()]
            for y in (1991, 1992):
                rc, out, err = tdw(
                    "refresh", "--store", store, "--snapshot", snaps[y], "--at", str(y),
                    hash_seed=seed,
                )
                assert rc == 0, err
                seen += [out, Path(store).read_bytes()]
            outputs[seed] = seen
        assert outputs["0"] == outputs["1"]
        report = json.loads(outputs["0"][4])
        assert report["classes"]["Chirurgiens"]["frozen"] == 1


class TestInspect:
    def test_extension_listing_is_stable(self, built):
        _tmp, store = built
        rc1, out1, _ = tdw("inspect", "--store", store, "--class", "Chirurgiens")
        rc2, out2, _ = tdw("inspect", "--store", store, "--class", "Chirurgiens")
        assert rc1 == rc2 == 0 and out1 == out2
        assert out1.startswith("class Chirurgiens: 2 object(s)")

    def test_a_composite_lists_each_key_pair_once(self, built):
        # a Services key holds its establishment's pair, so a composite's
        # key, its hospital's key followed by its service's, holds it twice
        _tmp, store = built
        rc, out, err = tdw("inspect", "--store", store, "--class", "Etablissements")
        assert rc == 0, err
        assert "  oid 8  [ETABLISSEMENT:e1, SERVICE:s1]  active" in out
        assert "ETABLISSEMENT:e1, ETABLISSEMENT:e1" not in out

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
        head = json.loads(header)
        head["memberships"] = {"Jeunes_Chirurgiens": [999]}
        path.write_text(json.dumps(head, ensure_ascii=False) + "\n" + rest, encoding="utf-8")
        rc, out, err = tdw("inspect", "--store", store, "--class", "Jeunes_Chirurgiens")
        assert rc == 1 and out == ""
        assert "malformed store document (ValueError: membership 'Jeunes_Chirurgiens' holds " in err
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
        head = json.loads(header)
        head["objects"][0][slot] = value  # oid 1, a young surgeon
        path.write_text(json.dumps(head, ensure_ascii=False) + "\n" + rest, encoding="utf-8")
        rc, out, err = tdw("inspect", "--store", store, "--class", "Chirurgiens")
        assert rc == 1 and out == ""
        assert f"malformed store document (ValueError: oid 1 {detail})" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize(
        "flags, decoded",
        [([], 0), (["--oid", "3", "--history"], 1), (["--oid", "3", "--at", "1990"], 1)],
        ids=["listing", "history", "at"],
    )
    def test_inspect_decodes_only_the_object_it_shows(
        self, refreshed, capsys, monkeypatch, flags, decoded
    ):
        header = json.loads(Path(refreshed).read_text(encoding="utf-8").split("\n", 1)[0])
        assert header["format"] == "tdw-store-v4"
        seen = []
        line = engine._StateDecoder.line  # decodes one v4 object line

        def counted(self, *args):
            seen.append(args)
            return line(self, *args)

        monkeypatch.setattr(engine._StateDecoder, "line", counted)
        argv = ["inspect", "--store", refreshed, "--class", "Hôpitaux_Publics", *flags]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith(("class ", "object 3 "))
        assert len(seen) == decoded


@pytest.fixture()
def damaged(built):
    """The built store with the object line of oid 3, a hospital, replaced
    by text that is not JSON; the header is left sound."""
    tmp, store = built
    path = Path(store)
    header, *lines = path.read_text(encoding="utf-8")[:-1].split("\n")
    oids = [entry[0] for entry in json.loads(header)["objects"]]
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
        lambda line: line + '\t{"domain":{"intervals":[[21,20]],"unit":"year"},"value":{}}',
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
    index = json.loads(header)["objects"]
    which, _, damage = request.param.partition("-")
    wanted = (
        ("Etablissements", "frozen", "s2") if which == "frozen"
        else ("Services", "active", "s1")
    )
    (at,) = [i for i, (_oid, cname, status, key) in enumerate(index)
             if (cname, status, key[-1][1]) == wanted]
    change, error = LINE_DAMAGE[damage]
    lines[at] = change(lines[at])
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    return tmp, store, index[at][0], index[at][1], error


class TestDamagedUnreadLine:
    """A line the next save would write again as it was read is decoded,
    and so checked, before it is written: its head and each of its past
    states' documents."""

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

    def test_derived_property_rejected(self, built):
        _tmp, store = built
        rc, _out, err = tdw(
            "patch", "--store", store, "--oid", "3", "--set", "budget=1", "--at", "1990"
        )
        assert rc == 1 and "not a specific property" in err

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

    def test_cyclic_supers_fail(self, tmp_path):
        edw = tmp_path / "cycle.edw"
        edw.write_text(
            "interface A (extend B) { }\ninterface B (extend A) { }\n", encoding="utf-8"
        )
        rc, out, _ = tdw("plan", "--warehouse", str(edw), "--source-schema", ODL)
        assert rc == 1
        assert "inheritance-cycle" in out

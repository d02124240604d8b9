"""The README's examples run as written."""

import ast
import re
import shutil
from pathlib import Path

from conftest import FIXTURES, hospital_records, snapshot_lines

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_snippet() -> str:
    """The python block of the README's "Library use" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_library_use_snippet_runs(tmp_path, monkeypatch, capsys):
    for name in ("hopital.odl", "hopital.edw"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    for y in (1990, 1991):
        lines = snapshot_lines(hospital_records(y))
        (tmp_path / f"{y}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_snippet(), str(README), "exec"), {})
    report, state = capsys.readouterr().out.splitlines()
    report = ast.literal_eval(report)
    assert report["at"] == "1991" and report["warnings"] == []
    assert report["classes"]["Hôpitaux_Publics"]["historized"] == 2
    kind, value = ast.literal_eval(state)
    # the first public hospital's 1990 state was pushed to its past at 1991
    assert kind == "past" and value["nom"] == "CHU Purpan"

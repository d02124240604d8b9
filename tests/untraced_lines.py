"""List the lines of src/tdw that no process of the test suite runs.

    python tests/untraced_lines.py [pytest arguments]

Runs the suite (python -m pytest -q, plus any arguments given) with a
throwaway sitecustomize.py on PYTHONPATH, so every Python process the
suite starts, each `python -m tdw.cli` included, installs a sys.settrace
hook limited to src/tdw and records the lines it runs. Then prints
`file:line: source` for each line that holds code and that no process
ran, and exits with pytest's status. Standard library only; pytest does
not collect this file. A run takes about twice as long as the suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tdw"

# installed at interpreter start in every process of the run: record each
# line run in a file under the package, and write them out at exit
SITECUSTOMIZE = '''
import atexit, json, os, sys, tempfile, threading

_prefix = os.environ["UNTRACED_PACKAGE"] + os.sep
_out = os.environ["UNTRACED_OUT"]
_seen = {}


def _local(frame, event, _arg):
    if event == "line":
        _seen[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, _event, _arg):
    name = frame.f_code.co_filename
    if not name.startswith(_prefix):
        return None
    _seen.setdefault(name, set())
    return _local


def _write():
    sys.settrace(None)
    fd, path = tempfile.mkstemp(dir=_out, suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump({name: sorted(lines) for name, lines in _seen.items()}, fh)


atexit.register(_write)
sys.settrace(_global)
threading.settrace(_global)
'''


def code_lines(code: CodeType) -> set[int]:
    """The lines that hold code of a code object and those nested in it."""
    lines = {line for _start, _end, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
        paths = [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(p for p in paths if p),
            "UNTRACED_PACKAGE": str(PACKAGE),
            "UNTRACED_OUT": str(out),
        }
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *argv],
            cwd=ROOT, env=env,
        ).returncode
        ran: dict[str, set[int]] = {}
        for record in out.iterdir():
            for name, lines in json.loads(record.read_text(encoding="utf-8")).items():
                ran.setdefault(name, set()).update(lines)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        missed = code_lines(compile(source, str(path), "exec")) - ran.get(str(path), set())
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

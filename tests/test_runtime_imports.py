"""The runtime stays stdlib-only: every import under src/tdw is relative
or names a standard-library module. And every name a module there
imports is used, every private name it defines is referenced, and every
error class is raised or caught, so a fold that moves a name's last use
leaves no import, helper or error class behind. Every error class is
also named by a test, so no rejection goes untested by name. And the
store's state decoder and composite key reader name no file layout, so
a new layout adds a translator, not a decoder branch."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tdw"
TESTS = Path(__file__).resolve().parent


def foreign_imports(path: Path) -> list[str]:
    """path:line: module for each absolute import outside the standard library."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno}: {m}"
            for m in modules
            if m.partition(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert [hit for path in sources for hit in foreign_imports(path)] == []


def test_guard_flags_third_party_imports(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import json, numpy.linalg\n"
        "from . import engine\n"
        "from .errors import Error\n"
        "from yaml import safe_load\n"
        "def f():\n"
        "    import os.path\n"
        "    import requests\n",
        encoding="utf-8",
    )
    assert foreign_imports(module) == [
        "mod.py:1: numpy.linalg",
        "mod.py:4: yaml",
        "mod.py:7: requests",
    ]


def unused_imports(path: Path) -> list[str]:
    """path:line: name for each name a module imports and never reads. A
    name read only in a string annotation, or listed in __all__, counts
    as read; __future__ imports are directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            read |= {elt.value for elt in node.value.elts}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def _annotation_names(node: ast.AST) -> set[str]:
    """The names an annotation reads, inside its quoted parts too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def test_runtime_imports_only_names_it_uses():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert [hit for path in sources for hit in unused_imports(path)] == []


def test_guard_flags_unused_imports(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from . import engine\n"
        "from .errors import Error, ParseError as PE\n"
        "from .model import Oid, Store\n"
        "__all__ = ['engine']\n"
        "def f(x: 'Oid') -> list['Store']:\n"
        "    return os.path.join(x)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["mod.py:2: json", "mod.py:4: Error", "mod.py:4: PE"]


def unreferenced_private_names(paths: list[Path]) -> list[str]:
    """path:line: name for each private (_-prefixed, not dunder)
    module-level name or method defined in paths that nothing in paths
    references outside its own definition. A reference is a name read,
    an attribute read, or a name imported from another module."""
    defined: list[tuple[str, str, int, int]] = []  # name, file, first and last line
    refs: dict[str, list[tuple[str, int]]] = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            named: list[tuple[str, ast.stmt]] = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                named.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                named += [(sub.name, sub) for sub in node.body
                          if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                named += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
            defined += [
                (name, path.name, where.lineno, where.end_lineno)
                for name, where in named
                if name.startswith("_") and not name.startswith("__") and name != "_"
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.setdefault(node.id, []).append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                refs.setdefault(node.attr, []).append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    refs.setdefault(alias.name, []).append((path.name, node.lineno))
    return [
        f"{file}:{first}: {name}"
        for name, file, first, last in defined
        if not any(f != file or not first <= line <= last for f, line in refs.get(name, ()))
    ]


def test_every_private_name_is_referenced():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert unreferenced_private_names(sources) == []


def test_guard_flags_unreferenced_private_names(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from other import _imported\n"
        "_USED = 1\n"
        "_UNUSED = 2\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else _USED\n"
        "def _called():\n"
        "    return _imported\n"
        "class _Box:\n"
        "    def _method(self):\n"
        "        return self._helper()\n"
        "    def _helper(self):\n"
        "        return _called()\n"
        "    def __repr__(self):\n"
        "        return ''\n",
        encoding="utf-8",
    )
    other = tmp_path / "other.py"
    other.write_text("def _imported():\n    return 0\n", encoding="utf-8")
    assert unreferenced_private_names([module, other]) == [
        "mod.py:3: _UNUSED", "mod.py:4: _recursive", "mod.py:8: _Box", "mod.py:9: _method",
    ]


def unraised_errors(errors: Path, others: list[Path]) -> list[str]:
    """path:line: name for each class defined in errors that no module in
    others raises or catches, by its bare name or as an attribute."""
    tree = ast.parse(errors.read_text(encoding="utf-8"), filename=str(errors))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    used: set[str] = set()
    for path in others:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Raise):
                used |= _exception_names(node.exc)
            elif isinstance(node, ast.ExceptHandler):
                used |= _exception_names(node.type)
    return [f"{errors.name}:{c.lineno}: {c.name}" for c in classes if c.name not in used]


def _exception_names(node: ast.expr | None) -> set[str]:
    """The class names a raise or an except clause names."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _exception_names(elt)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def test_every_error_class_is_raised_or_caught():
    errors = PACKAGE / "errors.py"
    others = [path for path in sorted(PACKAGE.glob("*.py")) if path != errors]
    assert others
    assert unraised_errors(errors, others) == []


def test_guard_flags_unraised_errors(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text(
        "class Error(Exception):\n"
        "    pass\n"
        "class Raised(Error):\n"
        "    pass\n"
        "class Caught(Error):\n"
        "    pass\n"
        "class Qualified(Error):\n"
        "    pass\n"
        "class OnlyImported(Error):\n"
        "    pass\n"
        "class OnlyRaisedHere(Error):\n"
        "    pass\n"
        "def f():\n"
        "    raise OnlyRaisedHere()\n",
        encoding="utf-8",
    )
    module = tmp_path / "mod.py"
    module.write_text(
        "from . import errors\n"
        "from .errors import Caught, Error, OnlyImported, Raised\n"
        "def f(x):\n"
        "    try:\n"
        "        raise Raised(x)\n"
        "    except (Caught, KeyError):\n"
        "        raise errors.Qualified from None\n"
        "    except Error:\n"
        "        raise\n",
        encoding="utf-8",
    )
    assert unraised_errors(errors, [module]) == [
        "errors.py:9: OnlyImported", "errors.py:11: OnlyRaisedHere",
    ]


def untested_errors(errors: Path, tests: list[Path]) -> list[str]:
    """path:line: name for each class defined in errors that no code in
    tests names, by its bare name or as an attribute; importing it does
    not count."""
    tree = ast.parse(errors.read_text(encoding="utf-8"), filename=str(errors))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    named: set[str] = set()
    for path in tests:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [f"{errors.name}:{c.lineno}: {c.name}" for c in classes if c.name not in named]


def test_every_error_class_is_named_by_a_test():
    tests = sorted(TESTS.rglob("*.py"))
    assert tests
    assert untested_errors(PACKAGE / "errors.py", tests) == []


def test_guard_flags_untested_errors(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text(
        "class Error(Exception):\n"
        "    pass\n"
        "class Raised(Error):\n"
        "    pass\n"
        "class Qualified(Error):\n"
        "    pass\n"
        "class Nested(Error):\n"
        "    pass\n"
        "class OnlyImported(Error):\n"
        "    pass\n"
        "class OnlyInAString(Error):\n"
        "    pass\n",
        encoding="utf-8",
    )
    tests = tmp_path / "tests"
    (tests / "deep").mkdir(parents=True)
    (tests / "test_a.py").write_text(
        "import pytest\n"
        "from tdw import errors\n"
        "from tdw.errors import Error, OnlyImported, Raised\n"
        "def test_a():\n"
        "    with pytest.raises(Raised, match='OnlyInAString'):\n"
        "        raise errors.Qualified()\n",
        encoding="utf-8",
    )
    (tests / "deep" / "test_b.py").write_text(
        "def test_b(err):\n    assert isinstance(err, Nested)\n", encoding="utf-8"
    )
    assert untested_errors(errors, sorted(tests.rglob("*.py"))) == [
        "errors.py:1: Error", "errors.py:9: OnlyImported", "errors.py:11: OnlyInAString",
    ]


# what a decoder that branches on a store file's layout names: the
# layout itself, v1 and v2's implied current end, or a format
LAYOUT_NAMES = {"layout", "implied_end", "_open"}


def layout_names(path: Path, name: str) -> list[str]:
    """path:line: name for each format constant (*_FORMAT), format
    string ("tdw-store-…") or name in LAYOUT_NAMES, as a name, an
    attribute, a parameter or a definition, in the body of the
    module-level class or function called name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    [defined] = [node for node in tree.body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
    found = []
    for node in ast.walk(defined):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name.endswith("_FORMAT") or name in LAYOUT_NAMES or name.startswith("tdw-store-"):
            found.append((node.lineno, name))
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)]


def test_the_state_decoder_reads_one_layout():
    # an older layout is translated into v5 documents before the decoder
    # reads it, so a new format adds a translator and no decoder branch
    assert layout_names(PACKAGE / "engine.py", "_StateDecoder") == []


def test_the_composite_key_reader_reads_no_layout():
    # an older composite key is told by its shape, not by the file's layout
    engine = PACKAGE / "engine.py"
    assert layout_names(engine, "_read_specializations") == []
    assert layout_names(engine, "_composite_key") == []


def test_guard_flags_layout_branches(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "V4_FORMAT = 'tdw-store-v4'\n"
        "class _Other:\n"
        "    layout = V4_FORMAT\n"
        "class _StateDecoder:\n"
        "    '''Reads tdw-store-v5 documents.'''\n"
        "    def __init__(self, unit, layout):\n"
        "        self.unit = unit\n"
        "        self.implied_end = None\n"
        "    def line(self, doc):\n"
        "        if engine.STORE_FORMAT == 'tdw-store-v3':\n"
        "            return self._open(doc)\n"
        "        return doc['format']\n"
        "    def _open(self, doc):\n"
        "        return doc\n"
        "def _read_keys(store, layout):\n"
        "    '''Reads tdw-store-v5 keys.'''\n"
        "    if layout == V4_FORMAT:\n"
        "        return store.implied_end\n"
        "    return 'tdw-store-v2'\n",
        encoding="utf-8",
    )
    assert layout_names(module, "_StateDecoder") == [
        "mod.py:6: layout", "mod.py:8: implied_end", "mod.py:10: STORE_FORMAT",
        "mod.py:10: tdw-store-v3", "mod.py:11: _open", "mod.py:13: _open",
    ]
    assert layout_names(module, "_read_keys") == [
        "mod.py:15: layout", "mod.py:17: V4_FORMAT", "mod.py:17: layout",
        "mod.py:18: implied_end", "mod.py:19: tdw-store-v2",
    ]

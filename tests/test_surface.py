"""No test-only surface in src/ltw.

Every module-level function and class of the package is exported in
``ltw.__all__`` or used, outside its own body, by the package or by the
benchmark under ``bench/``.  Helpers that only tests need live in
``tests/_support.py``.  The benchmark's tracer names the functions it wraps
as strings, so a string constant equal to a name counts as a use of it; an
import alone does not."""

import ast
import pathlib
from collections import Counter

import ltw

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "ltw"
BENCH = ROOT / "bench"


def _uses(node, owner, counts):
    """Count the names `node` reads, skipping the body of `owner`."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value
        else:
            continue
        if name != owner:
            counts[name] += 1


def unused_definitions(src=SRC, bench=BENCH, exported=frozenset(ltw.__all__)):
    """(module, name) of every module-level function or class under `src`
    that is neither in `exported` nor used outside its own body."""
    defined, counts = [], Counter()
    for path in sorted(src.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if path.parent == src:
                    defined.append((path.stem, owner))
            _uses(stmt, owner, counts)
    return [(mod, name) for mod, name in defined
            if name not in exported and not counts[name]]


def test_every_definition_is_exported_or_used():
    assert unused_definitions() == []


def test_the_guard_sees_a_helper_only_tests_call(tmp_path):
    src, bench = tmp_path / "ltw", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "m.py").write_text(
        "def used():\n    return helper_of_used()\n\n"
        "def helper_of_used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class Lonely:\n    pass\n\n"
        "def traced():\n    pass\n")
    (bench / "tracer.py").write_text(
        "from ltw.m import recursive\nWRAP = [('ltw.m', 'traced')]\n")
    assert unused_definitions(src, bench, frozenset({"used"})) == [
        ("m", "recursive"), ("m", "Lonely")]

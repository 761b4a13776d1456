"""No test-only surface and no dead knobs in src/ltw.

Every module-level function, class and constant of the package (dunders
aside) is exported in ``ltw.__all__`` or used, outside its own body or
assignment, by the package or by the benchmark under ``bench/``.  Helpers
that only tests need live in ``tests/_support.py``.  The benchmark's tracer
names the functions it wraps as strings, so a string constant equal to a
name counts as a use of it; an import alone does not.

Every method and property of a class in the package, dunders aside, is
read outside its own body by the package or by the benchmark, as an
attribute or named by a string.  A plain name of the same spelling (a
local variable) does not count, nor does a read of an attribute of the
name ``args``: those are argparse options.

Every defaulted parameter of a module-level function or of a class
constructor is passed by some call in the package, the benchmark or the
tests; one that none passes is a constant.

The slot ``Ltw._analysis``, where analyses are kept, is read and written
only by the memo helper ``ltw.core.memo``, apart from the slot's
declaration and ``Ltw.__init__``; a hand-rolled cache beside it would keep
its own keys and miss the memo's rule for a change of seed."""

import ast
import pathlib
from collections import Counter, defaultdict

import ltw

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "ltw"
BENCH = ROOT / "bench"


def _uses(node, owner, counts, bare=True):
    """Count the names `node` reads, skipping the body of `owner` and the
    argparse options read off `args`: attribute reads, string constants
    and, when `bare`, plain names (any use of one: a local variable too)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if not bare:
                continue
            name = sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            if isinstance(sub.value, ast.Name) and sub.value.id == "args":
                continue
            name = sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value
        else:
            continue
        if name != owner:
            counts[name] += 1


def _assigned(stmt):
    """The names a module-level assignment binds, dunders aside."""
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name) and not _dunder(t.id)]


def unused_definitions(src=SRC, bench=BENCH, exported=frozenset(ltw.__all__)):
    """(module, name) of every module-level function, class or constant
    under `src` that is neither in `exported` nor used outside its own body
    or assignment."""
    defined, counts = [], Counter()
    for path in sorted(src.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if path.parent == src:
                    defined.append((path.stem, owner))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                if path.parent == src:
                    defined += [(path.stem, name) for name in _assigned(stmt)]
                if stmt.value is not None:
                    _uses(stmt.value, None, counts)
                continue
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


def test_the_guard_sees_a_constant_nothing_reads(tmp_path):
    src, bench = tmp_path / "ltw", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "m.py").write_text(
        "__all__ = ['f']\nCAP = 10\nLIMIT: int = CAP * 2\nLONE = 3\n"
        "A, (B, C) = 1, (2, 3)\nTRACED = 4\nX = Y = 5\n"
        "def f(n=LIMIT):\n    return n + A + C\n")
    (bench / "tracer.py").write_text("WRAP = [('ltw.m', 'TRACED')]\n")
    assert unused_definitions(src, bench, frozenset({"f"})) == [
        ("m", "LONE"), ("m", "B"), ("m", "X"), ("m", "Y")]


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def unused_members(src=SRC, bench=BENCH):
    """(module, class, member) of every method or property, dunders aside,
    of a module-level class under `src` whose name nothing under `src` or
    `bench` reads as an attribute or names as a string outside the member's
    own body; a plain name of the same spelling, a local variable say, is
    not a read of it."""
    members, counts = [], Counter()
    for path in sorted(src.glob("*.py")) + sorted(bench.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, ast.ClassDef):
                _uses(stmt, None, counts, bare=False)
                continue
            for sub in stmt.body:
                owner = None
                if isinstance(sub, ast.FunctionDef) and not _dunder(sub.name):
                    owner = sub.name
                    if path.parent == src:
                        members.append((path.stem, stmt.name, owner))
                _uses(sub, owner, counts, bare=False)
    return [m for m in members if not counts[m[2]]]


def test_every_member_is_used():
    assert unused_members() == []


def test_the_guard_sees_a_member_nothing_reads(tmp_path):
    src, bench = tmp_path / "ltw", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "m.py").write_text(
        "class T:\n"
        "    def __eq__(self, other):\n        return self.read()\n\n"
        "    def read(self):\n        return 1\n\n"
        "    @property\n    def size(self):\n        return self.size\n\n"
        "    def traced(self):\n        pass\n\n"
        "    def _hidden(self):\n        pass\n")
    (bench / "tracer.py").write_text("WRAP = [('ltw.m', 'traced')]\n")
    assert unused_members(src, bench) == [("m", "T", "size"), ("m", "T", "_hidden")]


def test_the_guard_does_not_count_an_option_read_off_args(tmp_path):
    # `args.depth` in the CLI once hid a `depth` property only tests read
    src, bench = tmp_path / "ltw", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "m.py").write_text(
        "class T:\n    @property\n    def depth(self):\n        return 0\n\n"
        "def cmd(args):\n    return args.depth\n")
    assert unused_members(src, bench) == [("m", "T", "depth")]


def test_the_guard_does_not_count_a_local_of_a_member_s_name(tmp_path):
    # locals `slots` and `arity` in the loader would otherwise keep the
    # Rule properties of those names alive on their own
    src, bench = tmp_path / "ltw", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "m.py").write_text(
        "class T:\n    @property\n    def slots(self):\n        return ()\n\n"
        "    def arity(self):\n        return len(self.slots)\n\n"
        "def parse(text):\n    slots = []\n    arity = slots.arity = len(text)\n"
        "    return slots, arity\n")
    assert unused_members(src, bench) == [("m", "T", "arity")]


def unpassed_defaults(src=SRC, others=(BENCH, ROOT / "tests")):
    """(module, function, parameter) of every defaulted parameter of a
    module-level function under `src`, or of the `__init__` of a
    module-level class there (named by its class), that no call under `src`
    or `others` passes, by position or by keyword.  Calls are matched by the
    called name alone; one with *args or **kwargs passes every parameter."""
    defaulted, positional = [], defaultdict(list)
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef):
                found = [(stmt.name, stmt, 0)]
            elif isinstance(stmt, ast.ClassDef):    # called without self
                found = [(stmt.name, f, 1) for f in stmt.body if isinstance(
                    f, ast.FunctionDef) and f.name == "__init__"]
            else:
                continue
            for name, f, skip in found:
                a = f.args
                names = [p.arg for p in a.posonlyargs + a.args][skip:]
                positional[name].append(names)
                defaulted += [(path.stem, name, p) for p in
                              names[len(names) - len(a.defaults):]]
                defaulted += [(path.stem, name, p.arg) for p, d in
                              zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    passed = set()
    for path in [p for d in (src, *others) for p in sorted(d.glob("*.py"))]:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if any(isinstance(x, ast.Starred) for x in call.args) or any(
                    k.arg is None for k in call.keywords):
                passed.add((name, "*"))
            passed.update((name, p) for names in positional.get(name, ())
                          for p in names[:len(call.args)])
            passed.update((name, k.arg) for k in call.keywords)
    return [(mod, name, p) for mod, name, p in defaulted
            if not {(name, "*"), (name, p)} & passed]


def test_every_defaulted_parameter_is_passed_somewhere():
    assert unpassed_defaults() == []


def test_the_guard_sees_a_parameter_no_call_passes(tmp_path):
    src, other = tmp_path / "ltw", tmp_path / "tests"
    src.mkdir()
    other.mkdir()
    (src / "m.py").write_text(
        "def f(a, b=1, c=2, *, d=3):\n    return a\n\n"
        "def g(a, b=1):\n    return a\n\n"
        "def h(a=0):\n    return a\n\n"
        "class K:\n    def method(self, e=4):\n        return e\n\n"
        "f(0, 1)\n")
    (other / "test_m.py").write_text(
        "from m import f, g, h\n\nf(0, d=5)\ng(*[0, 1])\nm.h()\n")
    assert unpassed_defaults(src, (other,)) == [("m", "f", "c"), ("m", "h", "a")]


def test_the_guard_sees_a_constructor_parameter_no_call_passes(tmp_path):
    src, other = tmp_path / "ltw", tmp_path / "tests"
    src.mkdir()
    other.mkdir()
    (src / "m.py").write_text(
        "class B:\n    def __init__(self, a, b=1, c=2):\n        self.a = a\n\n"
        "    def __eq__(self, other=None):\n        return False\n\n"
        "class C(B):\n    pass\n\n"
        "class D:\n    def __init__(self, *, e=5):\n        pass\n")
    (other / "test_m.py").write_text("import m\n\nm.B(0, 1)\nD(e=6)\n")
    assert unpassed_defaults(src, (other,)) == [("m", "B", "c")]


def memo_bypasses(src=SRC, bench=BENCH):
    """(module, enclosing definitions) of every read or write of the slot
    `_analysis` under `src` or `bench`, as an attribute or named by a
    string, outside the memo helper (`memo` and what it nests) and outside
    the body and `__init__` of `Ltw`, which declare and set the slot."""
    found = []

    def walk(node, path, module):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                walk(sub, path + (sub.name,), module)
                continue
            if (isinstance(sub, ast.Attribute) and sub.attr == "_analysis"
                    or isinstance(sub, ast.Constant) and sub.value == "_analysis"):
                if path[:1] != ("memo",) and path not in (("Ltw",), ("Ltw", "__init__")):
                    found.append((module, ".".join(path)))
            walk(sub, path, module)

    for path in sorted(src.glob("*.py")) + sorted(bench.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), (), path.stem)
    return found


def test_only_the_memo_touches_the_analysis_slot():
    assert memo_bypasses() == []


def test_the_guard_sees_a_cache_beside_the_memo(tmp_path):
    src, bench = tmp_path / "ltw", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "core.py").write_text(
        "class Ltw:\n    __slots__ = ('rules', '_analysis')\n\n"
        "    def __init__(self):\n        _set(self, '_analysis', {})\n\n"
        "    def peek(self):\n        return self._analysis\n\n"
        "def memo(fn):\n    def cached(M, *args):\n"
        "        return M._analysis.setdefault((fn, *args), fn(M, *args))\n"
        "    return cached\n")
    (src / "analysis.py").write_text(
        "def shortest(M):\n    c = M._analysis\n    return c.get('w')\n\n"
        "def spans(M):\n    return getattr(M, '_analysis')\n")
    (bench / "tracer.py").write_text("def clear(M):\n    M._analysis.clear()\n")
    assert memo_bypasses(src, bench) == [
        ("analysis", "shortest"), ("analysis", "spans"), ("core", "Ltw.peek"),
        ("tracer", "clear")]

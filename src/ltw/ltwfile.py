"""The .ltw text format and tree literals.

    # comment
    input f:1 g:0
    slp W1 = "a"
    slp W0 = W1 W1
    axiom = "u0" q(x) "u1"
    rule q f(x1) = "a" q1(x1) "c"
    rule q2 g = ""

Words are juxtapositions of double-quoted literals and $NAME references to
slp declarations; inside slp declarations references are written bare.  The
quote and backslash characters are written with backslash escapes.  The
printer emits a canonical form: declaration order input / slp / axiom /
rules sorted by (state, symbol); words short enough are inlined, larger or
shared structure is emitted as slp declarations; empty words are omitted
unless the whole right-hand side would vanish.
"""

from __future__ import annotations

import re

from . import words
from .core import Ltw, RankedAlphabet, Rule, Tree, validate
from .words import SlpPool, WordRef

INLINE_MAX = 40

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(Exception):
    def __init__(self, msg, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(msg + loc)
        self.line = line
        self.col = col


class _Line:
    def __init__(self, text: str, no: int):
        self.text = text
        self.no = no
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, self.no, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            self.error(f"expected {ch!r}")
        self.pos += len(ch)

    def name(self) -> str:
        self.skip_ws()
        m = _NAME.match(self.text, self.pos)
        if not m:
            self.error("expected a name")
        self.pos = m.end()
        return m.group()

    def number(self) -> int:
        self.skip_ws()
        m = re.compile(r"\d+").match(self.text, self.pos)
        if not m:
            self.error("expected a number")
        self.pos = m.end()
        return int(m.group())

    def quoted(self) -> str:
        self.skip_ws()
        quote = self.text[self.pos]
        self.pos += 1
        out = []
        while True:
            if self.pos >= len(self.text):
                self.error("unterminated string literal")
            ch = self.text[self.pos]
            if ch == quote:
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                if self.pos + 1 >= len(self.text):
                    self.error("dangling backslash")
                esc = self.text[self.pos + 1]
                if esc not in ('"', "'", "\\"):
                    self.error(f"unsupported escape \\{esc}")
                out.append(esc)
                self.pos += 2
                continue
            if ch in ('"', "\\"):
                self.error(f"{ch!r} must be escaped inside a literal")
            out.append(ch)
            self.pos += 1


def _word_atoms(line: _Line, pool: SlpPool, slps: dict[str, WordRef],
                bare_refs: bool) -> WordRef:
    """One word: juxtaposed quoted literals and slp references."""
    out = pool.empty
    while True:
        ch = line.peek()
        if ch in ('"', "'"):
            out = pool.concat(out, pool.literal(line.quoted()))
        elif ch == "$":
            line.take("$")
            name = line.name()
            if name not in slps:
                line.error(f"unknown slp name {name}")
            out = pool.concat(out, slps[name])
        elif bare_refs and ch and _NAME.match(ch):
            name = line.name()
            if name not in slps:
                line.error(f"unknown slp name {name}")
            out = pool.concat(out, slps[name])
        else:
            return out


def parse_ltw(text: str, pool: SlpPool | None = None) -> Ltw:
    pool = pool or SlpPool()
    alphabet = RankedAlphabet()
    slps: dict[str, WordRef] = {}
    axiom = None
    rules: dict[tuple[str, str], Rule] = {}
    states: list[str] = []
    seen_states: set[str] = set()

    def note_state(name):
        if name not in seen_states:
            seen_states.add(name)
            states.append(name)

    for no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        line = _Line(stripped, no)
        head = line.name()
        if head == "input":
            while not line.at_end():
                sym = line.name()
                line.take(":")
                ar = line.number()
                try:
                    alphabet.add(sym, ar)
                except ValueError as e:
                    line.error(str(e))
        elif head == "slp":
            name = line.name()
            if name in slps:
                line.error(f"slp {name} redefined")
            line.take("=")
            slps[name] = _word_atoms(line, pool, slps, bare_refs=True)
            if not line.at_end():
                line.error("trailing input after slp definition")
        elif head == "axiom":
            if axiom is not None:
                line.error("axiom redefined")
            line.take("=")
            u0 = _word_atoms(line, pool, slps, bare_refs=False)
            state = line.name()
            line.take("(")
            line.take("x")
            line.take(")")
            u1 = _word_atoms(line, pool, slps, bare_refs=False)
            if not line.at_end():
                line.error("trailing input after axiom")
            note_state(state)
            axiom = (u0, state, u1)
        elif head == "rule":
            state = line.name()
            symbol = line.name()
            slots: list[int] = []
            if line.peek() == "(":
                line.take("(")
                if line.peek() != ")":
                    while True:
                        line.take("x")
                        slots.append(line.number())
                        if line.peek() == ")":
                            break
                        line.take(",")
                line.take(")")
            line.take("=")
            note_state(state)
            rwords = [_word_atoms(line, pool, slps, bare_refs=False)]
            calls: list[tuple[str, int]] = []
            while not line.at_end():
                callee = line.name()
                line.take("(")
                line.take("x")
                slot = line.number()
                line.take(")")
                note_state(callee)
                calls.append((callee, slot))
                rwords.append(_word_atoms(line, pool, slps, bare_refs=False))
            if (state, symbol) in rules:
                line.error(f"duplicate rule for {state},{symbol}")
            if slots and slots != list(range(1, len(slots) + 1)):
                line.error("head variables must be x1,..,xn in order")
            if slots and len(slots) != len(calls):
                line.error(f"head declares {len(slots)} children but {len(calls)} are called")
            called = sorted(slot for _, slot in calls)
            if called != list(range(1, len(calls) + 1)):
                line.error(f"call slots {called} are not a permutation of the children")
            try:
                alphabet.add(symbol, len(calls))
            except ValueError as e:
                line.error(str(e))
            rules[(state, symbol)] = Rule(state, symbol, tuple(rwords), tuple(calls))
        else:
            line.error(f"unknown declaration {head!r}")

    if axiom is None:
        raise ParseError("missing axiom")
    M = Ltw(alphabet=alphabet, states=tuple(states), axiom=axiom,
            rules=rules, pool=pool)
    try:
        validate(M)
    except ValueError as e:
        raise ParseError(str(e)) from None
    return M


def load_ltw(path) -> Ltw:
    with open(path, "r", encoding="latin-1") as fh:
        return parse_ltw(fh.read())


# -- printing ----------------------------------------------------------------

def _quote(s: str) -> str:
    out = []
    for ch in s:
        if ch in ('"', "\\"):
            out.append("\\")
        out.append(ch)
    return '"%s"' % "".join(out)


class _WordPrinter:
    """Emits small words inline and names larger shared structure as slps."""

    def __init__(self, pool: SlpPool):
        self.pool = pool
        self.decls: list[str] = []
        self.names: dict[int, str] = {}

    def atoms(self, w: WordRef) -> list[str]:
        if w.length == 0:
            return []
        if w.length <= INLINE_MAX:
            return [_quote(words.expand(w))]
        return ["$" + self._name(w.node)]

    def _name(self, node: int) -> str:
        got = self.names.get(node)
        if got is not None:
            return got
        pool = self.pool
        parts: list[str] = []
        for child in (pool._left[node], pool._right[node]):
            ln = pool._len[child]
            if ln == 0:
                continue
            if ln <= INLINE_MAX:
                parts.append(_quote(words.expand(WordRef(pool, child))))
            else:
                parts.append(self._name(child))
        name = f"W{len(self.names)}"
        self.names[node] = name
        self.decls.append(f"slp {name} = " + " ".join(parts))
        return name


def print_ltw(M: Ltw) -> str:
    wp = _WordPrinter(M.pool)
    body: list[str] = []
    u0, q, u1 = M.axiom
    ax_parts = wp.atoms(u0) + [f"{q}(x)"] + wp.atoms(u1)
    body.append("axiom = " + " ".join(ax_parts))
    for state, symbol in sorted(M.rules):
        r = M.rules[(state, symbol)]
        if r.calls:
            head = f"rule {state} {symbol}(%s)" % ",".join(
                f"x{i}" for i in range(1, len(r.calls) + 1))
        else:
            head = f"rule {state} {symbol}"
        parts = wp.atoms(r.words[0])
        for i, (callee, slot) in enumerate(r.calls):
            parts.append(f"{callee}(x{slot})")
            parts.extend(wp.atoms(r.words[i + 1]))
        if not parts:
            parts = ['""']
        body.append(head + " = " + " ".join(parts))
    lines = ["input " + " ".join(f"{s}:{a}" for s, a in M.alphabet.items())]
    lines.extend(wp.decls)
    lines.extend(body)
    return "\n".join(lines) + "\n"


# -- tree literals -----------------------------------------------------------

def parse_tree(text: str, alphabet: RankedAlphabet | None = None) -> Tree:
    line = _Line(text.strip(), 1)

    def finish(sym: str, children: list) -> Tree:
        if alphabet is not None:
            if sym not in alphabet:
                line.error(f"unknown input symbol {sym}")
            if alphabet.arity(sym) != len(children):
                line.error(f"symbol {sym} expects {alphabet.arity(sym)} children, got {len(children)}")
        return Tree(sym, tuple(children))

    open_nodes: list[tuple[str, list]] = []   # symbol and children so far
    while True:
        sym = line.name()
        if line.peek() == "(":
            line.take("(")
            if line.peek() != ")":
                open_nodes.append((sym, []))
                continue
            line.take(")")
        t = finish(sym, [])
        while open_nodes:                     # close every finished parent
            open_nodes[-1][1].append(t)
            if line.peek() != ")":
                line.take(",")
                break
            line.take(")")
            t = finish(*open_nodes.pop())
        else:
            break                             # t is the root
    if not line.at_end():
        line.error("trailing input after tree")
    return t


def print_tree(t: Tree) -> str:
    return str(t)

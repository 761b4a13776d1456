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
from .core import Ltw, Rule, Tree
from .words import SlpPool, WordRef

INLINE_MAX = 40

_DQ = r'"(?:[^"\\]|\\["\'\\])*'             # a literal up to its closing quote
_SQ = r"'(?:[^'\"\\]|\\[\"'\\])*"
# blanks, then one token: a name, a number, a closed literal or any other
# single character (a quote that opens no well-formed literal included)
_TOKEN = re.compile(rf"""[ \t]*([A-Za-z_][A-Za-z0-9_]*|\d+|{_DQ}"|{_SQ}'|.)""", re.S)
_BLANKS = re.compile(r"[ \t]*")
_ESCAPE = re.compile(r"\\(.)")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


class ParseError(Exception):
    def __init__(self, msg, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(msg + loc)
        self.line = line
        self.col = col


class _Line:
    """A cursor over the _TOKEN strings of one line.

    An error points at the start of the next token once the parser has
    looked at it, else just after the last token taken; its column is only
    worked out when it is raised."""

    def __init__(self, text: str, no: int):
        self.text, self.no = text, no
        self.toks = _TOKEN.findall(text) + [""]    # "" marks the end
        self.i = 0
        self.looked = True

    def _start(self, i: int) -> int:
        pos = 0
        for tok in self.toks[:i]:
            pos = _BLANKS.match(self.text, pos).end() + len(tok)
        return _BLANKS.match(self.text, pos).end()

    def error(self, msg, at: int | None = None):
        if at is None:
            i = self.i - (not self.looked)
            at = self._start(i) + (0 if self.looked else len(self.toks[i]))
        raise ParseError(msg, self.no, at + 1)

    def _pop(self, ok: bool = True, what: str = "") -> str:
        """Take the next token if `ok`, else fail expecting `what`."""
        if not ok:
            self.looked = True
            self.error(f"expected {what}")
        self.looked = False
        self.i += 1
        return self.toks[self.i - 1]

    def at_end(self) -> bool:
        self.looked = True
        return not self.toks[self.i]

    def skip(self, ch: str) -> bool:
        """Take `ch` if it comes next."""
        self.looked = True
        if self.toks[self.i] != ch:
            return False
        self._pop()
        return True

    def take(self, ch: str):
        tok = self.toks[self.i]
        if tok != ch and tok.startswith(ch):  # `x` cut off a name like x1
            self.toks[self.i:self.i + 1] = [ch] + _TOKEN.findall(tok[len(ch):])
        self._pop(self.toks[self.i] == ch, repr(ch))

    def name(self) -> str:
        return self._pop(self.toks[self.i][:1] in _NAME_START, "a name")

    def number(self) -> int:
        return int(self._pop(self.toks[self.i][:1].isdecimal(), "a number"))

    def slot(self) -> int:
        """A variable: `x` and its number, as in x1 or x 1."""
        tok = self.toks[self.i]
        if tok[:1] == "x" and tok[1:].isdecimal():
            return int(self._pop()[1:])
        self.take("x")
        return self.number()

    def word(self, pool: SlpPool, slps: dict[str, WordRef],
             bare_refs: bool) -> WordRef:
        """Juxtaposed literals and $-references (bare too if `bare_refs`)."""
        out = pool.empty
        while True:
            tok = self.toks[self.i]
            quote = tok[:1] in ('"', "'")
            if quote and len(tok) > 1:
                body = self._pop()[1:-1]
                try:
                    out = pool.concat(out, pool.literal(
                        _ESCAPE.sub(r"\1", body) if "\\" in body else body))
                except ValueError as e:       # not an output symbol
                    self.error(str(e))
            elif quote:                       # no closing quote: say why
                at = re.compile(_DQ if tok == '"' else _SQ).match(
                    self.text, self._start(self.i)).end()
                bad = self.text[at:at + 2]
                if not bad:
                    self.error("unterminated string literal", at)
                if bad[0] == '"':
                    self.error("'\"' must be escaped inside a literal", at)
                self.error("dangling backslash" if len(bad) == 1
                           else f"unsupported escape {bad}", at)
            elif tok == "$" or (bare_refs and tok[:1] in _NAME_START):
                if tok == "$":
                    self._pop()
                name = self.name()
                if name not in slps:
                    self.error(f"unknown slp name {name}")
                out = pool.concat(out, slps[name])
            else:
                self.looked = True
                return out


def parse_ltw(text: str) -> Ltw:
    pool = SlpPool()
    alphabet: dict[str, int] = {}            # in declaration order

    def declare(symbol: str, arity: int):
        old = alphabet.setdefault(symbol, arity)
        if old != arity:
            line.error(f"symbol {symbol} redeclared with arity {arity} != {old}")

    slps: dict[str, WordRef] = {}
    axiom = None
    rules: dict[tuple[str, str], Rule] = {}
    states: dict[str, None] = {}              # in order of first mention

    for no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped:
            continue
        line = _Line(stripped, no)
        head = line.name()
        if head == "input":
            while not line.at_end():
                sym = line.name()
                line.take(":")
                declare(sym, line.number())
        elif head == "slp":
            name = line.name()
            if name in slps:
                line.error(f"slp {name} redefined")
            line.take("=")
            slps[name] = line.word(pool, slps, bare_refs=True)
            if not line.at_end():
                line.error("trailing input after slp definition")
        elif head == "axiom":
            if axiom is not None:
                line.error("axiom redefined")
            line.take("=")
            u0 = line.word(pool, slps, bare_refs=False)
            state = line.name()
            for ch in "(x)":
                line.take(ch)
            u1 = line.word(pool, slps, bare_refs=False)
            if not line.at_end():
                line.error("trailing input after axiom")
            states[state] = None
            axiom = (u0, state, u1)
        elif head == "rule":
            state = line.name()
            symbol = line.name()
            slots: list[int] = []
            if line.skip("("):
                while not line.skip(")"):
                    if slots:
                        line.take(",")
                    slots.append(line.slot())
            line.take("=")
            states[state] = None
            rwords = [line.word(pool, slps, bare_refs=False)]
            calls: list[tuple[str, int]] = []
            while not line.at_end():
                callee = line.name()
                line.take("(")
                calls.append((callee, line.slot()))
                line.take(")")
                states[callee] = None
                rwords.append(line.word(pool, slps, bare_refs=False))
            if (state, symbol) in rules:
                line.error(f"duplicate rule for {state},{symbol}")
            if slots and slots != list(range(1, len(slots) + 1)):
                line.error("head variables must be x1,..,xn in order")
            if slots and len(slots) != len(calls):
                line.error(f"head declares {len(slots)} children but {len(calls)} are called")
            called = sorted(slot for _, slot in calls)
            if called != list(range(1, len(calls) + 1)):
                line.error(f"call slots {called} are not a permutation of the children")
            declare(symbol, len(calls))
            rules[(state, symbol)] = Rule(state, symbol, tuple(rwords), tuple(calls))
        else:
            line.error(f"unknown declaration {head!r}")

    if axiom is None:
        raise ParseError("missing axiom")
    # the lines above guarantee all that core.validate checks but this one,
    # which is only known at the end of the input: it points there
    if 0 not in alphabet.values():
        line.error("alphabet has no nullary symbol, so no finite trees exist")
    return Ltw(alphabet=alphabet, states=tuple(states), axiom=axiom,
               rules=rules, pool=pool)


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
        """Declare `node` after the long children it needs, left first."""
        pool, names = self.pool, self.names
        todo = [node]
        while todo:
            n = todo.pop()
            if n in names:
                continue
            kids = (pool._left[n], pool._right[n])
            unnamed = [c for c in kids[::-1]
                       if pool._len[c] > INLINE_MAX and c not in names]
            if unnamed:                       # back to n once they are named
                todo += [n] + unnamed
                continue
            parts = [names[c] if pool._len[c] > INLINE_MAX
                     else _quote(words.expand(WordRef(pool, c)))
                     for c in kids if pool._len[c]]
            names[n] = f"W{len(names)}"
            self.decls.append(f"slp {names[n]} = " + " ".join(parts))
        return names[node]


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

def parse_tree(text: str, alphabet: dict[str, int] | None = None) -> Tree:
    line = _Line(text.strip(), 1)

    def finish(sym: str, children: list) -> Tree:
        if alphabet is not None:
            if sym not in alphabet:
                line.error(f"unknown input symbol {sym}")
            if alphabet[sym] != len(children):
                line.error(f"symbol {sym} expects {alphabet[sym]} children, got {len(children)}")
        return Tree(sym, tuple(children))

    open_nodes: list[tuple[str, list]] = []   # symbol and children so far
    while True:
        sym = line.name()
        if line.skip("(") and not line.skip(")"):
            open_nodes.append((sym, []))
            continue
        t = finish(sym, [])
        while open_nodes:                     # close every finished parent
            open_nodes[-1][1].append(t)
            if not line.skip(")"):
                line.take(",")
                break
            t = finish(*open_nodes.pop())
        else:
            break                             # t is the root
    if not line.at_end():
        line.error("trailing input after tree")
    return t


def print_tree(t: Tree) -> str:
    return str(t)

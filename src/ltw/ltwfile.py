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


def _column(text: str, toks: list[str], i: int) -> int:
    """Where toks[i] starts in `text`, for toks the _TOKEN strings of text."""
    pos = 0
    for tok in toks[:i]:
        pos = _BLANKS.match(text, pos).end() + len(tok)
    return _BLANKS.match(text, pos).end()


def _fail(text, no, toks, i, msg, after=False) -> ParseError:
    """An error at the start of toks[i], or just after it if `after`."""
    at = _column(text, toks, i) + (len(toks[i]) if after else 0)
    return ParseError(msg, no, at + 1)


def _unterminated(text, no, toks, i) -> ParseError:
    """Why the quote toks[i] opens no well-formed literal, where it fails."""
    at = re.compile(_DQ if toks[i] == '"' else _SQ).match(
        text, _column(text, toks, i)).end()
    bad = text[at:at + 2]
    if not bad:
        msg = "unterminated string literal"
    elif bad[0] == '"':
        msg = "'\"' must be escaped inside a literal"
    else:
        msg = "dangling backslash" if len(bad) == 1 else f"unsupported escape {bad}"
    return ParseError(msg, no, at + 1)


def _take_x(toks, i) -> bool:
    """Whether toks[i] is `x`, once a name like x1 is cut after its x."""
    tok = toks[i]
    if tok != "x" and tok[:1] == "x":
        toks[i:i + 1] = ["x"] + _TOKEN.findall(tok[1:])
    return toks[i] == "x"


def _number(text, no, toks, i, digits: str) -> int:
    """The number `digits` read at toks[i]; one too long for Python to
    convert (past sys.get_int_max_str_digits()) is an error there."""
    try:
        return int(digits)
    except ValueError:
        raise _fail(text, no, toks, i, "number too long") from None


def _brief(n: int) -> str:
    """n as an error message quotes it: past 20 digits, its digit count, so
    that the message stays one short line."""
    return str(n) if n < 10**20 else f"<{len(str(n))} digits>"


def _spaced_slot(text, no, toks, i) -> tuple[int, int]:
    """The variable at toks[i] when it is not one name like x1, as in x 1,
    and the index after it."""
    if not _take_x(toks, i):
        raise _fail(text, no, toks, i, "expected 'x'")
    if not toks[i + 1][:1].isdecimal():
        raise _fail(text, no, toks, i + 1, "expected a number")
    return _number(text, no, toks, i + 1, toks[i + 1]), i + 2


def parse_ltw(text: str) -> Ltw:
    """Read each line's _TOKEN strings by index, one pass per line.

    A right-hand side is words with calls between them: none in an slp
    line (whose words may name slps bare), one in the axiom.  Within one
    text each distinct literal of at most INLINE_MAX symbols is one pool
    node; such words always print inline, so sharing them shows nowhere."""
    pool = SlpPool()
    empty, concat, literal = pool.empty, pool.concat, pool.literal
    lits: dict[str, WordRef] = {}            # literal body -> its word
    alphabet: dict[str, int] = {}            # in declaration order
    slps: dict[str, WordRef] = {}
    axiom = None
    rules: dict[tuple[str, str], Rule] = {}
    states: dict[str, None] = {}              # in order of first mention
    findall = _TOKEN.findall

    for no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped:
            continue
        last = no, stripped
        toks = findall(stripped)
        toks.append("")                       # "" marks the end
        head = toks[0]
        if head == "input":
            i = 1
            while toks[i]:
                sym = toks[i]
                if sym[:1] not in _NAME_START:
                    raise _fail(stripped, no, toks, i, "expected a name")
                if toks[i + 1] != ":":
                    raise _fail(stripped, no, toks, i + 1, "expected ':'")
                i += 2
                if not toks[i][:1].isdecimal():
                    raise _fail(stripped, no, toks, i, "expected a number")
                arity = _number(stripped, no, toks, i, toks[i])
                old = alphabet.setdefault(sym, arity)
                if old != arity:
                    raise _fail(stripped, no, toks, i, f"symbol {sym} redeclared "
                                f"with arity {_brief(arity)} != {_brief(old)}", after=True)
                i += 1
            continue
        if head == "rule":
            state = toks[1]
            if state[:1] not in _NAME_START:
                raise _fail(stripped, no, toks, 1, "expected a name")
            symbol = toks[2]
            if symbol[:1] not in _NAME_START:
                raise _fail(stripped, no, toks, 2, "expected a name")
            states[state] = None
            slots: list[int] = []
            i = 3
            if toks[3] == "(":
                i = 4
                while toks[i] != ")":
                    if slots:
                        if toks[i] != ",":
                            raise _fail(stripped, no, toks, i, "expected ','")
                        i += 1
                    tok = toks[i]
                    if tok[:1] == "x" and tok[1:].isdecimal():
                        slot, i = _number(stripped, no, toks, i, tok[1:]), i + 1
                    else:
                        slot, i = _spaced_slot(stripped, no, toks, i)
                    slots.append(slot)
                i += 1
        elif head == "axiom":
            if axiom is not None:
                raise _fail(stripped, no, toks, 0, "axiom redefined", after=True)
            i = 1
        elif head == "slp":
            name = toks[1]
            if name[:1] not in _NAME_START:
                raise _fail(stripped, no, toks, 1, "expected a name")
            if name in slps:
                raise _fail(stripped, no, toks, 1, f"slp {name} redefined", after=True)
            i = 2
        elif head[:1] in _NAME_START:
            raise _fail(stripped, no, toks, 0, f"unknown declaration {head!r}",
                        after=True)
        else:
            raise _fail(stripped, no, toks, 0, "expected a name")
        if toks[i] != "=":
            raise _fail(stripped, no, toks, i, "expected '='")
        i += 1
        bare = head == "slp"
        out = empty
        rwords: list[WordRef] = []
        calls: list[tuple[str, int]] = []
        while True:
            tok = toks[i]
            c = tok[:1]
            if c == '"' or c == "'":
                if len(tok) == 1:
                    raise _unterminated(stripped, no, toks, i)
                body = tok[1:-1]
                w = lits.get(body)
                if w is None:
                    s = _ESCAPE.sub(r"\1", body) if "\\" in body else body
                    try:
                        w = literal(s)
                    except ValueError as e:       # not an output symbol
                        raise _fail(stripped, no, toks, i, str(e), after=True) from None
                    if len(s) <= INLINE_MAX:
                        lits[body] = w
                i += 1
            elif c == "$" or (bare and c in _NAME_START):
                i += c == "$"
                ref = toks[i]
                if ref[:1] not in _NAME_START:
                    raise _fail(stripped, no, toks, i, "expected a name")
                w = slps.get(ref)
                if w is None:
                    raise _fail(stripped, no, toks, i, f"unknown slp name {ref}",
                                after=True)
                i += 1
            else:                             # the word ends
                rwords.append(out)
                out = empty
                if not tok or bare:
                    break
                if head == "axiom" and calls:
                    raise _fail(stripped, no, toks, i, "trailing input after axiom")
                if c not in _NAME_START:
                    raise _fail(stripped, no, toks, i, "expected a name")
                if toks[i + 1] != "(":
                    raise _fail(stripped, no, toks, i + 1, "expected '('")
                var = toks[i + 2]
                if head != "rule":            # the axiom's call reads x alone
                    if not _take_x(toks, i + 2):
                        raise _fail(stripped, no, toks, i + 2, "expected 'x'")
                    slot, i = 0, i + 3
                elif var[:1] == "x" and var[1:].isdecimal():
                    slot, i = _number(stripped, no, toks, i + 2, var[1:]), i + 3
                else:
                    slot, i = _spaced_slot(stripped, no, toks, i + 2)
                if toks[i] != ")":
                    raise _fail(stripped, no, toks, i, "expected ')'")
                i += 1
                calls.append((tok, slot))
                states[tok] = None
                continue
            out = w if out is empty else concat(out, w)

        if head == "slp":
            if toks[i]:
                raise _fail(stripped, no, toks, i,
                            "trailing input after slp definition")
            slps[name] = rwords[0]
        elif head == "axiom":
            if not calls:
                raise _fail(stripped, no, toks, i, "expected a name")
            axiom = (rwords[0], calls[0][0], rwords[1])
        else:
            # every check below points at the end of the line
            key = state, symbol
            if key in rules:
                raise _fail(stripped, no, toks, i, f"duplicate rule for {state},{symbol}")
            n = len(calls)
            if slots and slots != list(range(1, len(slots) + 1)):
                raise _fail(stripped, no, toks, i, "head variables must be x1,..,xn in order")
            if slots and len(slots) != n:
                raise _fail(stripped, no, toks, i,
                            f"head declares {len(slots)} children but {n} are called")
            called = sorted([slot for _, slot in calls])
            if called != list(range(1, n + 1)):
                shown = ", ".join(map(_brief, called[:5])) + ", ..." * (n > 5)
                raise _fail(stripped, no, toks, i, f"call slots [{shown}] "
                            "are not a permutation of the children")
            old = alphabet.setdefault(symbol, n)
            if old != n:
                raise _fail(stripped, no, toks, i,
                            f"symbol {symbol} redeclared with arity {n} != {_brief(old)}")
            rules[key] = Rule(state, symbol, tuple(rwords), tuple(calls))

    if axiom is None:
        raise ParseError("missing axiom")
    # the lines above guarantee all that core.validate checks but this one,
    # which is only known at the end of the input: it points there
    if 0 not in alphabet.values():
        no, stripped = last
        raise ParseError("alphabet has no nullary symbol, so no finite trees exist",
                         no, len(stripped) + 1)
    return Ltw(alphabet=alphabet, states=tuple(states), axiom=axiom,
               rules=rules, pool=pool)


def load_ltw(path) -> Ltw:
    """The machine in the latin-1 file `path`; a ParseError names the file."""
    with open(path, "r", encoding="latin-1") as fh:
        text = fh.read()
    try:
        return parse_ltw(text)
    except ParseError as e:
        e.args = (f"{path}: {e}",)
        raise


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
    """The tree literal `text`, read by index over its _TOKEN strings.

    A node's arity error points just after its `)`, or at the token after
    its name when it has no parentheses."""
    text = text.strip()
    toks = _TOKEN.findall(text)
    toks.append("")                           # "" marks the end

    def finish(sym: str, children: list, after: bool) -> Tree:
        """The node; an error points at toks[i], or just after toks[i - 1]
        if `after`."""
        at = i - after
        if alphabet is not None:
            if sym not in alphabet:
                raise _fail(text, 1, toks, at, f"unknown input symbol {sym}", after)
            if alphabet[sym] != len(children):
                raise _fail(text, 1, toks, at, f"symbol {sym} expects "
                            f"{alphabet[sym]} children, got {len(children)}", after)
        return Tree(sym, tuple(children))

    open_nodes: list[tuple[str, list]] = []   # symbol and children so far
    i = 0
    while True:
        sym = toks[i]
        if sym[:1] not in _NAME_START:
            raise _fail(text, 1, toks, i, "expected a name")
        i += 1
        if toks[i] != "(":
            t = finish(sym, [], False)
        elif toks[i + 1] != ")":
            open_nodes.append((sym, []))
            i += 1
            continue
        else:
            i += 2
            t = finish(sym, [], True)
        while open_nodes:                     # close every finished parent
            open_nodes[-1][1].append(t)
            if toks[i] != ")":
                if toks[i] != ",":
                    raise _fail(text, 1, toks, i, "expected ','")
                i += 1
                break
            i += 1
            t = finish(*open_nodes.pop(), True)
        else:
            break                             # t is the root
    if toks[i]:
        raise _fail(text, 1, toks, i, "trailing input after tree")
    return t


def print_tree(t: Tree) -> str:
    return str(t)

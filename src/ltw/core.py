"""Deterministic linear tree-to-word transducers.

A transducer holds a ranked input alphabet, an ordered tuple of states, an
axiom ``u0 q(x) u1`` and at most one rule per (state, symbol).  A rule

    q, f(x1,..,xn) -> w0 q1(x_s(1)) w1 ... qn(x_s(n)) wn

carries n+1 words and n calls; the call slots s(1..n) form a permutation of
the children, so every child is read exactly once.  All words are WordRefs
into the transducer's pool; transducers are treated as immutable and every
rewrite builds a new one sharing the pool.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from itertools import count

from . import words
from .words import SlpPool, WordRef


class UndefinedInput(Exception):
    """No rule matched while running a tree; `path` is the child-index trail."""

    def __init__(self, state, symbol, path):
        super().__init__(
            f"no rule for state {state} at symbol {symbol} (path {'.'.join(map(str, path)) or 'root'})")
        self.state = state
        self.symbol = symbol
        self.path = tuple(path)


class EmptyTransducer(Exception):
    """The axiom state has an empty domain."""


class RankedAlphabet:
    """Input symbols with fixed arities, in declaration order."""

    def __init__(self, arities: dict[str, int] | None = None):
        self._arities: dict[str, int] = {}
        for name, ar in (arities or {}).items():
            self.add(name, ar)

    def add(self, name: str, arity: int) -> None:
        if arity < 0:
            raise ValueError(f"negative arity for {name}")
        old = self._arities.get(name)
        if old is not None and old != arity:
            raise ValueError(f"symbol {name} redeclared with arity {arity} != {old}")
        self._arities.setdefault(name, arity)

    def arity(self, name: str) -> int:
        return self._arities[name]

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self._arities)

    def __contains__(self, name) -> bool:
        return name in self._arities

    def __iter__(self):
        return iter(self._arities)

    def items(self):
        return self._arities.items()

    def __eq__(self, other):
        return isinstance(other, RankedAlphabet) and self._arities == other._arities

    def __repr__(self):
        return "RankedAlphabet(%s)" % ", ".join(f"{s}:{a}" for s, a in self._arities.items())


@dataclass(frozen=True)
class Tree:
    symbol: str
    children: tuple["Tree", ...] = ()

    def __str__(self):
        out: list[str] = []
        todo: list = [self]               # trees and pending punctuation
        while todo:
            t = todo.pop()
            if isinstance(t, str):
                out.append(t)
            elif not t.children:
                out.append(t.symbol)
            else:
                out.append(t.symbol + "(")
                todo.append(")")
                for i, c in enumerate(reversed(t.children)):
                    if i:
                        todo.append(",")
                    todo.append(c)
        return "".join(out)

    @property
    def size(self) -> int:
        n, stack = 0, [self]
        while stack:
            n += 1
            stack.extend(stack.pop().children)
        return n

    @property
    def depth(self) -> int:
        deepest, stack = 0, [(self, 1)]
        while stack:
            t, d = stack.pop()
            deepest = max(deepest, d)
            stack.extend((c, d + 1) for c in t.children)
        return deepest


@dataclass(frozen=True)
class Rule:
    state: str
    symbol: str
    words: tuple[WordRef, ...]          # n+1 entries
    calls: tuple[tuple[str, int], ...]  # (callee, input slot), slots 1-based

    @property
    def arity(self) -> int:
        return len(self.calls)

    @property
    def slots(self) -> tuple[int, ...]:
        return tuple(slot for _, slot in self.calls)


@dataclass(frozen=True, eq=False)
class Ltw:
    alphabet: RankedAlphabet
    states: tuple[str, ...]
    axiom: tuple[WordRef, str, WordRef]
    rules: dict[tuple[str, str], Rule]
    pool: SlpPool

    def rule(self, state: str, symbol: str) -> Rule | None:
        return self.rules.get((state, symbol))

    def rules_of(self, state: str) -> list[Rule]:
        out = []
        for sym in self.alphabet:
            r = self.rules.get((state, sym))
            if r is not None:
                out.append(r)
        return out

    def rule_symbols(self, state: str) -> tuple[str, ...]:
        return tuple(sym for sym in self.alphabet if (state, sym) in self.rules)

    def with_(self, **kw) -> "Ltw":
        return replace(self, **kw)


def validate(M: Ltw) -> None:
    """Raise ValueError on structural defects (bad arity, bad permutation, ...)."""
    if len(set(M.states)) != len(M.states):
        raise ValueError("duplicate state names")
    if not any(a == 0 for a in dict(M.alphabet.items()).values()):
        raise ValueError("alphabet has no nullary symbol, so no finite trees exist")
    u0, q, u1 = M.axiom
    if q not in M.states:
        raise ValueError(f"axiom state {q} is not declared")
    for (state, symbol), r in M.rules.items():
        if state not in M.states:
            raise ValueError(f"rule for undeclared state {state}")
        if symbol not in M.alphabet:
            raise ValueError(f"rule for undeclared symbol {symbol}")
        n = M.alphabet.arity(symbol)
        if r.state != state or r.symbol != symbol:
            raise ValueError("rule indexed under a mismatched key")
        if len(r.calls) != n:
            raise ValueError(f"rule {state},{symbol} has {len(r.calls)} calls, arity is {n}")
        if len(r.words) != n + 1:
            raise ValueError(f"rule {state},{symbol} has {len(r.words)} words, expected {n + 1}")
        if sorted(r.slots) != list(range(1, n + 1)):
            raise ValueError(f"rule {state},{symbol} call slots {r.slots} are not a permutation")
        for callee, _ in r.calls:
            if callee not in M.states:
                raise ValueError(f"rule {state},{symbol} calls undeclared state {callee}")
        for w in r.words:
            if w.pool is not M.pool:
                raise ValueError("rule word from a foreign pool")


def evaluate(M: Ltw, t: Tree, state: str | None = None) -> WordRef:
    """The output word for `t`; UndefinedInput when some node has no rule.

    The output is every rule word in depth-first call order, so one stack
    of pending words and calls builds it from left to right."""
    pool = M.pool
    u0, q, u1 = M.axiom
    if state is None:
        out, todo = u0, [u1, (q, t, ())]
    else:
        out, todo = pool.empty, [(state, t, ())]
    while todo:
        item = todo.pop()
        if isinstance(item, WordRef):
            out = pool.concat(out, item)
            continue
        q, node, path = item              # path: nested (parent path, slot)
        r = M.rules.get((q, node.symbol))
        if r is None or len(node.children) != r.arity:
            slots = []
            while path:
                path, slot = path
                slots.append(slot)
            raise UndefinedInput(q, node.symbol, slots[::-1])
        todo.append(r.words[-1])
        for i in range(r.arity - 1, -1, -1):
            callee, slot = r.calls[i]
            todo.append((callee, node.children[slot - 1], (path, slot)))
            todo.append(r.words[i])
    return out


def domain_defined(M: Ltw, t: Tree, state: str | None = None) -> bool:
    stack = [(state if state is not None else M.axiom[1], t)]
    while stack:
        q, node = stack.pop()
        r = M.rules.get((q, node.symbol))
        if r is None or len(node.children) != r.arity:
            return False
        stack.extend((callee, node.children[slot - 1]) for callee, slot in r.calls)
    return True


def settle(rules) -> dict:
    """Least fixpoint of a weighted and-or system: Knuth's generalization
    of Dijkstra's algorithm to grammars (IPL 1977).

    `rules` yields (head, label, body, cost) tuples with cost >= 0.  A rule
    becomes ready once every node of its body has settled, with the value
    cost + the sum of its body's values (a node listed twice counts twice);
    the ready rule of least value settles its head.  At equal value the rule
    that became ready first wins, so with every cost 0 heads settle in plain
    first-in-first-out order.  Returns {head: (value, label, body)} for the
    winning rules, in settling order, so a body's nodes always come before
    its head.  A rule is only revisited when one of its body nodes settles.
    """
    waiting: dict = {}
    heap: list[list] = []
    seq = count()
    for head, label, body, cost in rules:
        # [value so far, ready order, unsettled body nodes, head, label, body]
        cell = [cost, 0, len(body), head, label, body]
        if body:
            for node in body:
                waiting.setdefault(node, []).append(cell)
        else:
            cell[1] = next(seq)
            heap.append(cell)
    heapq.heapify(heap)
    out: dict = {}
    while heap:
        value, _, _, head, label, body = heapq.heappop(heap)
        if head in out:
            continue
        out[head] = (value, label, body)
        for cell in waiting.pop(head, ()):
            cell[0] += value
            cell[2] -= 1
            if not cell[2]:
                cell[1] = next(seq)
                heapq.heappush(heap, cell)
    return out


def productive_states(M: Ltw) -> set[str]:
    """States with at least one tree in their domain (least fixpoint)."""
    return set(settle((r.state, r, [c for c, _ in r.calls], 0)
                      for r in M.rules.values()))


def accessible(M: Ltw, q: str) -> set[str]:
    """States reachable from q through rule calls (q itself included)."""
    seen = {q}
    frontier = [q]
    while frontier:
        p = frontier.pop()
        for r in M.rules_of(p):
            for callee, _ in r.calls:
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
    return seen


def trim(M: Ltw) -> Ltw:
    """Restrict to productive states accessible from the axiom.

    Raises EmptyTransducer if the axiom state has an empty domain.
    """
    good = productive_states(M)
    if M.axiom[1] not in good:
        raise EmptyTransducer(f"axiom state {M.axiom[1]} has an empty domain")
    rules = {k: r for k, r in M.rules.items()
             if k[0] in good and all(c in good for c, _ in r.calls)}
    probe = M.with_(rules=rules)
    keep = accessible(probe, M.axiom[1])
    states = tuple(s for s in M.states if s in keep)
    rules = {k: r for k, r in rules.items() if k[0] in keep}
    return M.with_(states=states, rules=rules)


def mirror(M: Ltw) -> Ltw:
    """Reverse every word and every call order; evaluate(mirror(M), t) is
    the reversal of evaluate(M, t)."""
    pool = M.pool
    rules = {}
    for key, r in M.rules.items():
        rwords = tuple(words.reverse(w) for w in reversed(r.words))
        rcalls = tuple(reversed(r.calls))
        rules[key] = Rule(r.state, r.symbol, rwords, rcalls)
    u0, q, u1 = M.axiom
    return M.with_(axiom=(words.reverse(u1), q, words.reverse(u0)), rules=rules)


def with_axiom_state(M: Ltw, q: str) -> Ltw:
    """M restarted at state q with an empty axiom frame, trimmed to acc(q)."""
    keep = accessible(M, q)
    states = tuple(s for s in M.states if s in keep)
    rules = {k: r for k, r in M.rules.items() if k[0] in keep}
    return M.with_(states=states, rules=rules,
                   axiom=(M.pool.empty, q, M.pool.empty))


def same_structure(M1: Ltw, M2: Ltw) -> bool:
    """Structural equality modulo word-node ids (words compared as words)."""
    if M1.alphabet != M2.alphabet or set(M1.states) != set(M2.states):
        return False
    u0, q, u1 = M1.axiom
    v0, p, v1 = M2.axiom
    if q != p or not words.equals(u0, v0) or not words.equals(u1, v1):
        return False
    if set(M1.rules) != set(M2.rules):
        return False
    for key, r1 in M1.rules.items():
        r2 = M2.rules[key]
        if r1.calls != r2.calls:
            return False
        if any(not words.equals(a, b) for a, b in zip(r1.words, r2.words)):
            return False
    return True

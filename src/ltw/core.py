"""Deterministic linear tree-to-word transducers.

A transducer holds a ranked input alphabet (a dict from symbol to arity, in
declaration order), an ordered tuple of states, an axiom ``u0 q(x) u1`` and
at most one rule per (state, symbol).  A rule

    q, f(x1,..,xn) -> w0 q1(x_s(1)) w1 ... qn(x_s(n)) wn

carries n+1 words and n calls; the call slots s(1..n) form a permutation of
the children, so every child is read exactly once.  All words are WordRefs
into the transducer's pool.  Machines are immutable (assignment raises), so
analyses kept by :func:`memo` stay valid; rewrites build new ones sharing the pool.
"""

from __future__ import annotations

import functools
import heapq

from . import words
from .words import Frozen, SlpPool, WordRef, _set


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


class Tree(Frozen):
    __slots__ = ("symbol", "children")
    __eq__ = object.__eq__                # equal only to itself: compare
    __hash__ = object.__hash__            # str(t) for structure

    def __init__(self, symbol: str, children: tuple[Tree, ...] = ()):
        _set(self, "symbol", symbol)
        _set(self, "children", children)

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

    def __repr__(self):
        return f"Tree({str(self)!r})"


class Rule(Frozen):
    __slots__ = ("state", "symbol", "words", "calls")

    def __init__(self, state: str, symbol: str,
                 words: tuple[WordRef, ...],           # n+1 entries
                 calls: tuple[tuple[str, int], ...]):  # (callee, slot), 1-based
        _set(self, "state", state)
        _set(self, "symbol", symbol)
        _set(self, "words", words)
        _set(self, "calls", calls)

    @property
    def arity(self) -> int:
        return len(self.calls)

    @property
    def slots(self) -> tuple[int, ...]:
        return tuple(slot for _, slot in self.calls)


class Ltw(Frozen):
    __slots__ = ("alphabet", "states", "axiom", "rules", "pool", "_analysis")
    __eq__ = object.__eq__                # equal only to itself
    __hash__ = object.__hash__

    def __init__(self, alphabet: dict[str, int], states: tuple[str, ...],
                 axiom: tuple[WordRef, str, WordRef],
                 rules: dict[tuple[str, str], Rule], pool: SlpPool):
        _set(self, "alphabet", alphabet)
        _set(self, "states", states)
        _set(self, "axiom", axiom)
        _set(self, "rules", rules)
        _set(self, "pool", pool)
        _set(self, "_analysis", {})       # fingerprinter -> results: see memo

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

    def with_(self, **kw) -> Ltw:
        """Replace some fields (others are a TypeError); the new memo starts empty."""
        fields = {f: kw.pop(f, getattr(self, f)) for f in self._fields}
        return Ltw(**fields, **kw)


def validate(M: Ltw) -> None:
    """Raise ValueError on structural defects (bad arity, bad permutation, ...)."""
    states = set(M.states)
    if len(states) != len(M.states):
        raise ValueError("duplicate state names")
    if 0 not in M.alphabet.values():
        raise ValueError("alphabet has no nullary symbol, so no finite trees exist")
    u0, q, u1 = M.axiom
    if q not in states:
        raise ValueError(f"axiom state {q} is not declared")
    for (state, symbol), r in M.rules.items():
        if state not in states:
            raise ValueError(f"rule for undeclared state {state}")
        n = M.alphabet.get(symbol)
        if n is None:
            raise ValueError(f"rule for undeclared symbol {symbol}")
        if r.state != state or r.symbol != symbol:
            raise ValueError("rule indexed under a mismatched key")
        if len(r.calls) != n:
            raise ValueError(f"rule {state},{symbol} has {len(r.calls)} calls, arity is {n}")
        if len(r.words) != n + 1:
            raise ValueError(f"rule {state},{symbol} has {len(r.words)} words, expected {n + 1}")
        if sorted(slot for _, slot in r.calls) != list(range(1, n + 1)):
            raise ValueError(f"rule {state},{symbol} call slots {r.slots} are not a permutation")
        for callee, _ in r.calls:
            if callee not in states:
                raise ValueError(f"rule {state},{symbol} calls undeclared state {callee}")
        for w in r.words:
            if w.pool is not M.pool:
                raise ValueError("rule word from a foreign pool")


def evaluate(M: Ltw, t: Tree) -> WordRef:
    """The output word for `t`; UndefinedInput when some node has no rule.

    Subtrees that occur more than once are run once per state (see
    :func:`outputs`), so a tree that shares its subtrees costs its shared
    size, not its unfolded size."""
    u0, q, u1 = M.axiom
    return M.pool.concat_all([u0, outputs(M, [(q, t)], {})[0], u1])


def outputs(M: Ltw, runs, memo: dict) -> list[WordRef]:
    """The output of each (state, tree) in `runs`, memoized in `memo` per
    (state, subtree id); an entry holds its subtree, so the id is not
    reused while the memo lives.

    Children are run in call order, depth first, so the first node without
    a rule is the one a plain left-to-right run meets first, and the
    UndefinedInput carries its slot path from the root of its run.  Each
    (state, subtree) reads its rule once: the step that assembles its
    output waits on the stack behind its children."""
    for root in runs:
        todo = [(*root, ())]              # path: nested (parent path, slot)
        while todo:
            q, node, step = todo.pop()    # step: the path, or the node's rule
            if isinstance(step, Rule):    # its children have run: assemble
                parts = [step.words[0]]
                for (callee, slot), w in zip(step.calls, step.words[1:]):
                    parts += (memo[(callee, id(node.children[slot - 1]))][1], w)
                memo[(q, id(node))] = node, M.pool.concat_all(parts)
                continue
            if (q, id(node)) in memo:
                continue
            r = M.rule(q, node.symbol)
            if r is None or len(node.children) != r.arity:
                slots = []
                while step:
                    step, slot = step
                    slots.append(slot)
                raise UndefinedInput(q, node.symbol, slots[::-1])
            todo.append((q, node, r))
            todo += [(callee, node.children[slot - 1], (step, slot))
                     for callee, slot in reversed(r.calls)]
    return [memo[(q, id(t))][1] for q, t in runs]


def domain_defined(M: Ltw, t: Tree) -> bool:
    """Whether t is in M's domain: :func:`evaluate` runs it without an
    UndefinedInput, each shared subtree once per state."""
    try:
        evaluate(M, t)
    except UndefinedInput:
        return False
    return True


def settle(rules) -> dict:
    """Least fixpoint of a weighted and-or system: Knuth's generalization
    of Dijkstra's algorithm to grammars (IPL 1977), the one engine behind
    every least fixpoint in the package.

    `rules` yields (head, label, body, cost) tuples with cost >= 0.  A rule
    becomes ready once every node of its body has settled, with the value
    cost + the sum of its body's values (a node listed twice counts twice);
    the ready rule of least value settles its head.  At equal value the rule
    that became ready first wins: ready rules wait in one first-in-first-out
    list per value, and a heap holds only the distinct values, so a system
    whose costs are all 0 is a plain worklist.  Returns {head: (value,
    label, body)} for the winning rules, in settling order, so a body's
    nodes always come before its head.  A rule is only revisited when one
    of its body nodes settles.
    """
    waiting: dict = {}
    ready: dict = {}
    for head, label, body, cost in rules:
        # [value so far, unsettled body nodes, head, label, body]
        cell = [cost, len(body), head, label, body]
        if body:
            for node in body:
                waiting.setdefault(node, []).append(cell)
        else:
            ready.setdefault(cost, []).append(cell)
    values = sorted(ready)                # a sorted list is a heap
    out: dict = {}
    while values:
        value = heapq.heappop(values)
        for _, _, head, label, body in ready[value]:  # grows while it is read
            if head in out:
                continue
            out[head] = (value, label, body)
            for cell in waiting.pop(head, ()):
                cell[0] += value
                cell[1] -= 1
                if not cell[1]:
                    if cell[0] in ready:
                        ready[cell[0]].append(cell)
                    else:
                        ready[cell[0]] = [cell]
                        heapq.heappush(values, cell[0])
        del ready[value]
    return out


def memo(fn):
    """`fn(M, *args)` kept on the machine M under the key (fn, *args): the
    package's one cache of analyses.  Spans and verdicts read fingerprints,
    so a new fingerprinter (a seed change) clears all that M keeps."""
    @functools.wraps(fn)
    def cached(M: Ltw, *args):
        fp, key = words.fingerprinter(), (fn, *args)
        results = M._analysis.get(fp)
        if results is None:
            M._analysis.clear()
            results = M._analysis[fp] = {}
        if key not in results:
            results[key] = fn(M, *args)
        return results[key]
    return cached


@memo
def productive_rules(M: Ltw) -> dict[str, dict[str, tuple[Rule, list[str]]]]:
    """Per state, its productive rules (those calling productive states
    only, so a state with none has an empty domain) by symbol in alphabet
    order, each with its callee per slot; the productive states from one
    cost-0 :func:`settle` over its rules."""
    good = settle((r.state, None, [callee for callee, _ in r.calls], 0)
                  for r in M.rules.values())
    live = {}
    for q in M.states:
        live[q] = mine = {}
        for f in M.alphabet:
            r = M.rules.get((q, f))
            if r is None:
                continue
            by = [""] * len(r.calls)
            for callee, slot in r.calls:
                if callee not in good:
                    break
                by[slot - 1] = callee
            else:
                mine[f] = r, by
    return live


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
    live = productive_rules(M)
    if not live.get(M.axiom[1]):
        raise EmptyTransducer(f"axiom state {M.axiom[1]} has an empty domain")
    rules = {k: r for k, r in M.rules.items() if k[1] in live.get(k[0], ())}
    keep = accessible(M.with_(rules=rules), M.axiom[1])
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


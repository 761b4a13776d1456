"""Brute-force reference checkers.

Everything here works on explicit Python strings and exhaustively enumerated
trees, independent of the decision procedures it is used to validate.  It
reads rule words only through ``words.expand``, once per word, and compares
outputs as plain strings.  Budgets keep enumeration finite; trees
whose outputs exceed the word cap fail loudly rather than silently skipping.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product

from . import words
from .core import Ltw, Tree


class EnumerationBudget(words.Frozen):
    __slots__ = ("max_depth", "max_trees", "max_word_len")

    def __init__(self, max_depth: int = 5, max_trees: int = 20000,
                 max_word_len: int = 100000):
        words._set(self, "max_depth", max_depth)
        words._set(self, "max_trees", max_trees)
        words._set(self, "max_word_len", max_word_len)


class BruteVerdict(words.Record):
    __slots__ = ("equivalent", "witness", "reason", "trees_checked", "budget_hit")

    def __init__(self, equivalent: bool, witness: Tree | None = None,
                 reason: str | None = None,       # "definedness" | "output"
                 trees_checked: int = 0,
                 budget_hit: str | None = None):  # "depth" | "trees"
        self.equivalent, self.witness, self.reason = equivalent, witness, reason
        self.trees_checked, self.budget_hit = trees_checked, budget_hit


def _exact_depth_combos(shallow, exact, full, arity, cap):
    """Child tuples whose deepest member sits exactly in `exact`, grouped by
    the first slot that reaches it; every yielded tuple qualifies, so cost is
    linear in the output, and at most `cap` tuples are produced.  The pools
    are per-slot lists: strictly shallower trees, exactly-deepest trees, and
    their union."""
    made = 0
    for j in range(arity):
        pools = [shallow[k] for k in range(j)]
        pools.append(exact[j])
        pools.extend(full[k] for k in range(j + 1, arity))
        for combo in product(*pools):
            yield combo
            made += 1
            if made >= cap:
                return


def enumerate_trees(M: Ltw, q: str | None = None,
                    budget: EnumerationBudget = EnumerationBudget()) -> list[Tree]:
    """Domain trees of state q (default: the axiom state), depth-major,
    symbols in declaration order, child combinations grouped by the first
    slot holding a deepest subtree.  Stops at whichever budget bound is
    reached first; every intermediate pool is capped by the tree budget,
    which drops only combinations beyond the budget anyway."""
    q = q if q is not None else M.axiom[1]
    cap = budget.max_trees
    by_state: dict[str, list[list[Tree]]] = {s: [[]] for s in M.states}
    out: list[Tree] = []
    for depth in range(1, budget.max_depth + 1):
        for s in M.states:
            exact: list[Tree] = []
            upto = by_state[s]
            for r in M.rules_of(s):
                if len(exact) >= cap:
                    break
                if r.arity == 0:
                    if depth == 1:
                        exact.append(Tree(r.symbol))
                    continue
                if depth == 1:
                    continue
                callee_by_slot = {slot: callee for callee, slot in r.calls}
                shallow, deepest, full = [], [], []
                for slot in range(1, r.arity + 1):
                    levels = by_state[callee_by_slot[slot]]
                    sh = [t for lvl in levels[:depth - 1] for t in lvl]
                    shallow.append(sh)
                    deepest.append(levels[depth - 1])
                    full.append(sh + levels[depth - 1])
                room = cap - len(exact)
                for combo in _exact_depth_combos(shallow, deepest, full,
                                                 r.arity, room):
                    exact.append(Tree(r.symbol, tuple(combo)))
            upto.append(exact)
        for t in by_state[q][depth]:
            if len(out) >= cap:
                return out
            out.append(t)
    return out


def enumerate_all_trees(alphabet_items, budget: EnumerationBudget) -> list[Tree]:
    """All trees over the alphabet (not just domain trees), depth-major."""
    cap = budget.max_trees
    levels: list[list[Tree]] = [[]]
    out: list[Tree] = []
    for depth in range(1, budget.max_depth + 1):
        exact: list[Tree] = []
        for sym, ar in alphabet_items:
            if len(out) + len(exact) >= cap:
                break
            if ar == 0:
                if depth == 1:
                    exact.append(Tree(sym))
                continue
            if depth == 1:
                continue
            sh = [t for lvl in levels[1:depth - 1] for t in lvl]
            deepest = levels[depth - 1]
            full = sh + deepest
            room = cap - len(out) - len(exact)
            for combo in _exact_depth_combos([sh] * ar, [deepest] * ar,
                                             [full] * ar, ar, room):
                exact.append(Tree(sym, tuple(combo)))
        levels.append(exact)
        for t in exact:
            if len(out) >= cap:
                return out
            out.append(t)
    return out


def _rule(M: Ltw, q: str, node: Tree):
    """The rule q runs at node, or None when q is undefined there."""
    r = M.rules.get((q, node.symbol))
    return r if r is not None and r.arity == len(node.children) else None


def evaluate_explicit(M: Ltw, t: Tree, cap: int = 100000,
                      _memo=None) -> str | None:
    """Output as a plain string, None when undefined, CapExceeded when the
    output would exceed `cap` symbols.

    `_memo`, a defaultdict(dict), maps None to the expansion of each rule
    word by pool node, and each state to its output on each proper subtree
    run so far by subtree id; callers may share it between trees that stay
    alive as long as it does.  An undefined subtree is memoized as the length of
    what it emits before its first undefined node, so the cap covers the
    same prefix as a plain left-to-right run: everything emitted before the
    first undefined node, or the whole output but the axiom words."""
    memo = defaultdict(dict) if _memo is None else _memo
    expanded = memo[None]
    q0 = M.axiom[1]
    out, todo = memo[q0].get(id(t)), []
    if out is None:
        r = _rule(M, q0, t)
        if r is None:
            out = 0
        else:
            todo.append((q0, t, r))
    while todo:
        # rule words and children in call order, up to the first child that
        # is undefined or not run yet; the top of the stack always has a
        # rule and is never memoized
        q, node, r = todo[-1]
        parts, total = [], 0
        for i, w in enumerate(r.words):
            if i:
                callee, slot = r.calls[i - 1]
                kid = node.children[slot - 1]
                out = memo[callee].get(id(kid))
                if out is None:
                    rk = _rule(M, callee, kid)
                    if rk is not None:
                        todo.append((callee, kid, rk))
                        break
                    out = 0
                if isinstance(out, int):
                    out += total
                    break
                parts.append(out)
                total += len(out)
            s = expanded.get(w.node)
            if s is None:
                s = expanded[w.node] = words.expand(w, cap)
            parts.append(s)
            total += len(s)
            if total > cap:
                raise words.CapExceeded(total, cap)
        else:
            out = "".join(parts)
        if out is None:
            continue
        todo.pop()
        if todo:                          # not kept for the root: most trees
            memo[q][id(node)] = out       # are never the child of another
    if isinstance(out, int):
        if out > cap:
            raise words.CapExceeded(out, cap)
        return None
    u0, _, u1 = M.axiom
    for w in (u0, u1):
        if w.node not in expanded:
            expanded[w.node] = words.expand(w, cap)
    return expanded[u0.node] + out + expanded[u1.node]


def brute_equiv(M1: Ltw, M2: Ltw,
                budget: EnumerationBudget = EnumerationBudget()) -> BruteVerdict:
    """Compare definedness and explicit outputs over all budgeted trees."""
    merged = list(M1.alphabet.items())
    seen = {s for s, _ in merged}
    for s, a in M2.alphabet.items():
        if s not in seen:
            merged.append((s, a))
        elif M1.alphabet.arity(s) != a:
            raise ValueError(f"alphabets disagree on the arity of {s}")
    trees = enumerate_all_trees(merged, budget)
    hit = "trees" if len(trees) >= budget.max_trees else None
    memo1: dict = defaultdict(dict)
    memo2: dict = defaultdict(dict)
    checked = 0
    for t in trees:
        checked += 1
        o1 = evaluate_explicit(M1, t, budget.max_word_len, memo1)
        o2 = evaluate_explicit(M2, t, budget.max_word_len, memo2)
        if (o1 is None) != (o2 is None):
            return BruteVerdict(False, t, "definedness", checked, hit)
        if o1 is not None and o1 != o2:
            return BruteVerdict(False, t, "output", checked, hit)
    return BruteVerdict(True, None, None, checked, hit)


def string_primitive_root(s: str) -> str:
    n = len(s)
    if n == 0:
        return s
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and s[i] != s[k]:
            k = fail[k - 1]
        if s[i] == s[k]:
            k += 1
        fail[i] = k
    p = n - fail[n - 1]
    return s[:p] if n % p == 0 else s


class BruteQp(words.Record):
    __slots__ = ("handle", "period")

    def __init__(self, handle: str, period: str):
        self.handle, self.period = handle, period


def brute_quasi_periodic(outputs: list[str], direction: str = "left") -> BruteQp | None:
    """Necessary-condition evidence that a finite set of outputs is
    quasi-periodic: unique shortest word as handle, period from the
    second-shortest, membership of every word in handle . period*."""
    if not outputs:
        return None
    if direction == "right":
        flipped = brute_quasi_periodic([s[::-1] for s in outputs], "left")
        if flipped is None:
            return None
        return BruteQp(flipped.handle[::-1], flipped.period[::-1])
    seen = sorted(set(outputs), key=len)
    handle = seen[0]
    if len(seen) > 1 and len(seen[1]) == len(handle):
        return None
    if len(seen) == 1:
        return BruteQp(handle, "")
    period = string_primitive_root(seen[1][len(handle):])
    for s in seen:
        if not s.startswith(handle):
            return None
        rest = s[len(handle):]
        if len(rest) % len(period):
            return None
        if rest != period * (len(rest) // len(period)):
            return None
    return BruteQp(handle, period)

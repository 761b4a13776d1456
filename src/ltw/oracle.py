"""Brute-force reference checkers.

Everything here works on explicit Python strings and exhaustively enumerated
trees, independent of the decision procedures it is used to validate.  It
reads rule words only through ``words.expand``, once per word, and compares
outputs as plain strings.  Budgets keep enumeration finite; trees
whose outputs exceed the word cap fail loudly rather than silently skipping.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from itertools import product

from . import words
from .core import Ltw, Rule, Tree


MAX_WORD_LEN = 100000                     # brute_equiv's cap on one output


class EnumerationBudget(words.Frozen):
    __slots__ = ("max_depth", "max_trees")

    def __init__(self, max_depth: int = 5, max_trees: int = 20000):
        words._set(self, "max_depth", max_depth)
        words._set(self, "max_trees", max_trees)


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
                    budget: EnumerationBudget = EnumerationBudget()) -> Iterator[Tree]:
    """Domain trees of state q (default: the axiom state), depth-major,
    symbols in declaration order, child combinations grouped by the first
    slot holding a deepest subtree, each depth built only once the trees
    before it are taken.  Stops at whichever budget bound is reached first.
    Every intermediate pool is capped by the tree budget, which drops only
    combinations beyond the budget anyway, and q's by what is left of it: a
    level of q that reaches that cap ends the enumeration, so no pool of
    its depth is read again."""
    q = q if q is not None else M.axiom[1]
    cap = budget.max_trees
    by_state: dict[str, list[list[Tree]]] = {s: [[]] for s in M.states}
    made = 0
    for depth in range(1, budget.max_depth + 1):
        for s in M.states:
            limit = cap - made if s == q else cap
            exact: list[Tree] = []
            for r in M.rules_of(s):
                if len(exact) >= limit:
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
                for combo in _exact_depth_combos(shallow, deepest, full,
                                                 r.arity, limit - len(exact)):
                    exact.append(Tree(r.symbol, tuple(combo)))
            by_state[s].append(exact)
        yield from by_state[q][depth]
        made += len(by_state[q][depth])
        if made >= cap:
            return


def live_tree_machine(M1: Ltw, M2: Ltw, alphabet: dict[str, int]) -> Ltw:
    """The product of M1 and M2, each with a state None that has no rule:
    the pairs (q1 or None, q2 or None) but (None, None) that the axiom pair
    reaches, whose rules write nothing.  Its domain is the trees with no
    node where both machines are undefined, the only ones that can tell
    them apart, and :func:`enumerate_trees` lists them in the order it
    lists every tree over the alphabet, with the others left out."""
    e, start = M1.pool.empty, (M1.axiom[1], M2.axiom[1])
    states, todo, rules = {start: None}, [start], {}
    while todo:
        p = todo.pop()
        for f, n in alphabet.items():
            sides = [M.rules.get((q, f)) for M, q in zip((M1, M2), p)]
            if not any(sides):
                continue
            by = [{slot: c for c, slot in r.calls} if r else {} for r in sides]
            calls = tuple(((by[0].get(i), by[1].get(i)), i) for i in range(1, n + 1))
            rules[(p, f)] = Rule(p, f, (e,) * (n + 1), calls)
            new = dict.fromkeys(kid for kid, _ in calls if kid not in states)
            states.update(new)
            todo += new
    return Ltw(alphabet, tuple(states), (e, start, e), rules, M1.pool)


def _rule(M: Ltw, q: str, node: Tree):
    """The rule q runs at node, or None when q is undefined there."""
    r = M.rules.get((q, node.symbol))
    return r if r is not None and r.arity == len(node.children) else None


def evaluate_explicit(M: Ltw, t: Tree, cap: int = MAX_WORD_LEN,
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
    """Compare definedness and explicit outputs on every budgeted tree over
    the merged alphabet that one machine can run (:func:`live_tree_machine`)
    up to the first witness, by when the tree budget may have been hit."""
    merged = dict(M1.alphabet)
    for s, a in M2.alphabet.items():
        if merged.setdefault(s, a) != a:
            raise ValueError(f"alphabets disagree on the arity of {s}")
    memo1: dict = defaultdict(dict)
    memo2: dict = defaultdict(dict)
    checked, witness, reason = 0, None, None
    for t in enumerate_trees(live_tree_machine(M1, M2, merged), budget=budget):
        checked += 1
        o1 = evaluate_explicit(M1, t, MAX_WORD_LEN, memo1)
        o2 = evaluate_explicit(M2, t, MAX_WORD_LEN, memo2)
        if o1 != o2:
            witness, reason = t, "output" if None not in (o1, o2) else "definedness"
            break
    hit = "trees" if checked >= budget.max_trees else None
    return BruteVerdict(witness is None, witness, reason, checked, hit)


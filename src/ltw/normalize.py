"""Partial normal form.

Four language-preserving stages, each exposed on its own:

1. eliminate_quasi_periodic_states -- every quasi-periodic state whose
   shortest word is nonempty is replaced (together with everything it
   reaches) by earliest copies, its handle migrating to the call sites.
2. erase_order -- calls to erasing states move to the end of their rule,
   sorted by input slot.
3. make_rule_parts_earliest -- a rule part (one call plus the word after
   it) whose language is quasi-periodic gets its handle hoisted in front
   of the call, leaving a periodic earliest copy behind.
4. reorder_periodic_runs -- maximal groups of adjacent calls with equal
   primitive periods and nothing written between them sort by input slot.

Stage order matters: 1 removes the non-earliest quasi-periodic states
(singleton languages are the case with an empty period) that would
otherwise break 2's and 3's invariants, and after 3 every
member of a reorderable run has an empty shortest word, so 4 cannot create
new work for the earlier stages.
"""

from __future__ import annotations

import re
from time import perf_counter

from . import words
from .analysis import (QuasiPeriodicity, companion_rules, erasing_states,
                       part_quasi_periodicity, periodic_word,
                       quasi_periodicity, shortest_word_lengths,
                       shortest_words)
from .core import Ltw, Rule, accessible, mirror, trim, validate


class NormalizationReport(words.Record):
    __slots__ = ("result", "entries", "timings", "eliminated", "parts_passes")

    def __init__(self, result: Ltw, entries: list[str], timings: dict[str, float],
                 eliminated: list[tuple[str, str]],
                 parts_passes: int):
        self.result, self.entries, self.timings = result, entries, timings
        self.eliminated, self.parts_passes = eliminated, parts_passes

    def lines(self) -> list[str]:
        out = list(self.entries)
        for stage, secs in self.timings.items():
            out.append(f"# timing: {stage} {secs:.6f}")
        out.append(f"# parts-passes: {self.parts_passes}")
        return out


def _fresh(existing, base: str) -> str:
    """`base`, or `base` with the least counter from 2 on not in `existing`."""
    name, k = base, 2
    while name in existing:
        name = f"{base}{k}"
        k += 1
    return name


_HAT = re.compile(r"__hat\d*$")


def _strip_hat(name: str) -> str:
    while True:
        stripped = _HAT.sub("", name)
        if stripped == name or not stripped:
            return name
        name = stripped


def hat_state_machine(M: Ltw, callee: str, u: words.WordRef) -> tuple[Ltw, str]:
    """Extend M with a state whose language is L(callee).u, for a rule-part
    rewrite to start from; its earliest copies drop the `__hat` suffix.

    Its rules are the callee's with u appended to the final word; inside
    them, any call to the callee that is followed by a word equal to u is
    itself an occurrence of the part and is redirected to the new state.
    """
    name = _fresh(set(M.states), callee + "__hat")
    pool = M.pool
    new_rules = dict(M.rules)
    for r in M.rules_of(callee):
        rwords = list(r.words[:-1]) + [pool.concat(r.words[-1], u)]
        calls = list(r.calls)
        for i, (c, slot) in enumerate(calls):
            if c == callee and words.equals(rwords[i + 1], u):
                calls[i] = (name, slot)
                rwords[i + 1] = pool.empty
        new_rules[(name, r.symbol)] = Rule(name, r.symbol, tuple(rwords), tuple(calls))
    return M.with_(states=M.states + (name,), rules=new_rules), name


# -- stage 1: quasi-periodic states -------------------------------------------

def make_state_earliest(M: Ltw, q: str, verdict: QuasiPeriodicity) -> Ltw:
    """Replace q by earliest copies of everything it reaches.

    Copies follow the companion-transducer construction (whole output at the
    rule front, handle stripped, rotated into q's alignment), which is
    equivalent to q whenever the verdict holds (see
    :func:`~ltw.analysis.companion_rules`); calls to q itself are redirected
    to the root copy with the handle written just before them.  Original
    states stay put -- whatever is still reachable keeps its meaning, the
    rest falls to the next trim.
    """
    if verdict.direction == "right":
        return mirror(_make_left(mirror(M), q))
    return _make_left(M, q)


def _make_left(M: Ltw, q: str) -> Ltw:
    acc = accessible(M, q)
    w = shortest_words(M)
    pool = M.pool
    existing = set(M.states)
    copy: dict[str, str] = {}
    for p in M.states:
        if p in acc:
            name = _fresh(existing, _strip_hat(p) + "__e")
            existing.add(name)
            copy[p] = name
    new_rules = companion_rules(M, q, copy)
    fixed = dict(M.rules)
    for key, r in M.rules.items():
        if any(c == q for c, _ in r.calls):
            wl, cl = list(r.words), list(r.calls)
            for i, (c, s) in enumerate(cl):
                if c == q:
                    wl[i] = pool.concat(wl[i], w[q])
                    cl[i] = (copy[q], s)
            fixed[key] = Rule(r.state, r.symbol, tuple(wl), tuple(cl))
    fixed.update(new_rules)
    u0, ax, u1 = M.axiom
    axiom = (pool.concat(u0, w[q]), copy[q], u1) if ax == q else M.axiom
    states = M.states + tuple(copy[p] for p in M.states if p in acc)
    return M.with_(states=states, rules=fixed, axiom=axiom)


def _postorder(roots, succ, seen: set) -> list:
    """The nodes a depth-first walk from each unseen root in turn reaches,
    in postorder; `succ` maps a node to its successors, and every node
    reached is added to `seen`."""
    out = []
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            node, todo = stack[-1]
            for nxt in todo:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                stack.pop()
                out.append(node)
    return out


def processing_order(M: Ltw) -> list[str]:
    """Candidate order for elimination: callers before callees (topological
    on the strongly connected components from the axiom), and inside a
    component the states farthest from the axiom first.

    The components come from two walks (Kosaraju): one over the calls, then
    one over the reversed calls from the last state finished first, where
    each walk is one component."""
    adj = {p: list(dict.fromkeys(c for r in M.rules_of(p) for c, _ in r.calls))
           for p in M.states}
    callers: dict[str, list[str]] = {p: [] for p in M.states}
    for p in M.states:
        for c in adj[p]:
            callers[c].append(p)
    comp: dict[str, str] = {}                 # state -> its component's root
    members: dict[str, list[str]] = {}
    seen: set[str] = set()
    for root in reversed(_postorder(M.states, adj, set())):
        walk = _postorder([root], callers, seen)
        if walk:
            members[root] = walk
            comp.update(dict.fromkeys(walk, root))

    axiom = M.axiom[1]
    depth = {axiom: 0}
    queue = [axiom]
    for p in queue:
        for c in adj[p]:
            if c not in depth:
                depth[c] = depth[p] + 1
                queue.append(c)

    cadj: dict[str, dict[str, None]] = {root: {} for root in members}
    for p in M.states:
        for c in adj[p]:
            if comp[p] != comp[c]:
                cadj[comp[p]][comp[c]] = None
    index = {p: i for i, p in enumerate(M.states)}
    out: list[str] = []
    for root in reversed(_postorder([comp[axiom]], cadj, set())):
        out += sorted(members[root], key=lambda p: (-depth[p], index[p]))
    return out


def eliminate_quasi_periodic_states(
        M: Ltw) -> tuple[Ltw, list[str], list[tuple[str, str]]]:
    """Repeatedly make the first quasi-periodic non-earliest state earliest.

    A state is already earliest on both sides when its shortest word is
    empty, which also holds for every copy an elimination introduces, so the
    loop terminates.  Verdicts are cached by state name, the one result
    carried across rewrites (every other analysis starts afresh on each new
    machine): a surviving state's language never changes, and reused names
    only ever go to fresh copies, which the empty-shortest-word test skips
    before the cache is consulted.
    """
    entries: list[str] = []
    eliminated: list[tuple[str, str]] = []
    cache: dict[str, tuple[str, QuasiPeriodicity] | None] = {}
    while True:
        m = shortest_word_lengths(M)
        for s in processing_order(M):
            if m[s] == 0:
                continue
            if s not in cache:
                cache[s] = next(((d, v) for d in ("left", "right")
                                 if (v := quasi_periodicity(M, s, d)) is not None), None)
            if cache[s] is not None:
                break
        else:
            return M, entries, eliminated
        d, v = cache[s]
        M = trim(make_state_earliest(M, s, v))
        entries.append(f"earliest-state {s} {d} "
                       f"handle_len={v.handle.length} period_len={v.period.length}")
        eliminated.append((s, d))


# -- stage 2: erasing calls ---------------------------------------------------

def erase_order(M: Ltw) -> tuple[Ltw, list[str]]:
    """Move calls to erasing states to the end of each rule, sorted by slot."""
    er = erasing_states(M)
    pool = M.pool
    entries: list[str] = []
    rules = {}
    for q in M.states:
        for r in M.rules_of(q):
            moved = [(c, s) for c, s in r.calls if c in er]
            if not moved:
                rules[(q, r.symbol)] = r
                continue
            wl, cl = [r.words[0]], []
            for i, (c, s) in enumerate(r.calls):
                if c in er:
                    wl[-1] = pool.concat(wl[-1], r.words[i + 1])
                else:
                    cl.append((c, s))
                    wl.append(r.words[i + 1])
            for c, s in sorted(moved, key=lambda cs: cs[1]):
                cl.append((c, s))
                wl.append(pool.empty)
            nr = Rule(q, r.symbol, tuple(wl), tuple(cl))
            if nr.calls == r.calls and all(
                    words.equals(a, b) for a, b in zip(nr.words, r.words)):
                rules[(q, r.symbol)] = r
            else:
                rules[(q, r.symbol)] = nr
                entries.append(f"erase-order {q} {r.symbol}")
    return M.with_(rules=rules), entries


# -- stage 3: rule parts ------------------------------------------------------

def make_rule_parts_earliest(M: Ltw) -> tuple[Ltw, list[str], int]:
    """Hoist the handle of every quasi-periodic rule part.

    Rules are scanned right to left so a hoisted handle immediately becomes
    part of the word trailing the call on its left.  Earlier rewrites are
    reused: identical parts (same callee, same trailing word) across the
    machine share one earliest copy.  Runs to a fixpoint; the pass count is
    reported.
    """
    entries: list[str] = []
    registry: dict = {}
    fp = words.fingerprinter()
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        keys = [(s, sym) for s in M.states for sym in M.rule_symbols(s)]
        for key in keys:
            if key not in M.rules:
                continue
            q, sym = key
            for i in range(len(M.rules[key].calls) - 1, -1, -1):
                r = M.rules[key]
                callee, slot = r.calls[i]
                u = r.words[i + 1]
                if shortest_word_lengths(M)[callee] == 0 and u.length == 0:
                    continue
                # length and hash fix the whole fingerprint summary, so
                # equal keys are equal words under words.equals
                ukey = (callee, u.length, fp.summary(u)[1])
                hit = registry.get(ukey, "miss")
                if hit is None:
                    continue            # known not quasi-periodic
                if hit != "miss" and hit[1] in M.states:    # else a stale copy
                    handle, root_copy, period_len = hit
                    wl, cl = list(r.words), list(r.calls)
                    wl[i] = M.pool.concat(wl[i], handle)
                    wl[i + 1] = M.pool.empty
                    cl[i] = (root_copy, slot)
                    rules = dict(M.rules)
                    rules[key] = Rule(q, sym, tuple(wl), tuple(cl))
                    M = M.with_(rules=rules)
                else:
                    v = part_quasi_periodicity(M, callee, u)
                    if v is None:
                        registry[ukey] = None
                        continue
                    M2, hat = hat_state_machine(M, callee, u)
                    wl, cl = list(r.words), list(r.calls)
                    wl[i + 1] = M.pool.empty
                    cl[i] = (hat, slot)
                    rules = dict(M2.rules)
                    rules[key] = Rule(q, sym, tuple(wl), tuple(cl))
                    M = make_state_earliest(M2.with_(rules=rules), hat, v)
                    root_copy = M.rules[key].calls[i][0]
                    M = trim(M)
                    handle, period_len = v.handle, v.period.length
                    registry[ukey] = (handle, root_copy, period_len)
                changed = True
                entries.append(f"earliest-part {q} {sym} pos={i + 1} callee={callee} "
                               f"handle_len={handle.length} period_len={period_len}")
    # a rewrite served from the registry bypasses the per-elimination trim,
    # which can strand the replaced callee; rewrites preserve the language,
    # so the machine stays nonempty and one final trim is always safe
    return trim(M), entries, passes


# -- stage 4: periodic runs ---------------------------------------------------

def reorder_periodic_runs(M: Ltw) -> tuple[Ltw, list[str]]:
    """Sort maximal same-period runs of adjacent calls by input slot.

    Two calls belong to one run when nothing is written between them and
    both erase, or both are periodic (:func:`~ltw.analysis.periodic_word`)
    with shortest nonempty words that commute, i.e. share one primitive root
    (Lyndon-Schuetzenberger); all their words then commute, so any fixed
    order preserves the output.  Only calls with such a neighbour are
    tested, and no word length is factored."""
    pool = M.pool
    entries: list[str] = []
    rules = {}
    for q in M.states:
        for r in M.rules_of(q):
            n = len(r.calls)
            cl = list(r.calls)
            i = 0
            while i < n:
                j = i
                wi = (periodic_word(M, cl[i][0])
                      if i + 1 < n and r.words[i + 1].length == 0 else None)
                while (wi is not None and j + 1 < n
                       and r.words[j + 1].length == 0):
                    wj = periodic_word(M, cl[j + 1][0])
                    if (wj is None or (wi.length == 0) != (wj.length == 0)
                            or not words.equals(pool.concat(wi, wj),
                                                pool.concat(wj, wi))):
                        break
                    j += 1
                if j > i:
                    seg = sorted(cl[i:j + 1], key=lambda cs: cs[1])
                    if seg != cl[i:j + 1]:
                        cl[i:j + 1] = seg
                        entries.append(f"reorder-run {q} {r.symbol} pos={i + 1}..{j + 1}")
                i = j + 1
            changed = cl != list(r.calls)
            rules[(q, r.symbol)] = Rule(q, r.symbol, r.words, tuple(cl)) if changed else r
    return M.with_(rules=rules), entries


# -- pipeline -----------------------------------------------------------------

def partial_normal_form(M: Ltw) -> NormalizationReport:
    """Trim, eliminate quasi-periodic states, erase-order, make parts
    earliest, reorder runs.  Raises EmptyTransducer on an empty domain."""
    timings: dict[str, float] = {}
    t0 = perf_counter()
    M = trim(M)
    timings["trim"] = perf_counter() - t0

    t0 = perf_counter()
    M, e1, eliminated = eliminate_quasi_periodic_states(M)
    timings["eliminate"] = perf_counter() - t0

    t0 = perf_counter()
    M, e2 = erase_order(M)
    timings["erase-order"] = perf_counter() - t0

    t0 = perf_counter()
    M, e3, passes = make_rule_parts_earliest(M)
    timings["parts"] = perf_counter() - t0

    t0 = perf_counter()
    M, e4 = reorder_periodic_runs(M)
    timings["reorder"] = perf_counter() - t0

    validate(M)
    return NormalizationReport(M, e1 + e2 + e3 + e4, timings,
                               eliminated, passes)

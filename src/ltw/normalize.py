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

Stage order matters: 1 removes the singleton and periodic non-earliest
states that would otherwise break 2's and 3's invariants, and after 3 every
member of a reorderable run has an empty shortest word, so 4 cannot create
new work for the earlier stages.  The pipeline is deterministic, so a replay
of a recorded elimination order (see `order_override`) reproduces the result
exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from time import perf_counter

from . import words
from .analysis import (QuasiPeriodicity, _fresh, companion_rules, erasing_states,
                       is_periodic_state, part_quasi_periodicity,
                       quasi_periodicity, shortest_word_lengths,
                       shortest_words)
from .core import Ltw, Rule, accessible, mirror, trim, validate


@dataclass
class NormalizationReport:
    result: Ltw
    entries: list[str]
    timings: dict[str, float]
    eliminated: list[tuple[str, str]]   # replayable via order_override
    parts_passes: int

    def lines(self) -> list[str]:
        out = list(self.entries)
        for stage, secs in self.timings.items():
            out.append(f"# timing: {stage} {secs:.6f}")
        out.append(f"# parts-passes: {self.parts_passes}")
        return out


_HAT = re.compile(r"__hat\d*$")


def _strip_hat(name: str) -> str:
    while True:
        stripped = _HAT.sub("", name)
        if stripped == name or not stripped:
            return name
        name = stripped


# -- stage 1: quasi-periodic states -------------------------------------------

def make_state_earliest(M: Ltw, q: str, verdict: QuasiPeriodicity) -> Ltw:
    """Replace q by earliest copies of everything it reaches.

    Copies follow the companion-transducer construction (whole output at the
    rule front, handle stripped, rotated into q's alignment), which the
    verdict has already certified equivalent; calls to q itself are redirected
    to the root copy with the handle written just before them.  Original
    states stay put -- whatever is still reachable keeps its meaning, the
    rest falls to the next trim.
    """
    if verdict.direction == "right":
        back = QuasiPeriodicity("left", words.reverse(verdict.handle),
                                words.reverse(verdict.period))
        return mirror(_make_left(mirror(M), q, back))
    return _make_left(M, q, verdict)


def _make_left(M: Ltw, q: str, verdict: QuasiPeriodicity) -> Ltw:
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
    fixed = {}
    for key, r in M.rules.items():
        if any(c == q for c, _ in r.calls):
            wl, cl = list(r.words), list(r.calls)
            for i, (c, s) in enumerate(cl):
                if c == q:
                    wl[i] = pool.concat(wl[i], w[q])
                    cl[i] = (copy[q], s)
            fixed[key] = Rule(r.state, r.symbol, tuple(wl), tuple(cl))
        else:
            fixed[key] = r
    fixed.update(new_rules)
    u0, ax, u1 = M.axiom
    axiom = (pool.concat(u0, w[q]), copy[q], u1) if ax == q else M.axiom
    states = M.states + tuple(copy[p] for p in M.states if p in acc)
    return M.with_(states=states, rules=fixed, axiom=axiom)


def processing_order(M: Ltw) -> list[str]:
    """Candidate order for elimination: callers before callees (topological
    on the strongly connected components from the axiom), and inside a
    component the states farthest from the axiom first."""
    adj: dict[str, list[str]] = {}
    for p in M.states:
        seen, out = set(), []
        for r in M.rules_of(p):
            for c, _ in r.calls:
                if c not in seen:
                    seen.add(c)
                    out.append(c)
        adj[p] = out
    index = {p: i for i, p in enumerate(M.states)}

    # iterative Tarjan
    low, num, comp = {}, {}, {}
    stack, on_stack, comps = [], set(), []
    counter = 0
    for root in M.states:
        if root in num:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                num[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for j in range(pi, len(adj[node])):
                nxt = adj[node][j]
                if nxt not in num:
                    work[-1] = (node, j + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], num[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == num[node]:
                members = []
                while True:
                    s = stack.pop()
                    on_stack.discard(s)
                    members.append(s)
                    comp[s] = len(comps)
                    if s == node:
                        break
                comps.append(members)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    depth = {M.axiom[1]: 0}
    frontier = [M.axiom[1]]
    d = 0
    while frontier:
        nxt = []
        for p in frontier:
            for c in adj[p]:
                if c not in depth:
                    depth[c] = d + 1
                    nxt.append(c)
        frontier = nxt
        d += 1

    cadj: dict[int, list[int]] = {i: [] for i in range(len(comps))}
    for p in M.states:
        for c in adj[p]:
            if comp[p] != comp[c] and comp[c] not in cadj[comp[p]]:
                cadj[comp[p]].append(comp[c])
    order_sccs: list[int] = []
    seen_scc = set()
    work = [(comp[M.axiom[1]], 0)]
    seen_scc.add(comp[M.axiom[1]])
    while work:
        cid, pi = work[-1]
        advanced = False
        for j in range(pi, len(cadj[cid])):
            nxt = cadj[cid][j]
            if nxt not in seen_scc:
                seen_scc.add(nxt)
                work[-1] = (cid, j + 1)
                work.append((nxt, 0))
                advanced = True
                break
        if advanced:
            continue
        work.pop()
        order_sccs.append(cid)
    order_sccs.reverse()

    out: list[str] = []
    for cid in order_sccs:
        members = sorted(comps[cid],
                         key=lambda p: (-depth.get(p, 0), index[p]))
        out.extend(members)
    return out


def eliminate_quasi_periodic_states(
        M: Ltw, order_override: list[tuple[str, str]] | None = None
) -> tuple[Ltw, list[str], list[tuple[str, str]]]:
    """Repeatedly make the first quasi-periodic non-earliest state earliest.

    A state is already earliest on both sides when its shortest word is
    empty, which also holds for every copy an elimination introduces, so the
    loop terminates.  Verdicts are cached by state name: a surviving state's
    language never changes, and reused names only ever go to fresh copies,
    which the empty-shortest-word test skips before the cache is consulted.
    """
    entries: list[str] = []
    eliminated: list[tuple[str, str]] = []

    def apply(s: str, d: str, v: QuasiPeriodicity, M: Ltw) -> Ltw:
        M = trim(make_state_earliest(M, s, v))
        entries.append(f"earliest-state {s} {d} "
                       f"handle_len={v.handle.length} period_len={v.period.length}")
        eliminated.append((s, d))
        return M

    if order_override is not None:
        for s, d in order_override:
            v = quasi_periodicity(M, s, d)
            if v is None:
                raise ValueError(f"replay: state {s} is not quasi-periodic ({d})")
            M = apply(s, d, v, M)
        return M, entries, eliminated

    cache: dict[tuple[str, str], QuasiPeriodicity | None] = {}
    while True:
        m = shortest_word_lengths(M)
        found = None
        for s in processing_order(M):
            if m[s] == 0:
                continue
            for d in ("left", "right"):
                key = (s, d)
                if key not in cache:
                    cache[key] = quasi_periodicity(M, s, d)
                if cache[key] is not None:
                    found = (s, d, cache[key])
                    break
            if found:
                break
        if found is None:
            return M, entries, eliminated
        s, d, v = found
        M = apply(s, d, v, M)


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
                ukey = (callee, u.length, fp.triple(u)[1])
                hit = registry.get(ukey, "miss")
                if hit is None:
                    continue            # known not quasi-periodic
                if hit != "miss":
                    handle, root_copy, stored_u, _ = hit
                    if not words.equals(stored_u, u) or root_copy not in M.states:
                        hit = "miss"    # fingerprint-key clash or stale copy
                if hit != "miss":
                    wl, cl = list(r.words), list(r.calls)
                    wl[i] = M.pool.concat(wl[i], handle)
                    wl[i + 1] = M.pool.empty
                    cl[i] = (root_copy, slot)
                    rules = dict(M.rules)
                    rules[key] = Rule(q, sym, tuple(wl), tuple(cl))
                    M = M.with_(rules=rules)
                    period_len = registry[ukey][3]
                else:
                    v, M2, hat = part_quasi_periodicity(M, callee, u)
                    if v is None:
                        registry[ukey] = None
                        continue
                    wl, cl = list(r.words), list(r.calls)
                    wl[i + 1] = M.pool.empty
                    cl[i] = (hat, slot)
                    rules = dict(M2.rules)
                    rules[key] = Rule(q, sym, tuple(wl), tuple(cl))
                    M = trim(make_state_earliest(M2.with_(rules=rules), hat, v))
                    root_copy = M.rules[key].calls[i][0]
                    period_len = v.period.length
                    registry[ukey] = (v.handle, root_copy, u, period_len)
                changed = True
                handle_len = registry[ukey][0].length
                entries.append(f"earliest-part {q} {sym} pos={i + 1} callee={callee} "
                               f"handle_len={handle_len} period_len={period_len}")
    # a rewrite served from the registry bypasses the per-elimination trim,
    # which can strand the replaced callee; rewrites preserve the language,
    # so the machine stays nonempty and one final trim is always safe
    return trim(M), entries, passes


# -- stage 4: periodic runs ---------------------------------------------------

def reorder_periodic_runs(M: Ltw) -> tuple[Ltw, list[str]]:
    """Sort maximal same-period runs of adjacent calls by input slot.

    Two calls belong to one run when nothing is written between them and
    their languages share one primitive period; all its words then commute,
    so any fixed order preserves the output."""
    entries: list[str] = []
    rules = {}
    for q in M.states:
        for r in M.rules_of(q):
            n = len(r.calls)
            cl = list(r.calls)
            changed_rule = False
            i = 0
            while i < n:
                j = i
                pi = is_periodic_state(M, cl[i][0])
                while (pi is not None and j + 1 < n
                       and r.words[j + 1].length == 0):
                    pj = is_periodic_state(M, cl[j + 1][0])
                    if (pj is None or pi.length != pj.length
                            or not words.equals(pi, pj)):
                        break
                    j += 1
                if j > i:
                    seg = sorted(cl[i:j + 1], key=lambda cs: cs[1])
                    if seg != cl[i:j + 1]:
                        cl[i:j + 1] = seg
                        changed_rule = True
                        entries.append(f"reorder-run {q} {r.symbol} pos={i + 1}..{j + 1}")
                i = j + 1
            if changed_rule:
                rules[(q, r.symbol)] = Rule(q, r.symbol, r.words, tuple(cl))
            else:
                rules[(q, r.symbol)] = r
    return M.with_(rules=rules), entries


# -- pipeline -----------------------------------------------------------------

def partial_normal_form(M: Ltw,
                        order_override: list[tuple[str, str]] | None = None
                        ) -> NormalizationReport:
    """Trim, eliminate quasi-periodic states, erase-order, make parts
    earliest, reorder runs.  Raises EmptyTransducer on an empty domain."""
    timings: dict[str, float] = {}
    t0 = perf_counter()
    M = trim(M)
    timings["trim"] = perf_counter() - t0

    t0 = perf_counter()
    M, e1, eliminated = eliminate_quasi_periodic_states(M, order_override)
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

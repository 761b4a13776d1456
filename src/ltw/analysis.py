"""Language analyses on transducer states.

Everything a normal form needs to know about a state's output language:
shortest words, erasing detection, the co-reachable pair space two machines
induce on a common domain and the span of their outputs over it, the
companion rules, and the verdicts on rule parts.

The language verdicts (periodic and quasi-periodic; a singleton language is
the quasi-periodic case with an empty period) all read one object: the span
of a state's output vectors (P, H, C) = (base**len, hash, 1) over F_p,
which is the diagonal of :func:`pair_spans` on the pair space of a
machine with itself restarted at the state; a rule part callee(x).u reads
the callee's span times u's matrix.  Each verdict is one linear form that
must vanish on every basis vector, so it errs only on a fingerprint
collision, like "equivalent".

All analyses are per-machine pure functions; results are cached on the
(immutable) transducer instance.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from operator import mul

from . import words
from .core import (Ltw, Rule, Tree, accessible, outputs, settle,
                   with_axiom_state)
from .words import Frozen, WordRef, _set


def _assemble(M: Ltw, r: Rule, subs) -> WordRef:
    """The rule's output once its calls are replaced by `subs`, in call order."""
    refs = [r.words[0]]
    for i, sub in enumerate(subs):
        refs.append(sub)
        refs.append(r.words[i + 1])
    return M.pool.concat_all(refs)


# -- shortest words -----------------------------------------------------------

def _shortest(M: Ltw, key: str):
    """The cached shortest-output maps of M, from one weighted settle.

    Its nodes are (q, False), a shortest output of q, and (q, True), a
    shortest nonempty one; a node's value is the word's length.  A rule
    reaches (q, False) through its callees' shortest outputs, and (q, True)
    the same way when its own words are nonempty, else with exactly one
    callee upgraded to (c, True).  At equal length the rule that became
    ready first wins; words are assembled in settling order, so a rule's
    callee words always exist before its own.
    """
    c = M._analysis
    if "m" not in c:
        rules = []
        for p in M.states:
            for r in M.rules_of(p):
                cost = sum(w.length for w in r.words)
                plain = [(callee, False) for callee, _ in r.calls]
                rules.append(((p, False), r, plain, cost))
                if cost:
                    rules.append(((p, True), r, plain, cost))
                    continue
                for i, (callee, _) in enumerate(r.calls):
                    rules.append(((p, True), r,
                                  plain[:i] + [(callee, True)] + plain[i + 1:], 0))
        out: dict[tuple[str, bool], WordRef] = {}
        for node, (_, r, body) in settle(rules).items():
            out[node] = _assemble(M, r, [out[b] for b in body])
        c["w"] = {q: w for (q, nonempty), w in out.items() if not nonempty}
        c["w+"] = {q: w for (q, nonempty), w in out.items() if nonempty}
        c["m"] = {q: c["w"][q].length if q in c["w"] else None for q in M.states}
    return c[key]


def shortest_word_lengths(M: Ltw) -> dict[str, int | None]:
    """Minimal output length per state; None for states with empty domain."""
    return _shortest(M, "m")


def shortest_words(M: Ltw) -> dict[str, WordRef]:
    """A minimal-length output per productive state, materialized.

    Deterministic: among the rules reaching the minimum, the one that became
    ready first wins, i.e. the one whose last callee settled earliest; rules
    without calls rank in state, then symbol declaration order."""
    return _shortest(M, "w")


def shortest_word(M: Ltw, q: str) -> WordRef | None:
    return shortest_words(M).get(q)


def shortest_nonempty_word(M: Ltw, q: str) -> WordRef | None:
    """A minimal-length nonempty output of q, or None if q only erases
    (or has an empty domain); ties broken as in :func:`shortest_words`."""
    return _shortest(M, "w+").get(q)


def erasing_states(M: Ltw) -> set[str]:
    """Productive states whose every output is the empty word."""
    c = M._analysis
    if "erasing" not in c:
        m, plus = _shortest(M, "m"), _shortest(M, "w+")
        c["erasing"] = {q for q in M.states if m[q] == 0 and q not in plus}
    return c["erasing"]


def is_erasing(M: Ltw, q: str) -> bool:
    return q in erasing_states(M)


# -- shifts and the companion transducer --------------------------------------

def mock_shift_table(M: Ltw, q: str) -> dict[str, int]:
    """Each accessible state's least length written after a call to it in
    an output of q: one settle from q over the calls in the rules of q's
    accessible states (no other edge can fire), where the edge from a caller
    into a callee weighs the shortest completion of what follows the call."""
    c = M._analysis
    key = ("shift", q)
    if key not in c:
        m = shortest_word_lengths(M)
        edges = [(q, None, [], 0)]
        for p in accessible(M, q):
            for r in M.rules_of(p):
                if any(m[callee] is None for callee, _ in r.calls):
                    continue
                suf = r.words[-1].length
                for i in range(len(r.calls) - 1, -1, -1):
                    callee = r.calls[i][0]
                    edges.append((callee, None, [p], suf))
                    suf += m[callee] + r.words[i].length
        c[key] = {p: value for p, (value, _, _) in settle(edges).items()}
    return c[key]


def companion_rules(M: Ltw, q: str, name: dict[str, str]) -> dict:
    """The rules of the states in `name` (those accessible from q), renamed
    by it: each rule's whole output moved to the front, stripped of the
    state's shortest word and rotated into q's alignment.

    When q's language is quasi-periodic (on the left), these rules run from
    the copy of q under an axiom that emits q's shortest word first are
    equivalent to q, and every copy's language lies inside period*: each
    output of an accessible state starts with its shortest word, and the
    rest is a power of a rotation of the period that the mock shift turns
    back into the period.  Nothing here checks either fact."""
    w = shortest_words(M)
    shifts = mock_shift_table(M, q)
    rules = {}
    for p in name:
        for r in M.rules_of(p):
            out = _assemble(M, r, [w[callee] for callee, _ in r.calls])
            stripped = words.strip_prefix(out, w[p].length)
            front = words.rotate_left(stripped, shifts[p])
            rwords = (front,) + (M.pool.empty,) * len(r.calls)
            calls = tuple((name[c], s) for c, s in r.calls)
            rules[(name[p], r.symbol)] = Rule(name[p], r.symbol, rwords, calls)
    return rules


# -- periodicity and quasi-periodicity ----------------------------------------

def _state_span(M: Ltw, q: str) -> _Span:
    """The span of the vectors (P, H, C) of L(q): the diagonal of the pair
    spans of M restarted at q, which also gives the states below q."""
    spans = M._analysis.setdefault("spans", {})
    if q not in spans:
        Mq = with_axiom_state(M, q)
        for (p, _), s in pair_spans(PairSpace(Mq, Mq)).items():
            spans.setdefault(p, s)
    return spans[q]


def _basis_words(M: Ltw, q: str) -> list[WordRef]:
    """The outputs of q on the trees behind its span's basis.

    Basis trees share their subtrees, so outputs are memoized per (state,
    subtree) on M."""
    memo = M._analysis.setdefault("out", {})
    return outputs(M, [(q, t) for t in _state_span(M, q).trees], memo)


def _fits(vectors, u: WordRef, rho: WordRef, direction: str) -> bool:
    """A language whose span has the basis `vectors`, triples (P, H, C), lies
    inside u.rho* ("left") or rho*.u ("right"), for a shortest word u of it
    and a primitive nonempty rho.  A rho = sigma^k answers for its primitive
    root sigma, since rho^omega = sigma^omega.

    Left: a word w, no shorter than u, lies in u.rho* iff w.rho^omega =
    u.rho^omega, because x.rho^omega = rho^omega forces x into rho* for a
    primitive rho (Lyndon-Schuetzenberger).  With (beta, gamma) the (P, H)
    of rho, that identity of fingerprints reads

        (P_u H - H_u P)(beta - 1) = gamma (P - P_u C),

    linear in w's vector (P, H, C), so it holds on the language iff it holds
    on the basis.  Right is the same with rho^omega on the left:
    (H - H_u C)(beta - 1) = gamma (P - P_u C).
    """
    p = words.fingerprinter().prime
    (pu, hu), (beta, gamma) = _summary(u), _summary(rho)
    for P, H, C in vectors:
        a = pu * H - hu * P if direction == "left" else H - hu * C
        if (a * (beta - 1) - gamma * (P - pu * C)) % p:
            return False
    return True


def periodic_word(M: Ltw, q: str) -> WordRef | None:
    """The shortest nonempty output w of q when L(q) lies inside sigma* for
    w's primitive root sigma, the empty word when q has no nonempty output,
    else None.

    :func:`_fits` reads w in place of sigma: for w = sigma^k, w^omega =
    sigma^omega, so the verdict is the same and |w| is never factored."""
    c = M._analysis
    key = ("periodic", q)
    if key not in c:
        w = shortest_nonempty_word(M, q)
        if w is None:                     # erasing, or vacuously: empty domain
            c[key] = M.pool.empty
        else:
            vectors = [(P, H, C) for P, H, _, _, C in _state_span(M, q).vectors]
            c[key] = w if _fits(vectors, M.pool.empty, w, "left") else None
    return c[key]


def is_periodic_state(M: Ltw, q: str) -> WordRef | None:
    """The primitive period p with L(q) a subset of p*, or None: the
    primitive root of :func:`periodic_word` (empty when q has no nonempty
    output)."""
    w = periodic_word(M, q)
    return None if w is None else words.primitive_root(w)


class QuasiPeriodicity(Frozen):
    """Certificate that a state's language is handle.period* (direction left)
    or period*.handle (direction right)."""

    __slots__ = ("direction", "handle", "period")

    def __init__(self, direction: str, handle: WordRef, period: WordRef):
        _set(self, "direction", direction)
        _set(self, "handle", handle)
        _set(self, "period", period)


def quasi_periodicity(M: Ltw, q: str, direction: str = "left") -> QuasiPeriodicity | None:
    """Decide quasi-periodicity of L(q) and return the certificate.

    The handle can only be q's shortest output u, and the period only the
    primitive root of what a basis word w other than u adds to it (u^-1 w
    on the left, w u^-1 on the right; the shortest such w is used).  The
    period is empty when u is q's only output; otherwise L(q) must fit the
    candidate (:func:`_fits`), which fails too when u is not a prefix
    (suffix) of w.
    """
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be left or right, not {direction!r}")
    c = M._analysis
    key = ("qp", q, direction)
    if key not in c:
        u = shortest_word(M, q)
        vectors = [(P, H, C) for P, H, _, _, C in _state_span(M, q).vectors]
        c[key] = None if u is None else _verdict(u, _basis_words(M, q), vectors, direction)
    return c[key]


def _verdict(u: WordRef, ws, vectors, direction: str) -> QuasiPeriodicity | None:
    """:func:`quasi_periodicity` of a language with shortest word u whose
    span has the basis `vectors`, the vectors (P, H, C) of the words `ws`.
    The period's length is factored only once the language is known to fit."""
    u_vec = _summary(u)
    others = [w for w, v in zip(ws, vectors) if v[:2] != u_vec]
    if not others:
        return QuasiPeriodicity(direction, u, u.pool.empty)
    w = min(others, key=lambda w: w.length)
    if w.length == u.length:
        return None
    if direction == "left":
        rest = words.strip_prefix(w, u.length)
    else:
        rest = words.strip_suffix(w, u.length)
    if not _fits(vectors, u, rest, direction):
        return None
    return QuasiPeriodicity(direction, u, words.primitive_root(rest))


# -- rule parts ---------------------------------------------------------------

def part_quasi_periodicity(M: Ltw, callee: str, u: WordRef):
    """Quasi-periodicity (left) of the part language L(callee).u.

    Appending u maps a word's vector (P, H, C) to (P P_u, H P_u + H_u C, C),
    so the verdict reads the callee's basis times u.  Returns the
    certificate, or None when the part is not quasi-periodic.
    """
    w = shortest_word(M, callee)
    p = words.fingerprinter().prime
    pu, hu = _summary(u)
    vectors = [(P * pu % p, (H * pu + hu * C) % p, C)
               for P, H, _, _, C in _state_span(M, callee).vectors]
    ws = [M.pool.concat(b, u) for b in _basis_words(M, callee)]
    return None if w is None else _verdict(M.pool.concat(w, u), ws, vectors, "left")


def rule_part_quasi_periodicity(M: Ltw, state: str, symbol: str, pos: int):
    """Part analysis for call number `pos` (0-based) of one rule."""
    r = M.rule(state, symbol)
    if r is None or not 0 <= pos < len(r.calls):
        raise ValueError(f"no call {pos} in rule {state},{symbol}")
    callee, _ = r.calls[pos]
    return part_quasi_periodicity(M, callee, r.words[pos + 1])


# -- pair space ---------------------------------------------------------------

class PairSpace:
    """Co-reachable state pairs of two transducers.

    A pair is co-reachable when some common input context drives both
    machines to it simultaneously while every sibling subtree stays
    completable in both.  Expansion therefore only descends through symbols
    whose slot pairs are all productive (own a common tree); a failed slot is
    not descended into -- it is a domain difference reportable at its parent.
    """

    def __init__(self, M1: Ltw, M2: Ltw):
        self.M1 = M1
        self.M2 = M2
        self.axiom_pair = (M1.axiom[1], M2.axiom[1])
        self._expand: dict[tuple[str, str], list] = {}
        self.universe: list[tuple[str, str]] = []
        seen = {self.axiom_pair}
        queue = deque([self.axiom_pair])
        while queue:
            pair = queue.popleft()
            self.universe.append(pair)
            exp = []
            for f, kids in self._expansions(pair):
                exp.append((f, kids))
                for kid in kids:
                    if kid not in seen:
                        seen.add(kid)
                        queue.append(kid)
            self._expand[pair] = exp
        settled = settle((pair, f, kids, 0) for pair in self.universe
                         for f, kids in self._expand[pair])
        self._common: dict[tuple[str, str], Tree] = {}
        for pair, (_, f, kids) in settled.items():
            self._common[pair] = Tree(f, tuple(self._common[k] for k in kids))
        self.productive = set(settled)
        self.parent: dict[tuple[str, str], tuple | None] = {self.axiom_pair: None}
        self.co: list[tuple[str, str]] = []
        queue = deque([self.axiom_pair])
        while queue:
            pair = queue.popleft()
            self.co.append(pair)
            for f, kids in self._expand[pair]:
                if not all(k in self.productive for k in kids):
                    continue
                for m, kid in enumerate(kids, 1):
                    if kid not in self.parent:
                        self.parent[kid] = (pair, f, m)
                        queue.append(kid)

    def _expansions(self, pair):
        p1, p2 = pair
        for f in self.M1.alphabet:
            if f not in self.M2.alphabet:
                continue
            r1 = self.M1.rule(p1, f)
            r2 = self.M2.rule(p2, f)
            if r1 is None or r2 is None or r1.arity != r2.arity:
                continue
            by1 = {s: c for c, s in r1.calls}
            by2 = {s: c for c, s in r2.calls}
            kids = tuple((by1[m], by2[m]) for m in range(1, r1.arity + 1))
            yield f, kids

    def expansions(self, pair):
        return self._expand[pair]

    def common_tree(self, pair) -> Tree | None:
        return self._common.get(pair)

    def context(self, pair, inner: Tree) -> Tree:
        """Wrap `inner` into a whole input tree reaching `pair`."""
        cur, p = inner, pair
        while p != self.axiom_pair:
            parent, f, slot = self.parent[p]
            kids = next(ks for g, ks in self._expand[parent] if g == f)
            children = tuple(cur if m == slot else self._common[kids[m - 1]]
                             for m in range(1, len(kids) + 1))
            cur = Tree(f, children)
            p = parent
        return cur


class _Span:
    """A subspace of F_p^5: raw basis vectors with the trees they are the
    images of, and its reduced echelon form for the membership test.

    Row k of the echelon form holds a common scale d at its pivot column
    pivots[k] and 0 at the other pivots, so building it takes no inverse.
    Only the rows' entries on the free columns are stored, one list per
    free column: cols[i][k] is row k's entry at column free[i].  A vector v
    lies in the span iff d*v[j] = sum_k v[pivots[k]]*row_k[j] on every free
    column j; on the pivot columns that holds by construction."""

    __slots__ = ("vectors", "trees", "pivots", "free", "cols", "d")

    def __init__(self):
        self.vectors: list[tuple] = []
        self.trees: list[Tree] = []
        self.pivots: list[int] = []
        self.free = [0, 1, 2, 3, 4]
        self.cols: list[list[int]] = [[], [], [], [], []]
        self.d = 1

    def add(self, v: tuple, p: int) -> bool:
        """Keep v if it lies outside the span; True when it was kept (the
        caller then appends its tree)."""
        d, free, cols = self.d, self.free, self.cols
        pv = [v[c] for c in self.pivots]
        for i, (j, col) in enumerate(zip(free, cols)):
            e = (d * v[j] - sum(map(mul, pv, col))) % p
            if e:
                break
        else:
            return False
        # the remainder d*v - sum_k v[pivots[k]]*row_k, 0 on the pivots and
        # on the free columns before free[i], becomes a row with pivot free[i]
        c, cc = free.pop(i), cols.pop(i)
        new = [[e * a % p for a in col] + [0] for col in cols[:i]]
        for j, col in zip(free[i:], cols[i:]):
            x = (d * v[j] - sum(map(mul, pv, col))) % p
            new.append([(e * a - b * x) % p for a, b in zip(col, cc)] + [d * x % p])
        self.cols = new
        self.pivots.append(c)
        self.d = d * e % p
        self.vectors.append(v)
        return True


def _summary(w) -> tuple[int, int]:
    """(P, H) of a word; its C is 1."""
    _, h, pw = words.fingerprinter().triple(w)
    return pw, h


def _image(rule, vecs: list, p: int) -> tuple:
    """The vector (P1, H1, P2, H2, 1) of a rule applied to one basis vector
    per child.  Each side starts from its first word's (P, H) and folds in
    each call's child and the word after it; C stays 1 throughout."""
    _, _, (P1, H1), steps1, (P2, H2), steps2 = rule
    for s, wp, wh in steps1:
        v = vecs[s]
        x = v[0] * wp
        P1, H1 = P1 * x % p, (H1 * x + v[1] * wp + wh) % p
    for s, wp, wh in steps2:
        v = vecs[s]
        x = v[2] * wp
        P2, H2 = P2 * x % p, (H2 * x + v[3] * wp + wh) % p
    return P1, H1, P2, H2, 1


def _new_combos(sizes: list[int], old: list[int] | None):
    """Index tuples over `sizes` in lexicographic order, leaving out those
    read before: the ones below `old` in every place.  The new ones are the
    disjoint blocks whose first index at or past `old` is at place t."""
    if old is None:
        return itertools.product(*map(range, sizes))
    out = []
    for t in range(len(sizes)):
        out.extend(itertools.product(*map(range, old[:t]), range(old[t], sizes[t]),
                                     *map(range, sizes[t + 1:])))
    out.sort()
    return out


def pair_spans(ps: PairSpace, stop=None) -> dict[tuple[str, str], _Span]:
    """The span of the output vectors (P1, H1, P2, H2, C) of every
    co-reachable pair's common trees, by a worklist over the pairs (see
    :mod:`ltw.equivalence`).

    `stop`, a test on vectors of the axiom pair, ends the fixpoint as soon
    as a vector kept there passes it; that vector is then the axiom pair's
    last basis vector, and the other spans are partial."""
    p = words.fingerprinter().prime
    M1, M2 = ps.M1, ps.M2
    span = {pair: _Span() for pair in ps.co}

    def fold(r):
        """One side of a rule: the (P, H) of its first word, then the
        (child index, P, H) of each call and the word after it."""
        return (_summary(r.words[0]),
                [(s - 1, *_summary(w)) for s, w in zip(r.slots, r.words[1:])])

    # per pair: (symbol, child spans, side 1 fold, side 2 fold), flattened
    rules: dict[tuple, list] = {}
    users: dict[tuple, dict] = defaultdict(dict)   # ordered set of callers
    for pair in ps.co:
        rules[pair] = []
        for f, kids in ps.expansions(pair):
            if not all(k in ps.productive for k in kids):
                continue
            rules[pair].append((f, [span[k] for k in kids], *fold(M1.rule(pair[0], f)),
                                *fold(M2.rule(pair[1], f))))
            for k in kids:
                users[k][pair] = None

    done: dict[tuple, list[int]] = {}    # (pair, rule) -> kid spans read
    queue, queued = deque(ps.co), set(ps.co)
    while queue:
        pair = queue.popleft()
        queued.discard(pair)
        here = span[pair]
        grew = False
        for i, rule in enumerate(rules[pair]):
            f, spans = rule[0], rule[1]
            sizes = [len(s.vectors) for s in spans]
            old = done.get((pair, i))
            if sizes == old:
                continue
            done[(pair, i)] = sizes
            for combo in _new_combos(sizes, old):
                v = _image(rule, [s.vectors[j] for s, j in zip(spans, combo)], p)
                if not here.add(v, p):
                    continue
                here.trees.append(Tree(f, tuple(s.trees[j] for s, j in zip(spans, combo))))
                grew = True
                if stop is not None and pair == ps.axiom_pair and stop(v):
                    return span
        if grew:
            for user in users[pair]:
                if user not in queued:
                    queued.add(user)
                    queue.append(user)
    return span


def shortest_domain_tree(M: Ltw, q: str) -> Tree | None:
    """Some smallest-height tree in the domain of q (None if empty)."""
    c = M._analysis
    if "sdt" not in c:
        trees: dict[str, Tree] = {}
        rules = ((r.state, r, [callee for callee, _ in r.calls], 0)
                 for p in M.states for r in M.rules_of(p))
        for p, (_, r, _) in settle(rules).items():
            by = {s: trees[callee] for callee, s in r.calls}
            trees[p] = Tree(r.symbol, tuple(by[m] for m in range(1, r.arity + 1)))
        c["sdt"] = trees
    return c["sdt"].get(q)


def domains_equal(ps: PairSpace) -> tuple[Tree, str] | None:
    """Domain equality of the two machines (assumed trimmed): None, or an
    input tree in one domain only and what differs there.

    At every co-reachable pair the two states must offer the same symbols at
    the same arities, and every slot pair under a common symbol must own a
    common tree.  The caller verifies the tree.
    """
    M1, M2 = ps.M1, ps.M2
    for pair in ps.co:
        p1, p2 = pair
        sy1 = {r.symbol: r.arity for r in M1.rules_of(p1)}
        sy2 = {r.symbol: r.arity for r in M2.rules_of(p2)}
        if sy1 != sy2:
            order = list(M1.alphabet) + [f for f in M2.alphabet if f not in M1.alphabet]
            f = next(g for g in order if sy1.get(g) != sy2.get(g))
            if f in sy1:
                M, st = M1, p1
            else:
                M, st = M2, p2
            r = M.rule(st, f)
            by = {s: shortest_domain_tree(M, callee) for callee, s in r.calls}
            sub = Tree(f, tuple(by[m] for m in range(1, r.arity + 1)))
            return (ps.context(pair, sub),
                    f"symbol {f} offered on one side only (or at a different arity)")
        for f, kids in ps.expansions(pair):
            bad = next((i for i, k in enumerate(kids) if k not in ps.productive), None)
            if bad is None:
                continue
            r1 = M1.rule(p1, f)
            by1 = {s: c for c, s in r1.calls}
            children = []
            for m in range(1, r1.arity + 1):
                kid = kids[m - 1]
                if kid in ps.productive:
                    children.append(ps.common_tree(kid))
                else:
                    children.append(shortest_domain_tree(M1, by1[m]))
            sub = Tree(f, tuple(children))
            return ps.context(pair, sub), f"slot {bad + 1} of {f} has no common tree"
    return None


def same_ordered(ps: PairSpace) -> bool:
    """Both machines consume children in the same display order everywhere
    they can run together.

    A rule only one side has is a domain difference, not an order
    difference, so it is left to the domain check."""
    M1, M2 = ps.M1, ps.M2
    for p1, p2 in ps.co:
        syms = set(M1.rule_symbols(p1)) & set(M2.rule_symbols(p2))
        for f in syms:
            if M1.rule(p1, f).slots != M2.rule(p2, f).slots:
                return False
    return True

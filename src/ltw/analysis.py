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

All analyses are pure functions of the (immutable) machine.  Those read
more than once are kept on it by :func:`ltw.core.memo`: productive rules,
shortest words, erasing states, periodic words, spans with their basis
outputs, and domain trees.  A seed change or a rewrite starts afresh.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count, repeat
from operator import mul

from . import words
from .core import (Ltw, Rule, Tree, accessible, memo, outputs,
                   productive_rules, settle, with_axiom_state)
from .words import Frozen, WordRef, _set


def _assemble(M: Ltw, r: Rule, subs) -> WordRef:
    """The rule's output once its calls are replaced by `subs`, in call order."""
    refs = [r.words[0]]
    for i, sub in enumerate(subs):
        refs.append(sub)
        refs.append(r.words[i + 1])
    return M.pool.concat_all(refs)


# -- shortest words -----------------------------------------------------------

@memo
def _shortest(M: Ltw):
    """(shortest words, shortest nonempty words, shortest lengths) by state,
    from one weighted settle.

    Its nodes are (q, False), a shortest output of q, and (q, True), a
    shortest nonempty one; a node's value is the word's length.  A rule
    reaches (q, False) through its callees' shortest outputs, and (q, True)
    the same way when its own words are nonempty, else with exactly one
    callee upgraded to (c, True).  At equal length the rule that became
    ready first wins; words are assembled in settling order, so a rule's
    callee words always exist before its own.
    """
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
    w = {q: w for (q, nonempty), w in out.items() if not nonempty}
    plus = {q: w for (q, nonempty), w in out.items() if nonempty}
    return w, plus, {q: w[q].length if q in w else None for q in M.states}


def shortest_word_lengths(M: Ltw) -> dict[str, int | None]:
    """Minimal output length per state; None for states with empty domain."""
    return _shortest(M)[2]


def shortest_words(M: Ltw) -> dict[str, WordRef]:
    """A minimal-length output per productive state, materialized.

    Deterministic: among the rules reaching the minimum, the one that became
    ready first wins, i.e. the one whose last callee settled earliest; rules
    without calls rank in state, then symbol declaration order."""
    return _shortest(M)[0]


def shortest_word(M: Ltw, q: str) -> WordRef | None:
    return shortest_words(M).get(q)


def shortest_nonempty_word(M: Ltw, q: str) -> WordRef | None:
    """A minimal-length nonempty output of q, or None if q only erases
    (or has an empty domain); ties broken as in :func:`shortest_words`."""
    return _shortest(M)[1].get(q)


@memo
def erasing_states(M: Ltw) -> set[str]:
    """Productive states whose every output is the empty word."""
    _, plus, m = _shortest(M)
    return {q for q in M.states if m[q] == 0 and q not in plus}


def is_erasing(M: Ltw, q: str) -> bool:
    return q in erasing_states(M)


# -- shifts and the companion transducer --------------------------------------

def mock_shift_table(M: Ltw, q: str) -> dict[str, int]:
    """Each accessible state's least length written after a call to it in
    an output of q: one settle from q over the calls in the rules of q's
    accessible states (no other edge can fire), where the edge from a caller
    into a callee weighs the shortest completion of what follows the call."""
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
    return {p: value for p, (value, _, _) in settle(edges).items()}


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

@memo
def _span_tables(M: Ltw) -> tuple[dict, dict]:
    """Spans by state and outputs by (state, basis subtree), filled on read."""
    return {}, {}


def _state_span(M: Ltw, q: str) -> _Span:
    """The span of the vectors (P, H, C) of L(q): the diagonal of the pair
    spans of M restarted at q, which also gives the states below q."""
    spans = _span_tables(M)[0]
    if q not in spans:
        Mq = with_axiom_state(M, q)
        for (p, _), s in pair_spans(PairSpace(Mq, Mq)).items():
            spans.setdefault(p, s)
    return spans[q]


def _basis_words(M: Ltw, q: str) -> list[WordRef]:
    """The outputs of q on the trees behind its span's basis.

    Basis trees share their subtrees, so outputs are kept per (state,
    subtree) on M."""
    return outputs(M, [(q, t) for t in _state_span(M, q).trees], _span_tables(M)[1])


def _fits(vectors, u: WordRef, rho: WordRef, direction: str) -> bool:
    """A language whose span has the basis `vectors`, read as (P, H, ..., C),
    lies inside u.rho* ("left") or rho*.u ("right"), for a shortest word u
    of it and a primitive nonempty rho.  A rho = sigma^k answers for its
    primitive root sigma, since rho^omega = sigma^omega.

    Left: a word w, no shorter than u, lies in u.rho* iff w.rho^omega =
    u.rho^omega, because x.rho^omega = rho^omega forces x into rho* for a
    primitive rho (Lyndon-Schuetzenberger).  With (beta, gamma) the (P, H)
    of rho, that identity of fingerprints reads

        (P_u H - H_u P)(beta - 1) = gamma (P - P_u C),

    linear in w's vector (P, H, C), so it holds on the language iff it holds
    on the basis.  Right is the same with rho^omega on the left:
    (H - H_u C)(beta - 1) = gamma (P - P_u C).
    """
    fp = words.fingerprinter()
    p = fp.prime
    (pu, hu), (beta, gamma) = fp.summary(u), fp.summary(rho)
    for P, H, *_, C in vectors:
        a = pu * H - hu * P if direction == "left" else H - hu * C
        if (a * (beta - 1) - gamma * (P - pu * C)) % p:
            return False
    return True


@memo
def periodic_word(M: Ltw, q: str) -> WordRef | None:
    """The shortest nonempty output w of q when L(q) lies inside sigma* for
    w's primitive root sigma, the empty word when q has no nonempty output,
    else None.

    :func:`_fits` reads w in place of sigma: for w = sigma^k, w^omega =
    sigma^omega, so the verdict is the same and |w| is never factored."""
    w = shortest_nonempty_word(M, q)
    if w is None:                         # erasing, or vacuously: empty domain
        return M.pool.empty
    return w if _fits(_state_span(M, q).vectors, M.pool.empty, w, "left") else None


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
    u = shortest_word(M, q)
    vectors = _state_span(M, q).vectors
    return None if u is None else _verdict(u, _basis_words(M, q), vectors, direction)


def _verdict(u: WordRef, ws, vectors, direction: str) -> QuasiPeriodicity | None:
    """:func:`quasi_periodicity` of a language with shortest word u whose
    span has the basis `vectors` of the words `ws` (read as in :func:`_fits`).
    The period's length is factored only once the language is known to fit."""
    u_vec = words.fingerprinter().summary(u)
    others = [w for w, v in zip(ws, vectors) if v[:2] != u_vec]
    if not others:
        return QuasiPeriodicity(direction, u, u.pool.empty)
    w = min(others, key=lambda w: w.length)
    if w.length == u.length:
        return None
    rest = (words.strip_prefix if direction == "left" else words.strip_suffix)(w, u.length)
    if not _fits(vectors, u, rest, direction):
        return None
    return QuasiPeriodicity(direction, u, words.primitive_root(rest))


# -- rule parts ---------------------------------------------------------------

def part_quasi_periodicity(M: Ltw, callee: str, u: WordRef):
    """Quasi-periodicity (left) of the part language L(callee).u.

    Appending u maps a word's vector (P, H, C) to (P P_u, H P_u + H_u C, C)
    (:func:`_frame`, with L empty), so the verdict reads the callee's basis,
    each side framed by u.  Returns the certificate, or None when it is not
    quasi-periodic.
    """
    w = shortest_word(M, callee)
    fp = words.fingerprinter()
    frames = _frame((1, 0), fp.summary(u), fp.prime) * 2
    vectors = [_framed(frames, v, fp.prime) for v in _state_span(M, callee).vectors]
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

def _settled_trees(settled: dict) -> dict:
    """A tree per head of a :func:`settle` whose labels are symbols and
    whose bodies list the children in slot order."""
    trees: dict = {}
    for head, (_, f, kids) in settled.items():
        trees[head] = Tree(f, tuple([trees[k] for k in kids]))
    return trees


class PairSpace:
    """Co-reachable state pairs of two transducers, trimmed or not.

    A pair expands through its rule pairs: a productive rule of each state
    (one calling productive states only) under one symbol and arity, whose
    child pairs, in slot order, are the pairs it reaches.  A pair is
    co-reachable when some common input context drives both machines to it
    while every sibling subtree stays completable in both, so the walk from
    the axiom pair descends only through rule pairs whose child pairs all
    own a common tree; `rule_pairs` maps each co-reachable pair to those, as
    (symbol, child pairs, rule of M1, rule of M2).  `difference` is the
    walk's first domain difference: (pair, None) when its states offer
    different symbols or arities, else (pair, the rule pair with a child
    pair that owns no common tree).  Common trees and parent links are built
    only for a witness."""

    def __init__(self, M1: Ltw, M2: Ltw):
        self.M1, self.M2 = M1, M2
        self.axiom_pair = top = (M1.axiom[1], M2.axiom[1])
        live1, live2 = productive_rules(M1), productive_rules(M2)
        expand: dict[tuple[str, str], list] = {top: []}
        universe = [top]
        for pair in universe:             # grows while it is read: breadth first
            d2, exp = live2[pair[1]], expand[pair]
            for f, (r1, by1) in live1[pair[0]].items():
                r2, by2 = d2.get(f, (None, ()))
                if r2 is None or len(by1) != len(by2):
                    continue
                kids = tuple(zip(by1, by2))
                exp.append((f, kids, r1, r2))
                for kid in kids:
                    if kid not in expand:
                        expand[kid] = []
                        universe.append(kid)
        self._settled = settle((pair, f, kids, 0) for pair, exp in expand.items()
                               for f, kids, _, _ in exp)
        self.co, self.difference = [top], None
        self.rule_pairs: dict[tuple[str, str], list] = {top: []}
        self._common = self._parent = None
        for pair in self.co:              # grows while it is read
            exp, rules = expand[pair], self.rule_pairs[pair]
            if self.difference is None and not (
                    len(live1[pair[0]]) == len(exp) == len(live2[pair[1]])):
                self.difference = pair, None
            for e in exp:
                if not all(k in self._settled for k in e[1]):
                    self.difference = self.difference or (pair, e)
                    continue
                rules.append(e)
                for kid in e[1]:
                    if kid not in self.rule_pairs:
                        self.rule_pairs[kid] = []
                        self.co.append(kid)

    def common_tree(self, pair) -> Tree | None:
        if self._common is None:        # every pair's, from the settle
            self._common = _settled_trees(self._settled)
        return self._common.get(pair)

    def context(self, pair, inner: Tree) -> Tree:
        """Wrap `inner` into a whole input tree reaching `pair`."""
        if self._parent is None:
            self._parent = parent = {}
            for p in self.co:
                for f, kids, _, _ in self.rule_pairs[p]:
                    for m, kid in enumerate(kids, 1):
                        parent.setdefault(kid, (p, f, m, kids))
        cur, p = inner, pair
        while p != self.axiom_pair:
            p, f, slot, kids = self._parent[p]
            cur = Tree(f, tuple(cur if m == slot else self.common_tree(kid)
                                for m, kid in enumerate(kids, 1)))
        return cur


class _Span:
    """A subspace of F_p^D: raw basis vectors, with what each is the image
    of (a tree, or the child trees a partial output has placed) and the
    sequence number it was kept under, and its reduced echelon form for the
    membership test.

    Row k of the echelon form holds a common scale d at its pivot column
    pivots[k] and 0 at the other pivots, so building it takes no inverse.
    Only the rows' entries on the free columns are stored, one list per
    free column: cols[i][k] is row k's entry at column free[i].  A vector v
    lies in the span iff d*v[j] = sum_k v[pivots[k]]*row_k[j] on every free
    column j; on the pivot columns that holds by construction.  So with r
    vectors kept, a membership test costs (D - r)*r products mod p.

    An empty span, whose D is that of the first vector it keeps, keeps a
    nonzero v (entries reduced mod p) in one step: the pivot is v's first
    nonzero column c, d = v[c], and the row is v itself, [v[j]] on each free
    column after c and [0] on each before it.  A zero vector is never kept."""

    __slots__ = ("vectors", "trees", "seqs", "pivots", "free", "cols", "d")

    def __init__(self):
        self.vectors: list = []
        self.trees: list = []
        self.seqs: list[int] = []
        self.pivots: list[int] = []
        self.free: list[int] = []
        self.cols: list[list[int]] = []
        self.d = 1

    def add(self, v, p: int) -> bool:
        """Keep v if it lies outside the span; True when it was kept (the
        caller then appends its tree and sequence number)."""
        pivots = self.pivots
        if not pivots:
            for c, e in enumerate(v):
                if e:
                    break
            else:
                return False
            self.free = [*range(c), *range(c + 1, len(v))]
            self.cols = [[0] for _ in range(c)] + [[x] for x in v[c + 1:]]
            pivots.append(c)
            self.d = e
            self.vectors.append(v)
            return True
        d, free, cols = self.d, self.free, self.cols
        pv = [v[c] for c in pivots]
        for i in range(len(free)):
            e = (d * v[free[i]] - sum(map(mul, pv, cols[i]))) % p
            if e:
                break
        else:
            return False
        # the remainder d*v - sum_k v[pivots[k]]*row_k, 0 on the pivots and
        # on the free columns before free[i], becomes a row with pivot free[i]
        pivots.append(free.pop(i))
        cc = cols.pop(i)
        new = [[e * a % p for a in col] + [0] for col in cols[:i]]
        for k in range(i, len(free)):
            col = cols[k]
            x = (d * v[free[k]] - sum(map(mul, pv, col))) % p
            new.append([(e * a - b * x) % p for a, b in zip(col, cc)] + [d * x % p])
        self.cols = new
        self.d = d * e % p
        self.vectors.append(v)
        return True


def _frame(left, right, p: int) -> tuple:
    """(a, b, c, d) with L.X.R = (a X_P, b X_P + c X_H + d X_C, X_C) for a
    child X between L and R, each a word given as its (P, H), or, in a
    step, a run of the tensor given as (1, 1)."""
    (lP, lH), (rP, rH) = left, right
    return lP * rP % p, lH * rP % p, rP, rH


def _framed(frames, v, p: int) -> tuple:
    """The vector (P1, H1, P2, H2, C) of a child v with each side put into
    its word frame, `frames` the two sides' (a, b, c, d) of :func:`_frame`
    one after the other: a linear map of v."""
    a1, b1, c1, d1, a2, b2, c2, d2 = frames
    P1, H1, P2, H2, C = v
    return (a1 * P1 % p, (b1 * P1 + c1 * H1 + d1 * C) % p,
            a2 * P2 % p, (b2 * P2 + c2 * H2 + d2 * C) % p, C)


def _steps(calls1, calls2, w1: list, w2: list, p: int) -> list:
    """The steps of a rule pair of arity at least 2 with calls `calls1`,
    `calls2` and words of (P, H) `w1`, `w2`, one per child after the first
    in side 1's call order: (slot, ops).

    A partial output is side 1's prefix (P, H, C), then the tensor product
    of side 2's known stretches, one (P, H, C) factor per maximal run of
    placed children, each run holding the words around it, in the order the
    runs last grew.  After the first child, which :func:`pair_spans` puts
    into its word frames alone, it is (P1, H1, C, P2, H2, C): one run.  A
    child X turns the stretch L before it and R after it, each a run or a
    word, into the run L.X.R, the last factor:

        L.X.R = (X_P M00, X_P M10 + X_H M20 + X_C M21, X_C M22)

    with M[a][b] = L_a R_b over (P, H, C).  An op (v's index of X_P, bases,
    offsets, (a, b, c, d) of :func:`_frame`) reads, for each base, M00, M10,
    M20, M21 and M22 at base + offsets[i], the offsets (0, sL, 2 sL,
    2 sL + sR, 2 (sL + sR)) for the strides of L and R in the tensor, 0 for
    a word, and a run passed to :func:`_frame` as (1, 1); side 1 is the
    case of L its prefix, of stride 1, and R a word."""
    pos = {s: t for t, (_, s) in enumerate(calls2)}
    t = pos[calls1[0][1]]
    runs = [(t, t)]                      # (first, last) side-2 call, in tensor order
    out = []
    for j, (_, s) in enumerate(calls1[1:], 1):
        t, m = pos[s], len(runs)
        iL = iR = None
        for i, (first, last) in enumerate(runs):
            if last == t - 1:
                iL = i
            elif first == t + 1:
                iR = i
        sL, L = (0, w2[t]) if iL is None else (3 ** (m - 1 - iL), (1, 1))
        sR, R = (0, w2[t + 1]) if iR is None else (3 ** (m - 1 - iR), (1, 1))
        run = (t if iL is None else runs[iL][0], t if iR is None else runs[iR][1])
        rest = [i for i in range(m) if i != iL and i != iR]
        bases = [3]
        for i in rest:
            bases = [b + d * 3 ** (m - 1 - i) for b in bases for d in (0, 1, 2)]
        runs = [runs[i] for i in rest] + [run]
        side1 = (0, (0,), (0, 1, 2, 2, 2), _frame((1, 1), w1[j + 1], p))
        side2 = (2, bases, (0, sL, 2 * sL, 2 * sL + sR, 2 * (sL + sR)), _frame(L, R, p))
        out.append((s, (side1, side2)))
    return out


def _apply(ops, x, v, p: int) -> list:
    """The partial output after a step with `ops` from a partial output x
    before it and a basis vector v of its child: side 1's prefix times v's
    (P1, H1, C), side 2's tensor times v's (P2, H2, C) (see :func:`_steps`)."""
    out = []
    for xi, bases, (o0, o1, o2, o3, o4), (k0, k1, k2, k3) in ops:
        xp, xh, xc = v[xi], v[xi + 1], v[4]
        c0, c1, c2, c3 = xp * k0, xp * k1, xh * k2, xc * k3
        for b in bases:
            out += (x[b + o0] * c0 % p,
                    (x[b + o1] * c1 + x[b + o2] * c2 + x[b + o3] * c3) % p,
                    x[b + o4] * xc % p)
    return out


def pair_spans(ps: PairSpace, stop=None) -> dict[tuple[str, str], _Span]:
    """The span of the output vectors (P1, H1, P2, H2, C) of every
    co-reachable pair's common trees (see :mod:`ltw.equivalence`).

    Each rule pair folds in its children one at a time, in side 1's call
    order.  The first child enters through its word frames on both sides, a
    linear map (:func:`_framed`) into the pair's span for a unary rule, else
    into an unreduced first partial span.  Each later child is a step
    (:func:`_steps`) that multiplies the partial outputs before it with the
    basis of its child's pair span and keeps the images in the partial span
    after it, the pair's span after the last child, where the step's tree
    builder (symbol, side-1 index of each slot) makes the tree.  All frames
    and steps are built before the fixpoint starts.

    A step is bilinear in (partial output, child vector), so a vector kept
    anywhere is multiplied only with the current basis of the other operand
    of each step that reads it, and a first child's vector is framed once.
    Kept vectors wait on two depth-first stacks that take turns, one pop
    each, the far one first (an empty stack gives up its turn).  Both start
    from the leaf-rule vectors in `ps.co` order: the far stack pops them
    last-first, the near one from the axiom pair.  A vector is expanded by
    the stack that pops it first, and the vectors kept meanwhile go onto
    that stack, the first kept on top.  Every kept vector carries a
    sequence number, and a product is evaluated by the later of its two
    operands, with the vectors of the other one kept before it.  So each
    product is evaluated once in any pop order, even where one span feeds
    several places of a rule, and a rule costs
    sum_j dim(partial_j) * dim(child_j+1)
    products over the whole fixpoint, with dim(partial_0) = 1 for the
    frames and dim(partial_j) <= 3 + 3**m_j for m_j runs of side 2 after j
    children.

    `stop`, a test on vectors of the axiom pair, ends the fixpoint as soon
    as a vector kept there passes it; that vector is then the axiom pair's
    last basis vector, and the other spans are partial.  A difference deep
    below the axiom pair climbs to it along one chain of products."""
    fp = words.fingerprinter()
    p = fp.prime
    t1, t2 = fp.table(ps.M1.pool), fp.table(ps.M2.pool)
    span = {pair: _Span() for pair in ps.co}
    # the readers of each span, each with whether the span is its partial
    # place: (ops, partial span before, child span, span after, tree builder
    # or None); a first child's has its frames, no partial or child span, and
    # for a unary rule its symbol as the tree builder
    readers: dict[_Span, list] = {sp: [] for sp in span.values()}
    top = span[ps.axiom_pair]
    seq = count()
    seeds = []                          # (span, index) of each leaf-rule vector

    for pair in ps.co:
        here = span[pair]
        for f, kids, r1, r2 in ps.rule_pairs[pair]:
            if not kids:
                y = (*t1[r1.words[0].node], *t2[r2.words[0].node], 1)
                if here.add(y, p):
                    here.trees.append(Tree(f, ()))
                    here.seqs.append(next(seq))
                    seeds.append((here, len(here.seqs) - 1))
                    if here is top and stop is not None and stop(y):
                        return span
                continue
            if len(kids) == 1:
                (u1, v1), (u2, v2) = r1.words, r2.words
                frames = (_frame(t1[u1.node], t1[v1.node], p)
                          + _frame(t2[u2.node], t2[v2.node], p))
                readers[span[kids[0]]].append(((frames, None, None, here, f), False))
                continue
            w1, w2 = [t1[w.node] for w in r1.words], [t2[w.node] for w in r2.words]
            slot = r1.calls[0][1]
            pos = r2.slots.index(slot)
            frames = _frame(w1[0], w1[1], p) + _frame(w2[pos], w2[pos + 1], p)
            first = span[kids[slot - 1]]
            left = _Span()              # the first child's images, unreduced
            readers[left] = []
            readers[first].append(((frames, None, None, left, None), False))
            order, last = [0] * len(kids), len(kids) - 1
            for j, (slot, ops) in enumerate(_steps(r1.calls, r2.calls, w1, w2, p), 1):
                order[slot - 1] = j     # full before the fixpoint reads it
                kid = span[kids[slot - 1]]
                if j < last:
                    out = _Span()
                    readers[out] = []
                    step = (ops, left, kid, out, None)
                else:
                    out = here
                    step = (ops, left, kid, out, (f, order))
                readers[kid].append((step, False))
                readers[left].append((step, True))
                left = out

    stacks, done, turn = [seeds, seeds[::-1]], set(), 0    # far, near: pop at the end
    while stacks[0] or stacks[1]:
        stack = stacks[turn] or stacks[1 - turn]
        turn ^= 1
        sp, i = stack.pop()
        v, t, s = sp.vectors[i], sp.trees[i], sp.seqs[i]
        if s in done:
            continue
        done.add(s)
        kept = []
        for (ops, left, kid, out, tree), at_left in readers[sp]:
            if left is None:    # a first child: one product, through its frames
                y = _framed(ops, v, p)
                if tree is None:        # (P1, H1, C, P2, H2, C), kept unreduced
                    out.vectors.append((y[0], y[1], y[4], y[2], y[3], y[4]))
                    out.trees.append((t,))
                elif out.add(y, p):
                    out.trees.append(Tree(tree, (t,)))
                else:
                    continue
                out.seqs.append(next(seq))
                if out is top and stop is not None and stop(y):
                    return span
                kept.append((out, len(out.seqs) - 1))
                continue
            if at_left:         # a partial, times the child vectors kept before it
                n = bisect_left(kid.seqs, s)
                operands = zip(repeat(v, n), repeat(t, n), kid.vectors[:n], kid.trees[:n])
            else:               # a child vector, times the partials kept before it
                n = bisect_left(left.seqs, s)
                operands = zip(left.vectors[:n], left.trees[:n], repeat(v, n), repeat(t, n))
            for x, xt, u, ut in operands:
                y = _apply(ops, x, u, p)
                if tree is None:
                    if not out.add(y, p):
                        continue
                    out.trees.append(xt + (ut,))
                else:
                    y = (y[0], y[1], y[3], y[4], y[2])
                    if not out.add(y, p):
                        continue
                    kids = xt + (ut,)
                    out.trees.append(Tree(tree[0], tuple([kids[k] for k in tree[1]])))
                out.seqs.append(next(seq))
                if out is top and stop is not None and stop(y):
                    return span
                kept.append((out, len(out.seqs) - 1))
        stack += reversed(kept)
    return span


@memo
def _domain_trees(M: Ltw) -> dict[str, Tree]:
    """A smallest-height tree per productive state."""
    return _settled_trees(settle((p, f, by, 0) for p, mine in productive_rules(M).items()
                                 for f, (_, by) in mine.items()))


def shortest_domain_tree(M: Ltw, q: str) -> Tree | None:
    """Some smallest-height tree in the domain of q (None if empty)."""
    return _domain_trees(M).get(q)


def domains_equal(ps: PairSpace) -> tuple[Tree, str] | None:
    """Domain equality of the two machines: None, or an input tree in one
    domain only and what differs there.

    At every co-reachable pair the two states must offer the same symbols at
    the same arities, and every slot pair under a common symbol must own a
    common tree; :class:`PairSpace` records the first pair where either
    fails, and this builds the tree.  The caller verifies it.
    """
    if ps.difference is None:
        return None
    M1, M2 = ps.M1, ps.M2
    pair, e = ps.difference
    if e is None:
        d1, d2 = productive_rules(M1)[pair[0]], productive_rules(M2)[pair[1]]
        sy1 = {f: len(by) for f, (_, by) in d1.items()}
        sy2 = {f: len(by) for f, (_, by) in d2.items()}
        order = list(M1.alphabet) + [f for f in M2.alphabet if f not in M1.alphabet]
        f = next(g for g in order if sy1.get(g) != sy2.get(g))
        M, (_, by) = (M1, d1[f]) if f in sy1 else (M2, d2[f])
        sub = Tree(f, tuple(shortest_domain_tree(M, callee) for callee in by))
        return (ps.context(pair, sub),
                f"symbol {f} offered on one side only (or at a different arity)")
    f, kids, _, _ = e
    common = [ps.common_tree(k) for k in kids]
    children = tuple(shortest_domain_tree(M1, k[0]) if t is None else t
                     for t, k in zip(common, kids))
    return (ps.context(pair, Tree(f, children)),
            f"slot {common.index(None) + 1} of {f} has no common tree")


def same_ordered(ps: PairSpace) -> bool:
    """Both machines consume children in the same display order everywhere
    they can run together: in every rule pair of every co-reachable pair.

    A rule only one side has, or one with a child pair that owns no common
    tree, is a domain difference, not an order difference, so it is left
    to the domain check."""
    return all(r1.slots == r2.slots for pair in ps.co
               for _, _, r1, r2 in ps.rule_pairs[pair])

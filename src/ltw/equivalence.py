"""Equivalence of linear tree-to-word transducers.

Two machines are compared as loaded, with no trimmed copies, on their
co-reachable state pairs (:class:`~ltw.analysis.PairSpace`), which one pass
builds through the productive rules of each.  An axiom state that is not
productive decides the verdict at once; otherwise the domains are compared
first, from the difference that pass records.
Once the domains agree, the common trees of a pair (q1, q2) are summarized
by vectors over F_p,

    (P1, H1, P2, H2, C),

where (P, H) = (base**len, hash) is the Karp-Rabin summary of one side's
output (:class:`~ltw.words.Fingerprinter`) and C is a constant coordinate
both sides share.  A word acts as the lower-triangular matrix
[[P, 0], [H, C]], and concatenation is matrix product, so one rule,
:func:`~ltw.analysis._frame`, puts a child X between two words or runs
(L.X.R) everywhere below and in the axiom frame.  Each child is read
exactly once on each side, in any order, so a tree's vector is multilinear
in the vectors of its children: the span of a pair's vectors is spanned by
the images of the children's basis vectors.
:func:`~ltw.analysis.pair_spans` computes every pair's span by folding each
rule's children in one at a time.  The first child enters through its word
frames, a linear map (:func:`~ltw.analysis._framed`).  The partial output
after j >= 1 children is one vector: the first side's prefix, joined with
the tensor product of the second side's known stretches.  Each later child
is a step bilinear in (partial, child vector), so the partial span is
reduced after each child, and a vector kept anywhere meets only the current
basis of the other operand of each step that reads it, each product once.
A rule of arity k thus costs sum_j dim(partial_j) * dim(child_j+1)
products over the whole fixpoint, with dim(partial_0) = 1 for the frames
and dim(partial_j) <= 3 + 3**m_j for m_j runs of the second side after j
children: linear in arity when the sides call the children in the same
order, reversed, or with one swap.  Each product costs one membership
test, made without inverses on the free columns of the span's reduced
echelon form (all rows at one common scale); only the images of a rule's
first child, when more children follow, are kept untested.  Each basis
vector is kept together with the tree it is the image of; the tree is
built only for vectors that are kept.  Kept vectors wait on two
depth-first stacks, from the leaves of the last pairs and of the axiom
pair, so a deep difference climbs to the axiom pair along one chain.

The machines are equivalent iff the axiom words map every basis vector of
the axiom pair to equal summaries on both sides.  Basis vectors are only
ever appended, so the fixpoint stops at the first kept vector of the axiom
pair that fails: it is the first failing one of the full basis.  It is the
image of a real input tree, not always one of least height; that tree is
re-run on both machines, each shared subtree once, before it is reported
as the witness.  "Equivalent" errs only if one pair of distinct words
collides under the fingerprint, with probability at most len/2**127.  This
is the linear case of the equivalence test of Seidl, Maneth and Kemper for
tree-to-string transducers (FOCS 2015), where polynomial ideals collapse to
linear spans, and the tree analogue of Tzeng's (1992) linear-algebra test
for weighted automata.
"""

from __future__ import annotations

from . import words
from .analysis import (PairSpace, _frame, _framed, domains_equal, pair_spans,
                       shortest_domain_tree)
from .core import Ltw, Tree, domain_defined, evaluate, productive_rules


class EquivVerdict(words.Record):
    __slots__ = ("equivalent", "reason", "witness", "detail")  # reason: "domain" | "output"

    def __init__(self, equivalent: bool, reason: str | None = None,
                 witness: Tree | None = None, detail: str = ""):
        self.equivalent, self.reason = equivalent, reason
        self.witness, self.detail = witness, detail


def morphism_equivalence(ps: PairSpace) -> tuple[str, Tree | None]:
    """("span", a common tree on which the outputs differ, or None).

    Checks the axiom frame on the basis of the axiom pair's span, which
    stops growing at the first vector that fails it.  The tree is not
    re-verified here."""
    fp = words.fingerprinter()
    p = fp.prime
    (l1, _, r1), (l2, _, r2) = ps.M1.axiom, ps.M2.axiom     # the words around v
    frames = (_frame(fp.summary(l1), fp.summary(r1), p)
              + _frame(fp.summary(l2), fp.summary(r2), p))

    def fails(v):
        y = _framed(frames, v, p)
        return y[:2] != y[2:4]

    top = pair_spans(ps, stop=fails)[ps.axiom_pair]
    return "span", top.trees[-1] if top.vectors and fails(top.vectors[-1]) else None


def decide_same_ordered_equiv(M1: Ltw, M2: Ltw) -> EquivVerdict:
    """Equivalence of two machines exactly as given, trimmed or not: the
    domain check, then the span test, both on one :class:`PairSpace`.  The
    span test handles children read in any order on either side, so the
    machines need not be same-ordered.  :func:`decide_equiv` calls this once
    neither axiom state has an empty domain."""
    ps = PairSpace(M1, M2)
    diff = domains_equal(ps)
    if diff is not None:
        t, detail = diff
        if domain_defined(M1, t) == domain_defined(M2, t):
            raise RuntimeError("domain witness failed verification")
        return EquivVerdict(False, reason="domain", witness=t, detail=detail)
    method, t = morphism_equivalence(ps)
    if t is not None:
        if words.equals(evaluate(M1, t), evaluate(M2, t)):
            raise RuntimeError("output witness failed verification")
        return EquivVerdict(False, reason="output", witness=t, detail=method)
    return EquivVerdict(True, detail=method)


def decide_equiv(M1: Ltw, M2: Ltw) -> EquivVerdict:
    """Full equivalence decision on the machines as loaded: the empty
    domains first, then :func:`decide_same_ordered_equiv`.

    Every "not equivalent" carries a witness tree re-verified on the
    machines; "equivalent" errs only on a fingerprint collision."""
    empty1, empty2 = (not productive_rules(M)[M.axiom[1]] for M in (M1, M2))
    if empty1 and empty2:
        return EquivVerdict(True, detail="both domains empty")
    if empty1 or empty2:
        M = M2 if empty1 else M1
        t = shortest_domain_tree(M, M.axiom[1])
        if domain_defined(M1, t) == domain_defined(M2, t):
            raise RuntimeError("domain witness failed verification")
        return EquivVerdict(False, reason="domain", witness=t,
                            detail="one domain is empty")
    return decide_same_ordered_equiv(M1, M2)

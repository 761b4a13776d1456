"""Grammar-compressed words (straight-line programs).

Every word the transducer machinery touches -- rule outputs, shortest words,
handles, periods -- lives in an append-only :class:`SlpPool` and is addressed
by a :class:`WordRef`.  Lengths are exact Python integers, so words like
a**(2**60) are first-class values; structural operations (strip, rotate,
reverse) add O(depth) nodes and never expand.

Equality compares Karp-Rabin fingerprints modulo the fixed prime PRIME at a
base drawn from the configured seed (per-comparison error at most
len/2**127, i.e. below 2**-67 for lengths up to 2**60); `expand` gives the
ground truth under a cap.

A node's length fixes its kind: 0 (node 0 only) the empty word, 1 a literal,
2 or more a concatenation, as `concat` never joins an empty operand.
"""

from __future__ import annotations

import math
import random
from operator import attrgetter

DEFAULT_EXPAND_CAP = 10 ** 6


class CapExceeded(Exception):
    """An operation would materialize more symbols than the cap allows."""

    def __init__(self, length, cap):
        super().__init__(f"word of length {length} exceeds cap {cap}")
        self.length = length
        self.cap = cap


class _FactoringGaveUp(CapExceeded):
    """Factoring a word's length ran out of Pollard rho steps."""

    def __init__(self, length):
        super().__init__(length, RHO_STEPS)
        self.args = (f"factoring length {length} gave up at the limit of "
                     f"{RHO_STEPS} Pollard rho steps",)


class OutOfRange(ValueError):
    pass


class PoolMismatch(ValueError):
    pass


def valid_symbol(ch: str) -> bool:
    """Symbols are single printable 8-bit characters (no control codes)."""
    if len(ch) != 1:
        return False
    o = ord(ch)
    return 32 <= o <= 126 or 160 <= o <= 255


_set = object.__setattr__


class Record:
    """Base of the value types, instead of `dataclasses` (dearer to import
    than ltw).  A subclass names its fields in `__slots__` (at least two; a
    slot named `_x` is no field) and sets them in `__init__`; records compare
    field-wise within one class and are unhashable, like eq=True dataclasses."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f[0] != "_")
        if cls._fields:
            cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields))


class Frozen(Record):
    """A hashable record whose fields only `__init__` sets, with `_set`."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values)


class WordRef(Frozen):
    """Handle to one word: a pool plus a node id inside it.

    Two WordRefs may denote equal words without being equal handles; use
    :func:`equals` for word equality.
    """

    __slots__ = ("pool", "node")

    def __init__(self, pool: SlpPool, node: int):
        _set(self, "pool", pool)
        _set(self, "node", node)

    @property
    def length(self) -> int:
        return self.pool._len[self.node]

    def __repr__(self):
        n = self.length
        if n <= 24:
            return f"WordRef({expand(self)!r})"
        return f"WordRef(len={n})"


class SlpPool:
    """Append-only table of word productions: Empty, Literal, Concat.

    Node ids reference only earlier ids, so the derivation graph is acyclic
    by construction and every node denotes exactly one word.
    """

    def __init__(self):
        self._left = [0]
        self._right = [0]
        self._sym = [""]
        self._len = [0]
        self._chars: dict[str, int] = {}
        self._fp: dict[object, list] = {}
        self._reversed: dict[int, int] = {}   # node -> its reversal, both ways
        self.empty = WordRef(self, 0)

    def __len__(self):
        return len(self._len)

    def _push(self, left, right, sym, ln) -> int:
        self._left.append(left)
        self._right.append(right)
        self._sym.append(sym)
        self._len.append(ln)
        return len(self._len) - 1

    def _char(self, ch: str) -> int:
        nid = self._chars.get(ch)
        if nid is None:
            if not valid_symbol(ch):
                raise ValueError(f"invalid output symbol: {ch!r}")
            nid = self._push(0, 0, ch, 1)
            self._chars[ch] = nid
        return nid

    def literal(self, symbols: str) -> WordRef:
        """The word consisting of exactly `symbols` (balanced concatenation)."""
        if not symbols:
            return self.empty
        ids = [self._char(c) for c in symbols]
        while len(ids) > 1:
            nxt = []
            for i in range(0, len(ids) - 1, 2):
                a, b = ids[i], ids[i + 1]
                nxt.append(self._push(a, b, "", self._len[a] + self._len[b]))
            if len(ids) % 2:
                nxt.append(ids[-1])
            ids = nxt
        return WordRef(self, ids[0])

    def concat(self, a: WordRef, b: WordRef) -> WordRef:
        if a.pool is not self or b.pool is not self:
            raise PoolMismatch("operands belong to a different pool")
        if a.length == 0:
            return b
        if b.length == 0:
            return a
        return WordRef(self, self._push(a.node, b.node, "", a.length + b.length))

    def concat_all(self, refs) -> WordRef:
        out = self.empty
        for r in refs:
            out = self.concat(out, r)
        return out


def concat(a: WordRef, b: WordRef) -> WordRef:
    return a.pool.concat(a, b)


def expand(w: WordRef, cap: int = DEFAULT_EXPAND_CAP) -> str:
    """Materialize the word as a str; CapExceeded if longer than `cap`."""
    if w.length > cap:
        raise CapExceeded(w.length, cap)
    pool, out = w.pool, []
    lens, left, right, sym = pool._len, pool._left, pool._right, pool._sym
    stack = [w.node]
    while stack:
        n = stack.pop()
        k = lens[n]
        if k == 1:
            out.append(sym[n])
        elif k:
            stack.append(right[n])
            stack.append(left[n])
    return "".join(out)


# -- equality ----------------------------------------------------------------

PRIME = 2 ** 128 - 159                    # the largest prime below 2**128


class Fingerprinter:
    """Karp-Rabin summaries modulo PRIME at a base drawn from the seed: two
    different words of length n collide at fewer than n bases (a nonzero
    polynomial of degree below n), so the prime need not be random.

    A word's summary is (P, H) = (base**len, hash) mod p, in the order of
    the span vectors; concatenation composes summaries in O(1), so the
    summary of any pool node costs one pass over the nodes below it (cached
    per pool).
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.prime = PRIME
        self.base = random.Random(seed).randrange(2, PRIME - 1)

    def table(self, pool: SlpPool) -> list[tuple[int, int]]:
        """The summary (P, H) of every node of `pool`, indexed by node: the
        pool's cache, extended to the pool's current size; a pool keeps one,
        as a new seed replaces the fingerprinter for good."""
        cache = pool._fp.get(self)
        if cache is None:
            pool._fp.clear()
            cache = pool._fp[self] = []
        if len(cache) < len(pool):
            p, b = self.prime, self.base
            lens, left, right, sym = pool._len, pool._left, pool._right, pool._sym
            for n in range(len(cache), len(pool)):
                k = lens[n]
                if k > 1:
                    p1, h1 = cache[left[n]]
                    p2, h2 = cache[right[n]]
                    cache.append((p1 * p2 % p, (h1 * p2 + h2) % p))
                elif k:
                    cache.append((b, ord(sym[n])))
                else:
                    cache.append((1, 0))
        return cache

    def summary(self, w: WordRef) -> tuple[int, int]:
        """(P, H) of the word `w`."""
        return self.table(w.pool)[w.node]


_current = Fingerprinter(0)


def set_equality_seed(seed: int) -> None:
    """Fingerprint at `seed`'s base from now on; the fingerprinter, which
    keys the pools' tables and the span caches, changes only with the seed."""
    global _current
    if seed != _current.seed:
        _current = Fingerprinter(seed)


def fingerprinter() -> Fingerprinter:
    """The fingerprinter of the configured seed."""
    return _current


def equals(a: WordRef, b: WordRef) -> bool:
    """Word equality by fingerprint; may err toward True with probability
    at most len/2**127 per comparison."""
    if a.length != b.length:
        return False
    if a.pool is b.pool and a.node == b.node:
        return True
    fp = fingerprinter()
    return fp.summary(a) == fp.summary(b)


# -- structure ---------------------------------------------------------------

def _strip(w: WordRef, n: int, near: list, far: list) -> WordRef:
    """The word with n symbols removed at the end that `near` (the pool's
    left or right child list) descends to; `far` is the other list."""
    if n < 0 or n > w.length:
        raise OutOfRange(f"cannot strip {n} symbols from a word of length {w.length}")
    pool = w.pool
    lens = pool._len
    kept = []
    cur, k = w.node, n
    while k:
        if lens[cur] == 1:
            cur = 0
            break
        a, b = near[cur], far[cur]
        if k >= lens[a]:
            cur, k = b, k - lens[a]
        else:
            kept.append(b)
            cur = a
    out = WordRef(pool, cur)
    for b in reversed(kept):
        b = WordRef(pool, b)
        out = pool.concat(out, b) if near is pool._left else pool.concat(b, out)
    return out


def strip_prefix(w: WordRef, n: int) -> WordRef:
    """The word with its first n symbols removed."""
    return _strip(w, n, w.pool._left, w.pool._right)


def strip_suffix(w: WordRef, n: int) -> WordRef:
    """The word with its last n symbols removed."""
    return _strip(w, n, w.pool._right, w.pool._left)


def prefix(w: WordRef, n: int) -> WordRef:
    return strip_suffix(w, w.length - n)


def rotate_left(w: WordRef, n: int) -> WordRef:
    """Move the first n (mod length) symbols to the end."""
    if w.length == 0:
        return w
    n %= w.length
    if n == 0:
        return w
    return concat(strip_prefix(w, n), prefix(w, n))


def reverse(w: WordRef) -> WordRef:
    """The word read backwards.  The pool keeps every reversal both ways, so
    reversing a word back, or a shared part again, adds no node."""
    pool = w.pool
    left, right, lens = pool._left, pool._right, pool._len
    memo = pool._reversed
    stack = [w.node]
    while stack:
        n = stack[-1]
        if n in memo:
            stack.pop()
            continue
        if lens[n] < 2:
            memo[n] = n
            stack.pop()
            continue
        a, b = left[n], right[n]
        if a in memo and b in memo:
            r = memo[n] = pool._push(memo[b], memo[a], "", lens[n])
            memo[r] = n
            stack.pop()
        else:
            stack.append(a)
            stack.append(b)
    return WordRef(pool, memo[w.node])


# -- primitive roots ---------------------------------------------------------

# Factoring a length: trial division by TRIAL_ODDS odd numbers, then at most
# RHO_STEPS Pollard rho steps (about 0.5 s at 105 bits; they split prime
# factors below about 2**32); past them, CapExceeded.
TRIAL_ODDS = 200000
RHO_STEPS = 1 << 16


def _probably_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int) -> dict[int, int]:
    """Trial division by TRIAL_ODDS odd numbers, then Pollard's rho with
    RHO_STEPS steps in all."""
    whole = n
    fac: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    d = 7
    steps = 0
    while d * d <= n and steps < TRIAL_ODDS:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 2
        steps += 1
    if n == 1:
        return fac
    left = RHO_STEPS
    pending = [n]
    while pending:
        m = pending.pop()
        if _probably_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        rng = random.Random(m)
        d = m
        while d == m:                     # the walk failed: start another
            c = rng.randrange(1, m)
            x = y = rng.randrange(2, m)
            d = 1
            while d == 1:
                if not left:
                    raise _FactoringGaveUp(whole)
                left -= 1
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                d = math.gcd(x - y, m)
        pending.append(d)
        pending.append(m // d)
    return fac


def primitive_root(w: WordRef) -> WordRef:
    """The primitive word p with w == p**k (w itself if not a proper power).

    The root length r starts at the length n and loses each prime factor p
    of n while w still has period r/p, checked by one compressed overlap
    comparison (w equals its own d-shift iff d is a period).  The periods of
    w that divide n are the multiples of the root's length that divide n,
    so this finds the root in at most log2(n) + (number of primes of n)
    comparisons; it raises CapExceeded when factoring the length gives up
    (see RHO_STEPS).
    """
    r = n = w.length
    if n == 0:
        return w
    for p in _factorize(n):
        while r % p == 0 and equals(strip_suffix(w, r // p), strip_prefix(w, r // p)):
            r //= p
    return w if r == n else prefix(w, r)

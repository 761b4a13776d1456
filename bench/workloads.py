"""Seeded input generators for the three benchmark workloads.

Each generator writes `.ltw` files into a directory and returns the op list
together with its answer key.  Machines are built as plain text from a
``random.Random`` seeded by the workload name and the seed, so one seed gives
byte-identical files.  The program under test is used in exactly two places,
both in the `corpus` workload: the second machine of a normal-form pair is
the program's own partial normal form, and the random+mutate pairs are
decided by the brute-force oracle (``oracle.brute_equiv``) at the budget of
acceptance criterion 7.

An op is a dict:
  ``argv``     the CLI arguments, relative to the work directory
  ``kind``     ``"check"`` or ``"normalize"``
  ``family``   which generator family built it (for failure reports)
  ``expect``   ``"equivalent"`` / ``"not equivalent"`` for check ops
  ``files``    the input machine files, for witness re-evaluation
  ``output``, ``probes``  for normalize ops: the output file, and the input
               trees on which it must agree with the input machine
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("chain", "corpus", "recursive")

CHAIN_STATES = 120
CORPUS_MUTATE, CORPUS_NORMAL, CORPUS_RUNS, CORPUS_DOUBLING = 80, 60, 60, 4
RECURSIVE_STATES = range(3, 9)
RECURSIVE_CHAIN = range(8, 17)
DOUBLING_DEPTH = 60

# acceptance criterion 7's oracle budget
ORACLE_DEPTH, ORACLE_TREES = 5, 20000


@dataclass
class Machine:
    """A transducer as text parts: words are plain strings over output
    symbols (no quotes or backslashes), calls are (callee, slot) pairs."""

    alphabet: list[tuple[str, int]]
    axiom: tuple[str, str, str]
    rules: dict[tuple[str, str], tuple[list[str], list[tuple[str, int]]]]
    slps: list[str] = field(default_factory=list)

    def text(self) -> str:
        lines = ["input " + " ".join(f"{s}:{a}" for s, a in self.alphabet)]
        lines.extend(self.slps)
        u0, q, u1 = self.axiom
        lines.append(" ".join(p for p in ["axiom =", _word(u0), f"{q}(x)", _word(u1)] if p))
        for (state, sym), (ws, calls) in self.rules.items():
            head = f"rule {state} {sym}"
            if calls:
                head += "(%s)" % ",".join(f"x{i}" for i in range(1, len(calls) + 1))
            parts = [_word(ws[0])]
            for (callee, slot), w in zip(calls, ws[1:]):
                parts += [f"{callee}(x{slot})", _word(w)]
            body = " ".join(p for p in parts if p) or '""'
            lines.append(f"{head} = {body}")
        return "\n".join(lines) + "\n"


def _word(w: str) -> str:
    """A word token: `$NAME` passes through, other words are quoted."""
    if w.startswith("$"):
        return w
    return f'"{w}"' if w else ""


def _rand_word(rng: random.Random, letters: str = "ab", max_len: int = 4,
               length: random.Random | None = None) -> str:
    """A word of at most `max_len` letters; `length` (default `rng`) draws
    its length, `rng` its letters."""
    n = (length or rng).randrange(max_len + 1)
    return "".join(rng.choice(letters) for _ in range(n))


def _write(directory: str, name: str, text: str) -> str:
    with open(os.path.join(directory, name), "w", encoding="latin-1") as f:
        f.write(text)
    return name


def _check_op(directory, name, a_text, b_text, family, expect) -> dict:
    a = _write(directory, f"{name}.a.ltw", a_text)
    b = _write(directory, f"{name}.b.ltw", b_text)
    return {"argv": ["check", a, b], "kind": "check", "family": family,
            "expect": expect, "files": [a, b]}


# -- chain --------------------------------------------------------------------

def _primitive(w: str) -> bool:
    return all(w != w[i:] + w[:i] for i in range(1, len(w)))


def chain_machine(rng: random.Random, k: int = CHAIN_STATES) -> Machine:
    """k states in a unary chain, each writing one seeded primitive period
    word of length 3 over abc before calling the next.  Every state is
    quasi-periodic and only the last one is earliest."""
    while True:
        period = "".join(rng.choice("abc") for _ in range(3))
        if _primitive(period):
            break
    rules = {}
    for i in range(1, k):
        rules[(f"q{i}", "f")] = ([period, ""], [(f"q{i + 1}", 1)])
    rules[(f"q{k}", "f")] = ([period, ""], [(f"q{k}", 1)])
    rules[(f"q{k}", "g")] = ([""], [])
    return Machine([("f", 1), ("g", 0)], ("", "q1", ""), rules)


def gen_chain(seed: int, directory: str) -> list[dict]:
    rng = random.Random(f"chain-{seed}")
    a = _write(directory, "chain.a.ltw", chain_machine(rng).text())
    # the domain is f^n(g) for n >= k-1; probe both sides of that edge
    probes = ["f(" * n + "g" + ")" * n for n in range(CHAIN_STATES + 4)]
    return [{"argv": ["normalize", a, "-o", "chain.out.ltw"],
             "kind": "normalize", "family": "chain", "files": [a],
             "output": "chain.out.ltw", "probes": probes}]


# -- corpus -------------------------------------------------------------------

def layered_machine(words: random.Random, shape: random.Random,
                    n_states: int) -> Machine:
    """Acyclic machine over n0:0 n1:0 u:1 b2:2 whose rules call strictly
    later states; every state has a nullary rule, so differences between two
    such machines show on shallow trees (the oracle's budget covers them).
    `shape` draws which rules exist and what they call, `words` draws the
    words they write."""
    rules = {}
    for i in range(n_states):
        q = f"q{i}"
        rules[(q, "n0")] = ([_rand_word(words)], [])
        if shape.random() < 0.5:
            rules[(q, "n1")] = ([_rand_word(words)], [])
        later = range(i + 1, n_states)
        if later and shape.random() < 0.7:
            rules[(q, "u")] = ([_rand_word(words), _rand_word(words)],
                               [(f"q{shape.choice(later)}", 1)])
        if later and shape.random() < 0.5:
            a, b = shape.choice(later), shape.choice(later)
            s1, s2 = (1, 2) if shape.random() < 0.5 else (2, 1)
            rules[(q, "b2")] = ([_rand_word(words) for _ in range(3)],
                                [(f"q{a}", s1), (f"q{b}", s2)])
    return Machine([("n0", 0), ("n1", 0), ("u", 1), ("b2", 2)],
                   (_rand_word(words), "q0", _rand_word(words)), rules)


def mutate(m: Machine, words: random.Random, shape: random.Random,
           kind: int) -> Machine:
    """One structural edit of the given kind: 0 lengthens or shortens a
    word, 1 swaps two adjacent calls, 2 (or 1 on a rule with fewer than two
    calls) drops a rule or replaces its first word.  `shape` picks the rule
    and the edit, `words` the letters written."""
    rules = {k: (list(ws), list(cs)) for k, (ws, cs) in m.rules.items()}
    key = sorted(rules)[shape.randrange(len(rules))]
    ws, cs = rules[key]
    if kind == 0:
        i = shape.randrange(len(ws))
        if shape.random() < 0.5 or not ws[i]:
            ws[i] += words.choice("ab")
        else:
            ws[i] = ws[i][:-1]
    elif kind == 1 and len(cs) >= 2:
        i = shape.randrange(len(cs) - 1)
        cs[i], cs[i + 1] = cs[i + 1], cs[i]
    elif len(rules) > 1 and shape.random() < 0.3:
        del rules[key]
    else:
        ws[0] = _rand_word(words) + words.choice("ab")
    return Machine(m.alphabet, m.axiom, rules)


def periodic_run_pair(words: random.Random,
                      shape: random.Random) -> tuple[Machine, Machine]:
    """Two adjacent calls to states sharing one primitive period, in both
    orders; the pair is equivalent.  `shape` draws the period and the run
    lengths, `words` the prefix of the axiom."""
    period = shape.choice(["a", "ab", "ba"])
    reps_a, reps_b = shape.randrange(1, 3), shape.randrange(1, 3)
    tail = period * shape.randrange(0, 2)
    head = _rand_word(words, max_len=2)

    def build(first_a: bool) -> Machine:
        calls = [("pa", 1), ("pb", 2)] if first_a else [("pb", 2), ("pa", 1)]
        return Machine(
            [("r", 2), ("u", 1), ("n", 0)], (head, "q0", ""),
            {("q0", "r"): (["", "", ""], calls),
             ("pa", "u"): ([period * reps_a, ""], [("pa", 1)]),
             ("pa", "n"): ([tail], []),
             ("pb", "u"): ([period * reps_b, ""], [("pb", 1)]),
             ("pb", "n"): ([""], [])})

    return build(True), build(False)


def doubling_machine(rng: random.Random, depth: int = DOUBLING_DEPTH) -> Machine:
    """A loop writing one letter 2**depth times per step, behind a seeded
    nonempty nullary output: the state is quasi-periodic but not earliest, so its
    normal form moves the handle and proves a primitive root of a word of
    length 2**depth."""
    letter = rng.choice("abc")
    slps = [f'slp A0 = "{letter}"']
    slps += [f"slp A{i} = A{i - 1} A{i - 1}" for i in range(1, depth + 1)]
    end = letter * rng.randrange(1, 4)
    return Machine([("f", 1), ("g", 0)], ("", "q", ""),
                   {("q", "f"): ([f"$A{depth}", ""], [("q", 1)]),
                    ("q", "g"): ([end], [])}, slps)


def _shape(family: str, i: int) -> random.Random:
    """The structure stream of op `i` of a corpus family: the same for
    every seed."""
    return random.Random(f"corpus-shape-{family}-{i}")


def gen_corpus(seed: int, directory: str) -> list[dict]:
    """The criterion-7 families, then the doubling machines.  Each op's
    structure (which rules exist, what they call, which edit a mutation
    makes, mutation kind, machine size, period and run lengths) comes from a
    stream of its own that is the same for every seed; the seed draws the
    words.  So every seed checks the same mix of shapes, and the per-seed
    cost stays steady."""
    from ltw import EmptyTransducer, parse_ltw, partial_normal_form, print_ltw, trim
    from ltw.oracle import EnumerationBudget, brute_equiv

    rng = random.Random(f"corpus-{seed}")
    budget = EnumerationBudget(max_depth=ORACLE_DEPTH, max_trees=ORACLE_TREES)
    ops = []
    for i in range(CORPUS_MUTATE):
        shape = _shape("mutate", i)
        m = layered_machine(rng, shape, 3)
        a, b = m.text(), mutate(m, rng, shape, i % 3).text()
        bv = brute_equiv(parse_ltw(a), parse_ltw(b), budget)
        expect = "equivalent" if bv.equivalent else "not equivalent"
        ops.append(_check_op(directory, f"mutate{i:03d}", a, b, "mutate", expect))
    for i in range(CORPUS_NORMAL):
        a = layered_machine(rng, _shape("normal", i), 3 + i % 4).text()
        try:
            b = print_ltw(partial_normal_form(trim(parse_ltw(a))).result)
        except EmptyTransducer:
            b = a
        ops.append(_check_op(directory, f"normal{i:03d}", a, b, "normal-form",
                             "equivalent"))
    for i in range(CORPUS_RUNS):
        a, b = periodic_run_pair(rng, _shape("runs", i))
        ops.append(_check_op(directory, f"runs{i:03d}", a.text(), b.text(),
                             "periodic-run", "equivalent"))
    for i in range(CORPUS_DOUBLING):
        a = doubling_machine(rng).text()
        b = print_ltw(partial_normal_form(trim(parse_ltw(a))).result)
        ops.append(_check_op(directory, f"doubling{i}", a, b, "doubling",
                             "equivalent"))
    return ops


# -- recursive ----------------------------------------------------------------

def recursive_machine(words: random.Random, shape: random.Random,
                      n: int, k: int) -> Machine:
    """n mutually recursive states over b:2 u:1 n:0 v:1, each entering one
    unary v-chain c1..ck; every chain state writes "d" at n, so only a tree
    reaching the end of the chain, v^k(n), sees the last state's output.
    `shape` draws the call targets, slot orders and word lengths, `words`
    the letters the recursive states write."""
    def word():
        return _rand_word(words, max_len=2, length=shape)

    rules = {}
    for i in range(n):
        r = f"r{i}"
        s1, s2 = (1, 2) if shape.random() < 0.5 else (2, 1)
        rules[(r, "b")] = ([word() for _ in range(3)],
                           [(f"r{shape.randrange(n)}", s1), (f"r{shape.randrange(n)}", s2)])
        rules[(r, "u")] = ([word(), word()], [(f"r{shape.randrange(n)}", 1)])
        rules[(r, "n")] = ([word()], [])
        rules[(r, "v")] = ([word(), ""], [("c1", 1)])
    for j in range(1, k + 1):
        rules[(f"c{j}", "v")] = (["c", ""], [(f"c{min(j + 1, k)}", 1)])
        rules[(f"c{j}", "n")] = (["d"], [])
    return Machine([("b", 2), ("u", 1), ("n", 0), ("v", 1)],
                   (word(), "r0", ""), rules)


def renamed(m: Machine, rng: random.Random) -> Machine:
    """The same machine under fresh state names and a shuffled rule order."""
    states = sorted({q for q, _ in m.rules})
    fresh = [f"s{i}" for i in range(len(states))]
    rng.shuffle(fresh)
    name = dict(zip(states, fresh))
    keys = list(m.rules)
    rng.shuffle(keys)
    rules = {}
    for q, sym in keys:
        ws, cs = m.rules[(q, sym)]
        rules[(name[q], sym)] = (list(ws), [(name[c], s) for c, s in cs])
    u0, q0, u1 = m.axiom
    return Machine(m.alphabet, (u0, name[q0], u1), rules)


def gen_recursive(seed: int, directory: str) -> list[dict]:
    """One pair per (n, k) in the size grid, alternating a renamed copy
    (equivalent) with a renamed copy whose chain ends in "e" (not
    equivalent, witness v^k(n)).  The sizes, call targets, slot orders and
    word lengths come from a stream per pair that is the same for every
    seed, so seeds differ only in letters, state names and rule order, which
    keeps the per-seed cost steady."""
    rng = random.Random(f"recursive-{seed}")
    ops = []
    sizes = [(n, k) for n in RECURSIVE_STATES for k in RECURSIVE_CHAIN]
    for i, (n, k) in enumerate(sizes):
        m = recursive_machine(rng, random.Random(f"recursive-shape-{n}-{k}"), n, k)
        if i % 2 == 0:
            family, b, expect = "renamed", m, "equivalent"
        else:
            family, expect = "letter", "not equivalent"
            b = Machine(m.alphabet, m.axiom, {**m.rules, (f"c{k}", "n"): (["e"], [])})
        ops.append(_check_op(directory, f"{family}{i:03d}", m.text(),
                             renamed(b, rng).text(), family, expect))
    return ops


GENERATORS = {"chain": gen_chain, "corpus": gen_corpus,
              "recursive": gen_recursive}


def generate(workload: str, seed: int, directory: str) -> list[dict]:
    """Write the workload's input files into `directory`; return its ops."""
    os.makedirs(directory, exist_ok=True)
    return GENERATORS[workload](seed, directory)

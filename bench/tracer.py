"""Layer spans for the traced run, recorded from outside the program.

A :class:`Tracer` wraps the public functions that mark each layer's
boundary.  :meth:`Tracer.install` replaces the name in the defining module
and in every ``ltw`` module that imported it, so call sites are unchanged
and ``cli.main`` itself stays unwrapped: the benchmark calls
:attr:`Tracer.main`, which opens the op's root span (``cli.main``) around
it.  :meth:`Tracer.uninstall` puts the originals back, so untraced ops run
the program exactly as shipped.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples and
written out with :meth:`Tracer.write`.  A span's self time is its duration
minus the part its child spans cover, so the self times of one op add up to
the op's wall time.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "cli.main"

# (span name, module, attribute); one span name may cover several functions.
# A class attribute (PairSpace) gets its __init__ wrapped instead.
LAYERS = [
    ("ltwfile.load", "ltw.ltwfile", "load_ltw"),
    ("ltwfile.print", "ltw.ltwfile", "print_ltw"),
    ("ltwfile.print", "ltw.ltwfile", "print_tree"),
    ("core.trim", "ltw.core", "trim"),
    ("core.validate", "ltw.core", "validate"),
    ("core.evaluate", "ltw.core", "evaluate"),
    ("normalize.pipeline", "ltw.normalize", "partial_normal_form"),
    ("normalize.eliminate", "ltw.normalize", "eliminate_quasi_periodic_states"),
    ("normalize.erase_order", "ltw.normalize", "erase_order"),
    ("normalize.parts", "ltw.normalize", "make_rule_parts_earliest"),
    ("normalize.reorder", "ltw.normalize", "reorder_periodic_runs"),
    ("analysis.quasi_periodicity", "ltw.analysis", "quasi_periodicity"),
    ("analysis.pair_space", "ltw.analysis", "PairSpace"),
    ("analysis.domains_equal", "ltw.analysis", "domains_equal"),
    ("analysis.same_ordered", "ltw.analysis", "same_ordered"),
    ("equivalence.decide", "ltw.equivalence", "decide_equiv"),
    ("equivalence.decide", "ltw.equivalence", "decide_same_ordered_equiv"),
    ("equivalence.morphism", "ltw.equivalence", "morphism_equivalence"),
    ("oracle.witness_hunt", "ltw.oracle", "brute_equiv"),
    ("words.equals", "ltw.words", "equals"),
    ("words.expand", "ltw.words", "expand"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._pools: list = []
        self._patches: list[tuple] = []   # (owner, attr, original, wrapper)
        self._build()
        self.main = self._span(ROOT, sys.modules["ltw.cli"].main)

    # -- wrappers -------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self._op))
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        end = perf_counter()
        self._stack.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op)

    def _span(self, name, fn, after=None):
        """`fn` inside a span called `name`, then `after(result, args)`."""
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(out, args)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_morphism(self, result, args):
        self.counts["equivalence.verdicts"] += 1
        self.counts["equivalence.sampled"] += result[0] == "sampled"

    def _count_normal_form(self, report, args):
        self.counts["normalize.states_out"] += len(report.result.states)
        self.counts["normalize.eliminated"] += len(report.eliminated)
        self.counts["normalize.parts_passes"] += report.parts_passes

    def _count_pairs(self, result, args):
        self.counts["analysis.pairs"] += len(args[0].co)

    def _build(self):
        after = {"morphism_equivalence": self._count_morphism,
                 "partial_normal_form": self._count_normal_form,
                 "PairSpace": self._count_pairs}
        for name, modname, attr in LAYERS:
            fn = getattr(sys.modules[modname], attr)
            if isinstance(fn, type):
                self._patches.append((fn, "__init__", fn.__init__,
                                      self._span(name, fn.__init__, after[attr])))
            else:
                self._rebind(fn, self._span(name, fn, after.get(attr)))
        pool = sys.modules["ltw.words"].SlpPool
        init = pool.__init__

        def pool_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self._pools.append(obj)
        self._patches.append((pool, "__init__", init, pool_init))

    def _rebind(self, fn, wrapper):
        """Every ltw module attribute bound to `fn` gets `wrapper`."""
        for modname, mod in list(sys.modules.items()):
            if modname != "ltw" and not modname.startswith("ltw."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn, wrapper))

    # -- lifecycle ------------------------------------------------------------

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def start_op(self, op_id):
        """Tracing on for op `op_id`; call :attr:`main` in place of
        ``cli.main`` to open the op's root span."""
        self._op = op_id
        self._pools = []
        self.install()

    def end_op(self):
        self.uninstall()
        self.counts["words.pool_nodes"] += sum(len(p) - 1 for p in self._pools)
        self.counts["ops"] += 1
        self._pools = []
        self._op = None

    # -- results --------------------------------------------------------------

    def _self(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self._self()):
            out[span[0]] += own
        return dict(out)

    def span_counts(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def write(self, path):
        """One tab-separated line per span: name, start, end, parent, op,
        self time; times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\top\tself\n")
            for (name, start, end, parent, op), own in zip(self.spans, self._self()):
                f.write(f"{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t"
                        f"{op}\t{own:.9f}\n")

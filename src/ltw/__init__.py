"""Linear top-down tree-to-word transducers.

Equivalence is decided in polynomial time by a linear-span fixpoint over the
co-reachable state pairs of the two machines: the output fingerprints of each
pair's common trees span a space of at most 5 dimensions, and the machines
are equivalent iff their axiom words agree on the axiom pair's basis.  The
partial normal form (quasi-periodic states earliest, erasing calls last,
quasi-periodic rule parts earliest and reordered) is computed separately;
its verdicts read each state's span from the same fixpoint run on a machine
against itself.  Words are stored as
straight-line programs so rule outputs may be exponentially long.
"""

from .analysis import (QuasiPeriodicity, domains_equal, is_erasing,
                       mock_shift_table, part_quasi_periodicity,
                       quasi_periodicity, rule_part_quasi_periodicity,
                       same_ordered, shortest_word, shortest_word_lengths)
from .core import (EmptyTransducer, Ltw, Rule, Tree, UndefinedInput, evaluate,
                   mirror, trim, validate)
from .equivalence import EquivVerdict, decide_equiv, decide_same_ordered_equiv
from .ltwfile import ParseError, load_ltw, parse_ltw, parse_tree, print_ltw, print_tree
from .normalize import (NormalizationReport, eliminate_quasi_periodic_states,
                        erase_order, make_rule_parts_earliest,
                        make_state_earliest, partial_normal_form,
                        reorder_periodic_runs)
from .oracle import EnumerationBudget, brute_equiv
from .words import (CapExceeded, SlpPool, WordRef, equals, expand,
                    set_equality_seed)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "EmptyTransducer", "EnumerationBudget", "EquivVerdict",
    "Ltw", "NormalizationReport", "ParseError", "QuasiPeriodicity", "Rule",
    "SlpPool", "Tree", "UndefinedInput", "WordRef",
    "brute_equiv", "decide_equiv", "decide_same_ordered_equiv",
    "domains_equal", "eliminate_quasi_periodic_states", "equals",
    "erase_order", "evaluate", "expand", "is_erasing", "load_ltw",
    "make_rule_parts_earliest", "make_state_earliest", "mirror",
    "mock_shift_table", "parse_ltw", "parse_tree", "part_quasi_periodicity",
    "partial_normal_form", "print_ltw", "print_tree", "quasi_periodicity",
    "reorder_periodic_runs", "rule_part_quasi_periodicity", "same_ordered",
    "set_equality_seed", "shortest_word", "shortest_word_lengths", "trim",
    "validate",
]

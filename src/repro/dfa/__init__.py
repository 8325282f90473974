"""DFA machinery: parsing rules as deterministic finite automata.

ParPaRaw expresses parsing rules as a DFA (paper §3.1): the DFA state is the
parsing context, the transition table (compressed over *symbol groups*,
paper §4.5, Table 1) drives state updates, and a Mealy-style *emission*
table classifies each consumed symbol as data, a field delimiter, a record
delimiter, or a control symbol to discard.

Entry points:

* :class:`~repro.dfa.dialects.Dialect` — declarative description of a
  delimiter-separated format (delimiters, quoting, escapes, comments);
* :func:`~repro.dfa.csv.rfc4180_dfa` — the paper's 6-state RFC 4180 CSV DFA;
* :class:`~repro.dfa.builder.DfaBuilder` — fluent construction of custom
  automata;
* :mod:`~repro.dfa.logformats` — Common / Extended Log Format automata;
* :mod:`~repro.dfa.minimize` — data-parallel minimisation, canonical
  forms, and behavioural equivalence/inclusion checking.

The scalar STV algebra, the Hopcroft minimisation oracle, the registry
of shipped automata and the UTF-8 validation automaton are reference
code in :mod:`repro.reference.dfa`.
"""

from repro.dfa.automaton import Dfa, Emission
from repro.dfa.builder import DfaBuilder
from repro.dfa.dialects import Dialect
from repro.dfa.csv import rfc4180_dfa, dialect_dfa
from repro.dfa.logformats import common_log_format_dfa, extended_log_format_dfa
from repro.dfa.compression import group_symbols, CompressedTable
from repro.dfa.minimize import (
    Minimization,
    canonicalize,
    equivalent,
    included,
    is_canonical,
    minimize,
)
from repro.dfa.sniffer import SniffResult, sniff_dialect

__all__ = [
    "Dfa",
    "Emission",
    "DfaBuilder",
    "Dialect",
    "rfc4180_dfa",
    "dialect_dfa",
    "common_log_format_dfa",
    "extended_log_format_dfa",
    "group_symbols",
    "CompressedTable",
    "sniff_dialect",
    "SniffResult",
    "Minimization",
    "minimize",
    "canonicalize",
    "is_canonical",
    "equivalent",
    "included",
]

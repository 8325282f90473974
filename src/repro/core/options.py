"""Parsing configuration.

:class:`ParseOptions` gathers everything that shapes a parse: the dialect
(or an explicit DFA), the output schema, the chunk size, the tagging mode
(paper §4.1) and the capability switches (§4.3).  Every parse tags with
:func:`~repro.core.tagging.tag_global` and partitions with
:func:`~repro.core.partition.partition_field_runs`; the paper's chunked
tagger and radix sort are test oracles, not options.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable

from repro.columnar.schema import Schema
from repro.dfa.automaton import Dfa
from repro.dfa.csv import dialect_dfa
from repro.dfa.dialects import Dialect
from repro.errors import ParseError, SchemaError
from repro.kernels.strided import DEFAULT_TABLE_BUDGET, plan_nbytes, \
    resolve_stride

__all__ = ["TaggingMode", "ColumnCountPolicy", "ParseOptions"]


class TaggingMode(Enum):
    """How fields inside a column's CSS are delimited (paper §4.1, Fig. 6).

    * ``TAGGED`` — every symbol carries a 4-byte record-tag; the CSS index
      is generated by run-length encoding the tags.  The robust default:
      tolerates records with varying field counts.
    * ``INLINE`` — delimiters are replaced by a terminator byte inside the
      CSS (like NUL-terminated strings); requires the terminator byte not
      to occur in field data and a consistent column count.
    * ``DELIMITED`` — an auxiliary boolean vector marks field ends;
      requires a consistent column count but no reserved byte.
    """

    TAGGED = "tagged"
    INLINE = "inline"
    DELIMITED = "delimited"


class ColumnCountPolicy(Enum):
    """What to do with records whose field count deviates (paper §4.3)."""

    #: Keep all records; missing fields become NULL/default, extra fields
    #: are dropped.
    LENIENT = "lenient"
    #: Reject deviating records (they produce no output row).
    REJECT = "reject"
    #: Raise a :class:`~repro.errors.ParseError` on the first deviation.
    STRICT = "strict"


#: ASCII record separator — the paper's suggested inline terminator (§4.1).
DEFAULT_TERMINATOR = 0x1E


@dataclass(frozen=True)
class ParseOptions:
    """Everything configurable about a parse.

    Not configurable: every sweep runs on the canonical minimised
    automaton (:mod:`repro.dfa.minimize`), whose behaviour
    :mod:`repro.analysis.dfaproofs` proves equal to the dialect DFA's;
    minimisation shrinks the ``G**k`` stride tables and lets equivalent
    dialects share kernel-cache entries.  Convert emits zero-copy
    buffers whenever the fields allow it and copies otherwise, and
    always runs the vector parsers, falling back to the scalar
    reference converters only for the literals they decline (see
    :func:`repro.core.conversion.convert_column`).

    Parameters
    ----------
    dialect:
        Surface syntax; compiled to a DFA unless ``dfa`` is given.
    dfa:
        Explicit automaton overriding ``dialect`` (for custom formats).
    schema:
        Output schema.  ``None`` infers the column count from the input and
        types every column as inferred by :mod:`repro.core.typeinfer` when
        ``infer_types`` is set, as STRING otherwise.
    chunk_size:
        Bytes per chunk / logical thread.  The paper's default is 31
        (best-performing configuration, §5.1).
    kernel_stride:
        Symbols advanced per step by the byte-bound sweeps
        (:mod:`repro.kernels`).  ``None`` (default) picks the largest
        supported stride whose precomposed k-gram tables fit the memory
        budget — the analogue of the paper's multi-symbol devices (MFIRA
        §5.2, SWAR §5.3); ``1`` runs the empty plan, one symbol per
        step.  Resolved once per instance by :meth:`resolved_stride`.
    kernel_table_budget:
        Byte ceiling the automatic stride picker sizes its precomposed
        tables against (default 4 MiB — roughly an L2 cache; tables that
        spill out of cache lose the locality striding is buying).  Raise
        it to let group-rich automata stride wider, shrink it to bound
        worker memory.  An explicitly requested stride whose table plan
        cannot fit the budget is rejected at construction time — raise
        the budget alongside the stride.
    tagging_mode:
        See :class:`TaggingMode`.
    inline_terminator:
        Terminator byte for ``TaggingMode.INLINE``.
    column_count_policy:
        See :class:`ColumnCountPolicy`.
    strict:
        Raise on malformed input (invalid DFA state / non-accepting end)
        instead of rejecting the offending records.
    skip_rows:
        Physical row indexes (0-based) to prune before parsing (§4.3).
    skip_records:
        Record indexes (0-based, after row pruning) to drop.
    select_columns:
        Column indexes to materialise; ``None`` keeps all.
    infer_types:
        Infer numeric column types when no schema is given (§4.3).
    null_literals:
        Field texts treated as NULL (e.g. ``("NA", "null")``) — matched
        exactly, before type conversion; such fields clear the row's
        validity bit even when the column has a default (defaults apply
        to *missing/empty* fields only).  Paper §3.3 lists "identifying
        NULLs" among the per-column conversion duties.
    plan:
        ``"auto"`` lets the self-tuning planner (:mod:`repro.plan`)
        probe the input and override the performance knobs
        (``chunk_size``, ``kernel_stride``) with the configuration its
        calibrated cost model scores best.  An explicit
        ``kernel_stride`` set alongside ``plan="auto"`` pins that
        dimension and only chunk sizes are searched (the configured
        ``chunk_size`` stays a candidate).
        ``None`` (default) parses with the options exactly as given.
    """

    dialect: Dialect = field(default_factory=Dialect.csv)
    dfa: Dfa | None = None
    schema: Schema | None = None
    chunk_size: int = 31
    kernel_stride: int | None = None
    kernel_table_budget: int = DEFAULT_TABLE_BUDGET
    tagging_mode: TaggingMode = TaggingMode.TAGGED
    inline_terminator: int = DEFAULT_TERMINATOR
    column_count_policy: ColumnCountPolicy = ColumnCountPolicy.LENIENT
    strict: bool = False
    skip_rows: frozenset[int] = frozenset()
    skip_records: frozenset[int] = frozenset()
    select_columns: tuple[int, ...] | None = None
    infer_types: bool = False
    null_literals: tuple[str, ...] = ()
    plan: str | None = None

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ParseError("chunk_size must be positive")
        if self.kernel_stride is not None and self.kernel_stride < 1:
            raise ParseError("kernel_stride must be >= 1 (or None for auto)")
        if self.kernel_table_budget <= 0:
            raise ParseError("kernel_table_budget must be positive")
        if not 0 <= self.inline_terminator <= 0xFF:
            raise ParseError("inline_terminator must be one byte")
        if self.select_columns is not None:
            if any(c < 0 for c in self.select_columns):
                raise SchemaError("selected column indexes must be >= 0")
            if len(set(self.select_columns)) != len(self.select_columns):
                raise SchemaError("selected column indexes must be unique")
        if self.plan not in (None, "auto"):
            raise ParseError(
                f"plan must be None or 'auto', got {self.plan!r}")
        object.__setattr__(self, "_dfa_cache", None)
        object.__setattr__(self, "_stride_cache", None)
        if self.kernel_stride is not None and self.kernel_stride > 1:
            automaton = self._sweep_dfa()
            need = plan_nbytes(automaton.num_groups, automaton.num_states,
                               self.kernel_stride)
            if need > self.kernel_table_budget:
                raise ParseError(
                    f"kernel_stride={self.kernel_stride} needs {need} B of "
                    f"precomposed k-gram tables "
                    f"({automaton.num_groups} groups x "
                    f"{automaton.num_states} states) but "
                    f"kernel_table_budget is {self.kernel_table_budget} B; "
                    f"raise kernel_table_budget to at least {need}, pick a "
                    f"narrower stride, or use kernel_stride=None for "
                    f"automatic selection")

    # -- derived -----------------------------------------------------------

    def resolved_dfa(self) -> Dfa:
        """The automaton actually used (compiled from the dialect once)."""
        cached = getattr(self, "_dfa_cache", None)
        if cached is not None:
            return cached
        dfa = self.dfa if self.dfa is not None else dialect_dfa(self.dialect)
        object.__setattr__(self, "_dfa_cache", dfa)
        return dfa

    def resolved_stride(self) -> int:
        """The kernel stride every sweep of a parse with these options
        runs at (resolved against the sweep automaton once)."""
        cached = getattr(self, "_stride_cache", None)
        if cached is not None:
            return cached
        stride = resolve_stride(self.kernel_stride, self._sweep_dfa(),
                                self.kernel_table_budget)
        object.__setattr__(self, "_stride_cache", stride)
        return stride

    def _sweep_dfa(self) -> Dfa:
        """The padded automaton the strided sweeps will run with.

        Mirrors the chunk stage: canonical minimisation followed by the
        padding group — the shape stride-table budgets are sized
        against.
        """
        from repro.dfa.minimize import canonicalize
        return canonicalize(self.resolved_dfa()).dfa.with_padding_group()

    def with_(self, **changes) -> "ParseOptions":
        """A modified copy (convenience over :func:`dataclasses.replace`)."""
        return replace(self, **changes)

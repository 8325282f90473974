"""Parse results: the columnar table plus everything learned on the way."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.columnar.table import Table
from repro.core.conversion import CollaborationStats
from repro.core.options import ParseOptions
from repro.core.validation import ValidationReport
from repro.utils.timing import StepTimer

__all__ = ["ParseResult"]


@dataclass
class ParseResult:
    """Output of one :class:`~repro.core.parser.ParPaRawParser` run.

    Attributes
    ----------
    table:
        The parsed, typed, columnar output (selected columns only).
    num_records:
        Records found in the input (before policy-based rejection).
    num_rows:
        Rows materialised (records surviving skips and rejection).
    rejected_records:
        Records dropped by the column-count policy or an invalid tail.
    validation:
        Format/column-count findings (paper §4.3 capabilities).
    timer:
        Wall-clock per-step breakdown, with the paper's step names
        (``parse``, ``scan``, ``tag``, ``partition``, ``convert``).
    collaboration:
        Field counts per collaboration level across all columns (§3.3).
    options:
        The options the parse ran with (after schema resolution the
        effective schema is ``table.schema``).
    """

    table: Table
    num_records: int
    num_rows: int
    rejected_records: int
    validation: ValidationReport
    timer: StepTimer
    collaboration: CollaborationStats
    options: ParseOptions
    input_bytes: int = 0

    @property
    def total_rejected_fields(self) -> int:
        """Fields that failed type conversion across all columns."""
        return self.table.total_rejects()

    def step_seconds(self) -> dict[str, float]:
        """The Figure 9-style wall-clock breakdown."""
        return self.timer.totals()

    def parsing_rate(self) -> float:
        """Measured bytes/second over the whole pipeline."""
        total = self.timer.total()
        return self.input_bytes / total if total > 0 else 0.0

    def __repr__(self) -> str:
        return (f"ParseResult(rows={self.num_rows}, "
                f"records={self.num_records}, "
                f"rejected={self.rejected_records}, "
                f"columns={self.table.num_columns})")

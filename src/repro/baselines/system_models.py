"""Calibrated throughput models for the paper's closed-system comparators.

Figure 13 compares ParPaRaw end-to-end against MonetDB, Apache Spark,
pandas, RAPIDS cuDF (with and without the Arrow export), and Instant
Loading on two datasets.  Those systems cannot be rebuilt here, so — per
the substitution rule — each is modelled as an effective parsing rate per
dataset, calibrated from the paper's reported durations:

========== ============== ===============
system     yelp (4.823 GB) taxi (9.073 GB)
========== ============== ===============
ParPaRaw   0.44 s          0.9 s
cuDF*      7.3 s           9.4 s
cuDF       10.5 s          16.5 s
Inst. Load —(failed)       3.6 s
MonetDB    58.2 s          38.0 s
Spark      94.3 s          98.1 s
pandas     91.3 s          83.4 s
========== ============== ===============

The per-dataset rates capture each system's sensitivity to the workload
shape (text-heavy quoted fields vs many small numeric fields); durations
for other input sizes extrapolate linearly plus a fixed startup cost.
ParPaRaw itself is *not* modelled here — the streaming pipeline simulation
(:mod:`repro.reference.streaming.pipeline`) produces its end-to-end time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

__all__ = ["SystemModel", "PAPER_SYSTEMS", "modelled_duration"]

GB = 1e9

_YELP_BYTES = 4.823e9
_TAXI_BYTES = 9.073e9


@dataclass(frozen=True)
class SystemModel:
    """One comparator's effective end-to-end parsing rates.

    ``None`` for a rate means the system failed on that dataset class
    (Instant Loading on quote-heavy input — paper §5.2).
    """

    name: str
    #: bytes/second on text-heavy quoted data (yelp-like).
    rate_text_heavy: float | None
    #: bytes/second on numeric-heavy simple data (taxi-like).
    rate_numeric_heavy: float
    #: Fixed startup cost in seconds (JVM spin-up, catalog setup, ...).
    startup_seconds: float = 0.0

    def duration(self, input_bytes: float, text_heavy: bool) -> float:
        """Modelled end-to-end seconds for an input of the given shape."""
        rate = self.rate_text_heavy if text_heavy else self.rate_numeric_heavy
        if rate is None:
            raise SimulationError(
                f"{self.name} cannot parse text-heavy quoted input "
                f"(incomplete handling of quoted strings)")
        return self.startup_seconds + input_bytes / rate


def _rate(dataset_bytes: float, seconds: float,
          startup: float = 0.0) -> float:
    return dataset_bytes / (seconds - startup)


#: The Figure 13 comparators, calibrated to the paper's reported numbers.
PAPER_SYSTEMS: dict[str, SystemModel] = {
    "cuDF*": SystemModel(
        name="cuDF* (GPU DataFrame, no export)",
        rate_text_heavy=_rate(_YELP_BYTES, 7.3),
        rate_numeric_heavy=_rate(_TAXI_BYTES, 9.4)),
    "cuDF": SystemModel(
        name="cuDF (with to_arrow export)",
        rate_text_heavy=_rate(_YELP_BYTES, 10.5),
        rate_numeric_heavy=_rate(_TAXI_BYTES, 16.5)),
    "Inst. Loading": SystemModel(
        name="Instant Loading (32 cores)",
        rate_text_heavy=None,   # failed on yelp (paper §5.2)
        rate_numeric_heavy=_rate(_TAXI_BYTES, 3.6)),
    "MonetDB": SystemModel(
        name="MonetDB",
        rate_text_heavy=_rate(_YELP_BYTES, 58.2),
        rate_numeric_heavy=_rate(_TAXI_BYTES, 38.0)),
    "Spark": SystemModel(
        name="Apache Spark",
        rate_text_heavy=_rate(_YELP_BYTES, 94.3, startup=4.0),
        rate_numeric_heavy=_rate(_TAXI_BYTES, 98.1, startup=4.0),
        startup_seconds=4.0),
    "pandas": SystemModel(
        name="pandas read_csv",
        rate_text_heavy=_rate(_YELP_BYTES, 91.3),
        rate_numeric_heavy=_rate(_TAXI_BYTES, 83.4)),
}


def modelled_duration(system: str, input_bytes: float,
                      text_heavy: bool) -> float:
    """End-to-end seconds for a named comparator (Figure 13 rows)."""
    try:
        model = PAPER_SYSTEMS[system]
    except KeyError:
        raise SimulationError(f"unknown system {system!r}; available: "
                              f"{sorted(PAPER_SYSTEMS)}") from None
    return model.duration(input_bytes, text_heavy)

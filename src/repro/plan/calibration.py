"""The calibration store: measured parse seconds per input byte.

Every finished parse contributes one measurement, its step timer's total
seconds over its input bytes, and the store keeps an exponentially
weighted moving average of that rate at three levels of key:

* a *configuration* key (fingerprint + chunk bucket + stride,
  :func:`config_key`) — what candidate scoring prefers, so a
  configuration the planner has run is priced by what it measured;
* the workload *fingerprint*
  (:func:`~repro.plan.stats.workload_fingerprint`) — every configuration
  measured on that workload shape;
* one *store-wide* entry — every measurement, what prices a request
  whose shape the store has never seen.

Each update moves an average toward the new measurement and never past
it, so every average stays within the range of what its key observed
(tested in ``tests/plan/test_calibration.py``).  Concurrent dispatchers
of a service observe and look up through one lock.
"""

from __future__ import annotations

import threading

__all__ = ["CalibrationStore", "ALPHA", "STORE_WIDE", "chunk_bucket",
           "config_key"]

#: Weight of the newest measurement in each moving average.
ALPHA = 0.5

#: Key of the store-wide entry (no fingerprint starts with it).
STORE_WIDE = "*"


def chunk_bucket(chunk_size: int) -> int:
    """Power-of-two calibration bucket: measurements at chunk 60 should
    inform a candidate at 64, while 16 and 64 stay distinct."""
    bucket = 1
    while bucket * 2 <= chunk_size:
        bucket *= 2
    return bucket


def config_key(fingerprint: str, chunk_size: int, stride: int) -> str:
    """The per-configuration calibration key."""
    return f"{fingerprint}|c{chunk_bucket(chunk_size)}k{stride}"


class CalibrationStore:
    """EWMAs of measured seconds per input byte, per key."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: key -> EWMA of measured seconds per input byte.
        self._rates: dict[str, float] = {}
        #: Bumped on every observation; planners use it to notice that a
        #: cached decision predates newer evidence.
        self.version = 0

    def observe(self, key: str, fingerprint: str,
                seconds_per_byte: float) -> None:
        """Fold one measured rate into ``key``'s, ``fingerprint``'s and
        the store-wide average."""
        with self._lock:
            for name in (key, fingerprint, STORE_WIDE):
                previous = self._rates.get(name)
                self._rates[name] = seconds_per_byte if previous is None \
                    else ALPHA * seconds_per_byte + (1.0 - ALPHA) * previous
            self.version += 1

    def rate(self, *keys: str) -> float | None:
        """The average of the first of ``keys`` the store has measured,
        else the store-wide one; ``None`` before any observation."""
        with self._lock:
            for key in (*keys, STORE_WIDE):
                if key in self._rates:
                    return self._rates[key]
        return None

    def observed(self, key: str) -> bool:
        with self._lock:
            return key in self._rates

    def snapshot(self) -> dict[str, float]:
        """A JSON-friendly copy (benchmark artefacts, status endpoints)."""
        with self._lock:
            return dict(self._rates)

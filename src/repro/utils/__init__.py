"""Shared low-level utilities (run-length encoding, timing).

The bit-manipulation helpers the paper's bitmap formulations use are
reference code: :mod:`repro.reference.utils.bits`.
"""

from repro.utils.rle import run_length_encode, run_starts
from repro.utils.timing import StepTimer

__all__ = ["run_length_encode", "run_starts", "StepTimer"]

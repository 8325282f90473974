"""Bit-manipulation helpers (:mod:`.bits`) of the bitmap formulations."""

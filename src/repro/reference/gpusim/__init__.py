"""Bit-exact models of the GPU devices: intrinsics, SWAR, MFIRA."""

"""Oracles of the core phases: unit-stride sweeps, the chunked tagger,
the radix-sort partition and §4.2 symbol-level parsing."""

"""Table 1 — the compressed transition table with symbol groups.

Structural artefact: verifies and prints the exact RFC 4180 table the
paper shows, and benchmarks the two operations it enables — the multi
-instance DFA simulation (phase 1) and table compression itself.
"""

import numpy as np
import pytest

from repro.core.chunking import chunk_groups
from repro.reference.core.context import compute_transition_vectors
from repro.dfa import rfc4180_dfa
from repro.dfa.compression import expand_table, group_symbols
from repro.workloads import generate_yelp_like

from conftest import write_report

PAPER_TABLE = {
    "EOL": ("EOR", "ENC", "EOR", "EOR", "EOR", "INV"),
    "QUOTE": ("ENC", "ESC", "INV", "ENC", "ENC", "INV"),
    "DELIM": ("EOF", "ENC", "EOF", "EOF", "EOF", "INV"),
    "OTHER": ("FLD", "ENC", "FLD", "FLD", "INV", "INV"),
}


def test_table1_report(benchmark, results_dir):
    dfa = rfc4180_dfa()

    def compress():
        return group_symbols(expand_table(dfa))

    compressed = benchmark(compress)
    assert compressed.num_groups == 4

    for g, gname in enumerate(dfa.group_names):
        row = tuple(dfa.state_names[int(dfa.transitions[g, s])]
                    for s in range(dfa.num_states))
        assert row == PAPER_TABLE[gname], gname

    lines = dfa.format_transition_table().splitlines()
    lines.append("")
    lines.append("matches the paper's Table 1 exactly; 256-row table "
                 "compresses to 4 symbol groups")
    write_report(results_dir / "table1_transition_table.txt",
                 "Table 1: RFC 4180 transition table", lines)


def test_multi_instance_simulation(benchmark, yelp_1mb):
    """Phase 1 throughput: |S| DFA instances per thread over real data."""
    dfa = rfc4180_dfa()
    data = np.frombuffer(yelp_1mb, dtype=np.uint8)
    groups, chunking, padded = chunk_groups(data, dfa, 31)
    vectors = benchmark(compute_transition_vectors, groups, padded)
    assert vectors.shape == (chunking.num_chunks, 6)


def test_single_instance_simulation(benchmark):
    """Reference scalar simulation cost (for the work-increase factor the
    paper's contribution (4) concedes: |S| instances vs one)."""
    dfa = rfc4180_dfa()
    data = generate_yelp_like(64 * 1024, seed=7)
    benchmark(dfa.simulate, data)

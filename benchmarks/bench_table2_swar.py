"""Table 2 — branchless SWAR symbol matching.

Replays the paper's worked example (reading ',' against LU-registers
packing ``\\t | , " \\n``) step by step, writes the trace to
``results/table2_swar.txt``, and benchmarks the SWAR matcher against the
256-entry lookup table it replaces.
"""

import numpy as np
import pytest

from repro.dfa import rfc4180_dfa
from repro.reference.gpusim.swar import SwarMatcher

from conftest import write_report


def test_table2_report(benchmark, results_dir):
    dfa = rfc4180_dfa()
    matcher = SwarMatcher(dfa)
    trace = benchmark(matcher.match_index, ord(","), True)

    lines = [
        f"read symbol: ',' (0x2C), s-register = {trace.s_register:#010x}",
    ]
    for r, lu in enumerate(matcher.lu_registers):
        lines.append(f"LU[{r}] = {lu:#010x}  xor = {trace.xors[r]:#010x}  "
                     f"H(x) = {trace.masks[r]:#010x}  "
                     f"idx = {trace.indexes[r]:#x}")
    lines.append(f"matched flat index = {trace.matched_index:#x} -> "
                 f"group {matcher.group_of(ord(','))} "
                 f"({dfa.group_names[matcher.group_of(ord(','))]})")
    lines.append("")
    lines.append("H(x) = ((x - 0x01010101) & ~x & 0x80808080)  "
                 "(Mycroft 1987)")
    write_report(results_dir / "table2_swar.txt",
                 "Table 2: SWAR symbol-index identification", lines)

    assert matcher.group_of(ord(",")) == dfa.group_of(ord(","))


def test_swar_scalar(benchmark):
    matcher = SwarMatcher(rfc4180_dfa())

    def match_all():
        return [matcher.group_of(b) for b in range(256)]

    groups = benchmark(match_all)
    dfa = rfc4180_dfa()
    assert groups == [dfa.group_of(b) for b in range(256)]


def test_swar_vectorised(benchmark, yelp_1mb):
    matcher = SwarMatcher(rfc4180_dfa())
    data = np.frombuffer(yelp_1mb, dtype=np.uint8)
    out = benchmark(matcher.groups_of, data)
    assert out.shape == data.shape


def test_lookup_table_vectorised(benchmark, yelp_1mb):
    """The alternative the paper rejects for register pressure reasons —
    on this substrate it is the faster path, which is fine: the point of
    SWAR is fitting in registers, not raw speed here."""
    dfa = rfc4180_dfa()
    data = np.frombuffer(yelp_1mb, dtype=np.uint8)
    out = benchmark(dfa.groups_of, data)
    assert out.shape == data.shape

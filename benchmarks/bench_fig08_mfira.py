"""Figure 8 — the multi-fragment in-register array.

Structural artefact: prints the figure's 10x5-bit example geometry
(available bits, fragment width, fragment count) and its logical/physical
views; benchmarks MFIRA-backed DFA simulation against the plain-array
formulation it substitutes for (registers cannot be indexed dynamically on
a GPU; a Python list stands in for "if they could").
"""

import pytest

from repro.dfa import rfc4180_dfa
from repro.reference.gpusim.mfira import Mfira
from repro.reference.gpusim.thread_sim import GpuThread
from repro.workloads import generate_yelp_like

from conftest import write_report

FIGURE8_VALUES = [5, 7, 31, 20, 10, 0, 26, 3, 15, 16]


def test_figure8_report(benchmark, results_dir):
    def build():
        return Mfira.from_values(FIGURE8_VALUES, item_bits=5)

    array = benchmark(build)
    assert array.to_list() == FIGURE8_VALUES

    lines = [
        f"capacity (num. items c):        {array.capacity}",
        f"bits per item b:                {array.item_bits}",
        f"avail. bits per item-fragment:  {array.available_bits}"
        "   (= floor(32 / c))",
        f"bits per item-fragment k:       {array.fragment_bits}"
        "   (= 2^floor(log2 a) -> shift addressing)",
        f"fragments ceil(b/k):            {array.num_fragments}",
        "",
        "logical view:  " + " ".join(f"{v:>2}" for v in FIGURE8_VALUES),
        "physical view (registers, low fragment first):",
    ]
    for r, register in enumerate(array.registers):
        lines.append(f"  r[{r}] = {register:#010x} = {register:>032b}")
    lines.append("")
    lines.append("matches the paper's Figure 8 parameters exactly "
                 "(10 items x 5 bits -> a=3, k=2, 3 fragments)")
    write_report(results_dir / "fig08_mfira.txt",
                 "Figure 8: multi-fragment in-register array", lines)

    assert array.available_bits == 3
    assert array.fragment_bits == 2
    assert array.num_fragments == 3


def test_mfira_backed_thread(benchmark):
    """Phase-1 DFA simulation through MFIRA + SWAR (the §4.5 kernel)."""
    dfa = rfc4180_dfa()
    chunk = generate_yelp_like(2_000, seed=7)[:1024]

    def run():
        return GpuThread(dfa).run(chunk)

    vector = benchmark(run)
    assert vector == dfa.transition_vector(chunk)


def test_plain_array_reference(benchmark):
    """The same simulation on a directly-indexed array — what MFIRA
    emulates within the register file's constraints."""
    dfa = rfc4180_dfa()
    chunk = generate_yelp_like(2_000, seed=7)[:1024]

    def run():
        vector = list(range(dfa.num_states))
        for byte in chunk:
            group = dfa.symbol_groups[byte]
            row = dfa.transitions[group]
            vector = [int(row[s]) for s in vector]
        return tuple(vector)

    vector = benchmark(run)
    assert vector == dfa.transition_vector(chunk)

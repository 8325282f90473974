"""Strided kernels: multi-symbol steps for the byte-bound phases.

This package is the pipeline's kernel-optimisation layer.  It precomposes
the parsing DFA over k-symbol blocks (:mod:`repro.kernels.strided`) so the
two hot sweeps — STV simulation and the tagging/emission sweep — advance
``k`` symbols per vectorised gather instead of one, cutting their
Python-level loop counts by ``k``.  Precomposed tables are cached per
process (:mod:`repro.kernels.cache`) keyed on the automaton's fingerprint,
so dialect tables are built once and reused across parses, shards and
streaming partitions.

The layer is engaged through ``ParseOptions.kernel_stride`` (default
``None`` = automatic: the largest supported stride whose tables fit the
memory budget, resolved once per options instance by
``ParseOptions.resolved_stride``) and used by
:class:`~repro.core.stages.StvStage` /
:class:`~repro.core.stages.TagStage` and the sharded executor's worker
tasks.  Every stride runs as a :class:`KernelPlan`; unit stride is the
empty ``k = 1`` plan.  Future kernel work — a fused stv+tag single pass
— plugs in here.
"""

from repro.kernels.cache import (
    cache_info,
    clear_cache,
    dfa_fingerprint,
    get_plan,
    get_tables,
)
from repro.kernels.strided import (
    DEFAULT_TABLE_BUDGET,
    SUPPORTED_STRIDES,
    KernelPlan,
    StridedTables,
    build_plan,
    build_tables,
    compute_emissions_plan,
    compute_transition_vectors_plan,
    pack_plan,
    pick_stride,
    plan_nbytes,
    plan_segments,
    resolve_stride,
    table_nbytes,
)

__all__ = [
    "StridedTables",
    "KernelPlan",
    "SUPPORTED_STRIDES",
    "DEFAULT_TABLE_BUDGET",
    "build_tables",
    "build_plan",
    "table_nbytes",
    "plan_nbytes",
    "plan_segments",
    "pick_stride",
    "resolve_stride",
    "pack_plan",
    "compute_transition_vectors_plan",
    "compute_emissions_plan",
    "get_tables",
    "get_plan",
    "cache_info",
    "clear_cache",
    "dfa_fingerprint",
]

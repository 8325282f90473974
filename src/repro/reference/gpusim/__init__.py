"""GPU models for the paper's figures.

* The Titan X (Pascal) execution model — device specifications
  (:mod:`~repro.reference.gpusim.device`), a kernel-launch, occupancy and
  bank-conflict model (:mod:`~repro.reference.gpusim.kernel`,
  :mod:`~repro.reference.gpusim.memory`,
  :mod:`~repro.reference.gpusim.warp`) and a per-step cost model
  (:mod:`~repro.reference.gpusim.cost_model`), calibrated against the
  paper's reported numbers so the benchmarks regenerate the *shape* of
  Figures 9-13.
* Bit-exact models of the GPU devices the paper introduces: the
  BFI/BFE/``bfind``/``popc`` intrinsics, the branchless SWAR symbol
  matcher of Table 2 and the multi-fragment in-register array of
  Figure 8.
"""

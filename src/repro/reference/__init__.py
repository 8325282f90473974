"""Reference code: test oracles and paper-figure reproductions.

No production package imports this one (parlint PPR503), so the parse
path never loads it.  It holds the paper's own formulations where the
pipeline runs a faster equivalent, kept as the oracles the parity suites
compare against, and the GPU device models and the Figure 7 simulator
the figure benchmarks run.  Each subpackage mirrors the production
package its code belongs to (``repro.reference.core.tagging`` holds the
chunked tagger, the oracle of ``repro.core.tagging.tag_global``) and
exports nothing; import from the defining module.
"""

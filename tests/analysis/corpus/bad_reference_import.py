"""Corpus: a production module importing reference code.

Expected diagnostics:

* PPR503 — the ``module=`` pragma plants this file in ``repro.core``;
  no production package may import ``repro.reference`` (test oracles and
  paper-figure code stay out of the parse path's import closure).
"""

# parlint: module=repro.core.badref

from repro.reference.core.tagging import tag_chunked      # PPR503

__all__ = ["tag_chunked"]

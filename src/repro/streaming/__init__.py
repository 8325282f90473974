"""End-to-end streaming (paper §4.4).

Inputs that do not reside on the GPU (or exceed its memory) are split into
partitions.  :class:`~repro.streaming.stream_parser.StreamingParser`
parses arbitrary byte streams partition by partition, carrying the last
incomplete record over to the next partition — output is bit-identical
to a batch parse (tested).

The Figure 7 pipeline simulator, which schedules transfer-to-device,
parse and transfer-back across partitions over the Titan X
cost model for Figures 12 and 13, is reference code:
:mod:`repro.reference.streaming.pipeline`.
"""

from repro.streaming.stream_parser import StreamingParser

__all__ = ["StreamingParser"]

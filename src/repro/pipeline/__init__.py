"""Batched capture processing: the fleet-scale SoftLoRa hot path.

``repro.pipeline`` stacks N SDR captures into a :class:`CaptureBatch`
and runs the SoftLoRa receive chain -- AIC onset, PHY timestamping,
chirp slicing, frequency-bias estimation -- as vectorized numpy stages
over blocks of rows, in buffers reused across calls
(:class:`BatchPipeline`).  It returns one :class:`BatchResult` of
per-capture arrays and issues no verdict.
The single-capture APIs in :mod:`repro.core` delegate to the same batch
entry points, so batched and per-capture results agree bitwise.
"""

from repro.pipeline.batch import CaptureBatch
from repro.pipeline.engine import BatchPipeline, BatchResult

__all__ = [
    "BatchPipeline",
    "BatchResult",
    "CaptureBatch",
]

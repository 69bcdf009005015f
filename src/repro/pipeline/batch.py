"""Stacked-capture container for the batched processing engine.

A :class:`CaptureBatch` is the batched counterpart of
:class:`repro.sdr.iq.IQTrace`: ``n_captures`` equal-length, equal-rate
captures stacked into one ``(n_captures, n_samples)`` complex array plus
per-capture absolute start times and free-form metadata.  Keeping the
samples in one contiguous 2-D array is what lets every DSP stage of
:class:`repro.pipeline.BatchPipeline` run as a single vectorized numpy
pass instead of a per-capture Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sdr.iq import IQTrace


@dataclass
class CaptureBatch:
    """``n_captures`` stacked SDR captures with absolute timing.

    Attributes:
        samples: Complex samples, shape ``(n_captures, n_samples)``.
        sample_rate_hz: Common ADC rate of every capture in the batch.
        start_times_s: Global time of sample 0 of each capture, shape
            ``(n_captures,)``.
        metadata: One free-form dict per capture (node id, channel,
            conditions).
    """

    samples: np.ndarray
    sample_rate_hz: float
    start_times_s: np.ndarray | None = None
    metadata: list[dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Coerce/validate the stacked samples, start times, and metadata."""
        if not 0 < self.sample_rate_hz < np.inf:
            raise ConfigurationError(
                f"sample rate must be finite and positive, got {self.sample_rate_hz}"
            )
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim != 2:
            raise ConfigurationError(
                f"batch samples must be 2-D (n_captures, n_samples), got {self.samples.shape}"
            )
        n = len(self.samples)
        if self.start_times_s is None:
            self.start_times_s = np.zeros(n)
        self.start_times_s = np.asarray(self.start_times_s, dtype=float)
        if self.start_times_s.shape != (n,):
            raise ConfigurationError(
                f"start_times_s must have shape ({n},), got {self.start_times_s.shape}"
            )
        if not self.metadata:
            self.metadata = [{} for _ in range(n)]
        if len(self.metadata) != n:
            raise ConfigurationError(
                f"{len(self.metadata)} metadata dicts do not match {n} captures"
            )

    @classmethod
    def empty(cls, sample_rate_hz: float, n_samples: int = 0) -> "CaptureBatch":
        """A zero-capture batch: every pipeline stage maps it to empty results."""
        return cls(
            samples=np.empty((0, n_samples), dtype=complex), sample_rate_hz=sample_rate_hz
        )

    @classmethod
    def from_traces(
        cls, traces: Sequence[IQTrace], sample_rate_hz: float | None = None
    ) -> "CaptureBatch":
        """Stack equal-length, equal-rate traces into one batch.

        Zero traces yield an empty batch when ``sample_rate_hz`` names
        the rate the traces would have had; without it the rate is
        unknowable and the call raises.
        """
        if not traces:
            if sample_rate_hz is None:
                raise ConfigurationError(
                    "cannot infer a sample rate from zero traces; pass sample_rate_hz "
                    "to build an empty batch"
                )
            return cls.empty(sample_rate_hz)
        rates = {trace.sample_rate_hz for trace in traces}
        if len(rates) != 1:
            raise ConfigurationError(f"traces mix sample rates {sorted(rates)}")
        lengths = {len(trace) for trace in traces}
        if len(lengths) != 1:
            raise ConfigurationError(
                f"traces mix lengths {sorted(lengths)}; pad to a common window first"
            )
        return cls(
            samples=np.stack([trace.samples for trace in traces]),
            sample_rate_hz=traces[0].sample_rate_hz,
            start_times_s=np.array([trace.start_time_s for trace in traces]),
            metadata=[dict(trace.metadata) for trace in traces],
        )

    def __len__(self) -> int:
        """Number of stacked captures."""
        return len(self.samples)

    @property
    def n_samples(self) -> int:
        """Samples per capture (all captures share one window length)."""
        return self.samples.shape[1]

    @property
    def sample_period_s(self) -> float:
        """Seconds between consecutive ADC samples."""
        return 1.0 / self.sample_rate_hz

    def component(self, name: str, rows: slice = slice(None)) -> np.ndarray:
        """The stacked I, Q, or magnitude components of ``rows``, shape ``(n, m)``."""
        samples = self.samples[rows]
        if name == "i":
            return samples.real
        if name == "q":
            return samples.imag
        if name == "magnitude":
            return np.abs(samples)
        raise ConfigurationError(f"component must be 'i', 'q' or 'magnitude', got {name!r}")

    def times_of_indices(self, indices: np.ndarray) -> np.ndarray:
        """Absolute times of one sample index per capture, vectorized."""
        indices = np.asarray(indices)
        if indices.shape != (len(self),):
            raise ConfigurationError(
                f"need one index per capture ({len(self)}), got shape {indices.shape}"
            )
        return self.start_times_s + indices / self.sample_rate_hz

    def trace(self, capture: int) -> IQTrace:
        """Single-capture view (copy) of one row, as an :class:`IQTrace`."""
        return IQTrace(
            samples=self.samples[capture].copy(),
            sample_rate_hz=self.sample_rate_hz,
            start_time_s=float(self.start_times_s[capture]),
            metadata=dict(self.metadata[capture]),
        )

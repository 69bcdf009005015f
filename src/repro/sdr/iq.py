"""I/Q trace container used by every signal-processing stage."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class IQTrace:
    """A capture of complex baseband samples with absolute timing.

    Attributes
    ----------
    samples:
        Complex samples; ``I = samples.real`` and ``Q = samples.imag``
        follow the paper's conventions.
    sample_rate_hz:
        ADC rate of the capture.
    start_time_s:
        Global (gateway GPS) time of sample 0 -- the anchor that turns a
        detected onset *index* into a PHY-layer *timestamp*.
    metadata:
        Free-form annotations (node id, channel, capture conditions).
    """

    samples: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The chained comparison is False for NaN too: a NaN or infinite
        # rate would turn every onset index into a NaN or 0.0 timestamp.
        if not 0 < self.sample_rate_hz < np.inf:
            raise ConfigurationError(
                f"sample rate must be finite and positive, got {self.sample_rate_hz}"
            )
        self.samples = np.asarray(self.samples, dtype=complex)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def i(self) -> np.ndarray:
        """In-phase component."""
        return self.samples.real

    @property
    def q(self) -> np.ndarray:
        """Quadrature component."""
        return self.samples.imag

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    @property
    def sample_period_s(self) -> float:
        return 1.0 / self.sample_rate_hz

    def times(self) -> np.ndarray:
        """Absolute time of every sample."""
        return self.start_time_s + np.arange(len(self.samples)) / self.sample_rate_hz

    def time_of_index(self, index: int) -> float:
        """Absolute time of sample ``index``."""
        return self.start_time_s + index / self.sample_rate_hz

    def index_of_time(self, time_s: float) -> int:
        """Nearest sample index for an absolute time."""
        return int(round((time_s - self.start_time_s) * self.sample_rate_hz))

    def slice_samples(self, start: int, stop: int | None = None) -> "IQTrace":
        """Sub-trace by sample indices, preserving absolute timing."""
        stop = len(self.samples) if stop is None else stop
        if not 0 <= start <= len(self.samples):
            raise ConfigurationError(f"slice start {start} out of range")
        return IQTrace(
            samples=self.samples[start:stop],
            sample_rate_hz=self.sample_rate_hz,
            start_time_s=self.time_of_index(start),
            metadata=dict(self.metadata),
        )

    def power(self) -> float:
        """Mean power ``E[|z|²]`` of the trace."""
        if len(self.samples) == 0:
            raise ConfigurationError("cannot measure power of an empty trace")
        return float(np.mean(np.abs(self.samples) ** 2))

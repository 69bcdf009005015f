"""Noise generation: AWGN and a "real environment" surrogate.

The paper evaluates its estimators against two noise types (Sec. 7.1.2,
Fig. 14): randomly generated zero-mean Gaussian noise, and *real noise
traces captured with an SDR receiver in a multistory building*, scaled to
each target SNR.  Since we have no building, :class:`RealNoiseModel`
synthesizes the qualitative features of measured ISM-band noise floors --
a colored (low-pass tilted) Gaussian floor plus sporadic wideband impulse
bursts from other ISM users -- which is the stressor that separates the
robust least-squares estimator from plain phase regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


def complex_awgn(n: int, power: float, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise with mean power ``power``.

    Power splits evenly between I and Q, matching the paper's practice of
    adding zero-mean Gaussian noise to both components.
    """
    if n < 0:
        raise ConfigurationError(f"sample count must be >= 0, got {n}")
    if power < 0:
        raise ConfigurationError(f"noise power must be >= 0, got {power}")
    sigma = np.sqrt(power / 2.0)
    return sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def noise_power_for_snr(signal_power: float, snr_db: float) -> float:
    """Noise power that produces ``snr_db`` for a given signal power."""
    if signal_power <= 0:
        raise ConfigurationError(f"signal power must be positive, got {signal_power}")
    return signal_power / (10.0 ** (snr_db / 10.0))


@dataclass
class RealNoiseModel:
    """Synthetic stand-in for SDR noise captured in a building.

    Parameters
    ----------
    color_pole:
        Pole of the one-tap IIR coloring filter in (0, 1); larger values
        tilt more energy into low frequencies.
    impulse_rate:
        Expected impulses per sample (Poisson); each impulse is a short
        burst of elevated wideband noise.
    impulse_duration:
        Burst length in samples.
    impulse_gain:
        Amplitude multiplier of burst samples over the floor.
    """

    color_pole: float = 0.7
    impulse_rate: float = 2e-4
    impulse_duration: int = 40
    impulse_gain: float = 6.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.color_pole < 1.0:
            raise ConfigurationError(f"color pole must be in [0, 1), got {self.color_pole}")
        if self.impulse_rate < 0:
            raise ConfigurationError(f"impulse rate must be >= 0, got {self.impulse_rate}")
        if self.impulse_duration < 1:
            raise ConfigurationError(
                f"impulse duration must be >= 1 sample, got {self.impulse_duration}"
            )

    def generate(self, n: int, power: float, rng: np.random.Generator) -> np.ndarray:
        """A noise trace of ``n`` samples normalized to mean power ``power``."""
        if n <= 0:
            return np.zeros(0, dtype=complex)
        # scipy loads at first use so importing the SDR package stays
        # numpy-only.
        from scipy import signal as sp_signal

        white = complex_awgn(n, 1.0, rng)
        colored = sp_signal.lfilter([1.0], [1.0, -self.color_pole], white)
        envelope = np.ones(n)
        n_impulses = rng.poisson(self.impulse_rate * n)
        for _ in range(n_impulses):
            start = int(rng.integers(0, n))
            stop = min(start + self.impulse_duration, n)
            envelope[start:stop] *= self.impulse_gain
        trace = colored * envelope
        measured = np.mean(np.abs(trace) ** 2)
        if measured <= 0:
            return np.zeros(n, dtype=complex)
        return trace * np.sqrt(power / measured)


def add_noise_for_snr(
    signal: np.ndarray,
    snr_db: float,
    rng: np.random.Generator,
    model: RealNoiseModel | None = None,
) -> np.ndarray:
    """Add noise scaled so the returned trace has the requested SNR.

    ``model=None`` adds white Gaussian noise; otherwise the "real" noise
    model is used, mirroring Fig. 14's two noise conditions.
    """
    signal = np.asarray(signal, dtype=complex)
    sig_power = float(np.mean(np.abs(signal) ** 2))
    power = noise_power_for_snr(sig_power, snr_db)
    if model is None:
        noise = complex_awgn(len(signal), power, rng)
    else:
        noise = model.generate(len(signal), power, rng)
    return signal + noise

"""Spectral and envelope utilities for LoRa baseband traces.

Implements the two signal views the paper uses in Sec. 6:

* the **spectrogram** of Fig. 6 (short-time FFT with a ``2^S``-point Kaiser
  window and 16-point overlap), whose coarse ~50 µs time resolution is why
  the spectrogram cannot serve as a high-resolution timestamping method,
* the **Hilbert amplitude envelope** driving the envelope onset detector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.chirp import ChirpConfig


@dataclass(frozen=True)
class Spectrogram:
    """STFT power result: ``power[f, t]`` with axis vectors in Hz / s."""

    power: np.ndarray
    frequencies_hz: np.ndarray
    times_s: np.ndarray

    @property
    def time_resolution_s(self) -> float:
        """Spacing between STFT frames; ~50 µs in the paper's Fig. 6."""
        if len(self.times_s) < 2:
            return float("nan")
        return float(self.times_s[1] - self.times_s[0])


def spectrogram(
    iq: np.ndarray,
    config: ChirpConfig,
    nperseg: int | None = None,
    noverlap: int = 16,
    kaiser_beta: float = 8.0,
) -> Spectrogram:
    """Short-time FFT spectrogram of a complex baseband trace.

    Defaults follow the paper's Fig. 6 settings: a ``2^S``-point Kaiser
    window with 16-point overlap between neighbouring windows.
    """
    if nperseg is None:
        nperseg = config.n_symbols
    if nperseg < 2:
        raise ConfigurationError(f"nperseg must be >= 2, got {nperseg}")
    if not 0 <= noverlap < nperseg:
        raise ConfigurationError(f"noverlap must be in [0, {nperseg}), got {noverlap}")
    # scipy loads at first use: importing the PHY package (as the network
    # server does through the core) stays numpy-only.
    from scipy import signal as sp_signal

    freqs, times, sxx = sp_signal.spectrogram(
        iq,
        fs=config.sample_rate_hz,
        window=("kaiser", kaiser_beta),
        nperseg=nperseg,
        noverlap=noverlap,
        return_onesided=False,
        mode="psd",
    )
    order = np.argsort(freqs)
    return Spectrogram(power=sxx[order], frequencies_hz=freqs[order], times_s=times)


def hilbert_envelope(x: np.ndarray) -> np.ndarray:
    """Amplitude envelope of a real trace via the Hilbert transform.

    Complex input is accepted for convenience: its magnitude is already the
    envelope, so it is returned directly.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return np.abs(x)
    from scipy import signal as sp_signal

    return np.abs(sp_signal.hilbert(x))


def signal_power(x: np.ndarray) -> float:
    """Mean power of a trace: ``E[|x|²]``."""
    x = np.asarray(x)
    if x.size == 0:
        raise ConfigurationError("cannot measure power of an empty trace")
    return float(np.mean(np.abs(x) ** 2))


def snr_db(signal_power_value: float, noise_power_value: float) -> float:
    """``10·log10(signal power / noise power)`` (paper Sec. 6.2)."""
    if signal_power_value <= 0 or noise_power_value <= 0:
        raise ConfigurationError("powers must be positive to form an SNR")
    return 10.0 * np.log10(signal_power_value / noise_power_value)


def snr_from_db(snr_db_value: float) -> float:
    """Inverse of :func:`snr_db`: linear power ratio for a dB value."""
    return float(10.0 ** (snr_db_value / 10.0))


def measure_snr_db(noisy: np.ndarray, noise_power_value: float) -> float:
    """SNR of a noisy trace given a separately-profiled noise power.

    Mirrors the paper's building-survey method (Sec. 8.1): profile the
    noise power first, then measure total power while the node transmits;
    the signal power is the difference.
    """
    total = signal_power(noisy)
    sig = total - noise_power_value
    if sig <= 0:
        return float("-inf")
    return snr_db(sig, noise_power_value)

"""Receiver-side digital filtering.

The RTL-SDR digitizes a band much wider than one LoRa channel (2.4 Msps
against 125 kHz); band-limiting the capture to the channel before onset
detection removes out-of-band noise -- at 2.4 Msps roughly a 12.8 dB
in-band SNR gain -- mirroring the low-pass selection stage of the
receiver chain in the paper's Fig. 5.  Zero-phase filtering keeps the
onset position unbiased, which matters because the filtered trace feeds
the PHY timestamper.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sdr.iq import IQTrace

#: Default channel-selection cutoff: half the LoRa bandwidth plus margin
#: for oscillator biases of tens of ppm (|δ| up to ~25 kHz at 869.75 MHz).
DEFAULT_CHANNEL_CUTOFF_HZ = 100e3


def bandlimit_trace(
    trace: IQTrace,
    cutoff_hz: float = DEFAULT_CHANNEL_CUTOFF_HZ,
    order: int = 6,
) -> IQTrace:
    """Zero-phase low-pass the capture to the LoRa channel.

    Returns a new trace; timing metadata is preserved (filtfilt adds no
    group delay).
    """
    nyquist = trace.sample_rate_hz / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise ConfigurationError(
            f"cutoff must be in (0, {nyquist:.0f}) Hz, got {cutoff_hz}"
        )
    if order < 1:
        raise ConfigurationError(f"filter order must be >= 1, got {order}")
    if len(trace.samples) < 3 * (order + 1):
        raise ConfigurationError(
            f"trace too short ({len(trace.samples)} samples) for an order-{order} filtfilt"
        )
    # Loaded at first use: the network server imports this package's
    # siblings and must not pay for scipy.
    from scipy import signal as sp_signal

    b, a = sp_signal.butter(order, cutoff_hz / nyquist)
    filtered = sp_signal.filtfilt(b, a, trace.samples)
    return IQTrace(
        samples=filtered,
        sample_rate_hz=trace.sample_rate_hz,
        start_time_s=trace.start_time_s,
        metadata={**trace.metadata, "bandlimited_hz": cutoff_hz},
    )

"""Exception hierarchy for the SoftLoRa reproduction.

All library-specific failures derive from :class:`ReproError` so that
callers can catch everything from this package with a single handler while
still being able to discriminate the failure domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A parameter is outside its legal domain (bad SF, bandwidth, ...)."""


class ModulationError(ReproError):
    """Raised when a symbol stream cannot be modulated or demodulated."""


class DecodeError(ReproError):
    """Raised when a PHY or MAC frame fails to decode."""


class CrcError(DecodeError):
    """Payload or header CRC check failed."""


class MicError(DecodeError):
    """LoRaWAN message integrity code verification failed."""


class FrameSizeError(ConfigurationError):
    """A frame would exceed the data rate's regional MAC-payload cap.

    Raised at frame-*build* time (before any device state mutates), so a
    fleet whose ADR loop pushed a device to SF11/SF12 fails loudly on an
    oversized buffer instead of emitting an illegal frame.
    """


class DutyCycleError(ReproError):
    """A transmission would violate the regional duty-cycle budget."""


class EstimationError(ReproError):
    """A signal-processing estimator could not produce a result."""


class SimulationError(ReproError):
    """Inconsistent discrete-event simulation state."""

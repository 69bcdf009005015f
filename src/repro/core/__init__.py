"""The paper's primary contribution: SoftLoRa's signal-processing pipeline.

* :mod:`repro.core.onset` -- PHY-layer signal timestamping (paper Sec. 6):
  the envelope and AIC onset detectors, plus the matched-filter and
  spectrogram comparators the paper dismisses.
* :mod:`repro.core.freq_bias` -- frequency-bias estimation (paper Sec. 7.1):
  phase linear regression and the noise-robust least-squares fit.
* :mod:`repro.core.detector` -- frame delay attack detection by FB
  consistency checking (paper Sec. 7.2).
* :mod:`repro.core.timestamping` -- synchronization-free data timestamping
  (paper Sec. 3.2): elapsed-time codec and global-time reconstruction.
* :mod:`repro.core.softlora` -- the SoftLoRa gateway tying it together
  (paper Sec. 5).
"""

from repro.core.detector import DetectionResult, FbDatabase, ReplayDetector
from repro.core.freq_bias import (
    FbEstimate,
    LeastSquaresFbEstimator,
    LinearRegressionFbEstimator,
    estimate_amplitude,
)
from repro.core.onset import (
    AicDetector,
    EnvelopeDetector,
    MatchedFilterDetector,
    OnsetResult,
    SpectrogramOnsetDetector,
)
from repro.core.timestamping import (
    ElapsedTimeCodec,
    SyncFreeTimestamper,
    TimestampedReading,
)

# SoftLoRaGateway wires the core pipeline to the LoRaWAN substrate, whose
# device/gateway modules themselves use core.timestamping.  Re-export it
# lazily (PEP 562) so importing a core submodule does not recurse through
# the lorawan package.
_LAZY_SOFTLORA = ("SoftLoRaGateway",)


def __getattr__(name: str):
    if name in _LAZY_SOFTLORA:
        from repro.core import softlora

        return getattr(softlora, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AicDetector",
    "DetectionResult",
    "ElapsedTimeCodec",
    "EnvelopeDetector",
    "FbDatabase",
    "FbEstimate",
    "LeastSquaresFbEstimator",
    "LinearRegressionFbEstimator",
    "MatchedFilterDetector",
    "OnsetResult",
    "ReplayDetector",
    "SoftLoRaGateway",
    "SpectrogramOnsetDetector",
    "SyncFreeTimestamper",
    "TimestampedReading",
    "estimate_amplitude",
]

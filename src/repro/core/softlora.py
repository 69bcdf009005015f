"""The SoftLoRa gateway (paper Sec. 5): the SDR front end.

Mirrors Fig. 4's software architecture.  A capture from the SDR receiver
is (1) PHY-timestamped with the AIC onset detector, (2) FB-estimated from
the second preamble chirp and (3) demodulated.  What comes out is a
:class:`repro.server.GatewayForward`: the raw frame plus the SDR's
measurements.  The verdict belongs to a :class:`repro.server.NetworkServer`.
It checks MIC and frame counter once per uplink, checks the FB against
the claimed source's history, flags replays (which are never used for
data timestamping) and keeps flagged FBs out of the history.

:meth:`SoftLoRaGateway.process_capture` runs the chain on one capture;
every number is produced by actual signal processing on I/Q samples.
Stacks of captures go through :class:`repro.pipeline.BatchPipeline`,
which returns the onsets, timestamps and FBs as arrays and demodulates
nothing.  ``examples/quickstart.py`` takes one capture from
:meth:`SoftLoRaGateway.process_capture` to the server's verdict.

The paired commodity chip (:attr:`SoftLoRaGateway.commodity`) holds the
session keys and counters: a :class:`repro.sim.network.LoRaWanWorld`
makes it the MAC back end of its default network server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.freq_bias import LeastSquaresFbEstimator
from repro.core.onset import AicDetector
from repro.errors import ReproError
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.phy.frame import PhyReceiver
from repro.sdr.iq import IQTrace

if TYPE_CHECKING:
    from repro.server.forwarding import GatewayForward


@dataclass
class SoftLoRaGateway:
    """Commodity LoRaWAN gateway + SDR receiver: the gateway-side chain."""

    config: ChirpConfig
    commodity: CommodityGateway
    onset_detector: AicDetector = field(default_factory=AicDetector)
    fb_estimator: LeastSquaresFbEstimator | None = None

    def __post_init__(self) -> None:
        if self.fb_estimator is None:
            self.fb_estimator = LeastSquaresFbEstimator(self.config)
        self._phy_receiver = PhyReceiver(self.config)

    def process_capture(
        self,
        trace: IQTrace,
        gateway_id: str,
        snr_db: float,
        noise_power: float = 0.0,
        onset_component: str = "i",
    ) -> "GatewayForward | None":
        """Run onset detection, FB estimation and demodulation on one capture.

        Returns the :class:`repro.server.GatewayForward` this gateway
        ships to the network server, or ``None`` when the capture does
        not decode here (the frame may still be resolved from another
        gateway's copy).  ``snr_db`` is the link SNR reported with the
        forward; ``noise_power`` is only consulted by the ``"de"`` FB
        estimator.
        """
        spc = self.config.samples_per_chirp
        try:
            onset = self.onset_detector.detect(trace, component=onset_component)
            second_chirp = trace.samples[onset.index + spc : onset.index + 2 * spc]
            fb_hz = self.fb_estimator.estimate(second_chirp, noise_power=noise_power).fb_hz
        except ReproError:
            return None
        return self._demodulate(trace.samples, onset.index, onset.time_s, fb_hz, gateway_id, snr_db)

    def _demodulate(
        self,
        samples: np.ndarray,
        onset_index: int,
        arrival_time_s: float,
        fb_hz: float,
        gateway_id: str,
        snr_db: float,
    ) -> "GatewayForward | None":
        """Demodulate from the onset and wrap the result as a forward."""
        from repro.server.forwarding import GatewayForward

        try:
            decoded = self._phy_receiver.decode(samples, onset_index, fb_hz=fb_hz)
        except ReproError:
            return None
        return GatewayForward(
            gateway_id=gateway_id,
            mac_bytes=decoded.payload,
            arrival_time_s=arrival_time_s,
            fb_hz=fb_hz,
            snr_db=snr_db,
            spreading_factor=self.config.spreading_factor,
        )

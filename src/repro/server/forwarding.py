"""The gateway -> network-server forwarding contract.

Real LoRaWAN gateways are packet forwarders: they hold no session keys
and run no application logic.  A SoftLoRa gateway therefore ships, per
uplink it hears, exactly what its SDR front end measured -- the raw
PHYPayload, the AIC PHY timestamp, the estimated frequency bias, and
the link SNR -- and leaves MAC
verification, deduplication, FB fusion, and the replay verdict to the
:class:`repro.server.NetworkServer`.

:meth:`repro.core.softlora.SoftLoRaGateway.process_capture` builds them
from I/Q captures; :class:`repro.sim.network.LoRaWanWorld` builds them
at frame level, with the FB drawn from the calibrated noise model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class GatewayForward:
    """One uplink as heard by one gateway, en route to the network server.

    Attributes:
        gateway_id: Stable identifier of the reporting gateway.
        mac_bytes: The demodulated PHYPayload, untouched: the forwarding
            gateway has no session keys, so MIC verification happens at
            the server.
        arrival_time_s: The gateway's sync-free PHY timestamp of the
            frame onset.
        fb_hz: The gateway's own least-squares FB estimate for this
            frame.
        snr_db: Link SNR at this gateway -- the fusion weight.
        spreading_factor: The SF the frame was demodulated at.  The FB
            estimator works on one preamble chirp whose duration doubles
            per SF step, so the fusion noise model weights (and the
            detector enrolls) each estimate at its own SF.
    """

    gateway_id: str
    mac_bytes: bytes
    arrival_time_s: float
    fb_hz: float
    snr_db: float
    spreading_factor: int = 7

    def __post_init__(self) -> None:
        """Reject forwards missing an id or payload."""
        if not self.gateway_id:
            raise ConfigurationError("a forward needs a non-empty gateway id")
        if not self.mac_bytes:
            raise ConfigurationError("a forward needs a non-empty PHYPayload")

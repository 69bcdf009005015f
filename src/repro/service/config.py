"""Configuration for the network-server daemon.

One :class:`ServiceConfig` travels from the CLI (``python -m
repro.service``) through the daemon into the control plane, so every
operational knob -- bind addresses, ingest bounds, batching cadence --
is named, validated, and documented in one place (the full reference
table lives in ``docs/service.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of the :class:`~repro.service.daemon.NetworkServerDaemon`.

    Attributes:
        udp_host: Bind address of the Semtech UDP front end.
        udp_port: UDP port gateways push to (0 picks a free port; the
            bound port is exposed as ``daemon.udp_port`` after start).
        http_host: Bind address of the REST control plane.
        http_port: Control-plane TCP port (0 picks a free port).
        queue_limit: Bound on forwards awaiting resolution: once this
            many sit in the open batch, further rxpks are dropped (and
            counted) until the batch resolves, instead of growing memory
            without bound -- backpressure by shedding, never by
            blocking the UDP receive path.
        linger_s: Idle flush timeout.  When the ingest stream goes quiet
            for this long the daemon resolves whatever is pending rather
            than waiting for a window tick; copies of one transmission
            arrive within microseconds of each other, so a few
            milliseconds of linger keeps cross-gateway copies grouped.
        max_hold_s: Hard wall-clock bound on how long any forward may sit
            unresolved, whatever the traffic pattern.  This is the
            daemon-side analogue of the dedup airtime window: batches
            always close within it.
        verdict_page_limit: Hard cap on one ``GET /verdicts`` page.
        alert_queue_limit: Per-subscriber buffered alerts before the
            slowest ``/alerts`` client starts losing events (each loss is
            counted, never blocks ingest).
    """

    udp_host: str = "0.0.0.0"
    udp_port: int = 1700
    http_host: str = "0.0.0.0"
    http_port: int = 8080
    queue_limit: int = 10_000
    linger_s: float = 0.05
    max_hold_s: float = 2.0
    verdict_page_limit: int = 500
    alert_queue_limit: int = 256

    def __post_init__(self) -> None:
        """Validate ports, bounds, and timers."""
        for name, port in (("udp_port", self.udp_port), ("http_port", self.http_port)):
            if not 0 <= port <= 0xFFFF:
                raise ConfigurationError(f"{name} must be in 0..65535, got {port}")
        if self.queue_limit < 1:
            raise ConfigurationError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.linger_s <= 0:
            raise ConfigurationError(f"linger_s must be positive, got {self.linger_s}")
        if self.max_hold_s < self.linger_s:
            raise ConfigurationError(
                f"max_hold_s {self.max_hold_s} must be >= linger_s {self.linger_s}"
            )
        if self.verdict_page_limit < 1:
            raise ConfigurationError(
                f"verdict_page_limit must be >= 1, got {self.verdict_page_limit}"
            )
        if self.alert_queue_limit < 1:
            raise ConfigurationError(
                f"alert_queue_limit must be >= 1, got {self.alert_queue_limit}"
            )

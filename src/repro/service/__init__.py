"""The network-server daemon layer: UDP ingest, REST control plane, loadgen.

This package turns the in-process :class:`~repro.server.NetworkServer`
into a deployable service:

* :mod:`repro.service.semtech` -- the Semtech UDP packet-forwarder
  codec (PUSH_DATA/PUSH_ACK/PULL_DATA/PULL_RESP/TX_ACK);
* :mod:`repro.service.daemon` -- the asyncio daemon: bounded ingest,
  dedup-window batching, alerts, ADR downlink dispatch;
* :mod:`repro.service.rest` -- the stdlib HTTP control plane
  (``/healthz``, ``/devices/{addr}``, ``/verdicts``, ``/metrics``,
  ``/alerts`` SSE);
* :mod:`repro.service.metrics` -- the dependency-free Prometheus
  registry behind ``/metrics``;
* :mod:`repro.service.loadgen` -- a fleet-replay load generator with a
  recorded in-process oracle for bit-identical verdict checks;
* :mod:`repro.service.config` -- the daemon's operational knobs.

Operator documentation lives in ``docs/service.md``; start a daemon
from the command line with ``python -m repro.service``.
"""

from repro.service.config import ServiceConfig
from repro.service.daemon import AlertBroker, GatewaySession, NetworkServerDaemon
from repro.service.metrics import Metric, MetricsRegistry
from repro.service.rest import ControlPlane

# The load generator drives the fleet simulator (and, for attack plans,
# the attacker); re-export it lazily (PEP 562) so importing the daemon
# does not load either.
_LAZY_LOADGEN = (
    "LoadPlan",
    "RecordingNetworkServer",
    "ReplayStats",
    "build_plan",
    "new_server",
    "replay",
)


def __getattr__(name: str):
    """Resolve a load-generator export on first access."""
    if name in _LAZY_LOADGEN:
        from repro.service import loadgen

        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlertBroker",
    "ControlPlane",
    "GatewaySession",
    "LoadPlan",
    "Metric",
    "MetricsRegistry",
    "NetworkServerDaemon",
    "RecordingNetworkServer",
    "ReplayStats",
    "ServiceConfig",
    "build_plan",
    "new_server",
    "replay",
]

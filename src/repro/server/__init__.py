"""repro.server: the multi-gateway network-server layer.

Everything above the gateways: forwarding records
(:class:`GatewayForward`), cross-gateway deduplication
(:class:`UplinkDeduplicator`), FB/timestamp fusion policies
(:class:`FusionPolicy`) weighted by the calibrated FB noise model
(:class:`FbMeasurementModel`), the closed-loop data-rate controller
(:class:`AdrController`), and the :class:`NetworkServer` that ties them
into one replay verdict per over-the-air transmission.

:mod:`repro.server.store` adds durable drop-in FB stores behind the
same :class:`~repro.core.detector.FbStore` protocol as the in-memory
:class:`~repro.core.detector.FbDatabase`: WAL-mode SQLite
(:class:`SqliteFbStore`); build one from an operator spec string with
:func:`open_store`.
"""

from repro.server.adr import AdrCommand, AdrController
from repro.server.dedup import DeduplicatedUplink, UplinkDeduplicator, UplinkKey
from repro.server.forwarding import GatewayForward
from repro.server.fusion import (
    FbMeasurementModel,
    FusedFb,
    FusionPolicy,
    best_snr_contribution,
    fuse_fb,
    fuse_timestamp_s,
)
from repro.server.network_server import NetworkServer, ServerStatus, ServerVerdict
from repro.server.store import SqliteFbStore, open_store, store_batch, store_stats

__all__ = [
    "AdrCommand",
    "AdrController",
    "DeduplicatedUplink",
    "FbMeasurementModel",
    "FusedFb",
    "FusionPolicy",
    "GatewayForward",
    "NetworkServer",
    "ServerStatus",
    "ServerVerdict",
    "SqliteFbStore",
    "UplinkDeduplicator",
    "UplinkKey",
    "best_snr_contribution",
    "fuse_fb",
    "fuse_timestamp_s",
    "open_store",
    "store_batch",
    "store_stats",
]

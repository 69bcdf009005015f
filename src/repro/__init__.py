"""repro: a reproduction of "Attack-Aware Data Timestamping in Low-Power
Synchronization-Free LoRaWAN" (Gu, Tan, Huang -- ICDCS 2020).

The package rebuilds the paper's entire stack in simulation:

* ``repro.phy`` -- LoRa CSS physical layer (chirps, coding, frames, airtime),
* ``repro.sdr`` -- the RTL-SDR receive chain (mixer bias, ADC, noise),
* ``repro.radio`` -- propagation: building / campus geometry, path loss,
* ``repro.clock`` -- oscillators, drifting clocks, the sync-based baseline,
* ``repro.lorawan`` -- LoRaWAN 1.0.2 link layer with real AES-CMAC security,
* ``repro.attack`` -- the frame delay attack (stealthy jam + delayed replay),
* ``repro.core`` -- the paper's contribution: AIC PHY timestamping,
  frequency-bias estimation, replay detection, sync-free timestamping, and
  the SoftLoRa gateway,
* ``repro.pipeline`` -- the batched capture-processing engine: N stacked
  captures through the whole SoftLoRa chain as vectorized numpy stages,
* ``repro.server`` -- the multi-gateway network-server layer: cross-
  gateway dedup, FB fusion, durable per-device FB stores, one verdict
  per over-the-air transmission,
* ``repro.sim`` -- discrete-event fleet simulation and paper scenarios,
* ``repro.experiments`` -- drivers regenerating every table and figure,
  declared as :class:`ScenarioSpec` sweeps over one shared runner.

Quick start::

    import numpy as np
    from repro import (
        ChirpConfig, EndDevice, CommodityGateway, SoftLoRaGateway,
        SessionKeys, Oscillator, DriftingClock,
    )

    cfg = ChirpConfig(spreading_factor=7, sample_rate_hz=1e6)
    rng = np.random.default_rng(0)
    keys = SessionKeys.derive_for_test(0x01020304)
    device = EndDevice(
        name="node", dev_addr=0x01020304, keys=keys,
        radio_oscillator=Oscillator.lora_end_device(rng),
        clock=DriftingClock(drift_ppm=40.0),
    )
    commodity = CommodityGateway()
    commodity.register_device(device.dev_addr, keys)
    gateway = SoftLoRaGateway(config=cfg, commodity=commodity)

See ``examples/quickstart.py`` for the full capture-process loop.
"""

from repro.clock import DriftingClock, GpsClock, Oscillator, PerfectClock
from repro.constants import (
    EU868_CENTER_FREQUENCY_HZ,
    FB_ESTIMATION_RESOLUTION_HZ,
    LORA_BANDWIDTH_HZ,
    RTL_SDR_SAMPLE_RATE_HZ,
    hz_to_ppm,
    ppm_to_hz,
)
from repro.core.detector import FbDatabase, ReplayDetector
from repro.core.freq_bias import LeastSquaresFbEstimator, LinearRegressionFbEstimator
from repro.core.onset import AicDetector, EnvelopeDetector
from repro.core.timestamping import ElapsedTimeCodec, SyncFreeTimestamper
from repro.errors import ReproError
from repro.phy.airtime import airtime_s
from repro.phy.chirp import ChirpConfig
from repro.phy.frame import PhyFrame, PhyReceiver, PhyTransmitter
from repro.sdr.iq import IQTrace
from repro.sdr.receiver import SdrReceiver

__version__ = "1.2.0"

__all__ = [
    "AdrController",
    "AicDetector",
    "BatchPipeline",
    "CaptureBatch",
    "ChirpConfig",
    "ColumnarRuntime",
    "CommodityGateway",
    "DriftingClock",
    "ElapsedTimeCodec",
    "EndDevice",
    "EnvelopeDetector",
    "EU868_CENTER_FREQUENCY_HZ",
    "FB_ESTIMATION_RESOLUTION_HZ",
    "FbDatabase",
    "FusionPolicy",
    "GatewayForward",
    "GpsClock",
    "IQTrace",
    "LORA_BANDWIDTH_HZ",
    "LeastSquaresFbEstimator",
    "LinearRegressionFbEstimator",
    "LinkADRAns",
    "LinkADRReq",
    "NetworkServer",
    "Oscillator",
    "PerfectClock",
    "PhyFrame",
    "PhyReceiver",
    "PhyTransmitter",
    "ReplayDetector",
    "ReproError",
    "RTL_SDR_SAMPLE_RATE_HZ",
    "ScenarioSpec",
    "SdrReceiver",
    "ServerVerdict",
    "SessionKeys",
    "SoftLoRaGateway",
    "SqliteFbStore",
    "SweepExecutor",
    "SweepPoint",
    "SyncFreeTimestamper",
    "airtime_s",
    "hz_to_ppm",
    "open_store",
    "ppm_to_hz",
    "run_sweep",
    "__version__",
]

# Aggregates that would pull heavier packages (lorawan's crypto stack, the
# batched pipeline, the experiment machinery) into every import are
# re-exported lazily to keep ``import repro`` light and cycle-free.
_LAZY = {
    "EndDevice": ("repro.lorawan.device", "EndDevice"),
    "CommodityGateway": ("repro.lorawan.gateway", "CommodityGateway"),
    "SessionKeys": ("repro.lorawan.security", "SessionKeys"),
    "SoftLoRaGateway": ("repro.core.softlora", "SoftLoRaGateway"),
    "BatchPipeline": ("repro.pipeline.engine", "BatchPipeline"),
    "CaptureBatch": ("repro.pipeline.batch", "CaptureBatch"),
    "AdrController": ("repro.server.adr", "AdrController"),
    "LinkADRAns": ("repro.lorawan.mac", "LinkADRAns"),
    "LinkADRReq": ("repro.lorawan.mac", "LinkADRReq"),
    "FusionPolicy": ("repro.server.fusion", "FusionPolicy"),
    "GatewayForward": ("repro.server.forwarding", "GatewayForward"),
    "NetworkServer": ("repro.server.network_server", "NetworkServer"),
    "ServerVerdict": ("repro.server.network_server", "ServerVerdict"),
    "SqliteFbStore": ("repro.server.store.sqlite", "SqliteFbStore"),
    "open_store": ("repro.server.store", "open_store"),
    "ScenarioSpec": ("repro.experiments.common", "ScenarioSpec"),
    "SweepExecutor": ("repro.experiments.common", "SweepExecutor"),
    "SweepPoint": ("repro.experiments.common", "SweepPoint"),
    "run_sweep": ("repro.experiments.common", "run_sweep"),
    "ColumnarRuntime": ("repro.sim.columnar", "ColumnarRuntime"),
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module_name, attr = _LAZY[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

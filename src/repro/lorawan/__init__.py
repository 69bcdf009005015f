"""LoRaWAN 1.0.2 link-layer substrate.

Implements what the attack narrative needs end-to-end: frames carry real
AES-CMAC MICs and encrypted payloads, the gateway verifies both, frame
counters advance -- and a replayed waveform still passes every check,
because the frame delay attack operates strictly below the MAC layer.
Devices are activated by personalization (ABP): session keys are set at
provisioning, so there is no over-the-air join.
"""

from repro.lorawan.device import EndDevice, UplinkTransmission
from repro.lorawan.downlink import (
    DownlinkScheduler,
    build_downlink,
    class_a_windows,
    parse_downlink,
)
from repro.lorawan.duty_cycle import DutyCycleLimiter
from repro.lorawan.gateway import CommodityGateway, GatewayReception
from repro.lorawan.mac import (
    LinkADRAns,
    LinkADRReq,
    MacCommandCid,
    MacFrame,
    MType,
    parse_mac_commands,
    parse_mac_frame,
)
from repro.lorawan.regional import EU868, DataRate
from repro.lorawan.security import (
    SessionKeys,
    compute_uplink_mic,
    encrypt_frm_payload,
)

__all__ = [
    "CommodityGateway",
    "DataRate",
    "DownlinkScheduler",
    "DutyCycleLimiter",
    "EU868",
    "EndDevice",
    "GatewayReception",
    "LinkADRAns",
    "LinkADRReq",
    "MacCommandCid",
    "MacFrame",
    "MType",
    "SessionKeys",
    "UplinkTransmission",
    "build_downlink",
    "class_a_windows",
    "compute_uplink_mic",
    "encrypt_frm_payload",
    "parse_downlink",
    "parse_mac_commands",
    "parse_mac_frame",
]

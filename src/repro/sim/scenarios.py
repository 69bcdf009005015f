"""Scenario builders reproducing the paper's deployments.

* :func:`build_building_scenario` -- the Fig. 15 survey: a fixed node in
  Section A on the 3rd floor, SoftLoRa carried through 11 columns x 6
  floors of a 190 m concrete building; surveyed SNRs span about
  -1..13 dB.
* :func:`build_campus_scenario` -- the Sec. 8.2 long-distance link:
  1.07 km between a rooftop and an open staircase (one-way propagation
  3.57 µs).
* :func:`build_fleet` -- the 16 RN2483-class transmitters of Fig. 13.
* :func:`build_cell_world` -- one fleet-scale sweep cell: the Fig. 13
  fleet grown and scattered over a disk, heard by a ring of gateways.
* :func:`build_pinned_link_world` -- one device + one gateway with the
  link budget pinned at an exact SNR (for measured links whose
  propagation environment the paper does not publish).

Absolute received SNR depends on receiver gains the paper does not
publish, so each scenario calibrates a constant receiver-gain offset so
the *maximum* surveyed SNR matches the paper; the spatial decay shape
comes entirely from the propagation model.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.clock.clocks import DriftingClock
from repro.clock.oscillator import Oscillator
from repro.constants import PAPER_ANALYSIS_DRIFT_PPM
from repro.core.softlora import SoftLoRaGateway
from repro.errors import ConfigurationError
from repro.lorawan.device import EndDevice
from repro.lorawan.gateway import CommodityGateway
from repro.lorawan.security import SessionKeys
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import LinkBudget, noise_floor_dbm, propagation_delay_s
from repro.radio.geometry import Building, CampusLink, Position
from repro.radio.pathloss import (
    FixedPathLoss,
    FreeSpacePathLoss,
    IndoorMultiWallPathLoss,
    LogDistancePathLoss,
)
from repro.sim.network import LoRaWanWorld
from repro.sim.rng import RngStreams


@dataclass
class BuildingScenario:
    """The Fig. 15 multistory-building survey geometry and link model.

    The fixed node's own cell is excluded from the survey (one does not
    measure the link at zero distance); the paper's heat map spans about
    -1..13 dB over the remaining positions.
    """

    building: Building
    pathloss: IndoorMultiWallPathLoss
    tx_column: str
    tx_floor: int
    tx_power_dbm: float
    snr_offset_db: float = 0.0

    @property
    def tx_position(self) -> Position:
        return self.building.position(self.tx_column, self.tx_floor)

    def raw_snr_db(self, column: str, floor: int) -> float:
        """Uncalibrated link-budget SNR at a survey point."""
        rx = self.building.position(column, floor)
        budget = LinkBudget(pathloss=self.pathloss)
        return budget.snr_db(
            self.tx_power_dbm,
            self.tx_position,
            rx,
            tx_column=self.tx_column,
            rx_column=column,
        )

    def snr_db(self, column: str, floor: int) -> float:
        """Calibrated SNR at a survey point."""
        return self.raw_snr_db(column, floor) + self.snr_offset_db

    def survey_points(self) -> list[tuple[str, int]]:
        """Accessible survey points, excluding the fixed node's own cell."""
        return [
            point
            for point in self.building.survey_points()
            if point != (self.tx_column, self.tx_floor)
        ]

    def survey(self) -> dict[tuple[str, int], float]:
        """Calibrated SNR at every accessible survey point."""
        return {
            (column, floor): self.snr_db(column, floor)
            for column, floor in self.survey_points()
        }

    def calibrate(self, target_max_snr_db: float = 13.0, target_min_snr_db: float = -1.0) -> None:
        """Fit the link model to the paper's surveyed SNR range.

        Every loss term (log-distance slope, floor slabs, junction walls)
        enters the SNR linearly in dB, so scaling all three by one factor
        scales the survey's dB *span* exactly; a constant receiver-gain
        offset then pins the maximum.  The spatial *shape* (which cells
        are better than which) is preserved.
        """
        if target_min_snr_db >= target_max_snr_db:
            raise ConfigurationError(
                f"need min < max, got ({target_min_snr_db}, {target_max_snr_db})"
            )
        self.snr_offset_db = 0.0
        values = self.survey().values()
        span = max(values) - min(values)
        if span <= 0:
            raise ConfigurationError("degenerate survey: all points have equal SNR")
        scale = (target_max_snr_db - target_min_snr_db) / span
        base = self.pathloss.base
        self.pathloss = IndoorMultiWallPathLoss(
            building=self.building,
            base=LogDistancePathLoss(
                exponent=base.exponent * scale,
                reference_distance_m=base.reference_distance_m,
                reference_loss_db=base.reference_loss_db,
                shadowing_sigma_db=base.shadowing_sigma_db,
                carrier_hz=base.carrier_hz,
                seed=base.seed,
            ),
            floor_loss_db=self.pathloss.floor_loss_db * scale,
            junction_loss_db=self.pathloss.junction_loss_db * scale,
        )
        best = max(self.survey().values())
        self.snr_offset_db = target_max_snr_db - best


def build_building_scenario(
    tx_column: str = "A1",
    tx_floor: int = 3,
    tx_power_dbm: float = 14.0,
    target_max_snr_db: float = 13.0,
    target_min_snr_db: float = -1.0,
    exponent: float = 2.6,
    floor_loss_db: float = 4.0,
    junction_loss_db: float = 3.0,
) -> BuildingScenario:
    """The paper's building with the fixed node in Section A, 3rd floor."""
    building = Building()
    pathloss = IndoorMultiWallPathLoss(
        building=building,
        base=LogDistancePathLoss(exponent=exponent),
        floor_loss_db=floor_loss_db,
        junction_loss_db=junction_loss_db,
    )
    scenario = BuildingScenario(
        building=building,
        pathloss=pathloss,
        tx_column=tx_column,
        tx_floor=tx_floor,
        tx_power_dbm=tx_power_dbm,
    )
    scenario.calibrate(target_max_snr_db, target_min_snr_db)
    return scenario


@dataclass
class CampusScenario:
    """The Sec. 8.2 campus link: 1.07 km, near line of sight."""

    link_geometry: CampusLink
    tx_power_dbm: float = 14.0
    excess_loss_db: float = 20.0  # staircase obstruction + heavy rain
    snr_offset_db: float = 0.0

    def propagation_delay_s(self) -> float:
        return propagation_delay_s(self.link_geometry.site_a, self.link_geometry.site_b)

    def snr_db(self) -> float:
        budget = LinkBudget(pathloss=FreeSpacePathLoss())
        raw = budget.snr_db(self.tx_power_dbm, self.link_geometry.site_a, self.link_geometry.site_b)
        return raw - self.excess_loss_db + self.snr_offset_db

    def calibrate(self, target_snr_db: float) -> None:
        self.snr_offset_db = 0.0
        self.snr_offset_db = target_snr_db - self.snr_db()


def build_campus_scenario(target_snr_db: float = 8.0) -> CampusScenario:
    """The campus link calibrated to a rainy-day reception SNR."""
    scenario = CampusScenario(link_geometry=CampusLink())
    scenario.calibrate(target_snr_db)
    return scenario


def build_pinned_link_world(
    streams: RngStreams,
    spreading_factor: int,
    link_snr_db: float,
    dev_addr: int,
    device_position: Position = Position(0.0, 0.0, 1.0),
    gateway_position: Position = Position(0.0, 0.0, 15.0),
    device_name: str = "end-device",
    sample_rate_hz: float = 0.5e6,
    drift_ppm: float = 40.0,
) -> tuple[LoRaWanWorld, EndDevice]:
    """One device + one gateway with the link pinned at an exact SNR.

    Reproduces *measured* links (the Sec. 8.1.1 cross-building hop, the
    rainy campus budget) where the paper publishes the received SNR but
    not the propagation environment: a :class:`FixedPathLoss` absorbs
    whatever loss makes the budget come out at ``link_snr_db``,
    independent of the positions (which still set propagation delay).
    """
    config = ChirpConfig(spreading_factor=spreading_factor, sample_rate_hz=sample_rate_hz)
    device = EndDevice(
        name=device_name,
        dev_addr=dev_addr,
        keys=SessionKeys.derive_for_test(dev_addr),
        radio_oscillator=Oscillator.lora_end_device(streams.stream("pinned-osc")),
        clock=DriftingClock(drift_ppm=drift_ppm),
        position=device_position,
        spreading_factor=spreading_factor,
        rng=streams.stream("pinned-device"),
    )
    loss_db = device.tx_power_dbm - noise_floor_dbm() - link_snr_db
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(config=config, commodity=CommodityGateway()),
        gateway_position=gateway_position,
        link=LinkBudget(pathloss=FixedPathLoss(value_db=loss_db)),
        rng=streams.stream("pinned-world"),
    )
    world.add_device(device)
    return world, device


def build_fleet(
    n_devices: int = 16,
    streams: RngStreams | None = None,
    spreading_factor: int = 7,
    ring_radius_m: float = 5.0,
    fb_range_hz: tuple[float, float] = (-25e3, -17e3),
    drift_ppm: float = PAPER_ANALYSIS_DRIFT_PPM,
) -> list[EndDevice]:
    """The 16-node fleet of Fig. 13, arranged around the gateway.

    Each device gets its own radio FB (drawn from the paper's measured
    range), its own drifting clock, and deterministic per-device keys.
    """
    if n_devices < 1:
        raise ConfigurationError(f"need at least one device, got {n_devices}")
    lo, hi = fb_range_hz
    if lo >= hi:
        raise ConfigurationError(f"fb range must satisfy lo < hi, got ({lo}, {hi})")
    if ring_radius_m <= 0:
        raise ConfigurationError(f"ring radius must be positive, got {ring_radius_m}")
    streams = streams or RngStreams(0)
    devices = []
    for index in range(n_devices):
        rng = streams.stream(f"device-{index}")
        angle = 2 * np.pi * index / n_devices
        dev_addr = 0x26000000 + index
        device = EndDevice(
            name=f"node-{index}",
            dev_addr=dev_addr,
            keys=SessionKeys.derive_for_test(dev_addr),
            radio_oscillator=Oscillator.lora_end_device(rng, fb_range_hz=fb_range_hz),
            clock=DriftingClock(drift_ppm=float(rng.uniform(-drift_ppm, drift_ppm))),
            position=Position(
                x=ring_radius_m * float(np.cos(angle)),
                y=ring_radius_m * float(np.sin(angle)),
                z=1.0,
            ),
            spreading_factor=spreading_factor,
            rng=streams.stream(f"device-{index}-tx"),
        )
        devices.append(device)
    return devices


def build_cell_world(
    n_gateways: int,
    n_devices: int,
    streams: RngStreams,
    area_radius_m: float,
    gateway_ring_m: float,
    pathloss_exponent: float,
    spreading_factors: Sequence[int] | None = None,
) -> LoRaWanWorld:
    """One sweep cell: a fleet scattered over a disk, gateways on a ring.

    The :func:`build_fleet` devices land uniformly over a disk of radius
    ``area_radius_m``, 1 m up, so coverage is partial and per-gateway
    SNRs differ.  The gateways stand 15 m up, evenly spaced on a ring of
    radius ``gateway_ring_m`` starting at ``(gateway_ring_m, 0)``.
    ``spreading_factors`` gives each device its starting SF in fleet
    order (``None``: all SF7).  Every draw comes from a named stream of
    ``streams``, so equal streams build bitwise-equal cells.
    """
    if n_gateways < 1:
        raise ConfigurationError(f"need at least one gateway, got {n_gateways}")
    devices = build_fleet(n_devices=n_devices, streams=streams)
    layout = streams.stream("layout")
    for device in devices:
        radius = area_radius_m * float(np.sqrt(layout.uniform(0.0, 1.0)))
        angle = float(layout.uniform(0.0, 2 * np.pi))
        device.position = Position(
            x=radius * float(np.cos(angle)), y=radius * float(np.sin(angle)), z=1.0
        )
    if spreading_factors is not None:
        for device, sf in zip(devices, spreading_factors, strict=True):
            device.spreading_factor = int(sf)
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(
            config=ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6),
            commodity=CommodityGateway(),
        ),
        gateway_position=Position(gateway_ring_m, 0.0, 15.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=pathloss_exponent)),
        rng=streams.stream("world"),
    )
    for index in range(1, n_gateways):
        angle = 2 * np.pi * index / n_gateways
        world.add_gateway(
            Position(
                x=gateway_ring_m * float(np.cos(angle)),
                y=gateway_ring_m * float(np.sin(angle)),
                z=15.0,
            )
        )
    for device in devices:
        world.add_device(device)
    return world


def build_fleet_spec(
    n_devices: int = 16,
    seed: int = 0,
    spreading_factor: int = 7,
    ring_radius_m: float = 5.0,
    fb_range_hz: tuple[float, float] = (-25e3, -17e3),
    drift_ppm: float = PAPER_ANALYSIS_DRIFT_PPM,
) -> "FleetSpec":
    """Array-native sibling of :func:`build_fleet`: the fleet as a spec.

    Returns a :class:`~repro.sim.columnar.FleetSpec` describing the same
    ring-of-devices deployment without constructing a single
    :class:`EndDevice` -- feed it to
    :meth:`~repro.sim.columnar.FleetState.from_spec` to materialize a
    million-row columnar fleet in one vectorized pass, or call
    ``spec.realize()`` to get the equivalent device objects (bitwise the
    same columns, pinned in ``tests/test_columnar.py``).  Validation
    (fleet size, FB range ordering, ring radius) matches
    :func:`build_fleet`.
    """
    from repro.sim.columnar import FleetSpec

    return FleetSpec(
        n_devices=n_devices,
        spreading_factor=spreading_factor,
        ring_radius_m=ring_radius_m,
        fb_range_hz=fb_range_hz,
        drift_ppm=drift_ppm,
        seed=seed,
    )

"""Discrete-event simulation substrate: event queue, world wiring, scenarios."""

from repro.sim.columnar import ColumnarRuntime, FleetSpec, FleetState
from repro.sim.events import TimeWheel
from repro.sim.network import (
    FbMeasurementModel,
    LoRaWanWorld,
    StagedTransmission,
    WorldEvent,
)
from repro.sim.rng import RngStreams
from repro.sim.runtime import RuntimeReport
from repro.sim.scenarios import (
    BuildingScenario,
    CampusScenario,
    build_building_scenario,
    build_campus_scenario,
    build_fleet,
    build_fleet_spec,
    build_pinned_link_world,
)
from repro.sim.traffic import PeriodicTrafficModel

__all__ = [
    "BuildingScenario",
    "CampusScenario",
    "ColumnarRuntime",
    "FbMeasurementModel",
    "FleetSpec",
    "FleetState",
    "LoRaWanWorld",
    "PeriodicTrafficModel",
    "RngStreams",
    "RuntimeReport",
    "StagedTransmission",
    "TimeWheel",
    "WorldEvent",
    "build_building_scenario",
    "build_campus_scenario",
    "build_fleet",
    "build_fleet_spec",
    "build_pinned_link_world",
]

"""Property test: vectorized collision sweep == per-site resolve_collisions loop.

:func:`surviving_sites` below runs the column kernels
``LoRaWanWorld.deliver_staged`` resolves a window's contention with:
:func:`~repro.radio.channel.site_power_columns` for the (frame, site)
powers and delays, then :func:`~repro.radio.channel.window_survival`,
one sorted-interval sweep plus a broadcast capture-matrix pass.
:func:`surviving_sites_reference` keeps the original object-per-frame
loop as the oracle.  Hypothesis drives both over SF-heterogeneous
clusters, capture-edge power ties (discrete power and position grids,
mirrored geometry), 1..3 gateway sites, and path-loss models with and
without a vectorized distance-only form (the latter exercising the
scalar fallback inside ``site_power_columns``).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lorawan.device import UplinkTransmission
from repro.phy.airtime import airtime_s
from repro.radio.geometry import Position
from repro.radio.pathloss import FixedPathLoss, LogDistancePathLoss
from repro.radio.channel import (
    InterSfCaptureMatrix,
    LinkBudget,
    Transmission,
    propagation_delay_s,
    resolve_collisions,
    site_power_columns,
    window_survival,
)
from repro.sim.network import GatewaySite, StagedTransmission


def surviving_sites(
    world, staged: list[StagedTransmission], capture_matrix: InterSfCaptureMatrix
) -> dict[int, set[int]]:
    """Map each staged index to the site indices where it survives.

    The column path: one ``site_power_columns`` call over the window's
    frames, then ``window_survival`` over those columns.
    """
    sites, site_xyz = world.site_columns()
    devices = [world.devices[item.device_name] for item in staged]
    txs = [item.transmission for item in staged]
    powers, delays = site_power_columns(
        sites,
        site_xyz,
        devices,
        np.array([[d.position.x, d.position.y, d.position.z] for d in devices]),
        np.array([tx.tx_power_dbm for tx in txs]),
    )
    survives = window_survival(
        np.array([tx.emission_time_s for tx in txs]),
        np.array([tx.airtime_s for tx in txs]),
        delays,
        powers,
        np.array([tx.spreading_factor for tx in txs], dtype=np.int64),
        capture_matrix.threshold_table(),
    )
    return {index: set(np.flatnonzero(row).tolist()) for index, row in enumerate(survives)}


def _overlap_clusters(staged: list[StagedTransmission]) -> list[list[int]]:
    """Indices of staged transmissions chained by airtime overlap."""
    order = sorted(range(len(staged)), key=lambda i: staged[i].transmission.emission_time_s)
    clusters: list[list[int]] = []
    cluster_end = -math.inf
    for i in order:
        tx = staged[i].transmission
        if tx.emission_time_s < cluster_end:
            clusters[-1].append(i)
        else:
            clusters.append([i])
        cluster_end = max(cluster_end, tx.end_time_s)
    return clusters


def surviving_sites_reference(
    world, staged: list[StagedTransmission], capture_matrix: InterSfCaptureMatrix
) -> dict[int, set[int]]:
    """The original per-cluster, per-site loop (property-test oracle).

    Semantically identical to :func:`surviving_sites` but built on
    scalar link budgets and :func:`resolve_collisions` resolution.
    """
    sites = world.sites
    mask: dict[int, set[int]] = {index: set(range(len(sites))) for index in range(len(staged))}
    for cluster in _overlap_clusters(staged):
        if len(cluster) < 2:
            continue
        for site_index, site in enumerate(sites):
            offered = []
            for index in cluster:
                device = world.devices[staged[index].device_name]
                tx = staged[index].transmission
                offered.append(
                    Transmission(
                        sender=f"{index}:{staged[index].device_name}",
                        start_time_s=tx.emission_time_s
                        + propagation_delay_s(device.position, site.position),
                        airtime_s=tx.airtime_s,
                        rx_power_dbm=site.link.rx_power_dbm(
                            tx.tx_power_dbm, device.position, site.position
                        ),
                        spreading_factor=tx.spreading_factor,
                    )
                )
            outcomes = resolve_collisions(
                offered,
                capture_threshold_db=capture_matrix.co_sf_db,
                capture_matrix=capture_matrix,
            )
            for index, outcome in zip(cluster, outcomes):
                if not outcome.delivered:
                    mask[index].discard(site_index)
    return mask


class OpaquePathLoss:
    """A path-loss model without ``loss_db_from_distance``.

    Forces ``site_power_columns`` onto its scalar per-device fallback,
    the branch real models with shadowing (or no closed distance-only
    form) take.
    """

    def __init__(self, inner):
        self._inner = inner

    def loss_db(self, tx: Position, rx: Position) -> float:
        return self._inner.loss_db(tx, rx)


class _StubDevice:
    def __init__(self, name: str, position: Position):
        self.name = name
        self.position = position


class _StubWorld:
    """The slice of LoRaWanWorld the collision sweep reads."""

    def __init__(self, sites: list[GatewaySite], devices: dict):
        self.sites = sites
        self.devices = devices

    def site_columns(self):
        xyz = np.array(
            [[s.position.x, s.position.y, s.position.z] for s in self.sites], dtype=float
        )
        return self.sites, xyz


def _transmission(name, emission_s, sf, tx_power_dbm):
    air = airtime_s(14, sf)
    return UplinkTransmission(
        device_name=name,
        dev_addr=0,
        mac_bytes=b"",
        phy_frame=None,
        request_time_s=emission_s,
        emission_time_s=emission_s,
        fb_hz=0.0,
        tx_power_dbm=tx_power_dbm,
        spreading_factor=sf,
        airtime_s=air,
    )


# Discrete grids manufacture exact ties: mirrored positions give two
# devices identical distances (identical received powers) at a site, and
# the coarse power ladder lands rivals exactly on the capture threshold.
_POSITION_GRID = st.tuples(
    st.sampled_from([-200.0, -50.0, 0.0, 50.0, 200.0]),
    st.sampled_from([-200.0, 0.0, 200.0]),
)
_FRAME = st.tuples(
    _POSITION_GRID,
    st.sampled_from([7, 8, 9, 10, 11, 12]),
    st.sampled_from([8.0, 14.0, 14.0, 20.0]),
    # Emission offsets quantized to ~one SF7 airtime so frames tie,
    # overlap partially, or just miss each other's intervals.
    st.integers(min_value=0, max_value=8),
)
_PATHLOSS = st.sampled_from(["fixed", "logdistance", "opaque"])


def _build_case(site_specs, frames, pathloss_kind):
    if pathloss_kind == "fixed":
        model = FixedPathLoss(value_db=80.0)
    elif pathloss_kind == "logdistance":
        model = LogDistancePathLoss(exponent=2.5)
    else:
        model = OpaquePathLoss(LogDistancePathLoss(exponent=2.5))
    link = LinkBudget(pathloss=model)
    sites = [
        GatewaySite(gateway_id=f"gw{i}", position=Position(x, y, 15.0), link=link)
        for i, (x, y) in enumerate(site_specs)
    ]
    devices = {}
    staged = []
    for i, ((x, y), sf, power, slot) in enumerate(frames):
        name = f"dev{i}"
        devices[name] = _StubDevice(name, Position(x, y, 1.0))
        emission = slot * airtime_s(14, 7) / 2.0
        staged.append(StagedTransmission(name, _transmission(name, emission, sf, power)))
    return _StubWorld(sites, devices), staged


@settings(max_examples=120, deadline=None)
@given(
    site_specs=st.lists(_POSITION_GRID, min_size=1, max_size=3),
    frames=st.lists(_FRAME, min_size=1, max_size=7),
    pathloss_kind=_PATHLOSS,
    threshold=st.sampled_from([0.0, 6.0]),
)
def test_vectorized_sweep_matches_reference(site_specs, frames, pathloss_kind, threshold):
    world, staged = _build_case(site_specs, frames, pathloss_kind)
    capture_matrix = InterSfCaptureMatrix(co_sf_db=threshold)
    fast = surviving_sites(world, staged, capture_matrix)
    slow = surviving_sites_reference(world, staged, capture_matrix)
    assert fast == slow


@settings(max_examples=40, deadline=None)
@given(
    sf_pair=st.tuples(
        st.sampled_from([7, 8, 9, 10, 11, 12]), st.sampled_from([7, 8, 9, 10, 11, 12])
    ),
    overlap_half_slots=st.integers(min_value=0, max_value=3),
)
def test_mirrored_tie_matches_reference(sf_pair, overlap_half_slots):
    """Two mirrored devices, equal powers, (partially) overlapping frames.

    The geometry pins both received powers exactly equal at the central
    site, so survival rides entirely on the threshold comparison's
    boundary -- the case a vectorized reimplementation most easily gets
    wrong by one ulp or one strictness flip.
    """
    site_specs = [(0.0, 0.0)]
    frames = [
        ((200.0, 0.0), sf_pair[0], 14.0, 0),
        ((-200.0, 0.0), sf_pair[1], 14.0, overlap_half_slots),
    ]
    world, staged = _build_case(site_specs, frames, "logdistance")
    capture_matrix = InterSfCaptureMatrix(co_sf_db=6.0)
    assert surviving_sites(world, staged, capture_matrix) == surviving_sites_reference(
        world, staged, capture_matrix
    )

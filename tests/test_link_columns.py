"""Property tests: one link arithmetic for the scalar and column paths.

Each closed-form path-loss model writes its loss once, with libm's
``log10``, so its scalar ``loss_db`` equals ``loss_db_from_distance``
bit for bit.  Events mode therefore reads exactly the link columns
counters mode caches in :class:`~repro.sim.columnar.FleetState`: the
SNR a gateway forward carries is the power column minus the site noise
floor, and its arrival is the emission plus the delay column.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.softlora import SoftLoRaGateway
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import LinkBudget
from repro.radio.geometry import Position
from repro.radio.pathloss import FreeSpacePathLoss, LogDistancePathLoss
from repro.server import NetworkServer
from repro.sim.columnar import FleetState
from repro.sim.network import EventKind, LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.scenarios import build_fleet

_EXPONENTS = st.floats(min_value=1.6, max_value=4.5)
_GAINS = st.floats(min_value=-3.0, max_value=9.0)
_XY = st.floats(min_value=-4000.0, max_value=4000.0)
_POSITION = st.builds(Position, _XY, _XY, st.floats(min_value=0.0, max_value=40.0))
_LINK = st.builds(
    LinkBudget,
    pathloss=st.builds(LogDistancePathLoss, exponent=_EXPONENTS),
    tx_antenna_gain_db=_GAINS,
    rx_antenna_gain_db=_GAINS,
)


@settings(max_examples=200, deadline=None)
@given(
    # Distances straddle 1 m (free space's clamp) and every reference
    # distance drawn below, including 0 and sub-metre links.
    distances=st.lists(st.floats(min_value=0.0, max_value=2e5), min_size=1, max_size=16),
    exponent=_EXPONENTS,
    reference_distance_m=st.floats(min_value=0.05, max_value=500.0),
    carrier_hz=st.sampled_from([433.05e6, 868.1e6, 869.75e6, 915e6]),
)
def test_scalar_loss_equals_column_loss_bitwise(
    distances, exponent, reference_distance_m, carrier_hz
):
    origin = Position(0.0)
    models = (
        FreeSpacePathLoss(carrier_hz=carrier_hz),
        LogDistancePathLoss(
            exponent=exponent, reference_distance_m=reference_distance_m, carrier_hz=carrier_hz
        ),
    )
    for model in models:
        column = model.loss_db_from_distance(
            np.array([origin.distance_to(Position(d)) for d in distances])
        )
        scalar = [model.loss_db(origin, Position(d)) for d in distances]
        assert column.tolist() == scalar, type(model).__name__


def test_reference_loss_is_evaluated_once_per_model(monkeypatch):
    calls = []
    free_space = FreeSpacePathLoss.loss_db_from_distance

    def counting(self, distance_m):
        calls.append(self)
        return free_space(self, distance_m)

    monkeypatch.setattr(FreeSpacePathLoss, "loss_db_from_distance", counting)
    model = LogDistancePathLoss(exponent=2.7, reference_distance_m=3.0)
    origin = Position(0.0)
    scalar = [model.loss_db(origin, Position(d)) for d in (1.0, 50.0, 900.0)]
    column = [model.loss_db_from_distance(np.array([1.0, 50.0, 900.0])) for _ in range(3)]
    assert len(calls) == 1
    for losses in column:
        assert losses.tolist() == scalar
    # A model with a given PL(d0) never evaluates free space.
    LogDistancePathLoss(reference_loss_db=40.0).loss_db(origin, Position(10.0))
    assert len(calls) == 1


def _world(devices, links, gateway_positions):
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(
            config=ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6),
            commodity=CommodityGateway(),
        ),
        gateway_position=gateway_positions[0],
        link=links[0],
        rng=np.random.default_rng(0),
    )
    for position, link in zip(gateway_positions[1:], links[1:]):
        world.add_gateway(position, link=link)
    world.attach_server(NetworkServer())
    for device in devices:
        world.add_device(device)
    return world


@settings(max_examples=40, deadline=None)
@given(
    device_positions=st.lists(_POSITION, min_size=1, max_size=4),
    gateways=st.lists(st.tuples(_POSITION, _LINK), min_size=1, max_size=4),
)
def test_events_mode_reads_the_fleet_state_columns(device_positions, gateways):
    devices = build_fleet(n_devices=len(device_positions), streams=RngStreams(5))
    for device, position in zip(devices, device_positions):
        device.position = position
    world = _world(devices, [link for _, link in gateways], [p for p, _ in gateways])
    state = FleetState.from_world(world)
    snr = state.powers_dbm - state.site_noise[None, :]
    forwards = []
    process_step = world.server.process_step

    def recording_step(step):
        forwards.extend(step)
        return process_step(step)

    world.server.process_step = recording_step
    events = world.uplink_batch(request_time_s=10.0)

    gateway_ids = [site.gateway_id for site in world.sites]
    by_frame = {}
    for forward in forwards:
        by_frame.setdefault(forward.mac_bytes, []).append(forward)
    for row, event in enumerate(events):
        tx = event.transmission
        assert event.snr_db == snr[row].max()
        heard = by_frame.get(tx.mac_bytes, [])
        assert event.kind is (EventKind.DELIVERED if heard else EventKind.LOST_LOW_SNR)
        heard_sites = [gateway_ids.index(forward.gateway_id) for forward in heard]
        assert heard_sites == np.flatnonzero(state.in_range[row]).tolist()
        for forward in heard:
            site = gateway_ids.index(forward.gateway_id)
            assert forward.snr_db == snr[row, site]
            assert forward.arrival_time_s == tx.emission_time_s + state.delays_s[row, site]
        if not heard:
            assert event.time_s == tx.emission_time_s + state.delays_s[row].min()

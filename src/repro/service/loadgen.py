"""Fleet-driven load generator for the network-server daemon.

Replays a simulated fleet's gateway traffic over a *real* UDP socket so
the daemon can be exercised -- and benchmarked -- end to end:

1. :func:`build_plan` runs a scheduled fleet
   (:func:`~repro.sim.scenarios.build_fleet` +
   :class:`~repro.sim.columnar.ColumnarRuntime`) against a
   :class:`RecordingNetworkServer`, capturing every
   :meth:`~repro.server.NetworkServer.process_step` forward batch *and*
   the verdicts the in-process server issued for it -- the oracle a
   daemon fed the same stream must match bit for bit;
2. :meth:`LoadPlan.provision` re-registers the same devices and FB
   bootstrap profiles on a fresh server (the daemon's), so both judges
   start from identical state;
3. :func:`replay` ships the recorded batches through the Semtech UDP
   codec -- one ``PUSH_DATA`` per gateway per batch, closed by a
   ``stat`` beacon that marks the delivery-window boundary -- awaiting
   each ``PUSH_ACK`` so datagrams cannot reorder in flight.

The ``stat`` beacon is the load generator's stand-in for wall-clock
batching: it tells the daemon "this delivery window is complete", the
exact boundary :class:`~repro.sim.columnar.ColumnarRuntime` used in
process.  Against real forwarders the daemon falls back to its
``linger_s`` / ``max_hold_s`` timers instead.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.core.softlora import SoftLoRaGateway
from repro.errors import DecodeError
from repro.lorawan.gateway import CommodityGateway
from repro.lorawan.security import SessionKeys
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import LinkBudget
from repro.radio.geometry import Position
from repro.radio.pathloss import LogDistancePathLoss
from repro.server.forwarding import GatewayForward
from repro.server.network_server import NetworkServer, ServerVerdict
from repro.server.store import store_batch
from repro.service.semtech import (
    PullAck,
    PullData,
    PushAck,
    PushData,
    decode_datagram,
    encode_datagram,
    eui_from_gateway_id,
    rxpk_from_forward,
)
from repro.sim.columnar import ColumnarRuntime
from repro.sim.network import LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.scenarios import build_fleet
from repro.sim.traffic import PeriodicTrafficModel

#: Max rxpk entries packed into one PUSH_DATA (keeps datagrams small).
RXPK_CHUNK = 16


class RecordingNetworkServer(NetworkServer):
    """A :class:`NetworkServer` that remembers every forward batch it judged.

    The recorded ``batches`` are the exact inputs (and implicit batch
    boundaries) the simulation fed ``process_step``; replaying them into
    another identically-provisioned server must reproduce ``verdicts``
    exactly.
    """

    def __post_init__(self) -> None:
        """Initialize the wrapped server and the batch log."""
        super().__post_init__()
        self.batches: list[list[GatewayForward]] = []

    def process_step(self, forwards) -> list[ServerVerdict]:
        """Record the batch, then judge it normally."""
        batch = list(forwards)
        self.batches.append(batch)
        return super().process_step(batch)


@dataclass(frozen=True)
class LoadPlan:
    """A recorded fleet run, ready to replay against a daemon.

    Attributes:
        registrations: ``(dev_addr, keys)`` pairs to provision.
        profiles: ``(dev_addr, fb_estimates)`` offline FB bootstraps.
        batches: Forward batches in delivery-window order.
        oracle_verdicts: The in-process verdicts, serialized
            (:meth:`~repro.server.network_server.ServerVerdict.as_dict`),
            in issue order -- the golden stream.
        gateway_ids: Every gateway id appearing in the batches.
    """

    registrations: tuple[tuple[int, SessionKeys], ...]
    profiles: tuple[tuple[int, tuple[float, ...]], ...]
    batches: tuple[tuple[GatewayForward, ...], ...]
    oracle_verdicts: tuple[dict, ...]
    gateway_ids: tuple[str, ...]

    @property
    def n_forwards(self) -> int:
        """Total gateway forwards across every batch."""
        return sum(len(batch) for batch in self.batches)

    def provision(self, server: NetworkServer) -> None:
        """Give a fresh server the same devices and FB profiles.

        Profiles bootstrap only nodes whose store has no samples yet:
        when the server sits on a persistent FB store that survived a
        restart, the history already contains these estimates (plus
        everything learned since) and recording them again would shift
        the acceptance intervals.  All profiles are written in one
        store transaction.
        """
        for dev_addr, keys in self.registrations:
            server.register_device(dev_addr, keys)
        database = server.detector.database
        with store_batch(database):
            for dev_addr, estimates in self.profiles:
                if database.sample_count(f"{dev_addr:08x}") == 0:
                    server.bootstrap_fb_profile(dev_addr, list(estimates))


def new_server(adr=None) -> NetworkServer:
    """A network server in the canonical daemon configuration.

    Args:
        adr: Optional :class:`~repro.server.adr.AdrController` to close
            the rate-adaptation loop over the daemon's PULL_RESP path.
    """
    return NetworkServer(adr=adr)


def build_plan(
    n_devices: int = 20,
    n_gateways: int = 2,
    seed: int = 7,
    period_s: float = 60.0,
    clean_s: float = 120.0,
    attack_s: float = 120.0,
    n_attacked: int = 3,
    attack_delay_s: float = 90.0,
) -> LoadPlan:
    """Run a scheduled fleet in process and record its forward stream.

    The run has a clean phase followed by a frame-delay-attack phase
    against ``n_attacked`` devices, so the replayed stream exercises
    every verdict path: accepted uplinks, gateway dedup, and FB-flagged
    replays.
    """
    from repro.attack import FrameDelayAttack, Replayer, StealthyJammer

    streams = RngStreams(seed)
    devices = build_fleet(n_devices=n_devices, streams=streams, ring_radius_m=300.0)
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(
            config=ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6),
            commodity=CommodityGateway(),
        ),
        gateway_position=Position(200.0, 0.0, 15.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=2.0)),
        rng=streams.stream("world"),
    )
    for extra in range(1, n_gateways):
        world.add_gateway(Position(-200.0 * extra, 0.0, 15.0))
    for device in devices:
        world.add_device(device)
    recording = RecordingNetworkServer()
    world.attach_server(recording)

    profile_rng = streams.stream("profiles")
    profiles = []
    for device in devices:
        estimates = tuple(
            device.fb_hz + float(e) for e in profile_rng.normal(0.0, 15.0, 5)
        )
        recording.bootstrap_fb_profile(device.dev_addr, list(estimates))
        profiles.append((device.dev_addr, estimates))

    runtime = ColumnarRuntime(
        world,
        PeriodicTrafficModel(
            period_s=period_s, jitter_s=period_s / 4.0, rng=streams.stream("traffic")
        ),
        window_s=2.0,
    )
    runtime.run(clean_s)
    if n_attacked > 0 and attack_s > 0:
        attack = FrameDelayAttack(
            jammer=StealthyJammer(),
            replayer=Replayer.single_usrp(streams.stream("replayer")),
        )
        targets = [d.name for d in devices[:n_attacked]]
        world.arm_attack(attack, targets, delay_s=attack_delay_s)
        runtime.run(attack_s)

    return LoadPlan(
        registrations=tuple((d.dev_addr, d.keys) for d in devices),
        profiles=tuple(profiles),
        batches=tuple(tuple(batch) for batch in recording.batches),
        oracle_verdicts=tuple(v.as_dict() for v in recording.verdicts),
        gateway_ids=tuple(site.gateway_id for site in world.sites),
    )


@dataclass
class ReplayStats:
    """What one :func:`replay` call put on the wire."""

    batches_sent: int = 0
    datagrams_sent: int = 0
    forwards_sent: int = 0
    acks_received: int = 0
    gateway_ids: tuple[str, ...] = ()


class _ClientProtocol(asyncio.DatagramProtocol):
    """Collects daemon responses (acks) into a queue."""

    def __init__(self):
        """Start with an empty inbox."""
        self.inbox: asyncio.Queue = asyncio.Queue()

    def datagram_received(self, data: bytes, addr) -> None:
        """Decode and enqueue one daemon response; drop undecodable noise."""
        try:
            self.inbox.put_nowait(decode_datagram(data))
        except DecodeError:
            pass


async def replay(
    plan: LoadPlan,
    host: str,
    port: int,
    ack_timeout_s: float = 5.0,
) -> ReplayStats:
    """Ship a plan's batches to a daemon over UDP; returns wire stats.

    Every ``PUSH_DATA`` is awaited for its ``PUSH_ACK`` before the next
    datagram goes out, so the daemon observes batches in plan order even
    though UDP itself promises nothing.  Each batch is closed with a
    ``stat``-bearing beacon marking the delivery-window boundary.
    """
    loop = asyncio.get_running_loop()
    transport, protocol = await loop.create_datagram_endpoint(
        _ClientProtocol, remote_addr=(host, port)
    )
    stats = ReplayStats(gateway_ids=plan.gateway_ids)
    token = 0
    try:
        for gateway_id in plan.gateway_ids:
            eui = eui_from_gateway_id(gateway_id)
            transport.sendto(encode_datagram(PullData(token=token, gateway_eui=eui)))
            stats.datagrams_sent += 1
            await _await_ack(protocol, token, ack_timeout_s, want=PullAck)
            stats.acks_received += 1
            token = (token + 1) % 65536
        tick_eui = eui_from_gateway_id(plan.gateway_ids[0])
        for batch in plan.batches:
            by_gateway: dict[str, list] = {}
            for forward in batch:
                by_gateway.setdefault(forward.gateway_id, []).append(forward)
            for gateway_id, forwards in by_gateway.items():
                eui = eui_from_gateway_id(gateway_id)
                for start in range(0, len(forwards), RXPK_CHUNK):
                    chunk = forwards[start : start + RXPK_CHUNK]
                    push = PushData(
                        token=token,
                        gateway_eui=eui,
                        rxpks=tuple(rxpk_from_forward(f) for f in chunk),
                    )
                    transport.sendto(encode_datagram(push))
                    stats.datagrams_sent += 1
                    stats.forwards_sent += len(chunk)
                    await _await_ack(protocol, token, ack_timeout_s)
                    stats.acks_received += 1
                    token = (token + 1) % 65536
            beacon = PushData(
                token=token,
                gateway_eui=tick_eui,
                rxpks=(),
                stat={"rxnb": len(batch)},
            )
            transport.sendto(encode_datagram(beacon))
            stats.datagrams_sent += 1
            await _await_ack(protocol, token, ack_timeout_s)
            stats.acks_received += 1
            token = (token + 1) % 65536
            stats.batches_sent += 1
    finally:
        transport.close()
    return stats


async def _await_ack(
    protocol: _ClientProtocol, token: int, timeout_s: float, want=PushAck
) -> None:
    """Wait for the token-matching ack, skipping unrelated daemon traffic."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while True:
        remaining = deadline - asyncio.get_running_loop().time()
        if remaining <= 0:
            raise TimeoutError(f"no ack within {timeout_s} s (token {token})")
        message = await asyncio.wait_for(protocol.inbox.get(), remaining)
        if isinstance(message, want) and message.token == token:
            return

"""The network-server daemon: Semtech UDP in, fused replay verdicts out.

:class:`NetworkServerDaemon` turns the in-process
:class:`~repro.server.NetworkServer` into a long-running asyncio service
with the shape real LoRaWAN network servers have:

1. **front end** -- an asyncio datagram endpoint speaks the Semtech UDP
   packet-forwarder protocol (:mod:`repro.service.semtech`): every
   ``PUSH_DATA`` is acknowledged immediately with a token-echoing
   ``PUSH_ACK``, ``PULL_DATA`` keep-alives register the gateway's
   downlink address, and per-EUI :class:`GatewaySession` records track
   who is forwarding;
2. **inline batching** -- the datagram callback appends each decoded
   forward to the open batch (at most ``queue_limit`` forwards await
   resolution; overload sheds, counted, never blocking the receive path)
   and resolves it through :meth:`NetworkServer.process_step` on the
   spot when a gateway ``stat`` beacon (the load generator's window
   tick) arrives or a forward reaches ``max_hold_s``; one ``call_at``
   deadline timer per open batch closes it after ``linger_s`` of ingest
   silence or at ``max_hold_s``.  Cross-gateway copies of one
   transmission thus resolve together, and verdicts are bit-identical to
   driving the wrapped server in process (golden-pinned in
   ``tests/test_service_daemon.py``);
3. **control plane** -- the REST/SSE endpoints of
   :mod:`repro.service.rest` ride on top: device state, paged verdicts,
   health, Prometheus ``/metrics``, and a live ``/alerts`` stream fed by
   this module's :class:`AlertBroker` on every ``attack_detected``
   verdict;
4. **downlink path** -- when the wrapped server runs an
   :class:`~repro.server.adr.AdrController`, queued ``LinkADRReq``
   commands leave as ``PULL_RESP`` datagrams through a polling gateway's
   registered downlink address, with in-flight commands gauged on
   ``/metrics``.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, DecodeError
from repro.lorawan.downlink import build_downlink
from repro.server.forwarding import GatewayForward
from repro.server.network_server import NetworkServer, ServerStatus
from repro.server.store import store_batch, store_stats
from repro.service.config import ServiceConfig
from repro.service.metrics import MetricsRegistry
from repro.service.rest import ControlPlane
from repro.service.semtech import (
    PacketType,
    PullAck,
    PullData,
    PullResp,
    PushAck,
    PushData,
    TxAck,
    decode_datagram,
    encode_datagram,
    forward_from_rxpk,
    gateway_id_from_eui,
    txpk_for_downlink,
)

_log = logging.getLogger("repro.service")


@dataclass
class GatewaySession:
    """Liveness and addressing state of one forwarding gateway EUI."""

    eui: bytes
    gateway_id: str
    push_addr: tuple[str, int] | None = None
    pull_addr: tuple[str, int] | None = None
    last_seen_s: float = 0.0
    push_count: int = 0
    pull_count: int = 0
    forward_count: int = 0

    def as_dict(self) -> dict:
        """JSON-safe session summary for ``/healthz``."""
        return {
            "gateway_id": self.gateway_id,
            "eui": self.eui.hex(),
            "push_count": self.push_count,
            "pull_count": self.pull_count,
            "forward_count": self.forward_count,
            "downlink_ready": self.pull_addr is not None,
            "last_seen_s": self.last_seen_s,
        }


class AlertBroker:
    """Fan-out of detection alerts to ``/alerts`` SSE subscribers.

    Publishing never blocks ingest: a subscriber whose buffer is
    full loses the event (counted by the caller), exactly like a slow
    Prometheus scraper loses samples rather than stalling the service.
    """

    def __init__(self, queue_limit: int):
        """Create a broker whose subscribers buffer ``queue_limit`` alerts."""
        self.queue_limit = queue_limit
        self._subscribers: list[asyncio.Queue] = []

    def subscribe(self) -> asyncio.Queue:
        """Register one subscriber; returns its buffered alert queue."""
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.queue_limit)
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Drop one subscriber (idempotent)."""
        if queue in self._subscribers:
            self._subscribers.remove(queue)

    @property
    def subscriber_count(self) -> int:
        """Currently connected subscribers."""
        return len(self._subscribers)

    def publish(self, alert: dict) -> int:
        """Offer one alert to every subscriber; returns how many were dropped."""
        dropped = 0
        for queue in self._subscribers:
            try:
                queue.put_nowait(alert)
            except asyncio.QueueFull:
                dropped += 1
        return dropped


class _SemtechProtocol(asyncio.DatagramProtocol):
    """Datagram glue: hand every received packet to the daemon."""

    def __init__(self, daemon: "NetworkServerDaemon"):
        """Bind the protocol to its daemon."""
        self.daemon = daemon
        self.transport: asyncio.DatagramTransport | None = None

    def connection_made(self, transport) -> None:
        """Remember the transport so the daemon can send replies."""
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        """Forward one raw datagram to the daemon's handler."""
        self.daemon.handle_datagram(data, addr)


@dataclass
class NetworkServerDaemon:
    """Asyncio service wrapping one :class:`NetworkServer` (see module docs).

    Attributes:
        server: The wrapped resolution point; its ``verdicts`` list is
            the source of truth the control plane pages through.
        config: Operational knobs (:class:`ServiceConfig`).
        metrics: The Prometheus registry behind ``GET /metrics``.
        alerts: The ``/alerts`` fan-out broker.
        sessions: Per-EUI gateway sessions, keyed by the wire EUI.
    """

    server: NetworkServer
    config: ServiceConfig = field(default_factory=ServiceConfig)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    alerts: AlertBroker = field(init=False)
    sessions: dict[bytes, GatewaySession] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Register the metric families and the internal batching state."""
        self.alerts = AlertBroker(self.config.alert_queue_limit)
        self._pending: list[GatewayForward] = []
        self._first_arrival_s = 0.0
        self._last_arrival_s = 0.0
        self._deadline: asyncio.TimerHandle | None = None
        self._drained = asyncio.Event()
        self._drained.set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._transport: asyncio.DatagramTransport | None = None
        self._control: ControlPlane | None = None
        self._started_s: float | None = None
        m = self.metrics
        self._m_datagrams = m.counter(
            "repro_service_datagrams_total", "UDP datagrams received, by packet type."
        )
        self._m_malformed = m.counter(
            "repro_service_malformed_datagrams_total",
            "Datagrams or rxpk entries rejected by the Semtech codec.",
        )
        self._m_uplinks = m.counter(
            "repro_service_uplinks_total", "Gateway forwards accepted into the open batch."
        )
        self._m_overflow = m.counter(
            "repro_service_queue_overflow_total",
            "Forwards shed because queue_limit forwards already awaited resolution.",
        )
        self._m_depth = m.gauge(
            "repro_service_queue_depth", "Forwards currently awaiting resolution."
        )
        self._m_batches = m.counter(
            "repro_service_batches_total", "Batches resolved through process_step."
        )
        self._m_flush_errors = m.counter(
            "repro_service_flush_errors_total",
            "Batches dropped because resolving them through process_step raised.",
        )
        self._m_verdicts = m.counter(
            "repro_service_verdicts_total", "Fused verdicts issued, by final status."
        )
        self._m_dedup = m.gauge(
            "repro_service_dedup_copies_per_uplink",
            "Mean gateway copies per resolved uplink (server-lifetime).",
        )
        self._m_uplink_rate = m.gauge(
            "repro_service_uplinks_per_s",
            "Forward ingest rate since daemon start (wall-clock mean).",
        )
        self._m_verdict_rate = m.gauge(
            "repro_service_verdicts_per_s",
            "Verdict issue rate since daemon start (wall-clock mean).",
        )
        self._m_gateways = m.gauge(
            "repro_service_gateways_seen", "Distinct gateway EUIs with a live session."
        )
        self._m_adr_inflight = m.gauge(
            "repro_service_adr_commands_in_flight",
            "LinkADRReq commands dispatched as PULL_RESP and not yet TX_ACKed.",
        )
        self._m_adr_sent = m.counter(
            "repro_service_adr_pull_resp_total",
            "LinkADRReq downlinks dispatched as PULL_RESP datagrams.",
        )
        self._m_adr_undeliverable = m.counter(
            "repro_service_adr_undeliverable_total",
            "ADR commands dropped for lack of a polling gateway or session keys.",
        )
        self._m_alerts = m.counter(
            "repro_service_alerts_total", "attack_detected alerts published to /alerts."
        )
        self._m_alerts_dropped = m.counter(
            "repro_service_alerts_dropped_total",
            "Alerts lost to full subscriber buffers on /alerts.",
        )
        self._m_subscribers = m.gauge(
            "repro_service_alert_subscribers", "Currently connected /alerts subscribers."
        )
        self._m_store_nodes = m.gauge(
            "repro_service_store_nodes",
            "Devices with recorded FB history in the detector's store.",
        )
        self._m_store_flush = m.gauge(
            "repro_service_store_flush_seconds",
            "Commit (flush) latency of the last store-wrapped batch.",
        )
        self._m_store_batches = m.counter(
            "repro_service_store_batches_total",
            "Dedup-window transactions committed to the FB store.",
        )

    # -- lifecycle ----------------------------------------------------------------

    @property
    def udp_port(self) -> int:
        """The bound UDP port (resolves ``udp_port=0`` after :meth:`start`)."""
        if self._transport is None:
            raise ConfigurationError("daemon not started")
        return self._transport.get_extra_info("sockname")[1]

    @property
    def http_port(self) -> int:
        """The bound control-plane port (resolves ``http_port=0`` after start)."""
        if self._control is None:
            raise ConfigurationError("daemon not started")
        return self._control.port

    @property
    def uptime_s(self) -> float:
        """Event-loop seconds since :meth:`start` (0.0 before)."""
        return 0.0 if self._started_s is None else self._loop.time() - self._started_s

    async def start(self) -> None:
        """Bind the UDP front end and the control plane."""
        if self._transport is not None:
            raise ConfigurationError("daemon already started")
        self._loop = loop = asyncio.get_running_loop()
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: _SemtechProtocol(self),
            local_addr=(self.config.udp_host, self.config.udp_port),
        )
        self._control = ControlPlane(self)
        await self._control.start()
        self._started_s = loop.time()
        # A durable store reloads its nodes before any batch flows;
        # publish them immediately so a freshly booted daemon's gauges
        # reflect the reloaded state, not zero.
        self._update_store_metrics()

    async def stop(self) -> None:
        """Resolve the open batch, sync the FB store, and tear endpoints down.

        A durable store gets a final ``flush()`` (e.g. a WAL checkpoint)
        so the on-disk file is complete at shutdown; the store stays
        open -- whoever built it owns closing it -- and a restarted
        daemon pointed at the same store resumes verdict-bit-identically.
        """
        if self._transport is not None:
            self._flush()
        if self._control is not None:
            await self._control.stop()
            self._control = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        flush = getattr(self.server.detector.database, "flush", None)
        if callable(flush):
            flush()

    async def drain(self, timeout_s: float = 30.0) -> None:
        """Wait until every accepted forward has been resolved to a verdict."""
        try:
            await asyncio.wait_for(self._drained.wait(), timeout_s)
        except asyncio.TimeoutError:
            raise TimeoutError(f"daemon did not drain within {timeout_s} s") from None

    # -- UDP front end ------------------------------------------------------------

    def handle_datagram(self, data: bytes, addr: tuple[str, int]) -> None:
        """Decode and dispatch one datagram (malformed input only counts)."""
        try:
            message = decode_datagram(data)
        except DecodeError:
            self._m_malformed.inc()
            return
        if isinstance(message, PushData):
            self._m_datagrams.inc(labels={"type": PacketType.PUSH_DATA.name})
            self._send(PushAck(token=message.token), addr)
            self._on_push_data(message, addr)
        elif isinstance(message, PullData):
            self._m_datagrams.inc(labels={"type": PacketType.PULL_DATA.name})
            self._send(PullAck(token=message.token), addr)
            session = self._session(message.gateway_eui)
            session.pull_addr = addr
            session.pull_count += 1
            session.last_seen_s = self._now()
        elif isinstance(message, TxAck):
            self._m_datagrams.inc(labels={"type": PacketType.TX_ACK.name})
            # A duplicate or unsolicited ack settles no command in flight.
            self._m_adr_inflight.set(max(0.0, self._m_adr_inflight.get() - 1.0))
        else:
            # PUSH_ACK / PULL_ACK / PULL_RESP are server-to-gateway
            # messages; arriving here they are protocol misuse.
            self._m_malformed.inc()

    def _on_push_data(self, message: PushData, addr: tuple[str, int]) -> None:
        now = self._now()
        session = self._session(message.gateway_eui)
        session.push_addr = addr
        session.push_count += 1
        session.last_seen_s = now
        for rxpk in message.rxpks:
            try:
                forward = forward_from_rxpk(session.gateway_id, rxpk)
            except DecodeError:
                self._m_malformed.inc()
                continue
            if len(self._pending) >= self.config.queue_limit:
                self._m_overflow.inc()
                continue
            if not self._pending:
                self._first_arrival_s = now
                self._drained.clear()
            if self._deadline is None and self._loop is not None:
                self._deadline = self._loop.call_at(now + self.config.linger_s, self._on_deadline)
            self._pending.append(forward)
            self._last_arrival_s = now
            session.forward_count += 1
            self._m_uplinks.inc()
            if now - self._first_arrival_s >= self.config.max_hold_s:
                self._flush()
        if message.stat is not None:
            # A gateway status beacon doubles as the ingest stream's
            # window tick: everything forwarded before it resolves now.
            self._flush()
        self._m_depth.set(len(self._pending))

    def _now(self) -> float:
        # Before start() there is no loop; the default event loop reads this clock.
        return time.monotonic() if self._loop is None else self._loop.time()

    def _session(self, eui: bytes) -> GatewaySession:
        session = self.sessions.get(eui)
        if session is None:
            session = GatewaySession(eui=bytes(eui), gateway_id=gateway_id_from_eui(eui))
            self.sessions[eui] = session
            self._m_gateways.set(len(self.sessions))
        return session

    def _send(self, message, addr: tuple[str, int]) -> None:
        if self._transport is not None:
            self._transport.sendto(encode_datagram(message), addr)

    # -- batching -------------------------------------------------------------------

    def _on_deadline(self) -> None:
        """Close the open batch at its deadline; re-arm if forwards moved it."""
        due = min(
            self._last_arrival_s + self.config.linger_s,
            self._first_arrival_s + self.config.max_hold_s,
        )
        if due > self._deadline.when():
            self._deadline = self._loop.call_at(due, self._on_deadline)
        else:
            self._flush()

    def _flush(self) -> None:
        """Resolve the open batch through the wrapped server.

        The resolution runs inside one FB-store transaction
        (:func:`repro.server.store.store_batch`), so a durable store
        commits the whole dedup window's verdicts atomically -- a crash
        between windows never leaves a half-written history -- and the
        commit latency lands on ``/metrics``.  A batch whose resolution
        raises is logged, counted and dropped; the daemon keeps serving.
        """
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        batch, self._pending = self._pending, []
        if batch:
            try:
                self._resolve(batch)
            except Exception:
                self._m_flush_errors.inc()
                _log.exception("dropped a batch of %d forwards: resolution failed", len(batch))
        if self.server.adr is not None:
            self._send_adr_downlinks()
        self._m_depth.set(0)
        self._drained.set()

    def _resolve(self, batch: list[GatewayForward]) -> None:
        with store_batch(self.server.detector.database):
            verdicts = self.server.process_step(batch)
            commit_start = time.perf_counter()
        self._m_store_flush.set(time.perf_counter() - commit_start)
        self._m_store_batches.inc()
        self._update_store_metrics()
        self._m_batches.inc()
        for verdict in verdicts:
            self._m_verdicts.inc(labels={"status": verdict.status.value})
            if verdict.status is ServerStatus.REPLAY_DETECTED:
                self._publish_alert(verdict)

    def _update_store_metrics(self) -> None:
        """Refresh the FB-store node gauge from the live store."""
        self._m_store_nodes.set(self.server.detector.database.node_count())

    def _publish_alert(self, verdict) -> None:
        alert = verdict.as_dict()
        alert["uptime_s"] = self.uptime_s
        self._m_alerts.inc()
        dropped = self.alerts.publish(alert)
        if dropped:
            self._m_alerts_dropped.inc(dropped)
        self._m_subscribers.set(self.alerts.subscriber_count)

    # -- ADR downlink dispatch ------------------------------------------------------

    def _send_adr_downlinks(self) -> None:
        """Ship queued LinkADRReq commands as PULL_RESP downlink orders.

        The command leaves through a gateway that polled for downlinks
        (``PULL_DATA``); without one -- or without session keys for the
        device -- the command is returned to the controller as dropped so
        it re-arms, mirroring the simulator's duty-cycle drop path.
        """
        commands = self.server.adr.take_pending()
        if not commands:
            return
        pollers = [s for s in self.sessions.values() if s.pull_addr is not None]
        for index, command in enumerate(commands):
            keys = self.server.mac.keys_for(command.dev_addr)
            if not pollers or keys is None:
                self._m_adr_undeliverable.inc()
                self.server.adr.command_dropped(command.dev_addr)
                continue
            session = pollers[index % len(pollers)]
            raw = build_downlink(
                keys,
                command.dev_addr,
                self.server.adr.next_fcnt_down(command.dev_addr),
                payload=command.request.encode(),
                fport=0,
            )
            sf = self.server.adr.last_sf(command.dev_addr) or 12
            resp = PullResp(token=index & 0xFFFF, txpk=txpk_for_downlink(raw, sf))
            self._send(resp, session.pull_addr)
            self._m_adr_sent.inc()
            self._m_adr_inflight.inc()

    # -- control-plane queries ------------------------------------------------------

    def render_metrics(self) -> str:
        """The ``/metrics`` body, with the dedup and rate gauges computed now."""
        self._m_dedup.set(self.server.dedup_rate)
        elapsed = self.uptime_s
        if elapsed > 0:
            self._m_uplink_rate.set(self._m_uplinks.total() / elapsed)
            self._m_verdict_rate.set(self._m_verdicts.total() / elapsed)
        return self.metrics.render()

    def health(self) -> dict:
        """The ``/healthz`` body: liveness plus ingest/session/store summary."""
        return {
            "status": "ok",
            "uptime_s": self.uptime_s,
            "queue_depth": len(self._pending),
            "uplinks_total": int(self._m_uplinks.total()),
            "verdicts_total": len(self.server.verdicts),
            "gateways": [s.as_dict() for s in self.sessions.values()],
            "store": store_stats(self.server.detector.database),
        }


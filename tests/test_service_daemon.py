"""The network-server daemon: golden verdicts, control plane, backpressure.

The central guarantee here is the ISSUE's acceptance bar: a daemon fed
the same forward stream as an in-process server issues *bit-identical*
verdicts -- same statuses, same fused floats, same gateway evidence, in
the same order.  The loadgen's recorded oracle makes that a strict
equality over ``ServerVerdict.as_dict()`` streams.
"""

import asyncio
import dataclasses
import json
import logging
import time

import pytest

from repro.core.detector import FbDatabase, ReplayDetector
from repro.lorawan.downlink import parse_downlink
from repro.lorawan.mac import LinkADRReq, parse_mac_commands
from repro.lorawan.security import SessionKeys
from repro.server import AdrController, NetworkServer
from repro.server.forwarding import GatewayForward
from repro.server.store import SqliteFbStore
from repro.service import (
    NetworkServerDaemon,
    ServiceConfig,
    build_plan,
    new_server,
    replay,
)
from repro.service import rest
from repro.service.semtech import (
    PROTOCOL_VERSION,
    PacketType,
    PullData,
    PullResp,
    PushData,
    TxAck,
    decode_datagram,
    encode_datagram,
    eui_from_gateway_id,
    rxpk_from_forward,
)

def loopback_config(**overrides) -> ServiceConfig:
    defaults = dict(udp_host="127.0.0.1", udp_port=0, http_host="127.0.0.1", http_port=0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def http_get(port: int, path: str) -> tuple[int, bytes]:
    """Minimal async HTTP GET against the daemon's control plane."""
    return await http_request(port, f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())


async def http_request(port: int, request: bytes) -> tuple[int, bytes]:
    """Send raw request bytes to the control plane; return (status, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, body


@pytest.fixture(scope="module")
def plan():
    """One recorded fleet run (clean + attack phases), shared per module."""
    return build_plan(n_devices=10, n_gateways=2, clean_s=90.0, attack_s=90.0)


async def make_daemon(plan, server=None, config=None) -> NetworkServerDaemon:
    """A started daemon provisioned with the plan's devices and profiles."""
    server = server if server is not None else new_server()
    plan.provision(server)
    daemon = NetworkServerDaemon(server=server, config=config or loopback_config())
    await daemon.start()
    return daemon


class _FakeClock:
    """Stands in for ``time.monotonic``, which ``loop.time()`` also reads."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


#: Loop turns granted after every schedule step, so whatever the daemon
#: reacts to (a datagram, a deadline the clock just passed) settles
#: before the clock moves again.
SETTLE_TURNS = 100


def _frame(fcnt: int) -> bytes:
    """A minimal unconfirmed-uplink PHYPayload whose FHDR carries ``fcnt``."""
    return (
        bytes([0x40])
        + (0x26000001).to_bytes(4, "little")
        + bytes([0x00])
        + fcnt.to_bytes(2, "little")
        + bytes([0x01, 0xAA])
        + bytes(4)
    )


def _push(gateway_id: str, fcnts, stat=None) -> bytes:
    rxpks = tuple(
        rxpk_from_forward(GatewayForward(gateway_id, _frame(f), 0.0, 0.0, 10.0)) for f in fcnts
    )
    eui = eui_from_gateway_id(gateway_id)
    return encode_datagram(PushData(token=1, gateway_eui=eui, rxpks=rxpks, stat=stat))


def _beacon() -> bytes:
    return _push("gw-0", (), stat={"rxnb": 0})


def _stream(settle_first: bool) -> list:
    """A forward every 0.7 s, alternating gateways: linger never fires.

    With ``settle_first`` the clock moves and the loop settles before
    each forward arrives, so a passed max-hold deadline closes the batch
    first; without it the forward arrives first and closes the batch.
    """
    steps = []
    for i in range(12):
        if settle_first:
            steps.append((0.7 * i, None))
        steps.append((0.7 * i, _push(f"gw-{i % 2}", (i,))))
    return steps + [(10.0, None)]


#: Arrival schedules as (seconds after start, datagram or None).  A step
#: sets the fake clock, hands the datagram (if any) to
#: ``handle_datagram`` at once, then lets the loop settle; a ``None``
#: step only moves the clock, so deadlines it passes fire before the
#: next datagram at the same time.  ``"stop"`` calls ``daemon.stop()``.
BATCH_SCHEDULES = {
    "beacon_closes_window": [
        (0.0, _beacon()),
        (0.1, _push("gw-0", (1, 2))),
        (0.2, _push("gw-1", (1, 2))),
        (0.3, _beacon()),
        (0.4, _push("gw-0", (3,))),
        (0.5, _beacon()),
        (0.6, _beacon()),
    ],
    "linger_gap_splits_window": [
        (0.0, _push("gw-0", (1,))),
        (0.5, _push("gw-1", (1,))),
        (1.25, None),
        (1.75, None),
        (1.75, _push("gw-0", (2,))),
        (2.0, _push("gw-1", (2,))),
        # Arrives after the linger deadline, before the loop turned to
        # notice it: the forward joins the open batch.
        (3.5, _push("gw-0", (3,))),
        (5.0, None),
    ],
    "max_hold_cuts_stream_on_arrival": _stream(settle_first=False),
    "max_hold_cuts_stream_on_deadline": _stream(settle_first=True),
    "beacon_shares_push_data": [
        (0.0, _push("gw-0", (1,))),
        (0.1, _push("gw-1", (1,), stat={"rxnb": 1})),
        (0.2, _push("gw-0", (2,))),
        (0.3, _push("gw-1", (2, 3), stat={"rxnb": 2})),
    ],
    "stop_flushes_pending": [
        (0.0, _push("gw-0", (1,))),
        (0.1, _beacon()),
        (0.2, _push("gw-0", (2, 3))),
        (0.3, _push("gw-1", (2,))),
        (0.4, "stop"),
    ],
}

#: Batch compositions (gateway, FCnt) recorded at the queue-and-worker
#: daemon these schedules were written against; linger 1 s, hold 3 s.
EXPECTED_BATCHES = {
    "beacon_closes_window": [
        [("gw-0", 1), ("gw-0", 2), ("gw-1", 1), ("gw-1", 2)],
        [("gw-0", 3)],
    ],
    "beacon_shares_push_data": [
        [("gw-0", 1), ("gw-1", 1)],
        [("gw-0", 2), ("gw-1", 2), ("gw-1", 3)],
    ],
    "linger_gap_splits_window": [
        [("gw-0", 1), ("gw-1", 1)],
        [("gw-0", 2), ("gw-1", 2), ("gw-0", 3)],
    ],
    "max_hold_cuts_stream_on_arrival": [
        [("gw-0", 0), ("gw-1", 1), ("gw-0", 2), ("gw-1", 3), ("gw-0", 4), ("gw-1", 5)],
        [("gw-0", 6), ("gw-1", 7), ("gw-0", 8), ("gw-1", 9), ("gw-0", 10), ("gw-1", 11)],
    ],
    "max_hold_cuts_stream_on_deadline": [
        [("gw-0", 0), ("gw-1", 1), ("gw-0", 2), ("gw-1", 3), ("gw-0", 4)],
        [("gw-1", 5), ("gw-0", 6), ("gw-1", 7), ("gw-0", 8), ("gw-1", 9)],
        [("gw-0", 10), ("gw-1", 11)],
    ],
    "stop_flushes_pending": [
        [("gw-0", 1)],
        [("gw-0", 2), ("gw-0", 3), ("gw-1", 2)],
    ],
}


def _run_schedule(monkeypatch, schedule) -> list[list[tuple[str, int]]]:
    clock = _FakeClock()
    monkeypatch.setattr(time, "monotonic", clock)
    start = clock.now
    batches = []

    async def run():
        daemon = NetworkServerDaemon(
            server=NetworkServer(),
            config=loopback_config(linger_s=1.0, max_hold_s=3.0),
        )
        await daemon.start()
        step = daemon.server.process_step

        def recorded(forwards):
            batches.append(
                [(f.gateway_id, int.from_bytes(f.mac_bytes[6:8], "little")) for f in forwards]
            )
            return step(forwards)

        daemon.server.process_step = recorded
        stopped = False
        for offset, datagram in schedule:
            clock.now = start + offset
            if datagram == "stop":
                await daemon.stop()
                stopped = True
                continue
            if datagram is not None:
                daemon.handle_datagram(datagram, ("127.0.0.1", 40000))
            for _ in range(SETTLE_TURNS):
                await asyncio.sleep(0)
        if not stopped:
            await daemon.stop()

    asyncio.run(run())
    return batches


class TestBatchComposition:
    """Linger, max-hold and beacon semantics, pinned on a fake clock."""

    @pytest.mark.parametrize("case", sorted(BATCH_SCHEDULES))
    def test_scripted_arrivals_batch_as_recorded(self, monkeypatch, case):
        got = _run_schedule(monkeypatch, BATCH_SCHEDULES[case])
        assert got == EXPECTED_BATCHES[case]


class _AckClient(asyncio.DatagramProtocol):
    """Closed-loop forwarder: one datagram in flight, awaited on its ack.

    It awaits a bare future per datagram -- no ``wait_for``, no task, no
    timer -- so whatever tasks and timers the loop sees are the daemon's.
    """

    def __init__(self):
        self.transport = None
        self.acked: asyncio.Future | None = None

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, data, addr):
        if self.acked is not None and not self.acked.done():
            self.acked.set_result(decode_datagram(data))

    async def send(self, datagram: bytes):
        self.acked = asyncio.get_running_loop().create_future()
        self.transport.sendto(datagram)
        return await self.acked


def _window_datagrams(plan, batch) -> list[bytes]:
    """One delivery window: a PUSH_DATA per gateway, then a stat beacon."""
    by_gateway: dict[str, list] = {}
    for forward in batch:
        by_gateway.setdefault(forward.gateway_id, []).append(forward)
    datagrams = [
        encode_datagram(
            PushData(
                token=1,
                gateway_eui=eui_from_gateway_id(gateway_id),
                rxpks=tuple(rxpk_from_forward(f) for f in forwards),
            )
        )
        for gateway_id, forwards in by_gateway.items()
    ]
    eui = eui_from_gateway_id(plan.gateway_ids[0])
    beacon = PushData(token=1, gateway_eui=eui, rxpks=(), stat={"rxnb": len(batch)})
    return datagrams + [encode_datagram(beacon)]


class TestLoopWork:
    def test_windows_stream_without_tasks_and_one_timer_each(self, plan):
        """Batching costs the event loop no task and at most one timer per window."""

        async def run():
            daemon = await make_daemon(plan)
            loop = asyncio.get_running_loop()
            _, client = await loop.create_datagram_endpoint(
                _AckClient, remote_addr=("127.0.0.1", daemon.udp_port)
            )
            windows = [_window_datagrams(plan, batch) for batch in plan.batches]
            counts = {"tasks": 0, "timers": 0}
            create_task, call_at = loop.create_task, loop.call_at

            def counted_task(*args, **kwargs):
                counts["tasks"] += 1
                return create_task(*args, **kwargs)

            def counted_timer(*args, **kwargs):
                # call_later delegates here, so this counts both.
                counts["timers"] += 1
                return call_at(*args, **kwargs)

            loop.create_task, loop.call_at = counted_task, counted_timer
            try:
                for datagrams in windows:
                    for datagram in datagrams:
                        await client.send(datagram)
            finally:
                del loop.create_task, loop.call_at
            client.transport.close()
            await daemon.stop()
            return counts, [v.as_dict() for v in daemon.server.verdicts]

        counts, got = asyncio.run(run())
        assert got == list(plan.oracle_verdicts)
        assert counts["tasks"] == 0
        assert counts["timers"] <= len(plan.batches)


class TestGoldenVerdicts:
    def test_daemon_verdicts_bit_identical_to_in_process(self, plan):
        async def run():
            daemon = await make_daemon(plan)
            stats = await replay(plan, "127.0.0.1", daemon.udp_port)
            await daemon.drain()
            await daemon.stop()
            return stats, [v.as_dict() for v in daemon.server.verdicts]

        stats, got = asyncio.run(run())
        assert stats.forwards_sent == plan.n_forwards
        assert stats.acks_received == stats.datagrams_sent
        assert got == list(plan.oracle_verdicts)

    def test_plan_covers_every_verdict_path(self, plan):
        statuses = {v["status"] for v in plan.oracle_verdicts}
        assert "accepted" in statuses
        assert "replay_detected" in statuses
        assert any(v["duplicates_dropped"] >= 0 and len(v["gateway_ids"]) > 1
                   for v in plan.oracle_verdicts), "no multi-gateway dedup exercised"


class TestControlPlane:
    def test_devices_verdicts_and_metrics(self, plan):
        async def run():
            daemon = await make_daemon(plan)
            await replay(plan, "127.0.0.1", daemon.udp_port)
            await daemon.drain()
            port = daemon.http_port
            out = {}
            out["health"] = await http_get(port, "/healthz")
            out["device"] = await http_get(port, "/devices/26000000")
            out["page"] = await http_get(port, "/verdicts?offset=1&limit=2")
            out["metrics"] = await http_get(port, "/metrics")
            out["state"] = daemon.server.device_state(0x26000000)
            out["dedup_rate"] = daemon.server.dedup_rate
            await daemon.stop()
            return out

        out = asyncio.run(run())
        status, body = out["health"]
        health = json.loads(body)
        assert status == 200 and health["status"] == "ok"
        assert health["verdicts_total"] == len(plan.oracle_verdicts)
        assert {g["gateway_id"] for g in health["gateways"]} == set(plan.gateway_ids)

        status, body = out["device"]
        device = json.loads(body)
        assert status == 200
        assert device == out["state"]
        assert device["fb_profile"]["sample_count"] >= 5
        assert device["last_verdict"] is not None

        status, body = out["page"]
        page = json.loads(body)
        assert status == 200
        assert page["total"] == len(plan.oracle_verdicts)
        assert page["verdicts"] == list(plan.oracle_verdicts[1:3])

        status, body = out["metrics"]
        text = body.decode()
        assert status == 200
        assert f"repro_service_uplinks_total {plan.n_forwards}" in text
        by_status = {}
        for verdict in plan.oracle_verdicts:
            by_status[verdict["status"]] = by_status.get(verdict["status"], 0) + 1
        for name, count in by_status.items():
            assert f'repro_service_verdicts_total{{status="{name}"}} {count}' in text
        assert "# TYPE repro_service_queue_depth gauge" in text
        # The dedup and rate gauges are computed when /metrics is read.
        gauges = dict(line.split(" ", 1) for line in text.splitlines() if not line.startswith("#"))
        assert out["dedup_rate"] > 1.0
        assert float(gauges["repro_service_dedup_copies_per_uplink"]) == out["dedup_rate"]
        assert float(gauges["repro_service_uplinks_per_s"]) > 0
        assert float(gauges["repro_service_verdicts_per_s"]) > 0

    def test_verdict_paging_is_capped_by_config(self, plan):
        async def run():
            daemon = await make_daemon(plan, config=loopback_config(verdict_page_limit=3))
            await replay(plan, "127.0.0.1", daemon.udp_port)
            await daemon.drain()
            page = await http_get(daemon.http_port, "/verdicts?limit=999")
            await daemon.stop()
            return page

        status, body = asyncio.run(run())
        page = json.loads(body)
        assert status == 200
        assert page["limit"] == 3
        assert len(page["verdicts"]) == 3

    def test_error_paths(self, plan):
        cases = [
            (b"GET /healthz HTTP/1.1\r\nX: " + b"a" * 70_000, 431, "header line too long"),
            # Each header line fits the line cap; together they pass the head budget.
            (
                b"GET /healthz HTTP/1.1" + (b"\r\nX: " + b"a" * 8_000) * 5,
                431,
                "request head too long",
            ),
            (b"POST /healthz HTTP/1.1", 405, "POST not supported"),
            (b"GET /nothere HTTP/1.1", 404, "no route for /nothere"),
            (b"GET /devices/deadbeef HTTP/1.1", 404, "device deadbeef not registered"),
            (b"GET /devices/nothex HTTP/1.1", 400, "device address 'nothex' is not hex"),
            (b"GET /verdicts?limit=ten HTTP/1.1", 400, "query param 'limit' must be an integer"),
        ]

        async def run():
            daemon = await make_daemon(plan)
            port = daemon.http_port
            out = [await http_request(port, head + b"\r\n\r\n") for head, _, _ in cases]
            await daemon.stop()
            return out

        for (head, status, detail), (got, body) in zip(cases, asyncio.run(run())):
            assert (got, json.loads(body)) == (status, {"error": detail}), head[:40]

    def test_slow_request_head_gets_408(self, plan, monkeypatch):
        monkeypatch.setattr(rest, "_HEAD_TIMEOUT_S", 0.2)

        async def run():
            daemon = await make_daemon(plan)
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.http_port)
            # The request line arrives; the blank line that ends the head never does.
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            await daemon.stop()
            return raw

        head, _, body = asyncio.run(run()).partition(b"\r\n\r\n")
        assert head.split()[1] == b"408"
        assert json.loads(body) == {"error": "request head not received in time"}


class TestBackpressure:
    def test_overflow_sheds_forwards_and_counts(self, plan):
        async def run():
            server = new_server()
            plan.provision(server)
            daemon = NetworkServerDaemon(
                server=server,
                config=loopback_config(queue_limit=5, linger_s=5.0, max_hold_s=10.0),
            )
            await daemon.start()
            # Bypass the socket: feed the handler directly so nothing
            # drains between datagrams (the worker never sees a tick).
            big = plan.batches[0] * 10
            rxpks = tuple(rxpk_from_forward(f) for f in big[:20])
            message = PushData(
                token=1, gateway_eui=eui_from_gateway_id("gw-0"), rxpks=rxpks
            )
            daemon.handle_datagram(encode_datagram(message), ("127.0.0.1", 40000))
            accepted = daemon.metrics.get("repro_service_uplinks_total").total()
            shed = daemon.metrics.get("repro_service_queue_overflow_total").total()
            await daemon.stop()
            return accepted, shed

        accepted, shed = asyncio.run(run())
        assert accepted == 5
        assert shed == 15

    def test_linger_flush_without_stat_beacon(self, plan):
        """Real forwarders send no ticks; the linger timer must flush."""

        async def run():
            server = new_server()
            plan.provision(server)
            daemon = NetworkServerDaemon(
                server=server, config=loopback_config(linger_s=0.02)
            )
            await daemon.start()
            batch = plan.batches[0]
            rxpks = tuple(rxpk_from_forward(f) for f in batch)
            message = PushData(
                token=1, gateway_eui=eui_from_gateway_id("gw-0"), rxpks=rxpks
            )
            daemon.handle_datagram(encode_datagram(message), ("127.0.0.1", 40000))
            await daemon.drain(timeout_s=5.0)
            count = len(daemon.server.verdicts)
            await daemon.stop()
            return count

        assert asyncio.run(run()) > 0


    @pytest.mark.parametrize("where", ["process_step", "detector.check"])
    def test_failing_resolution_drops_its_batch_and_keeps_serving(self, plan, caplog, where):
        """A resolution that raises once costs one batch, not the daemon."""
        windows = dataclasses.replace(plan, batches=plan.batches[:4])

        async def run():
            server = new_server()
            owner = server if where == "process_step" else server.detector
            name = where.rpartition(".")[2]
            inner = getattr(owner, name)
            calls = []

            def flaky(*args, **kwargs):
                calls.append(name)
                if len(calls) == 1:
                    raise RuntimeError("injected resolution failure")
                return inner(*args, **kwargs)

            setattr(owner, name, flaky)
            daemon = await make_daemon(windows, server=server)
            await replay(windows, "127.0.0.1", daemon.udp_port)
            await daemon.drain(timeout_s=5.0)
            errors = daemon.metrics.get("repro_service_flush_errors_total").total()
            batches = daemon.metrics.get("repro_service_batches_total").total()
            await daemon.stop()
            return errors, batches, len(server.verdicts)

        with caplog.at_level(logging.ERROR, logger="repro.service"):
            errors, batches, verdicts = asyncio.run(run())
        assert errors == 1
        assert batches == len(windows.batches) - 1
        assert verdicts > 0
        (record,) = [r for r in caplog.records if r.name == "repro.service"]
        assert "injected resolution failure" in record.exc_text


class TestNonFiniteEvidence:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_nan_fb_drops_its_rxpk_and_keeps_the_window(self, plan, tmp_path, backend):
        """An rxpk with ``fbhz: NaN`` is malformed; its siblings get their verdicts.

        Every device has keys but no FB profile, so each is in its
        learning phase: a NaN that got through would be recorded as an
        FB sample (and on SQLite fail the window's write).
        """
        forwards = [f for batch in plan.batches[:4] for f in batch if f.gateway_id == "gw-0"]
        victim, others = forwards[0], forwards[1:]

        def keys_only(store):
            server = NetworkServer(detector=ReplayDetector(database=store))
            for dev_addr, keys in plan.registrations:
                server.register_device(dev_addr, keys)
            return server

        expected = [v.as_dict() for v in keys_only(FbDatabase()).process_step(others)]

        async def run():
            store = FbDatabase() if backend == "memory" else SqliteFbStore(tmp_path / "fb.sqlite")
            server = keys_only(store)
            daemon = NetworkServerDaemon(server=server, config=loopback_config(linger_s=0.02))
            await daemon.start()
            rxpks = (
                dict(rxpk_from_forward(victim), fbhz=float("nan")),
                *(rxpk_from_forward(f) for f in others),
            )
            # encode_datagram refuses a NaN, so write the bytes a
            # non-conforming forwarder would send.
            datagram = (
                bytes([PROTOCOL_VERSION, 0, 1, PacketType.PUSH_DATA])
                + eui_from_gateway_id("gw-0")
                + json.dumps({"rxpk": list(rxpks)}).encode()
            )
            daemon.handle_datagram(datagram, ("127.0.0.1", 40000))
            await daemon.drain(timeout_s=5.0)
            malformed = daemon.metrics.get("repro_service_malformed_datagrams_total").total()
            errors = daemon.metrics.get("repro_service_flush_errors_total").total()
            await daemon.stop()
            if backend == "sqlite":
                store.close()
            return [v.as_dict() for v in server.verdicts], malformed, errors

        verdicts, malformed, errors = asyncio.run(run())
        assert (malformed, errors) == (1, 0)
        assert len(expected) == len(others) == 3
        assert verdicts == expected


class TestAdrDownlink:
    def test_pending_command_leaves_as_pull_resp(self, plan):
        async def run():
            server = new_server(adr=AdrController())
            plan.provision(server)
            dev_addr = plan.registrations[0][0]
            # Four strong SF12 observations queue one retune command.
            for i in range(4):
                server.adr.observe(dev_addr, 20.0, 12, float(i))
            assert server.adr.pending
            daemon = NetworkServerDaemon(server=server, config=loopback_config())
            await daemon.start()

            class Client(asyncio.DatagramProtocol):
                def __init__(self):
                    self.inbox = asyncio.Queue()

                def datagram_received(self, data, addr):
                    self.inbox.put_nowait(decode_datagram(data))

            loop = asyncio.get_running_loop()
            transport, client = await loop.create_datagram_endpoint(
                Client, remote_addr=("127.0.0.1", daemon.udp_port)
            )
            eui = eui_from_gateway_id(plan.gateway_ids[0])
            transport.sendto(encode_datagram(PullData(token=9, gateway_eui=eui)))
            # A stat-only PUSH_DATA forces a flush, which dispatches ADR.
            beacon = PushData(token=10, gateway_eui=eui, rxpks=(), stat={"rxnb": 0})
            transport.sendto(encode_datagram(beacon))
            resp = None
            for _ in range(8):
                message = await asyncio.wait_for(client.inbox.get(), 5.0)
                if isinstance(message, PullResp):
                    resp = message
                    break
            assert resp is not None
            inflight = daemon.metrics.get("repro_service_adr_commands_in_flight").get()
            transport.sendto(encode_datagram(TxAck(token=resp.token, gateway_eui=eui)))
            await asyncio.sleep(0.05)
            settled = daemon.metrics.get("repro_service_adr_commands_in_flight").get()
            transport.close()
            await daemon.stop()
            keys = dict(plan.registrations)[dev_addr]
            return resp, inflight, settled, keys, dev_addr

        resp, inflight, settled, keys, dev_addr = asyncio.run(run())
        assert inflight == 1.0
        assert settled == 0.0
        frame = parse_downlink(resp.payload_bytes(), keys)
        assert frame.dev_addr == dev_addr
        (request,) = parse_mac_commands(frame.frm_payload, uplink=False)
        assert isinstance(request, LinkADRReq)

    def test_command_without_poller_is_returned_to_controller(self, plan):
        async def run():
            server = new_server(adr=AdrController())
            plan.provision(server)
            dev_addr = plan.registrations[0][0]
            for i in range(4):
                server.adr.observe(dev_addr, 20.0, 12, float(i))
            daemon = NetworkServerDaemon(server=server, config=loopback_config())
            await daemon.start()
            daemon._pending = []
            daemon._send_adr_downlinks()
            undeliverable = daemon.metrics.get(
                "repro_service_adr_undeliverable_total"
            ).total()
            await daemon.stop()
            return undeliverable, server.adr.pending

        undeliverable, pending = asyncio.run(run())
        assert undeliverable == 1
        assert pending == []

    def test_command_for_unregistered_device_is_undeliverable(self, plan):
        async def run():
            server = new_server(adr=AdrController())
            plan.provision(server)
            stranger = 0x26FFFFFF
            assert server.mac.keys_for(stranger) is None
            for i in range(4):
                server.adr.observe(stranger, 20.0, 12, float(i))
            daemon = NetworkServerDaemon(server=server, config=loopback_config())
            await daemon.start()
            daemon._pending = []
            # A poller exists, so only the missing session keys stop the command.
            eui = eui_from_gateway_id(plan.gateway_ids[0])
            daemon.handle_datagram(
                encode_datagram(PullData(token=9, gateway_eui=eui)), ("127.0.0.1", 9)
            )
            daemon._send_adr_downlinks()
            undeliverable = daemon.metrics.get(
                "repro_service_adr_undeliverable_total"
            ).total()
            await daemon.stop()
            return undeliverable, server.adr.pending

        undeliverable, pending = asyncio.run(run())
        assert undeliverable == 1
        assert pending == []

    def test_unsolicited_tx_acks_leave_the_in_flight_gauge_at_zero(self):
        """A TX_ACK that settles no dispatched command moves no gauge below 0."""
        daemon = NetworkServerDaemon(server=new_server(), config=loopback_config())
        ack = encode_datagram(TxAck(token=3, gateway_eui=eui_from_gateway_id("gw-0")))
        for _ in range(2):
            daemon.handle_datagram(ack, ("127.0.0.1", 40000))
        assert daemon.metrics.get("repro_service_adr_commands_in_flight").get() == 0.0
        datagrams = daemon.metrics.get("repro_service_datagrams_total")
        assert datagrams.get({"type": "TX_ACK"}) == 2.0


class TestProvisioningCli:
    def test_main_module_provisions_devices(self, tmp_path):
        from repro.service.__main__ import _provision

        keys = SessionKeys.derive_for_test(0x26000042)
        table = {
            "26000042": {
                "nwk_skey": keys.nwk_skey.hex(),
                "app_skey": keys.app_skey.hex(),
                "fb_profile": [-20.0, 5.0, 30.0],
            }
        }
        path = tmp_path / "devices.json"
        path.write_text(json.dumps(table))
        server = NetworkServer()
        assert _provision(server, str(path)) == 1
        state = server.device_state(0x26000042)
        assert state is not None
        assert state["fb_profile"]["sample_count"] == 3


class TestPersistentStore:
    def test_daemon_restart_resumes_bit_identically(self, plan, tmp_path):
        """Kill the daemon mid-scenario; a sqlite store resumes exactly.

        The first daemon replays half the plan's batches into a durable
        store and stops gracefully; a *fresh* daemon (new server, new
        MAC state, new dedup) reopens the same store file, provisioning
        skips the FB bootstraps because the histories are on disk, and
        the remaining batches produce the oracle's verdicts bit for bit.
        """
        import dataclasses

        from repro.core.detector import ReplayDetector
        from repro.server.store import SqliteFbStore

        path = tmp_path / "fb.sqlite"
        half = len(plan.batches) // 2
        first_half = dataclasses.replace(plan, batches=plan.batches[:half])
        second_half = dataclasses.replace(plan, batches=plan.batches[half:])

        async def run_half(sub_plan):
            store = SqliteFbStore(path)
            server = NetworkServer(detector=ReplayDetector(database=store))
            daemon = await make_daemon(sub_plan, server=server)
            await replay(sub_plan, "127.0.0.1", daemon.udp_port)
            await daemon.drain()
            _, metrics = await http_get(daemon.http_port, "/metrics")
            _, health = await http_get(daemon.http_port, "/healthz")
            await daemon.stop()
            store.close()
            return [v.as_dict() for v in daemon.server.verdicts], metrics, health

        before, _, _ = asyncio.run(run_half(first_half))
        after, metrics, health = asyncio.run(run_half(second_half))
        assert before + after == list(plan.oracle_verdicts)

        text = metrics.decode()
        assert "# TYPE repro_service_store_nodes gauge" in text
        assert "repro_service_store_batches_total" in text
        assert "repro_service_store_flush_seconds" in text
        store_health = json.loads(health)["store"]
        assert store_health["backend"] == "SqliteFbStore"
        assert store_health["node_count"] == len(plan.registrations)

    def test_memory_store_reports_node_count(self, plan):
        async def run():
            daemon = await make_daemon(plan)
            await replay(plan, "127.0.0.1", daemon.udp_port)
            await daemon.drain()
            nodes = daemon.metrics.get("repro_service_store_nodes").get()
            await daemon.stop()
            return nodes

        assert asyncio.run(run()) == len(plan.registrations)

    def test_provision_cli_is_idempotent_over_a_persistent_store(self, tmp_path):
        from repro.core.detector import ReplayDetector
        from repro.server.store import SqliteFbStore
        from repro.service.__main__ import _provision

        keys = SessionKeys.derive_for_test(0x26000042)
        table = {
            "26000042": {
                "nwk_skey": keys.nwk_skey.hex(),
                "app_skey": keys.app_skey.hex(),
                "fb_profile": [-20.0, 5.0, 30.0],
            }
        }
        path = tmp_path / "devices.json"
        path.write_text(json.dumps(table))
        db_path = tmp_path / "fb.sqlite"

        store = SqliteFbStore(db_path)
        server = NetworkServer(detector=ReplayDetector(database=store))
        _provision(server, str(path))
        assert store.sample_count("26000042") == 3
        store.close()

        # Second boot on the same file: the profile must not re-record.
        reopened = SqliteFbStore(db_path)
        server = NetworkServer(detector=ReplayDetector(database=reopened))
        _provision(server, str(path))
        assert reopened.sample_count("26000042") == 3
        reopened.close()

    def test_malformed_devices_table_records_no_profile(self, tmp_path):
        """Provisioning is one store transaction: a bad entry undoes it all."""
        from repro.core.detector import ReplayDetector
        from repro.server.store import SqliteFbStore
        from repro.service.__main__ import _provision

        table = {}
        for dev_addr in (0x26000040, 0x26000041):
            keys = SessionKeys.derive_for_test(dev_addr)
            table[f"{dev_addr:08x}"] = {
                "nwk_skey": keys.nwk_skey.hex(),
                "app_skey": keys.app_skey.hex(),
                "fb_profile": [-20.0, 5.0, 30.0],
            }
        table["26000042"] = {"nwk_skey": "not hex", "app_skey": "00" * 16}
        path = tmp_path / "devices.json"
        path.write_text(json.dumps(table))
        db_path = tmp_path / "fb.sqlite"

        store = SqliteFbStore(db_path)
        server = NetworkServer(detector=ReplayDetector(database=store))
        with pytest.raises(ValueError):
            _provision(server, str(path))
        assert store.node_count() == 0
        assert store.known_nodes() == []
        store.close()

        reopened = SqliteFbStore(db_path)
        assert reopened.known_nodes() == []
        assert reopened.sample_count("26000040") == 0
        reopened.close()

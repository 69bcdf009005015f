"""End-to-end service smoke: boot, 200+ uplinks, health, metrics, alerts.

This is the test the CI ``service-smoke`` job runs on its own: a real
daemon on loopback, driven by the loadgen over UDP with a fleet stream
that includes replayed frames, then checked from the outside through
the control plane only -- ``/healthz`` reports ok, ``/metrics`` counters
match what was sent, and the replay fires an ``attack_detected`` event
on the ``/alerts`` SSE stream.
"""

import asyncio
import json

import pytest

from repro.service import NetworkServerDaemon, ServiceConfig, build_plan, new_server, replay

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def plan():
    """A fleet stream big enough for a meaningful smoke (200+ forwards)."""
    return build_plan(
        n_devices=20, n_gateways=2, clean_s=240.0, attack_s=120.0, n_attacked=4
    )


def test_service_smoke_end_to_end(plan):
    assert plan.n_forwards >= 200, f"plan too small: {plan.n_forwards} forwards"
    replays = [v for v in plan.oracle_verdicts if v["status"] == "replay_detected"]
    assert replays, "plan contains no replayed frame"

    async def run():
        server = new_server()
        plan.provision(server)
        daemon = NetworkServerDaemon(
            server=server,
            config=ServiceConfig(
                udp_host="127.0.0.1", udp_port=0, http_host="127.0.0.1", http_port=0
            ),
        )
        await daemon.start()
        port = daemon.http_port

        # Subscribe to /alerts before any traffic flows.
        alerts_reader, alerts_writer = await asyncio.open_connection("127.0.0.1", port)
        alerts_writer.write(b"GET /alerts HTTP/1.1\r\nHost: smoke\r\n\r\n")
        await alerts_writer.drain()
        head = await alerts_reader.readuntil(b"\r\n\r\n")
        assert b"200 OK" in head and b"text/event-stream" in head

        stats = await replay(plan, "127.0.0.1", daemon.udp_port)
        await daemon.drain()

        async def get(path):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(f"GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n".encode())
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body = raw.partition(b"\r\n\r\n")
            return int(head.split()[1]), body

        status, body = await get("/healthz")
        health = json.loads(body)

        status_metrics, metrics_body = await get("/metrics")
        metrics = metrics_body.decode()

        # One SSE event per replay verdict, in order.
        events = []
        for _ in replays:
            while True:
                block = await asyncio.wait_for(alerts_reader.readuntil(b"\n\n"), 10.0)
                text = block.decode()
                if text.startswith("event: attack_detected"):
                    data_line = next(
                        line for line in text.splitlines() if line.startswith("data: ")
                    )
                    events.append(json.loads(data_line[len("data: ") :]))
                    break
        alerts_writer.close()
        try:
            await alerts_writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await daemon.stop()
        return stats, status, health, status_metrics, metrics, events

    stats, status, health, status_metrics, metrics, events = asyncio.run(run())

    assert stats.forwards_sent == plan.n_forwards
    assert status == 200
    assert health["status"] == "ok"
    assert health["uplinks_total"] == plan.n_forwards
    assert health["verdicts_total"] == len(plan.oracle_verdicts)
    assert health["queue_depth"] == 0

    assert status_metrics == 200
    assert f"repro_service_uplinks_total {plan.n_forwards}" in metrics
    counts = {}
    for verdict in plan.oracle_verdicts:
        counts[verdict["status"]] = counts.get(verdict["status"], 0) + 1
    for name, count in counts.items():
        assert f'repro_service_verdicts_total{{status="{name}"}} {count}' in metrics
    assert f"repro_service_alerts_total {len(replays)}" in metrics
    assert "repro_service_queue_overflow_total 0" in metrics

    assert len(events) == len(replays)
    for event, expected in zip(events, replays):
        assert event["status"] == "replay_detected"
        assert event["node_id"] == expected["node_id"]
        assert event["fcnt"] == expected["fcnt"]
        assert event["detection"] == expected["detection"]


def test_service_smoke_store_restart(plan, tmp_path):
    """CI service-smoke: restart the daemon mid-load on a durable store.

    Half the plan flows into daemon one (``--store sqlite:`` semantics:
    a :class:`SqliteFbStore`), the daemon stops, and a
    brand-new daemon on the same file serves the rest.  From the
    outside: ``/devices/{addr}`` still knows the device's FB profile
    after the restart, ``/metrics`` still exports the store series, and
    the concatenated verdict stream equals the oracle's, bit for bit.
    """
    import dataclasses

    from repro.core.detector import ReplayDetector
    from repro.server import NetworkServer
    from repro.server.store import open_store

    spec = f"sqlite:{tmp_path / 'fb.sqlite'}"
    half = len(plan.batches) // 2
    halves = [
        dataclasses.replace(plan, batches=plan.batches[:half]),
        dataclasses.replace(plan, batches=plan.batches[half:]),
    ]
    dev_addr = plan.registrations[0][0]

    async def run_half(sub_plan):
        store = open_store(spec)
        server = NetworkServer(detector=ReplayDetector(database=store))
        sub_plan.provision(server)
        daemon = NetworkServerDaemon(
            server=server,
            config=ServiceConfig(
                udp_host="127.0.0.1", udp_port=0, http_host="127.0.0.1", http_port=0
            ),
        )
        await daemon.start()
        await replay(sub_plan, "127.0.0.1", daemon.udp_port)
        await daemon.drain()

        async def get(path):
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.http_port)
            writer.write(f"GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n".encode())
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body = raw.partition(b"\r\n\r\n")
            return int(head.split()[1]), body

        device_status, device_body = await get(f"/devices/{dev_addr:08x}")
        _, metrics_body = await get("/metrics")
        await daemon.stop()
        store.close()
        return (
            [v.as_dict() for v in daemon.server.verdicts],
            device_status,
            json.loads(device_body),
            metrics_body.decode(),
        )

    before, _, device_before, _ = asyncio.run(run_half(halves[0]))
    after, device_status, device_after, metrics = asyncio.run(run_half(halves[1]))

    assert before + after == list(plan.oracle_verdicts)
    assert device_status == 200
    # The FB profile learned before the restart is still live after it.
    assert device_after["fb_profile"]["sample_count"] >= device_before[
        "fb_profile"
    ]["sample_count"] > 0
    assert "# TYPE repro_service_store_nodes gauge" in metrics
    assert f"repro_service_store_nodes {len(plan.registrations)}" in metrics
    assert "repro_service_store_batches_total" in metrics

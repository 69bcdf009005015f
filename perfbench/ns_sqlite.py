"""ns-sqlite: the operator's path, Semtech UDP in, verdicts out, on SQLite.

One forwarder client replays a recorded fleet stream over loopback
Semtech UDP into a :class:`~repro.service.NetworkServerDaemon` whose FB
histories live in an ``open_store("sqlite:...")`` store.  The loop is
closed: one delivery window is in flight at a time, each window ends
with a ``stat`` beacon, and the next window starts once the previous
window's verdicts are issued.  Client and daemon share one process and
one event loop.

It is the only workload where the service, MAC/AES-CMAC, dedup, fusion,
detector and durable-store layers do the work.  A registry of silent
provisioned devices makes boot a real cost and the store larger than
the active set; ``GET /devices/{addr}`` and ``GET /metrics`` reads at a
fixed cadence in windows share the daemon's loop with ingest.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from perfbench.stats import digest, latency_summary, rate, units

#: Active fleet of the recorded stream (3 gateways, period 60 s).
N_DEVICES = 40
N_GATEWAYS = 3
PERIOD_S = 60.0
CLEAN_S = 2400.0
ATTACK_S = 900.0
N_ATTACKED = 4
#: Silent provisioned devices (keys plus an FB profile each).
REGISTRY = 20_000
PROFILE_LEN = 5
#: Boots per run; ``setup_s`` is their median.
SETUPS = 3
#: Windows streamed per second of ``--seconds`` (after the first window).
WINDOWS_PER_S = 55
MIN_WINDOWS = 20
#: Control-plane cadence, in windows.
DEVICE_EVERY = 10
METRICS_EVERY = 50
#: Only the beacon closes a window: the idle and hold timers are set far
#: beyond any host stall, so a slow moment cannot split a window and
#: change verdicts.
LINGER_S = 30.0
MAX_HOLD_S = 60.0
RXPK_CHUNK = 16

_PUSH_ACK = 0x01
_PULL_ACK = 0x04


def generate(seed: int) -> dict:
    """Record the stream, its oracle verdicts, and the device registry.

    Args:
        seed: Workload seed; the same seed gives the same inputs.

    Returns:
        Pre-encoded datagrams per window, per-window verdict counts and
        verdict JSON from an in-process server (the oracle), the device
        registry, and digests of inputs and oracle.
    """
    from repro.service import build_plan, new_server
    from repro.service.semtech import (
        PullData,
        PushData,
        encode_datagram,
        eui_from_gateway_id,
        rxpk_from_forward,
    )

    plan = build_plan(
        n_devices=N_DEVICES,
        n_gateways=N_GATEWAYS,
        seed=seed,
        period_s=PERIOD_S,
        clean_s=CLEAN_S,
        attack_s=ATTACK_S,
        n_attacked=N_ATTACKED,
    )
    batches = [list(batch) for batch in plan.batches if batch]
    oracle_server = new_server()
    plan.provision(oracle_server)
    counts = [len(oracle_server.process_step(batch)) for batch in batches]
    oracle = [json.dumps(v.as_dict()) for v in oracle_server.verdicts]
    if oracle != [json.dumps(v) for v in plan.oracle_verdicts]:
        raise RuntimeError("in-process replay diverged from the recorded verdicts")

    token = 0
    prelude = []
    for gateway_id in plan.gateway_ids:
        eui = eui_from_gateway_id(gateway_id)
        prelude.append((token, encode_datagram(PullData(token=token, gateway_eui=eui))))
        token += 1
    tick_eui = eui_from_gateway_id(plan.gateway_ids[0])
    windows, forwards = [], []
    for batch in batches:
        datagrams = []
        by_gateway: dict[str, list] = {}
        for forward in batch:
            by_gateway.setdefault(forward.gateway_id, []).append(forward)
        for gateway_id, group in by_gateway.items():
            eui = eui_from_gateway_id(gateway_id)
            for start in range(0, len(group), RXPK_CHUNK):
                rxpks = tuple(rxpk_from_forward(f) for f in group[start : start + RXPK_CHUNK])
                push = PushData(token=token, gateway_eui=eui, rxpks=rxpks)
                datagrams.append((token, encode_datagram(push)))
                token = (token + 1) % 65536
        beacon = PushData(token=token, gateway_eui=tick_eui, rxpks=(), stat={"rxnb": len(batch)})
        datagrams.append((token, encode_datagram(beacon)))
        token = (token + 1) % 65536
        windows.append(datagrams)
        forwards.append(len(batch))

    profiles = dict(plan.profiles)
    devices = [
        (addr, keys.nwk_skey, keys.app_skey, tuple(profiles[addr]))
        for addr, keys in plan.registrations
    ]
    rng = np.random.default_rng([seed, 20_000])
    centers = rng.uniform(-25e3, -17e3, REGISTRY)
    noise = rng.normal(0.0, 15.0, (REGISTRY, PROFILE_LEN))
    keys = rng.bytes(32 * REGISTRY)
    for i in range(REGISTRY):
        devices.append(
            (
                0x27000000 + i,
                keys[32 * i : 32 * i + 16],
                keys[32 * i + 16 : 32 * i + 32],
                tuple(float(v) for v in centers[i] + noise[i]),
            )
        )
    probes = [f"{addr:08x}" for addr, _ in plan.registrations]
    inputs = {
        "prelude": prelude,
        "windows": windows,
        "forwards": forwards,
        "devices": devices,
        "probes": probes,
    }
    return {
        **inputs,
        "counts": counts,
        "oracle": oracle,
        "digests": {"inputs": digest(inputs), "oracle": digest(oracle)},
        "size": {"windows": len(windows), "verdicts": len(oracle), "devices": len(devices)},
    }


class _Client(asyncio.DatagramProtocol):
    """The forwarder side: resolves one future per acknowledged token.

    The generator already encoded every datagram, and acks are matched
    by token without decoding them, so a window's latency is the
    daemon's work rather than the forwarder's (``loadgen.replay`` encodes
    as it sends).
    """

    def __init__(self):
        self.acks: dict[int, asyncio.Future] = {}
        self.transport = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        if len(data) >= 4 and data[3] in (_PUSH_ACK, _PULL_ACK):
            future = self.acks.pop(int.from_bytes(data[1:3], "big"), None)
            if future is not None and not future.done():
                future.set_result(None)

    async def send(self, token: int, payload: bytes) -> None:
        future = asyncio.get_running_loop().create_future()
        self.acks[token] = future
        self.transport.sendto(payload)
        await future


class _Node:
    """One booted daemon, its store, its client, and its window hook."""

    def __init__(self, daemon, store, client, path: Path):
        self.daemon = daemon
        self.store = store
        self.client = client
        self.path = path
        self.done: asyncio.Future | None = None
        server = daemon.server
        step = server.process_step

        def hooked(forwards):
            verdicts = step(forwards)
            if self.done is not None and not self.done.done():
                self.done.set_result(len(verdicts))
            return verdicts

        server.process_step = hooked

    async def window(self, datagrams) -> int:
        """Send one window and wait until its verdicts are issued."""
        self.done = asyncio.get_running_loop().create_future()
        for token, payload in datagrams:
            await self.client.send(token, payload)
        return await self.done

    async def close(self) -> None:
        self.client.transport.close()
        await self.daemon.stop()
        self.store.close()
        shutil.rmtree(self.path, ignore_errors=True)


async def _boot(inputs: dict, workdir: Path) -> _Node:
    """Open the store, provision the registry, start the daemon, connect."""
    from repro.core.detector import ReplayDetector
    from repro.lorawan.security import SessionKeys
    from repro.server import NetworkServer
    from repro.server.store import open_store, store_batch
    from repro.service import NetworkServerDaemon, ServiceConfig

    path = Path(tempfile.mkdtemp(dir=workdir))
    store = open_store(f"sqlite:{path / 'fb.sqlite'}")
    server = NetworkServer(detector=ReplayDetector(database=store))
    with store_batch(store):
        for addr, nwk, app, profile in inputs["devices"]:
            server.register_device(addr, SessionKeys(nwk_skey=nwk, app_skey=app))
            server.bootstrap_fb_profile(addr, list(profile))
    config = ServiceConfig(
        udp_host="127.0.0.1",
        udp_port=0,
        http_host="127.0.0.1",
        http_port=0,
        linger_s=LINGER_S,
        max_hold_s=MAX_HOLD_S,
    )
    daemon = NetworkServerDaemon(server=server, config=config)
    await daemon.start()
    loop = asyncio.get_running_loop()
    _, client = await loop.create_datagram_endpoint(
        _Client, remote_addr=("127.0.0.1", daemon.udp_port)
    )
    node = _Node(daemon, store, client, path)
    for token, payload in inputs["prelude"]:
        await client.send(token, payload)
    return node


async def _get(port: int, target: str) -> tuple[float, float, int]:
    """One control-plane GET; returns (start, end, HTTP status)."""
    start = time.perf_counter()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        await writer.drain()
        body = await reader.read()
        writer.close()
        await writer.wait_closed()
    except OSError:
        return start, time.perf_counter(), 0
    status = int(body.split(b" ", 2)[1]) if body.startswith(b"HTTP/1.1 ") else 0
    return start, time.perf_counter(), status


def _instrument(tracer, node: _Node) -> None:
    daemon = node.daemon
    server = daemon.server
    store = server.detector.database
    tracer.wrap(daemon, "handle_datagram", "service.handle_datagram")
    tracer.wrap(server, "process_step", "server.process_step")
    tracer.wrap(server.mac, "receive_frame", "lorawan.receive_frame")
    tracer.wrap(server.detector, "check", "core.check")
    for method in ("record", "interval", "sample_count"):
        tracer.wrap(store, method, f"store.{method}")
    tracer.wrap_context(store, "batch", "store.commit")


async def _session(inputs: dict, seconds: float, tracer, workdir: Path) -> dict:
    windows = inputs["windows"]
    setups = []
    first_verdicts = []
    node = None
    for attempt in range(SETUPS):
        start = time.perf_counter()
        node = await _boot(inputs, workdir)
        await node.window(windows[0])
        setups.append(time.perf_counter() - start)
        first_verdicts.append([json.dumps(v.as_dict()) for v in node.daemon.server.verdicts])
        if attempt < SETUPS - 1:
            await node.close()
    if tracer is not None:
        _instrument(tracer, node)
    port = node.daemon.http_port
    probes = inputs["probes"]
    gets: list[asyncio.Task] = []  # read by gather() below
    latencies, verdict_counts = [], []
    last = 1 + units(seconds, WINDOWS_PER_S, len(windows) - 1, MIN_WINDOWS)
    index = 1
    while index < last:
        start = time.perf_counter()
        if tracer is None:
            issued = await node.window(windows[index])
        else:
            tracer.request = index
            # Only this task opens spans across an await; the daemon's
            # wrapped calls run to completion inside it, so they nest.
            with tracer.span("window"):
                issued = await node.window(windows[index])
        latencies.append(time.perf_counter() - start)
        verdict_counts.append(issued)
        if index % DEVICE_EVERY == 0:
            probe = probes[(index // DEVICE_EVERY) % len(probes)]
            gets.append(asyncio.create_task(_get(port, f"/devices/{probe}")))
        if index % METRICS_EVERY == 0:
            gets.append(asyncio.create_task(_get(port, "/metrics")))
        index += 1
    replies = await asyncio.gather(*gets)
    if tracer is not None:
        for start, end, _ in replies:
            tracer.add("rest.get", start, end)
    shed = int(node.daemon.metrics.get("repro_service_queue_overflow_total").total())
    verdicts = [json.dumps(v.as_dict()) for v in node.daemon.server.verdicts]
    await node.close()
    return {
        "setups": setups,
        "first_verdicts": first_verdicts,
        "latencies": latencies,
        "verdict_counts": verdict_counts,
        "windows_done": index,
        "verdicts": verdicts,
        "shed": shed,
        "get_failures": sum(1 for _, _, status in replies if status != 200),
        "gets": len(replies),
    }


def run(inputs: dict, seconds: float, tracer, workdir: Path) -> dict:
    """Boot ``SETUPS`` times, then stream ``seconds * WINDOWS_PER_S`` windows.

    Args:
        inputs: What :func:`generate` produced.
        seconds: Run length; fixes how many windows are streamed.
        tracer: A :class:`~perfbench.trace.Tracer` to instrument the final
            daemon with, or ``None`` for an untraced run.
        workdir: Directory for the SQLite files (removed per boot).

    Returns:
        End-to-end metrics, correctness accounting, and the outputs a
        traced run must reproduce.
    """
    raw = asyncio.run(asyncio.wait_for(_session(inputs, seconds, tracer, workdir), seconds + 120))
    counts, oracle = inputs["counts"], inputs["oracle"]
    expected = oracle[: sum(counts[: raw["windows_done"]])]
    got = raw["verdicts"]
    differing = sum(1 for a, b in zip(got, expected) if a != b) + abs(len(got) - len(expected))
    first = oracle[: counts[0]]
    differing += sum(1 for boot in raw["first_verdicts"] if boot != first)
    failures = []
    if differing:
        failures.append(f"{differing} verdicts missing or differing from the oracle")
    if raw["shed"]:
        failures.append(f"{raw['shed']} forwards shed")
    if raw["get_failures"]:
        failures.append(f"{raw['get_failures']} control-plane reads failed")
    done = raw["windows_done"]
    lat = latency_summary(raw["latencies"])
    return {
        "metrics": {
            "setup_s": statistics.median(raw["setups"]),
            "throughput_per_s": rate(raw["verdict_counts"], raw["latencies"]),
            "lat_p50_ms": lat["p50_ms"],
            "lat_p99_ms": lat["p99_ms"],
        },
        "latency": lat,
        "work": raw["verdict_counts"],
        "latencies_s": raw["latencies"],
        "attempted": sum(inputs["forwards"][:done]) + raw["gets"],
        "failed": differing + raw["shed"] + raw["get_failures"],
        "failures": failures,
        "outputs": {"verdicts": got},
        "streamed_forwards": sum(inputs["forwards"][1:done]),
        "detail": {
            "setups_s": raw["setups"],
            "windows": len(raw["latencies"]),
            "verdicts": len(got),
        },
    }


def same_outputs(a: dict, b: dict) -> bool:
    """Traced and untraced verdict streams agree on their common prefix."""
    n = min(len(a["verdicts"]), len(b["verdicts"]))
    return n > 0 and a["verdicts"][:n] == b["verdicts"][:n]


def ledger(result: dict, tracer) -> dict:
    """Per-layer metrics from a traced run's spans."""
    verdicts = max(1, sum(result["work"]))
    windows = tracer.named("window")
    window_total = sum(s.duration for s in windows)
    steps = tracer.named("server.process_step")
    step_by_request: dict[int, float] = {}
    for span in steps:
        step_by_request[span.request] = step_by_request.get(span.request, 0.0) + span.duration
    overhead = [s.duration - step_by_request.get(s.request, 0.0) for s in windows]
    tenth = max(1, len(overhead) // 10)
    store_calls = sum(tracer.count(f"store.{m}") for m in ("record", "interval", "sample_count"))
    store_time = sum(tracer.total(f"store.{m}") for m in ("record", "interval", "sample_count"))
    forwards = result["streamed_forwards"]
    return {
        "service.datagram_us": _mean_us(tracer, "service.handle_datagram"),
        "service.overhead_share": 1.0 - _ratio(sum(s.duration for s in steps), window_total),
        "service.overhead_growth": _ratio(
            statistics.median(overhead[-tenth:]), statistics.median(overhead[:tenth])
        ),
        "server.step_ms": _mean_us(tracer, "server.process_step") / 1e3,
        "server.copies_per_uplink": forwards / verdicts,
        "lorawan.receive_frame_us": _mean_us(tracer, "lorawan.receive_frame"),
        "lorawan.share": _ratio(tracer.total("lorawan.receive_frame"), window_total),
        "core.check_us": _mean_us(tracer, "core.check"),
        "store.calls_per_verdict": store_calls / verdicts,
        "store.us_per_verdict": store_time * 1e6 / verdicts,
        "store.commit_ms": _mean_us(tracer, "store.commit") / 1e3,
        "rest.scrape_ms": _mean_us(tracer, "rest.get") / 1e3,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def _mean_us(tracer, name: str) -> float:
    spans = tracer.named(name)
    return sum(s.duration for s in spans) * 1e6 / len(spans) if spans else 0.0

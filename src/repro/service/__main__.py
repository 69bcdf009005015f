"""Command-line entry point: ``python -m repro.service``.

Boots a :class:`~repro.service.daemon.NetworkServerDaemon` around a
fresh :class:`~repro.server.NetworkServer` and runs until interrupted.
Devices can be pre-provisioned from a JSON file (see ``--devices``);
without one the daemon starts empty and every uplink is rejected as
coming from an unknown device -- fine for wire-level smoke tests.

The ``--devices`` file maps hex DevAddrs to session key material::

    {"26000000": {"nwk_skey": "<32 hex>", "app_skey": "<32 hex>",
                  "fb_profile": [-20.0, 5.0, 30.0]}}

``--store`` selects the FB-history backend
(:func:`repro.server.store.open_store` specs): the default ``memory``
dies with the process, while ``sqlite:PATH`` persists every enrolled
fingerprint across restarts -- on boot the daemon reloads the store and
skips ``fb_profile`` bootstraps for devices that already have history,
so a restart keeps every learned FB interval and never double-records a
profile.  Only the FB half survives: the per-device FCnt-up watermark
(the commodity gateway's frame-counter validator) and the ADR state,
FCnt-down included, live in memory and start over, so after a restart
the first frame from each device passes the counter check whatever its
FCnt, and only its FB decides the replay verdict.

See ``docs/service.md`` for the full operator guide and ``docs/store.md``
for the backend matrix.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.core.detector import ReplayDetector
from repro.lorawan.security import SessionKeys
from repro.server.network_server import NetworkServer
from repro.server.store import open_store, store_batch, store_stats
from repro.service.config import ServiceConfig
from repro.service.daemon import NetworkServerDaemon


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the SoftLoRa network-server daemon.",
    )
    parser.add_argument("--udp-host", default="0.0.0.0", help="Semtech UDP bind host")
    parser.add_argument("--udp-port", type=int, default=1700, help="Semtech UDP bind port")
    parser.add_argument("--http-host", default="0.0.0.0", help="control-plane bind host")
    parser.add_argument("--http-port", type=int, default=8080, help="control-plane bind port")
    parser.add_argument(
        "--queue-limit", type=int, default=10_000, help="forwards that may await resolution"
    )
    parser.add_argument(
        "--linger-s", type=float, default=0.05, help="idle time that closes a batch (s)"
    )
    parser.add_argument(
        "--max-hold-s", type=float, default=2.0, help="hard batching bound (s)"
    )
    parser.add_argument(
        "--devices", default=None, help="JSON file of devices to provision (see module docs)"
    )
    parser.add_argument(
        "--store",
        default="memory",
        help="FB-history store spec: memory (default) or sqlite:PATH, "
        "optionally with ?history=N (see docs/store.md)",
    )
    return parser.parse_args(argv)


def _provision(server: NetworkServer, path: str) -> int:
    """Register devices; bootstrap FB profiles only for unseen nodes.

    A persistent store already holds the histories learned before a
    restart -- re-recording the offline profile on top of them would
    shift every acceptance interval, so profiles apply only when the
    store has no samples for the node (reload-on-boot).  Every profile
    is written inside one store transaction: a malformed entry
    part-way through the table rolls back the profiles before it.
    """
    with open(path, encoding="utf-8") as handle:
        table = json.load(handle)
    database = server.detector.database
    with store_batch(database):
        for addr_text, entry in table.items():
            dev_addr = int(addr_text, 16)
            keys = SessionKeys(
                nwk_skey=bytes.fromhex(entry["nwk_skey"]),
                app_skey=bytes.fromhex(entry["app_skey"]),
            )
            server.register_device(dev_addr, keys)
            profile = entry.get("fb_profile")
            if profile and database.sample_count(f"{dev_addr:08x}") == 0:
                server.bootstrap_fb_profile(dev_addr, [float(v) for v in profile])
    return len(table)


async def _serve(args: argparse.Namespace) -> None:
    store = open_store(args.store)
    server = NetworkServer(detector=ReplayDetector(database=store))
    stats = store_stats(store)
    print(
        f"fb store: {args.store} ({stats['backend']}, "
        f"{stats['node_count']} nodes reloaded)"
    )
    if args.devices:
        count = _provision(server, args.devices)
        print(f"provisioned {count} devices from {args.devices}")
    config = ServiceConfig(
        udp_host=args.udp_host,
        udp_port=args.udp_port,
        http_host=args.http_host,
        http_port=args.http_port,
        queue_limit=args.queue_limit,
        linger_s=args.linger_s,
        max_hold_s=args.max_hold_s,
    )
    daemon = NetworkServerDaemon(server=server, config=config)
    await daemon.start()
    print(
        f"network-server daemon up: Semtech UDP on {args.udp_host}:{daemon.udp_port}, "
        f"control plane on http://{args.http_host}:{daemon.http_port}"
    )
    try:
        await asyncio.Event().wait()
    finally:
        await daemon.stop()


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and run the daemon until interrupted."""
    args = _parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        print("daemon stopped")
    return 0


if __name__ == "__main__":
    sys.exit(main())

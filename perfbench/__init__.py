"""The repository's benchmark: three workloads timed from outside the program.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
is the one entry point; ``perfbench/README.md`` documents the workloads,
the metrics and the layer each per-layer metric belongs to.
"""

#: Workload name -> module implementing ``generate``/``run``/``ledger``.
WORKLOADS = {
    "ns-sqlite": "perfbench.ns_sqlite",
    "gateway-iq": "perfbench.gateway_iq",
    "fleet-day": "perfbench.fleet_day",
}

"""The benchmark's own tests: statistics, spans, digests, traced-run parity.

Workloads run here on miniature inputs (a few devices, a two-batch
pool, a small fleet) so the suite stays fast; the full-size inputs are
only built by ``perfbench/run.py``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import WORKLOADS, fleet_day, gateway_iq, ns_sqlite
from perfbench.stats import digest, latency_summary, nearest_rank, rate, supported_percentile, units
from perfbench.trace import Span, Tracer, self_time

ROOT = Path(__file__).resolve().parents[2]


# -- the percentile-with-ten-beyond rule ---------------------------------------


@pytest.mark.parametrize("n", [11, 12, 50, 200, 999, 1000, 1001, 5000])
def test_supported_percentile_leaves_at_least_ten_beyond(n):
    """The tail percentile always has ten samples beyond it; p99 from 1000 on."""
    pct = supported_percentile(n)
    rank = math.ceil(pct / 100.0 * n)
    assert n - rank >= 10
    if n < 1000:
        assert n - rank == 10
    else:
        assert pct == 99.0


def test_no_percentile_is_supported_by_ten_samples_or_fewer():
    """Ten samples or fewer support no tail percentile."""
    assert supported_percentile(10) == 0.0
    assert latency_summary([0.001] * 10)["tail_ms"] is None


def test_nearest_rank_and_latency_summary():
    """Nearest-rank percentiles and the summary agree on a known series."""
    samples = [i / 1000.0 for i in range(1, 1001)]
    summary = latency_summary(samples)
    assert summary["n"] == 1000
    assert summary["p99_ms"] == pytest.approx(990.0)
    assert summary["tail_ms"] == summary["p99_ms"]
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0


def test_a_run_does_a_fixed_number_of_units():
    """Work units scale with seconds and clamp to what the inputs hold."""
    assert units(20, 55, 5000) == 1100
    assert units(20, 55, 300) == 300
    assert units(0.01, 55, 300, minimum=20) == 20
    assert rate([10, 30], [1.0, 3.0]) == pytest.approx(10.0)


# -- span self-time arithmetic -------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    """Overlapping children count once; children are clipped to the parent."""
    parent = Span("p", 0.0, 10.0, -1, 0)
    children = [
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: [1, 5] counted once
        Span("c", 9.0, 12.0, 0, 0),  # clipped to [9, 10]
    ]
    assert self_time(parent, children) == pytest.approx(5.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_wrapped_calls_nest_and_sum_to_their_self_times():
    """Instance wrappers record nested spans whose self times sum to the root."""
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    layer = Layer()
    tracer = Tracer()
    tracer.wrap(layer, "outer", "outer")
    tracer.wrap(layer, "inner", "inner")
    tracer.request = 7
    assert layer.outer() == 2
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (-1, 0)
    assert outer.request == inner.request == 7
    selfs = tracer.self_times()
    assert selfs["outer"] + selfs["inner"] == pytest.approx(outer.duration)
    assert Layer().outer() == 2  # only the instance was wrapped


# -- input digests -------------------------------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's generated inputs to test size."""
    monkeypatch.setattr(ns_sqlite, "N_DEVICES", 4)
    monkeypatch.setattr(ns_sqlite, "CLEAN_S", 240.0)
    monkeypatch.setattr(ns_sqlite, "ATTACK_S", 240.0)
    monkeypatch.setattr(ns_sqlite, "N_ATTACKED", 1)
    monkeypatch.setattr(ns_sqlite, "REGISTRY", 20)
    monkeypatch.setattr(ns_sqlite, "SETUPS", 2)
    monkeypatch.setattr(gateway_iq, "SIZES", (1, 3))
    monkeypatch.setattr(gateway_iq, "ROUNDS", 3)
    monkeypatch.setattr(gateway_iq, "N_SPOT_CHECKS", 2)
    monkeypatch.setattr(gateway_iq, "SETUPS", 2)
    monkeypatch.setattr(fleet_day, "N_DEVICES", 3000)
    monkeypatch.setattr(fleet_day, "PHASES_PER_DAY", 3)
    monkeypatch.setattr(fleet_day, "SETUPS", 2)


@pytest.mark.parametrize("module", [ns_sqlite, gateway_iq, fleet_day])
def test_input_digest_is_stable_for_a_fixed_seed(tiny, module):
    """One seed gives one digest; another seed gives another."""
    first = module.generate(3)
    assert module.generate(3)["digests"] == first["digests"]
    assert module.generate(4)["digests"]["inputs"] != first["digests"]["inputs"]


def test_digest_distinguishes_types_and_order():
    """The digest sees element order and bytes versus text."""
    assert digest([1, 2]) != digest([2, 1])
    assert digest({"a": b"x"}) != digest({"a": "x"})


# -- traced runs reproduce untraced outputs ------------------------------------


@pytest.mark.parametrize("module", [ns_sqlite, gateway_iq, fleet_day])
def test_traced_run_outputs_equal_untraced_outputs(tiny, module, tmp_path):
    """Tracing changes no output, and the ledger names only listed metrics."""
    inputs = module.generate(5)
    plain = module.run(inputs, 0.2, None, tmp_path)
    tracer = Tracer()
    traced = module.run(inputs, 0.2, tracer, tmp_path)
    assert module.same_outputs(plain["outputs"], traced["outputs"])
    ledger = module.ledger(traced, tracer)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(ledger) <= {m["name"] for m in config["per_layer"]}
    assert all(math.isfinite(v) for v in ledger.values())
    assert set(plain["metrics"]) | {"peak_rss_mb"} == {m["name"] for m in config["end_to_end"]}


def test_ns_sqlite_daemon_matches_the_oracle(tiny, tmp_path):
    """Over a whole stream the daemon issues exactly the oracle's verdicts."""
    inputs = ns_sqlite.generate(6)
    result = ns_sqlite.run(inputs, 5.0, None, tmp_path)
    assert result["detail"]["windows"] == len(inputs["windows"]) - 1  # after the boot's
    assert result["outputs"]["verdicts"] == inputs["oracle"]
    assert result["failed"] == 0


# -- the benchmark's description and entry point -------------------------------


def test_every_per_layer_metric_is_documented():
    """Every metric in BENCHMARK.json appears in the benchmark's README."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for metric in config["per_layer"] + config["end_to_end"]:
        assert f"`{metric['name']}`" in readme, metric["name"]
    assert {w["name"] for w in config["workloads"]} <= set(WORKLOADS)
    assert "`fleet-day`" in readme


def test_run_fails_without_the_program(tmp_path):
    """Without the program's sources the entry point fails and prints nothing."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    args = ["--workload", "fleet-day", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

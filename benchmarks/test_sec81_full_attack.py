"""Bench Sec. 8.1.1: the full frame delay attack in the building."""

import pytest

from repro.attack.jammer import JammingOutcome
from repro.server import ServerStatus
from repro.experiments.attack_e2e import run_attack_e2e


def test_sec81_full_attack(benchmark):
    result = benchmark.pedantic(run_attack_e2e, rounds=1, iterations=1)
    print()
    print(result.format())

    # The cross-building link needs SF >= 8 (SF7 is below its floor).
    assert result.min_viable_sf == 8
    # The jamming lands in the stealthy window: silent drop, no alert.
    assert result.jam_outcome is JammingOutcome.SILENT_DROP
    # Crypto does not help: the commodity gateway accepts the replay...
    assert result.commodity_accepted_replay
    # ...and every reconstructed timestamp is shifted by exactly τ.
    assert result.timestamp_shift_s == pytest.approx(
        result.injected_delay_s, abs=0.05
    )
    # Power control keeps the replay decodable at the gateway yet
    # inaudible beyond the building.
    assert result.replay_within_linear_range
    assert not result.monitor_can_hear_replay
    # SoftLoRa's FB check flags the replay.
    assert result.softlora_status is ServerStatus.REPLAY_DETECTED

"""Tests for the RTT strawman detector and the ALOHA traffic model."""

import numpy as np
import pytest

from repro.core.rtt_detector import RttCostModel, RttDetector, RttObservation
from repro.errors import ConfigurationError
from repro.experiments.rtt_baseline import run_rtt_baseline
from repro.lorawan.downlink import RX1_DELAY_S
from repro.phy.airtime import airtime_s
from repro.radio.channel import Transmission, resolve_collisions
from repro.sim.traffic import (
    PeriodicTrafficModel,
    offered_load_erlangs,
    pure_aloha_success_probability,
)


class TestRttDetector:
    @pytest.fixture
    def detector(self):
        up = airtime_s(20, 7)
        return RttDetector(uplink_airtime_s=up, ack_airtime_s=airtime_s(12, 7))

    def test_expected_rtt_includes_rx1_delay(self, detector):
        assert detector.expected_rtt_s > RX1_DELAY_S

    def test_normal_round_trip_passes(self, detector):
        obs = RttObservation(10.0, 10.0 + detector.expected_rtt_s + 0.02)
        assert not detector.check(obs)

    def test_delayed_round_trip_flagged(self, detector):
        obs = RttObservation(10.0, 10.0 + detector.expected_rtt_s + 60.0)
        assert detector.check(obs)

    def test_missing_ack_flagged(self, detector):
        assert detector.check(RttObservation(10.0, None))

    def test_early_ack_also_flagged(self, detector):
        # An ack arriving impossibly early is just as anomalous.
        obs = RttObservation(10.0, 10.0 + 0.1)
        assert detector.check(obs)

    def test_observations_recorded(self, detector):
        detector.check(RttObservation(1.0, None))
        detector.check(RttObservation(2.0, 2.0 + detector.expected_rtt_s))
        assert len(detector.observations) == 2

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            RttDetector(uplink_airtime_s=0.0, ack_airtime_s=0.1)
        with pytest.raises(ConfigurationError):
            RttDetector(uplink_airtime_s=0.1, ack_airtime_s=0.1, tolerance_s=-1.0)


class TestRttCostModel:
    def test_overhead_is_substantial(self):
        cost = RttCostModel()
        # Acking a 20-byte uplink costs a large fraction of its airtime.
        assert cost.airtime_overhead_ratio(20) > 0.4

    def test_fleet_bound_scales_with_period(self):
        cost = RttCostModel()
        small, large = cost.max_fleet_size(60.0), cost.max_fleet_size(600.0)
        # Ten times the reporting period serves ~ten times the devices
        # (up to integer truncation).
        assert 10 * small <= large <= 10 * (small + 1)

    def test_small_fleet_fully_served(self):
        cost = RttCostModel()
        assert cost.simulate_ack_service(5, 60.0, 600.0) == 1.0

    def test_large_fleet_starved(self):
        cost = RttCostModel()
        small = cost.simulate_ack_service(10, 60.0, 600.0)
        large = cost.simulate_ack_service(400, 60.0, 600.0)
        assert large < small

    def test_invalid_period(self):
        with pytest.raises(ConfigurationError):
            RttCostModel().max_fleet_size(0.0)


class TestRttBaselineExperiment:
    def test_paper_argument_reproduced(self):
        result = run_rtt_baseline()
        # It does detect...
        assert result.detects_delay
        assert result.detects_loss
        # ...at a continuous cost SoftLoRa does not pay.
        assert result.airtime_overhead_ratio > 0.4
        assert result.softlora_airtime_overhead == 0.0
        # The single downlink chain saturates for large fleets.
        assert result.ack_service_fraction[10] == 1.0
        assert result.ack_service_fraction[200] < 1.0
        assert "Sec. 4.4" in result.format()


class TestTrafficModel:
    def test_schedule_is_time_ordered(self):
        model = PeriodicTrafficModel(period_s=60.0, jitter_s=5.0)
        times, indices = model.schedule_arrays(3, duration_s=600.0)
        assert times.tolist() == sorted(times.tolist())
        assert set(indices.tolist()) == {0, 1, 2}

    def test_each_device_reports_about_duration_over_period(self):
        model = PeriodicTrafficModel(period_s=60.0, jitter_s=5.0)
        times, _ = model.schedule_arrays(1, duration_s=600.0)
        assert 8 <= times.size <= 11

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            PeriodicTrafficModel(period_s=0.0, jitter_s=0.0)
        with pytest.raises(ConfigurationError):
            PeriodicTrafficModel(period_s=10.0, jitter_s=10.0)

    def test_deterministic_with_seed(self):
        a, _ = PeriodicTrafficModel(60.0, 5.0, rng=np.random.default_rng(1)).schedule_arrays(
            1, 300.0
        )
        b, _ = PeriodicTrafficModel(60.0, 5.0, rng=np.random.default_rng(1)).schedule_arrays(
            1, 300.0
        )
        assert a.tolist() == b.tolist()


class TestAlohaChannel:
    @staticmethod
    def _tx(name, start, power=-80.0, duration=0.06, sf=7):
        return Transmission(
            sender=name,
            start_time_s=start,
            airtime_s=duration,
            rx_power_dbm=power,
            spreading_factor=sf,
        )

    def test_sparse_traffic_all_delivered(self):
        outcomes = resolve_collisions([self._tx(f"d{i}", i * 1.0) for i in range(5)])
        assert all(o.delivered for o in outcomes)

    def test_equal_power_overlap_collides(self):
        outcomes = resolve_collisions([self._tx("a", 0.0), self._tx("b", 0.03)])
        assert sum(not o.delivered for o in outcomes) == 2

    def test_capture_saves_the_stronger(self):
        outcomes = resolve_collisions(
            [self._tx("strong", 0.0, power=-70.0), self._tx("weak", 0.03, power=-90.0)]
        )
        delivered = {o.transmission.sender: o.delivered for o in outcomes}
        assert delivered["strong"] and not delivered["weak"]

    def test_load_and_throughput_formulas(self):
        load = offered_load_erlangs(100, 60.0, 0.06)
        assert load == pytest.approx(0.1)
        assert pure_aloha_success_probability(load) == pytest.approx(np.exp(-0.2))
        assert pure_aloha_success_probability(0.0) == 1.0
        with pytest.raises(ConfigurationError):
            pure_aloha_success_probability(-1.0)

    def test_simulated_collisions_track_aloha_prediction(self):
        # Heavy load: simulated delivery sits in the ballpark of exp(-2G).
        rng = np.random.default_rng(4)
        model = PeriodicTrafficModel(period_s=10.0, jitter_s=9.0, rng=rng)
        airtime = 0.3
        times, indices = model.schedule_arrays(20, duration_s=300.0)
        outcomes = resolve_collisions(
            [
                self._tx(f"d{i}", t, duration=airtime)
                for t, i in zip(times.tolist(), indices.tolist())
            ]
        )
        load = offered_load_erlangs(20, 10.0, airtime)
        predicted = pure_aloha_success_probability(load)
        measured = sum(o.delivered for o in outcomes) / len(outcomes)
        assert abs(measured - predicted) < 0.25


class TestSelectiveJammerContrast:
    def test_selective_jamming_is_not_stealthy(self):
        # Paper Sec. 2: the selective jammer of [5] must decode the
        # header first, so it can only corrupt payload -> CRC alert.
        from repro.attack.jammer import JammingOutcome, SelectiveJammer, StealthyJammer

        selective = SelectiveJammer()
        stealthy = StealthyJammer()
        for sf, payload in ((7, 10), (7, 30), (8, 30), (9, 30)):
            _, outcome = selective.jam(sf, payload, frame_start_s=0.0)
            assert outcome is JammingOutcome.CRC_ALERT, (sf, payload)
            _, stealthy_outcome = stealthy.jam(sf, payload, frame_start_s=0.0)
            assert stealthy_outcome is JammingOutcome.SILENT_DROP

    def test_selective_onset_after_header(self):
        from repro.attack.jammer import SelectiveJammer
        from repro.phy.airtime import airtime_breakdown

        jammer = SelectiveJammer()
        offset = jammer.earliest_onset_offset_s(7, 30)
        assert offset > airtime_breakdown(30, 7).header_end_s

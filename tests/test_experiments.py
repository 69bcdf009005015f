"""Tests for the experiment drivers (fast, reduced-size runs).

Each driver must (a) run, (b) produce the paper's qualitative shape, and
(c) format a paper-vs-measured table.  The benchmarks run the full-size
versions; these tests guard the drivers' logic at small scale.
"""

import numpy as np
import pytest

from repro.attack.jammer import JammingOutcome
from repro.server import ServerStatus
from repro.experiments.attack_e2e import min_viable_spreading_factor, run_attack_e2e
from repro.experiments.campus import run_campus
from repro.experiments.common import synthesize_capture
from repro.experiments.detection import run_detection
from repro.experiments.fig09_detectors import run_fig9
from repro.experiments.fig10_onset_snr import run_fig10
from repro.experiments.fig12_fb_pipeline import run_fig12
from repro.experiments.fig13_fleet_fb import run_fig13
from repro.experiments.fig14_ls_snr import run_fig14
from repro.experiments.fig15_building import run_fig15
from repro.experiments.fig16_txpower import run_fig16
from repro.experiments.overhead import run_overhead
from repro.experiments.table1_jamming import run_table1
from repro.experiments.table2_onset import run_table2
from repro.experiments.waveforms import run_fig6, run_fig7, run_fig8, run_fig11


class TestSynthesizeCapture:
    def test_onset_ground_truth(self, fast_config, rng):
        capture = synthesize_capture(fast_config, rng, snr_db=20.0)
        pad = int(capture.true_onset_index_float)
        assert capture.true_onset_time_s == pytest.approx(
            capture.true_onset_index_float / fast_config.sample_rate_hz
        )
        # Pre-onset region is noise-only: much lower power than signal.
        pre = np.mean(np.abs(capture.trace.samples[: pad - 2]) ** 2)
        post = np.mean(np.abs(capture.trace.samples[pad + 2 :]) ** 2)
        assert post > 10 * pre

    def test_signal_extends_to_window_end(self, fast_config, rng):
        capture = synthesize_capture(fast_config, rng, snr_db=30.0, n_chirps=4)
        tail = capture.trace.samples[-fast_config.samples_per_chirp // 4 :]
        assert np.mean(np.abs(tail) ** 2) > 0.5

    def test_integer_onset_when_disabled(self, fast_config, rng):
        capture = synthesize_capture(fast_config, rng, fractional_onset=False)
        assert capture.true_onset_index_float == int(capture.true_onset_index_float)


class TestWaveformFigures:
    def test_fig6(self):
        result = run_fig6()
        assert result.chirp_time_s == pytest.approx(1.024e-3)
        assert 19 <= result.n_psd_frames <= 22
        assert 40e-6 < result.time_resolution_s < 60e-6
        assert "Fig. 6" in result.format()

    def test_fig7_phase_flip_negates_waveform(self):
        result = run_fig7()
        assert result.max_abs_difference == pytest.approx(2.0, rel=0.01)
        np.testing.assert_allclose(result.i_theta_zero, -result.i_theta_pi, atol=1e-9)

    def test_fig8_dip_shift_direction_and_magnitude(self):
        result = run_fig8(fb_hz=-22.8e3)
        assert result.measured_shift_s > 0  # negative bias -> later dip
        assert result.measured_shift_s == pytest.approx(
            result.predicted_shift_s, abs=0.1e-3
        )

    def test_fig11_opposite_shifts(self):
        result = run_fig11()
        assert result.negative.measured_shift_s > 0
        assert result.positive.measured_shift_s < 0


class TestTable1:
    def test_rows_cover_paper_table(self):
        result = run_table1()
        assert len(result.rows) == 6
        assert {(r.spreading_factor, r.payload_bytes) for r in result.rows} == {
            (7, 10), (7, 20), (7, 30), (7, 40), (8, 30), (9, 30),
        }

    def test_model_within_tolerances(self):
        result = run_table1()
        assert result.max_relative_error("w1") < 0.35
        assert result.max_relative_error("w2") < 0.25
        assert result.max_relative_error("w3") < 0.15

    def test_format(self):
        assert "Table 1" in run_table1().format()


class TestTable2:
    def test_reduced_run_reproduces_split(self, rng):
        result = run_table2(n_runs=3, sample_rate_hz=1e6)
        assert result.max_aic_error_us() < 5.0
        assert result.max_env_error_us() < 40.0
        assert result.max_aic_error_us() < result.max_env_error_us()

    def test_format_lists_all_runs(self):
        result = run_table2(n_runs=2, sample_rate_hz=0.5e6)
        assert "run 2" in result.format()


class TestFig9:
    def test_detector_ordering(self):
        result = run_fig9(sample_rate_hz=1e6)
        assert result.errors_us["aic"] < 5.0
        assert result.errors_us["envelope"] < 40.0
        assert result.errors_us["spectrogram"] > result.errors_us["aic"]
        assert len(result.aic_curve) > 0
        assert "Fig. 9" in result.format()


class TestFig10:
    def test_shape(self):
        result = run_fig10(
            snrs_db=[-10.0, 0.0, 10.0, 30.0], n_trials=3, sample_rate_hz=1e6
        )
        # Error grows as SNR falls; building-range SNRs stay under 20 µs.
        assert result.error_at(30.0) < result.error_at(-10.0)
        assert result.error_at(0.0) < 20.0
        assert result.error_at(10.0) < 20.0

    def test_raw_ablation_worse_at_low_snr(self):
        filtered = run_fig10(snrs_db=[-10.0], n_trials=4, sample_rate_hz=1e6)
        raw = run_fig10(
            snrs_db=[-10.0], n_trials=4, sample_rate_hz=1e6, bandlimit_cutoff_hz=None
        )
        assert filtered.error_at(-10.0) <= raw.error_at(-10.0)


class TestFig12:
    def test_estimates_paper_value(self):
        result = run_fig12(sample_rate_hz=1e6)
        assert result.estimated_fb_hz == pytest.approx(-22.8e3, abs=150.0)
        assert abs(result.estimated_ppm) == pytest.approx(26.2, abs=0.5)
        assert result.residual_linearity_rmse < 1.0

    def test_intermediates_have_consistent_lengths(self):
        result = run_fig12(sample_rate_hz=0.5e6)
        n = len(result.i_trace)
        assert len(result.q_trace) == n
        assert len(result.rectified_phase) == n
        assert len(result.linear_residual) == n


class TestFig13:
    def test_replay_offsets_in_paper_band(self):
        result = run_fig13(
            n_nodes=3, frames_per_node=3, sample_rate_hz=0.5e6
        )
        for added in result.mean_additional_fb_hz:
            assert -743.0 - 60.0 <= added <= -543.0 + 60.0

    def test_original_fbs_in_paper_band(self):
        result = run_fig13(n_nodes=3, frames_per_node=3, sample_rate_hz=0.5e6)
        for summary in result.original:
            assert -25.5e3 <= summary.mean_hz <= -16.5e3

    def test_per_node_stability(self):
        result = run_fig13(n_nodes=2, frames_per_node=5, sample_rate_hz=0.5e6)
        for summary in result.original:
            assert summary.max_hz - summary.min_hz < 500.0


class TestFig14:
    def test_resolution_bound(self):
        result = run_fig14(
            snrs_db=[-25.0, -10.0, 0.0], n_trials=2, sample_rate_hz=0.5e6
        )
        assert result.max_error_hz() < 120.0  # the paper's resolution

    def test_both_noise_types_reported(self):
        result = run_fig14(snrs_db=[-10.0], n_trials=2, sample_rate_hz=0.5e6)
        assert len(result.gaussian_errors_hz) == 1
        assert len(result.real_errors_hz) == 1


class TestFig15:
    def test_snr_and_timing_claims(self):
        result = run_fig15(max_cells=8, sample_rate_hz=1e6, spreading_factor=9)
        lo, hi = result.snr_range_db()
        assert lo >= -1.5 and hi <= 13.5
        assert result.max_timing_error_us() < 10.0

    def test_measured_snr_close_to_link_snr(self):
        result = run_fig15(max_cells=5, sample_rate_hz=1e6, spreading_factor=9)
        for cell in result.cells:
            assert cell.measured_snr_db == pytest.approx(cell.link_snr_db, abs=1.5)


class TestFig16:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig16(frames_per_point=3, sample_rate_hz=0.5e6)

    def test_power_insensitivity(self, result):
        assert result.power_sensitivity_hz("gateway_direct") < 150.0
        assert result.power_sensitivity_hz("eavesdropper") < 150.0

    def test_replay_separation_near_2khz(self, result):
        assert -2600.0 < result.replay_separation_hz() < -1400.0

    def test_observers_differ(self, result):
        gap = result.eavesdropper[0].median - result.gateway_direct[0].median
        assert abs(gap) > 200.0


class TestCampus:
    def test_microsecond_accuracy_at_1km(self):
        result = run_campus(sample_rate_hz=1e6, spreading_factor=9)
        assert result.propagation_delay_us == pytest.approx(3.57, abs=0.05)
        assert result.max_error_us() < 10.0
        assert "1.07" in result.format()


class TestOverhead:
    def test_every_paper_number(self):
        result = run_overhead()
        assert result.sync_sessions_per_hour == pytest.approx(14.4)
        assert result.frames_per_hour == 24
        assert result.timestamp_overhead == pytest.approx(0.2667, abs=1e-3)
        assert result.buffer_time_s == pytest.approx(250.0)
        assert result.elapsed_bits == 18
        assert result.simulated_max_sync_error_s <= 10e-3 + 1e-9
        assert 13 <= result.simulated_sync_count <= 16


class TestAttackE2E:
    def test_min_sf_selection(self):
        assert min_viable_spreading_factor(-9.0) == 8
        assert min_viable_spreading_factor(0.0) == 7
        assert min_viable_spreading_factor(-19.0) == 12
        with pytest.raises(ValueError):
            min_viable_spreading_factor(-30.0)

    def test_full_scenario(self):
        result = run_attack_e2e()
        assert result.min_viable_sf == 8
        assert result.jam_outcome is JammingOutcome.SILENT_DROP
        assert result.commodity_accepted_replay
        assert result.timestamp_shift_s == pytest.approx(
            result.injected_delay_s, abs=0.05
        )
        assert result.replay_within_linear_range
        assert not result.monitor_can_hear_replay
        assert result.softlora_status is ServerStatus.REPLAY_DETECTED


class TestDetection:
    def test_perfect_detection_no_false_alarms(self):
        result = run_detection(n_devices=6, rounds=8, attacked=2)
        assert result.stats.detection_rate == 1.0
        assert result.stats.false_alarm_rate == 0.0
        assert result.stats.true_positives > 0
        assert result.stats.true_negatives > 0

"""Tests for replay detection (repro.core.detector) -- paper Sec. 7.2."""

import pytest

from repro.constants import SINGLE_USRP_REPLAY_FB_RANGE_HZ
from repro.core.detector import FbDatabase, FbInterval, ReplayDetector
from repro.errors import ConfigurationError


class TestFbDatabase:
    def test_record_and_query(self):
        db = FbDatabase()
        db.record("node", -20000.0)
        db.record("node", -20050.0)
        assert db.sample_count("node") == 2
        assert db.estimates("node") == [-20000.0, -20050.0]

    def test_interval_covers_range_plus_guard(self):
        db = FbDatabase()
        for fb in (-20000.0, -20100.0, -19950.0):
            db.record("node", fb)
        interval = db.interval("node", guard_hz=100.0)
        assert interval == FbInterval(low_hz=-20200.0, high_hz=-19850.0, samples=3)
        assert interval.samples == 3

    def test_interval_of_unknown_node_is_none(self):
        assert FbDatabase().interval("ghost", 100.0) is None

    def test_history_bounded(self):
        db = FbDatabase(history_len=5)
        for i in range(20):
            db.record("node", float(i))
        assert db.sample_count("node") == 5
        assert db.estimates("node") == [15.0, 16.0, 17.0, 18.0, 19.0]

    def test_bounded_history_tracks_drift(self):
        # Old estimates age out, letting the interval follow slow benign
        # drift (temperature) without growing without bound.
        db = FbDatabase(history_len=4)
        for fb in (-20000.0, -19990.0, -19980.0, -19970.0, -19960.0, -19950.0):
            db.record("node", fb)
        interval = db.interval("node", guard_hz=0.0)
        assert interval.low_hz == -19980.0

    def test_known_nodes_sorted(self):
        db = FbDatabase()
        db.record("b", 1.0)
        db.record("a", 1.0)
        assert db.known_nodes() == ["a", "b"]

    def test_invalid_history_len(self):
        with pytest.raises(ConfigurationError):
            FbDatabase(history_len=0)


class TestReplayDetector:
    @staticmethod
    def trained_detector(fb=-20000.0, guard=360.0, spread=50.0):
        detector = ReplayDetector(database=FbDatabase(), guard_hz=guard)
        detector.bootstrap("node", [fb - spread, fb, fb + spread])
        return detector

    def test_learning_phase_accepts_and_learns(self):
        detector = ReplayDetector(database=FbDatabase(), min_history=3)
        for i in range(3):
            result = detector.check("new", -20000.0 + i)
            assert not result.is_replay
            assert "learning" in result.reason
        assert detector.database.sample_count("new") == 3

    def test_in_range_accepted(self):
        detector = self.trained_detector()
        result = detector.check("node", -20030.0)
        assert not result.is_replay

    def test_guard_band_tolerates_estimation_noise(self):
        detector = self.trained_detector(guard=360.0, spread=50.0)
        # 100 Hz beyond the recorded extreme but within the guard band.
        assert not detector.check("node", -20150.0).is_replay

    def test_single_usrp_replay_detected(self):
        # The smallest measured replay offset (543 Hz) exceeds the guard
        # band (3 x 120 Hz): every Fig. 13 replay trips the detector.
        detector = self.trained_detector()
        for offset in SINGLE_USRP_REPLAY_FB_RANGE_HZ:
            result = detector.check("node", -20000.0 + offset)
            assert result.is_replay
            assert result.deviation_hz > 0

    def test_dual_usrp_replay_detected(self):
        detector = self.trained_detector()
        assert detector.check("node", -22000.0).is_replay

    def test_accepted_frames_update_database(self):
        detector = self.trained_detector()
        before = detector.database.sample_count("node")
        detector.check("node", -20010.0)
        assert detector.database.sample_count("node") == before + 1

    def test_flagged_frames_never_update_database(self):
        # Sec. 7.2: an FB from a detected replay must not poison history.
        detector = self.trained_detector()
        before = detector.database.estimates("node")
        detector.check("node", -25000.0)
        assert detector.database.estimates("node") == before

    def test_learning_can_be_disabled(self):
        detector = self.trained_detector()
        detector.learn_on_accept = False
        before = detector.database.sample_count("node")
        detector.check("node", -20000.0)
        assert detector.database.sample_count("node") == before

    def test_benign_temperature_drift_tracked(self):
        # Slow drift of ~20 Hz/frame stays within the guard band and the
        # detector follows it across a large cumulative excursion.
        detector = self.trained_detector()
        fb = -20000.0
        for step in range(50):
            fb += 20.0
            assert not detector.check("node", fb).is_replay
        # After drifting 1 kHz, the original value is now out of range.
        assert fb - (-20000.0) == pytest.approx(1000.0)

    def test_detection_does_not_require_unique_fbs(self):
        # Two nodes sharing an FB: detection is per-node change, not
        # identification (paper Sec. 7.2, note 2).
        detector = ReplayDetector(database=FbDatabase())
        detector.bootstrap("a", [-20000.0, -20010.0, -19990.0])
        detector.bootstrap("b", [-20000.0, -20010.0, -19990.0])
        assert not detector.check("a", -20000.0).is_replay
        assert not detector.check("b", -20000.0).is_replay
        assert detector.check("a", -20600.0).is_replay

    def test_checks_are_recorded(self):
        detector = self.trained_detector()
        results = [detector.check("node", fb) for fb in (-20000.0, -25000.0)]
        assert [(c.node_id, c.fb_hz, c.is_replay) for c in results] == [
            ("node", -20000.0, False),
            ("node", -25000.0, True),
        ]

    def test_deviation_reported(self):
        detector = self.trained_detector(guard=360.0, spread=0.0)
        result = detector.check("node", -21000.0)
        assert result.deviation_hz == pytest.approx(1000.0 - 360.0)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            ReplayDetector(database=FbDatabase(), guard_hz=0.0)
        with pytest.raises(ConfigurationError):
            ReplayDetector(database=FbDatabase(), min_history=0)


class TestFbInterval:
    def test_contains(self):
        interval = FbInterval(low_hz=-10.0, high_hz=10.0, samples=1)
        assert interval.contains(0.0)
        assert interval.contains(-10.0)
        assert interval.contains(10.0)
        assert not interval.contains(10.1)

    def test_width(self):
        assert FbInterval(low_hz=-5.0, high_hz=15.0, samples=1).width_hz == 20.0

"""Direct unit/property tests for the traffic model and ALOHA collisions.

Both were previously exercised only through higher layers; the
event-driven runtime now leans on their exact semantics -- jitter
bounds, duty-cycle compatibility, overlap symmetry -- so they get
pinned here on their own.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.channel import Transmission, resolve_collisions
from repro.sim.traffic import PeriodicTrafficModel


def _tx(name, start, power=-80.0, airtime=0.06, sf=7):
    return Transmission(
        sender=name,
        start_time_s=start,
        airtime_s=airtime,
        rx_power_dbm=power,
        spreading_factor=sf,
    )


class TestPeriodicTrafficJitterBounds:
    @given(
        period_s=st.floats(min_value=1.0, max_value=600.0),
        jitter_frac=st.floats(min_value=0.0, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        start_s=st.floats(min_value=0.0, max_value=1e4),
    )
    @settings(max_examples=40, deadline=None)
    def test_request_times_within_jittered_grid(self, period_s, jitter_frac, seed, start_s):
        jitter_s = period_s * jitter_frac
        duration_s = 10.0 * period_s
        model = PeriodicTrafficModel(
            period_s=period_s, jitter_s=jitter_s, rng=np.random.default_rng(seed)
        )
        times, indices = model.schedule_arrays(1, duration_s, start_s=start_s)
        assert times.size, "ten periods must produce at least one uplink"
        assert set(indices.tolist()) == {0}
        times = times.tolist()
        assert times == sorted(times)
        # Every request sits on its jittered grid slot: base tick in
        # [start, start + duration), plus jitter in [0, jitter).
        assert times[0] >= start_s
        assert times[-1] < start_s + duration_s + jitter_s
        # Consecutive reports of one device can shift against each other
        # by at most one full jitter span around the period (epsilon for
        # the accumulated float rounding of the schedule walk).
        eps = 1e-9 * (start_s + duration_s + period_s)
        for earlier, later in zip(times, times[1:]):
            gap = later - earlier
            assert period_s - jitter_s - eps <= gap <= period_s + jitter_s + eps

    def test_about_duration_over_period_reports_per_device(self):
        model = PeriodicTrafficModel(period_s=60.0, jitter_s=30.0)
        _, indices = model.schedule_arrays(3, 1200.0)
        for row in range(3):
            assert 19 <= np.count_nonzero(indices == row) <= 21

    def test_zero_jitter_is_strictly_periodic(self):
        model = PeriodicTrafficModel(period_s=10.0, jitter_s=0.0, rng=np.random.default_rng(0))
        times = model.schedule_arrays(1, 100.0)[0].tolist()
        gaps = {round(b - a, 9) for a, b in zip(times, times[1:])}
        assert gaps == {10.0}


class TestOverlapDetection:
    @given(
        start_a=st.floats(min_value=0.0, max_value=10.0),
        airtime_a=st.floats(min_value=1e-3, max_value=2.0),
        start_b=st.floats(min_value=0.0, max_value=10.0),
        airtime_b=st.floats(min_value=1e-3, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_overlap_is_symmetric(self, start_a, airtime_a, start_b, airtime_b):
        a = _tx("a", start_a, airtime=airtime_a)
        b = _tx("b", start_b, airtime=airtime_b)
        assert a.overlaps(b) == b.overlaps(a)
        # Overlap iff the open intervals intersect.
        expected = start_a < start_b + airtime_b and start_b < start_a + airtime_a
        assert a.overlaps(b) == expected

    def test_touching_frames_do_not_overlap(self):
        a = _tx("a", 0.0, airtime=0.5)
        b = _tx("b", 0.5, airtime=0.5)
        assert not a.overlaps(b) and not b.overlaps(a)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_resolution_is_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        txs = [
            _tx(f"d{i}", float(rng.uniform(0.0, 1.0)), power=float(rng.uniform(-95, -70)))
            for i in range(6)
        ]
        fates = {}
        for _ in range(3):
            order = list(rng.permutation(len(txs)))
            outcomes = resolve_collisions([txs[i] for i in order])
            fate = {o.transmission.sender: o.delivered for o in outcomes}
            fates.setdefault("baseline", fate)
            assert fate == fates["baseline"]


def _fates(transmissions):
    outcomes = resolve_collisions(transmissions, capture_threshold_db=6.0)
    return {o.transmission.sender: o.delivered for o in outcomes}


class TestAlohaChannelCapture:
    def test_capture_at_exact_threshold_survives(self):
        outcomes = _fates([_tx("strong", 0.0, power=-74.0), _tx("weak", 0.01, power=-80.0)])
        assert outcomes == {"strong": True, "weak": False}

    def test_just_below_threshold_loses_both(self):
        outcomes = _fates([_tx("a", 0.0, power=-74.1), _tx("b", 0.01, power=-80.0)])
        assert list(outcomes.values()).count(False) == 2

    def test_cross_sf_frames_are_quasi_orthogonal(self):
        outcomes = _fates([_tx("sf7", 0.0, sf=7), _tx("sf8", 0.01, sf=8)])
        assert all(outcomes.values())

    def test_three_way_pileup_needs_margin_over_every_rival(self):
        outcomes = _fates(
            [
                _tx("top", 0.0, power=-70.0),
                _tx("mid", 0.01, power=-75.0),
                _tx("low", 0.02, power=-90.0),
            ]
        )
        # top clears mid by only 5 dB: nobody survives the pileup.
        assert outcomes == {"top": False, "mid": False, "low": False}

"""The receive chain's FB error is its onset error times the sweep rate.

An up-chirp sliced ``ε`` seconds late starts ``k·ε`` Hz higher, where
``k = W²/2^S`` is the sweep rate (paper Sec. 5.3), so the least-squares
estimator reads ``δ + k·ε``.  Over a grid of SF7 (1 Msps) and SF9
(0.5 Msps) captures at 0-30 dB, ``BatchPipeline``'s FB error minus
``k`` times its onset error is pinned small in every cell: once it has
the onset, the FB estimator is nearly exact, and FB accuracy work
belongs in onset detection.

Measured with 16 captures per cell: the residual's MAE was at most
14.5 Hz (SF7, 0 dB) and at most 7 Hz from 3 dB up, while the FB MAE
itself was 25-2,202 Hz.  With ``+k`` in place of ``-k`` the residual
was 50-4,404 Hz.
"""

import numpy as np
import pytest

from repro.experiments.common import ScenarioSpec, uniform_fb
from repro.phy.chirp import ChirpConfig
from repro.pipeline import BatchPipeline

CAPTURES_PER_CELL = 16
SNRS_DB = (0.0, 3.0, 6.0, 10.0, 15.0, 20.0, 25.0, 30.0)
#: About twice the largest measured cell MAE (14.5 Hz).
RESIDUAL_MAE_BOUND_HZ = 30.0
#: The residual stays below this share of the cell's FB MAE (at most
#: 0.022 measured, at SF7 and 15 dB), so the bound also bites in the
#: high-SNR cells whose whole FB MAE is near 30 Hz.
RESIDUAL_SHARE_BOUND = 0.1


@pytest.mark.parametrize("snr_db", SNRS_DB, ids=lambda snr: f"{snr:g}dB")
@pytest.mark.parametrize("sf, rate", [(7, 1e6), (9, 0.5e6)], ids=["sf7", "sf9"])
def test_fb_error_is_sweep_rate_times_onset_error(sf, rate, snr_db):
    config = ChirpConfig(spreading_factor=sf, sample_rate_hz=rate)
    spec = ScenarioSpec(config, snr_db=snr_db, fb_hz=uniform_fb(), n_chirps=3)
    rng = np.random.default_rng([sf, int(snr_db)])
    batch, captures = spec.synthesize_batch(rng, CAPTURES_PER_CELL)
    result = BatchPipeline(config=config).run(batch)

    onset_error_s = result.phy_timestamps_s - [c.true_onset_time_s for c in captures]
    fb_error_hz = result.fb_hz - [c.fb_hz for c in captures]
    sweep_rate_hz_per_s = config.bandwidth_hz**2 / 2**sf
    residual_mae_hz = np.mean(np.abs(fb_error_hz - sweep_rate_hz_per_s * onset_error_s))
    fb_mae_hz = np.mean(np.abs(fb_error_hz))
    assert residual_mae_hz <= RESIDUAL_MAE_BOUND_HZ, (residual_mae_hz, fb_mae_hz)
    assert residual_mae_hz <= RESIDUAL_SHARE_BOUND * fb_mae_hz, (residual_mae_hz, fb_mae_hz)

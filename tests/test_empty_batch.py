"""Regressions: empty batches are no-ops, not numpy shape errors.

An idle fleet step hands the pipeline zero captures (and the world zero
device names); every batched entry point must map that to an empty
result instead of tripping over zero-length stacking.
"""

import numpy as np
import pytest

from repro.core.freq_bias import LeastSquaresFbEstimator
from repro.core.onset import AicDetector
from repro.core.softlora import SoftLoRaGateway
from repro.errors import ConfigurationError
from repro.experiments.common import ScenarioSpec
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.pipeline.batch import CaptureBatch
from repro.pipeline.engine import BatchPipeline


@pytest.fixture
def config():
    return ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6)


class TestEmptyCaptureBatch:
    def test_empty_constructor(self, config):
        batch = CaptureBatch.empty(config.sample_rate_hz)
        assert len(batch) == 0
        assert batch.start_times_s.shape == (0,)
        assert batch.metadata == []

    def test_from_traces_with_rate(self, config):
        batch = CaptureBatch.from_traces([], sample_rate_hz=config.sample_rate_hz)
        assert len(batch) == 0
        assert batch.sample_rate_hz == config.sample_rate_hz

    def test_from_traces_without_rate_still_raises(self):
        with pytest.raises(ConfigurationError):
            CaptureBatch.from_traces([])

    def test_synthesize_batch_of_zero(self, config, rng):
        spec = ScenarioSpec(config)
        batch, captures = spec.synthesize_batch(rng, 0)
        assert len(batch) == 0
        assert captures == []

    def test_negative_count_rejected(self, config, rng):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(config).synthesize_batch(rng, -1)


class TestEmptyPipelineRun:
    def test_engine_returns_empty_result(self, config):
        engine = BatchPipeline(config=config)
        result = engine.run(CaptureBatch.empty(config.sample_rate_hz))
        assert len(result) == 0
        assert result.onset_indices.shape == (0,)
        assert result.phy_timestamps_s.shape == (0,)
        assert result.fb_hz.shape == (0,)

    def test_estimator_empty_list(self, config):
        # An empty list maps to no estimates, as an empty (0, spc) array does.
        estimator = LeastSquaresFbEstimator(config)
        for chirps in ([], np.empty((0, config.samples_per_chirp))):
            estimates = estimator.estimate_batch(chirps)
            assert estimates.dtype == float and estimates.shape == (0,)

    def test_nonempty_after_empty_unaffected(self, config, rng):
        # An empty run must not poison caches or reference state.
        engine = BatchPipeline(config=config)
        engine.run(CaptureBatch.empty(config.sample_rate_hz))
        batch, captures = ScenarioSpec(config, snr_db=20.0).synthesize_batch(rng, 2)
        result = engine.run(batch)
        assert len(result) == 2
        assert np.isfinite(result.fb_hz).all()
        for row, capture in enumerate(captures):
            assert result.phy_timestamps_s[row] == AicDetector().detect(capture.trace).time_s


class TestEmptyWorldStep:
    def test_uplink_batch_empty_names(self):
        from repro.radio.channel import LinkBudget
        from repro.radio.geometry import Position
        from repro.radio.pathloss import LogDistancePathLoss
        from repro.sim.network import LoRaWanWorld
        from repro.sim.rng import RngStreams
        from repro.sim.scenarios import build_fleet

        streams = RngStreams(0)
        config = ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6)
        world = LoRaWanWorld(
            gateway=SoftLoRaGateway(config=config, commodity=CommodityGateway()),
            gateway_position=Position(0.0, 0.0, 1.0),
            link=LinkBudget(pathloss=LogDistancePathLoss(exponent=2.0)),
            rng=streams.stream("world"),
        )
        for device in build_fleet(n_devices=2, streams=streams):
            world.add_device(device)
        assert world.uplink_batch([]) == []
        assert world.events == []
        assert world.server.verdicts == []

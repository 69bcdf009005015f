"""Tests for the fleet_scale experiment driver (small grid)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import fleet_scale
from repro.experiments.fleet_scale import run_fleet_scale
from repro.server import FusionPolicy


@pytest.fixture(scope="module")
def result():
    return run_fleet_scale(
        gateway_counts=(1, 4),
        device_counts=(24,),
        clean_rounds=3,
        attack_rounds=1,
        attack_fraction=0.1,
    )


class TestFleetScale:
    def test_grid_covers_every_cell(self, result):
        assert [(c.n_gateways, c.n_devices) for c in result.cells] == [
            (1, 24),
            (4, 24),
        ]

    def test_more_gateways_never_hurt_delivery(self, result):
        assert result.cell(4, 24).delivery_rate >= result.cell(1, 24).delivery_rate

    def test_dedup_rate_grows_with_gateways(self, result):
        assert result.cell(1, 24).dedup_rate == pytest.approx(1.0)
        assert result.cell(4, 24).dedup_rate > 1.0

    def test_fusion_no_worse_than_best_single_gateway(self, result):
        cell = result.cell(4, 24)
        assert cell.fused_fb_mae_hz <= cell.best_single_fb_mae_hz

    def test_attack_detected_without_false_alarms(self, result):
        for cell in result.cells:
            assert cell.detection_tpr == 1.0
            assert cell.detection_fpr == 0.0

    def test_format(self, result):
        table = result.format()
        assert "Fleet scale" in table
        assert FusionPolicy.INVERSE_VARIANCE.value in table

    def test_best_snr_policy_runs(self):
        result = run_fleet_scale(
            gateway_counts=(2,),
            device_counts=(8,),
            clean_rounds=2,
            attack_rounds=1,
            fusion=FusionPolicy.BEST_SNR,
        )
        (cell,) = result.cells
        assert cell.resolved_uplinks > 0
        assert FusionPolicy.BEST_SNR.value in result.format()

    def test_cells_dispatch_heaviest_first(self, monkeypatch):
        dispatched = []
        run = fleet_scale.SweepExecutor.run

        def spy(executor, points, measure, **kwargs):
            points = list(points)
            dispatched.extend(point.key for point in points)
            return run(executor, points, measure, **kwargs)

        monkeypatch.setattr(fleet_scale.SweepExecutor, "run", spy)
        result = run_fleet_scale(
            gateway_counts=(1, 2), device_counts=(4, 8), clean_rounds=1, attack_rounds=1
        )
        # gateways x devices, descending; the two 8s keep declaration order.
        assert dispatched == [(2, 8, 0), (1, 8, 0), (2, 4, 0), (1, 4, 0)]
        assert [(c.n_gateways, c.n_devices) for c in result.cells] == [
            (1, 4),
            (1, 8),
            (2, 4),
            (2, 8),
        ]

    def test_zero_gateway_cell_rejected(self):
        # The ring's first gateway would otherwise hear a "0-gateway" cell.
        with pytest.raises(ConfigurationError, match="gateway"):
            run_fleet_scale(gateway_counts=(0,), device_counts=(4,))

"""Cross-gateway fusion of FB measurements and sync-free timestamps.

Each gateway estimates the same frame's frequency bias independently,
with estimation noise set by its own link SNR (the paper's Fig. 14
calibration).  The server fuses the per-gateway estimates under one of
two policies:

* **best-SNR** -- trust the gateway with the strongest link outright;
  the fused error equals that gateway's error by construction.
* **inverse-variance** -- the minimum-variance unbiased combination
  ``fb = Σ(fb_i/σ_i²) / Σ(1/σ_i²)`` with ``σ_i`` from a calibrated
  noise model; with N comparable gateways the fused σ shrinks ~√N below
  the best single link.

Timestamps fuse by *earliest arrival*: every gateway stamps the same
emission plus its own propagation delay and timestamping noise, so the
minimum is the tightest upper bound on the emission time available
without gateway clock sync.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Protocol, Sequence

import numpy as np

from repro.constants import FB_ESTIMATION_RESOLUTION_HZ
from repro.errors import ConfigurationError
from repro.server.forwarding import GatewayForward


class FbNoiseModel(Protocol):
    """Anything mapping link SNR to FB-estimation noise (1 sigma, Hz).

    Fusion always passes the contribution's ``spreading_factor``, so a
    model must accept it.  It may use it for per-SF estimator resolution
    (the chirp the FB is estimated from is ``2^SF`` samples long) or
    ignore it and keep the SF7 calibration.
    """

    def sigma_hz(self, snr_db: float, spreading_factor: int | None = None) -> float:
        """One-sigma FB estimation noise at a link SNR (optionally per SF)."""
        ...


@dataclass
class FbMeasurementModel:
    """Calibrated estimation-noise model of the least-squares FB estimator.

    The paper's Fig. 14 shows errors below 120 Hz down to -25 dB SNR and
    a few Hz at high SNR.  We model the per-frame error as zero-mean
    Gaussian with standard deviation shrinking 10x per 20 dB of SNR,
    clamped to [floor_hz, ceiling_hz].

    The Fig. 14 calibration is an SF7 measurement; the estimator works on
    one preamble chirp, whose duration doubles per SF step, so its
    frequency resolution scales as ``2^-(SF - 7)``.  Passing a
    ``spreading_factor`` applies that scale (clamped to the same floor),
    letting SF-heterogeneous fleets draw per-SF estimation noise; SF7
    reproduces the calibrated model bit for bit.

    The network server weights gateway FBs with :meth:`sigma_hz`; the
    fleet simulator draws whole steps of measurements with
    :meth:`measure_batch`.  Both raise 10 to the SNR power through the
    platform libm's ``pow`` (Python's ``**`` and ``np.float_power``),
    so a batch draws each frame's noise at exactly its ``sigma_hz``
    whatever numpy's SIMD level.
    """

    ceiling_hz: float = FB_ESTIMATION_RESOLUTION_HZ
    floor_hz: float = 2.0
    reference_snr_db: float = -25.0
    reference_sf: int = 7

    def _sf_scale(self, spreading_factor) -> Any:
        return np.float_power(2.0, -(np.asarray(spreading_factor, dtype=float) - self.reference_sf))

    def sigma_hz(self, snr_db: float, spreading_factor: int | None = None) -> float:
        """One-sigma FB estimation noise (Hz) at a link SNR, optionally per SF."""
        # Plain float arithmetic: the same IEEE operations as an np.clip
        # of the scalar, without numpy's per-call overhead.
        raw = self.ceiling_hz * 10.0 ** (-(float(snr_db) - self.reference_snr_db) / 20.0)
        sigma = min(max(raw, self.floor_hz), self.ceiling_hz)
        if spreading_factor is not None:
            scale = 2.0 ** -(float(spreading_factor) - self.reference_sf)
            sigma = min(max(sigma * scale, self.floor_hz), self.ceiling_hz)
        return float(sigma)

    def measure_batch(
        self,
        true_fbs_hz: np.ndarray,
        snrs_db: np.ndarray,
        rng: np.random.Generator,
        spreading_factors: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-frame FB measurements for a whole fleet step, one rng draw."""
        true_fbs = np.asarray(true_fbs_hz, dtype=float)
        snrs = np.asarray(snrs_db, dtype=float)
        raw = self.ceiling_hz * np.float_power(10.0, -(snrs - self.reference_snr_db) / 20.0)
        sigmas = np.clip(raw, self.floor_hz, self.ceiling_hz)
        if spreading_factors is not None:
            sigmas = np.clip(
                sigmas * self._sf_scale(spreading_factors), self.floor_hz, self.ceiling_hz
            )
        return true_fbs + sigmas * rng.standard_normal(true_fbs.shape)


class FusionPolicy(enum.Enum):
    """How per-gateway FB measurements combine into one number."""

    BEST_SNR = "best_snr"
    INVERSE_VARIANCE = "inverse_variance"


@dataclass(frozen=True)
class FusedFb:
    """One FB for one uplink, distilled from every reporting gateway."""

    fb_hz: float
    sigma_hz: float
    policy: FusionPolicy
    best_gateway_id: str
    best_snr_db: float
    n_gateways: int

    def as_dict(self) -> dict:
        """JSON-safe form for the service control plane (exact floats)."""
        return {
            "fb_hz": self.fb_hz,
            "sigma_hz": self.sigma_hz,
            "policy": self.policy.value,
            "best_gateway_id": self.best_gateway_id,
            "best_snr_db": self.best_snr_db,
            "n_gateways": self.n_gateways,
        }


def best_snr_contribution(contributions: Sequence[GatewayForward]) -> GatewayForward:
    """The contribution from the strongest link (ties: highest gateway id)."""
    if not contributions:
        raise ConfigurationError("cannot fuse zero contributions")
    return max(contributions, key=lambda c: (c.snr_db, c.gateway_id))


def fuse_fb(
    contributions: Sequence[GatewayForward],
    policy: FusionPolicy,
    noise_model: FbNoiseModel,
) -> FusedFb:
    """Fuse per-gateway FB measurements under the chosen policy.

    The result depends only on the *set* of contributions: the best-SNR
    pick breaks ties deterministically and the weighted sum is computed
    over contributions sorted by gateway id.
    """
    best = best_snr_contribution(contributions)
    ordered = sorted(contributions, key=lambda c: c.gateway_id)
    if policy is FusionPolicy.BEST_SNR:
        fb = best.fb_hz
        sigma = noise_model.sigma_hz(best.snr_db, best.spreading_factor)
    else:
        weight_sum = 0.0
        weighted_fb = 0.0
        for contribution in ordered:
            sigma_i = noise_model.sigma_hz(contribution.snr_db, contribution.spreading_factor)
            if sigma_i <= 0:
                raise ConfigurationError(
                    f"noise model returned sigma {sigma_i} <= 0 at "
                    f"{contribution.snr_db} dB SNR"
                )
            weight = 1.0 / (sigma_i * sigma_i)
            weight_sum += weight
            weighted_fb += weight * contribution.fb_hz
        fb = weighted_fb / weight_sum
        sigma = (1.0 / weight_sum) ** 0.5
    return FusedFb(
        fb_hz=float(fb),
        sigma_hz=float(sigma),
        policy=policy,
        best_gateway_id=best.gateway_id,
        best_snr_db=float(best.snr_db),
        n_gateways=len(contributions),
    )


def fuse_timestamp_s(contributions: Sequence[GatewayForward]) -> float:
    """Earliest PHY timestamp across gateways (least propagation + noise)."""
    if not contributions:
        raise ConfigurationError("cannot fuse zero contributions")
    return min(c.arrival_time_s for c in contributions)

"""PHY-layer signal timestamping: preamble onset detection (paper Sec. 6).

The SoftLoRa gateway needs the *arrival sample* of a LoRa frame for two
reasons: the onset time **is** the PHY timestamp used by sync-free data
timestamping, and the FB estimator must slice exactly one chirp of I/Q
data starting at the onset.

The paper evaluates four candidates:

* **spectrogram inspection** -- rejected: STFT time resolution (~50 µs at
  the Fig. 6 settings) is far too coarse;
* **matched filter** -- rejected: the receiver cannot phase-lock to the
  transmitter, and the I/Q waveform *shape* depends on the unknown phase
  difference θ and on the FB, so no fixed real-valued template exists;
* **envelope detector** -- Hilbert envelope; the onset is the sample with
  the largest ratio between its envelope amplitude and the previous
  sample's (errors ~5-10 µs in Table 2);
* **AIC detector** -- the autoregressive Akaike-Information-Criterion
  phase picker from seismology; single-sample accuracy (< 2 µs errors in
  Table 2); adopted by the paper.

Both adopted detectors are formulated as optimizations and need no
detection threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core._scratch import Scratch
from repro.errors import ConfigurationError, EstimationError
from repro.phy.chirp import ChirpConfig, upchirp
from repro.phy.spectrum import hilbert_envelope, spectrogram
from repro.sdr.iq import IQTrace

#: Rows per pass of the batched AIC kernel.  Its two cumulative-moment
#: buffers are each the size of one chunk and live in the detector's
#: per-thread scratch (the variances are built in the output); with 8-row
#: chunks a 64-capture batch took a quarter to two fifths less time than
#: in one pass over all rows.  Every row is computed independently either
#: way.
_AIC_ROWS = 8


@dataclass(frozen=True)
class OnsetResult:
    """A detected preamble onset."""

    index: int
    time_s: float
    detector: str
    diagnostics: dict[str, Any] = field(default_factory=dict)


def _component(trace: IQTrace, component: str) -> np.ndarray:
    if component == "i":
        return trace.i
    if component == "q":
        return trace.q
    if component == "magnitude":
        return np.abs(trace.samples)
    raise ConfigurationError(f"component must be 'i', 'q' or 'magnitude', got {component!r}")


class EnvelopeDetector:
    """Envelope-ratio onset picker (paper Sec. 6.1.2, Fig. 9a).

    The Hilbert envelope of the I (or Q) trace is extracted; the onset is
    the sample maximizing ``envelope[k] / envelope[k-1]``.  A short
    moving-average smoothing of the envelope (default 25 samples, ~10 µs
    at the RTL-SDR rate) suppresses spurious per-sample ratio spikes; it
    costs a small early bias of about half the window, which is visible in
    the paper's Table 2 as the envelope detector's ~5 µs errors versus the
    AIC detector's < 2 µs.
    """

    def __init__(self, smoothing_window: int = 25):
        if smoothing_window < 1:
            raise ConfigurationError(
                f"smoothing window must be >= 1 sample, got {smoothing_window}"
            )
        self.smoothing_window = smoothing_window

    def detect(self, trace: IQTrace, component: str = "i") -> OnsetResult:
        x = _component(trace, component)
        if len(x) < 3:
            raise EstimationError(f"trace too short for envelope detection ({len(x)} samples)")
        envelope = hilbert_envelope(x)
        if self.smoothing_window > 1:
            kernel = np.ones(self.smoothing_window) / self.smoothing_window
            envelope = np.convolve(envelope, kernel, mode="same")
        # Guard against division by exactly zero in synthetic noiseless
        # traces; any true onset still dominates the ratio.
        eps = max(float(np.max(envelope)) * 1e-12, 1e-300)
        ratio = envelope[1:] / np.maximum(envelope[:-1], eps)
        index = int(np.argmax(ratio)) + 1
        return OnsetResult(
            index=index,
            time_s=trace.time_of_index(index),
            detector="envelope",
            diagnostics={"max_ratio": float(ratio[index - 1])},
        )


class AicDetector:
    """Two-model AIC onset picker (paper Sec. 6.1.2, Fig. 9b).

    For every split point ``k`` the trace is modelled as two stationary
    segments; the Akaike information criterion

        ``AIC(k) = k·ln σ²(x[:k]) + (N−k)·ln σ²(x[k:])``

    is minimized over ``k``.  Computed in O(N) with cumulative moments.
    The trace should start in noise and contain the signal onset; the
    SoftLoRa capture window guarantees that.

    ``margin_fraction`` excludes a fraction of the trace at each end from
    the candidate split points: tiny segments have wildly noisy variance
    estimates and produce spurious edge minima at low SNR (a known AIC
    picker pathology).
    """

    def __init__(self, min_segment: int = 8, margin_fraction: float = 0.02):
        if min_segment < 2:
            raise ConfigurationError(f"min segment must be >= 2 samples, got {min_segment}")
        if not 0.0 <= margin_fraction < 0.5:
            raise ConfigurationError(
                f"margin fraction must be in [0, 0.5), got {margin_fraction}"
            )
        self.min_segment = min_segment
        self.margin_fraction = margin_fraction
        self._scratch = Scratch()

    def _guard(self, n: int) -> int:
        """Split points blanked at each end of an ``n``-sample curve."""
        return max(self.min_segment, int(n * self.margin_fraction))

    def aic_curve_batch(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """AIC curves for an ``(n_traces, n_samples)`` stack, vectorized.

        All cumulative moments run along the sample axis, so each chunk
        of rows is scored with a fixed number of numpy passes -- the
        batched pipeline's hot path.  Row ``r`` of the result is bitwise
        identical to ``aic_curve(x[r])``.  The curves are written into
        ``out`` (a float array of the stack's shape) when it is given.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise EstimationError(f"batch must be 2-D (n_traces, n_samples), got {x.shape}")
        n_traces, n = x.shape
        if n < 2 * self.min_segment:
            raise EstimationError(
                f"trace too short for AIC ({n} < {2 * self.min_segment} samples)"
            )
        if out is None:
            out = np.empty((n_traces, n))
        elif out.shape != x.shape:
            raise ConfigurationError(f"out of shape {out.shape} does not match {x.shape}")
        for first in range(0, n_traces, _AIC_ROWS):
            rows = slice(first, first + _AIC_ROWS)
            self._aic_rows(x[rows], out[rows])
        return out

    def _aic_rows(self, x: np.ndarray, out: np.ndarray) -> None:
        """:meth:`aic_curve_batch` on a validated chunk of rows, into ``out``."""
        n_traces, n = x.shape
        # Every elementwise op below writes into ``out`` or a scratch
        # buffer reused across calls; the arithmetic -- and therefore the
        # result, bitwise -- matches the textbook expression
        #   AIC(k) = k·ln σ²(x[:k]) + (N−k)·ln σ²(x[k:]).
        cs = self._scratch.array("cs", (n_traces, n + 1))
        cs[:, 0] = 0.0
        np.cumsum(x, axis=1, out=cs[:, 1:])
        cs2 = self._scratch.array("cs2", (n_traces, n + 1))
        cs2[:, 0] = 0.0
        squares = np.multiply(x, x, out=cs2[:, 1:])
        np.cumsum(squares, axis=1, out=squares)
        # Only the admissible split points are scored; both segments
        # there hold at least ``guard`` >= 2 samples.
        guard = self._guard(n)
        split = slice(guard, n - guard)
        k = np.arange(guard, n - guard, dtype=float)[np.newaxis, :]
        tail = n - k
        eps = 1e-30
        with np.errstate(invalid="ignore", divide="ignore"):
            # var_left = (cs2 − cs²/k) / k, in ``out``.
            head = cs[:, split]
            var_left = np.multiply(head, head, out=out[:, split])
            np.divide(var_left, k, out=var_left)
            np.subtract(cs2[:, split], var_left, out=var_left)
            np.divide(var_left, k, out=var_left)
            # var_right likewise, from the tail sums (cs reused as scratch).
            # The totals are copied out first: numpy copies a whole operand
            # whose memory range overlaps ``out`` unless both are one view.
            tail_sum = np.subtract(cs[:, -1:].copy(), head, out=head)
            var_right = np.subtract(cs2[:, -1:].copy(), cs2[:, split], out=cs2[:, split])
            np.multiply(tail_sum, tail_sum, out=tail_sum)
            np.divide(tail_sum, tail, out=tail_sum)
            np.subtract(var_right, tail_sum, out=var_right)
            np.divide(var_right, tail, out=var_right)
            # curves = k·ln(var_left) + (N−k)·ln(var_right).
            np.maximum(var_left, eps, out=var_left)
            np.log(var_left, out=var_left)
            np.multiply(var_left, k, out=var_left)
            np.maximum(var_right, eps, out=var_right)
            np.log(var_right, out=var_right)
            np.multiply(var_right, tail, out=var_right)
            np.add(var_left, var_right, out=var_left)
        out[:, :guard] = np.nan
        out[:, n - guard :] = np.nan

    def aic_curve(self, x: np.ndarray) -> np.ndarray:
        """The AIC value at every admissible split point (else NaN)."""
        return self.aic_curve_batch(np.asarray(x, dtype=float)[np.newaxis, :])[0]

    def pick(self, curves: np.ndarray, first_row: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Onset index and AIC minimum per row of :meth:`aic_curve_batch` curves.

        The argmin runs over the admissible split points only, so it
        skips the NaN guards without a masked copy and gives the index
        and minimum ``np.nanargmin`` would.  Every onset pick goes
        through here.  A non-finite minimum means the row holds NaN, inf
        or overflowing samples; it raises :class:`EstimationError`
        naming the rows, numbered from ``first_row``.
        """
        n = curves.shape[1]
        guard = self._guard(n)
        interior = curves[:, guard : n - guard]
        if interior.shape[1] == 0:
            raise EstimationError(f"no admissible AIC split point in {n} samples")
        # Row by row: numpy's argmin along an axis first copies a
        # non-contiguous stack such as this slice.
        offsets = np.fromiter(map(np.argmin, interior), dtype=np.intp, count=len(interior))
        minima = interior[np.arange(len(interior)), offsets]
        bad = np.flatnonzero(~np.isfinite(minima))
        if len(bad):
            raise EstimationError(
                f"AIC curve is not finite for capture rows {(bad + first_row).tolist()}: "
                "the samples hold NaN, inf or overflowing values"
            )
        return offsets + guard, minima

    def detect(self, trace: IQTrace, component: str = "i") -> OnsetResult:
        x = _component(trace, component)
        (index,), (minimum,) = self.pick(self.aic_curve(x)[np.newaxis, :])
        return OnsetResult(
            index=int(index),
            time_s=trace.time_of_index(int(index)),
            detector="aic",
            diagnostics={"aic_min": float(minimum)},
        )


class MatchedFilterDetector:
    """Real-template matched filter -- the approach the paper rejects.

    Correlates the received I (or Q) trace against the real part of an
    ideal chirp template generated with an *assumed* phase and FB.  Because
    the true θ is random and the transmitter's FB reshapes the waveform
    (paper Figs. 7-8), the real-template correlation peak wanders; the
    tests and the ablation bench demonstrate the failure mode the paper
    describes.  (A complex-envelope correlator would be phase-invariant,
    but needs the FB -- which is only available *after* onset detection.)
    """

    def __init__(
        self, config: ChirpConfig, template_phase: float = 0.0, template_fb_hz: float = 0.0
    ):
        self.config = config
        template = upchirp(config, fb_hz=template_fb_hz, phase=template_phase)
        self._template = template.real - np.mean(template.real)

    def detect(self, trace: IQTrace, component: str = "i") -> OnsetResult:
        x = _component(trace, component)
        if len(x) < len(self._template):
            raise EstimationError("trace shorter than the matched-filter template")
        correlation = np.correlate(x, self._template, mode="valid")
        index = int(np.argmax(np.abs(correlation)))
        return OnsetResult(
            index=index,
            time_s=trace.time_of_index(index),
            detector="matched_filter",
            diagnostics={"peak": float(np.abs(correlation[index]))},
        )


class SpectrogramOnsetDetector:
    """Spectrogram-based onset locator -- coarse by construction.

    Finds the first STFT frame whose in-band power exceeds a multiple of
    the noise-floor estimate.  Its resolution is one STFT hop (~50 µs at
    the paper's Fig. 6 settings), which is the paper's argument for
    rejecting it.
    """

    def __init__(self, config: ChirpConfig, threshold_over_floor: float = 4.0):
        if threshold_over_floor <= 1.0:
            raise ConfigurationError(
                f"threshold multiplier must exceed 1, got {threshold_over_floor}"
            )
        self.config = config
        self.threshold_over_floor = threshold_over_floor

    def detect(self, trace: IQTrace, component: str = "i") -> OnsetResult:
        del component  # the STFT uses the full complex trace
        spec = spectrogram(trace.samples, self.config)
        band = np.abs(spec.frequencies_hz) <= self.config.bandwidth_hz / 2
        power_per_frame = spec.power[band].sum(axis=0)
        # The capture may be mostly signal; the noise floor lives in the
        # lowest few frames.
        floor = np.percentile(power_per_frame, 5)
        above = np.nonzero(power_per_frame > floor * self.threshold_over_floor)[0]
        if len(above) == 0:
            raise EstimationError("no STFT frame exceeded the onset threshold")
        frame = int(above[0])
        index = int(round(spec.times_s[frame] * trace.sample_rate_hz))
        return OnsetResult(
            index=index,
            time_s=trace.time_of_index(index),
            detector="spectrogram",
            diagnostics={
                "frame": frame,
                "time_resolution_s": spec.time_resolution_s,
            },
        )

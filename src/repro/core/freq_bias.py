"""Frequency-bias estimation from one preamble chirp (paper Sec. 7.1).

The captured chirp obeys ``I(t) = A cos Θ(t)``, ``Q(t) = A sin Θ(t)`` with

    ``Θ(t) = π W²/2^S · t² − π W t + 2π δ t + θ``        (paper Eq. 5)

so the net bias ``δ = δTx − δRx`` sits in the *linear* phase term.  Two
estimators are provided, mirroring the paper:

**Linear regression** (Sec. 7.1.1).  Unwrap ``atan2(Q, I)`` (the paper's
2kπ rectification), subtract the known quadratic sweep
``πW²/2^S·t² − πWt``, and fit a line; the slope is ``2πδ``.  O(1) solution
but fragile at low SNR, where unwrap errors corrupt the rectification.

**Least squares** (Sec. 7.1.2).  Fit noiseless templates
``A cos Θ, A sin Θ`` to the traces over ``(θ, δ)``.  The paper solves this
with scipy's differential evolution (0.69 s on a Raspberry Pi); we provide
that solver verbatim (``method="de"``) plus an exact fast reduction
(``method="dechirp"``): for fixed δ the optimal θ is closed-form, and the
objective collapses to maximizing ``|Σ z(t)·e^{−j(quad(t)+2πδt)}|`` over δ
alone — a dechirped-tone frequency search solved by a coarse zero-padded
FFT grid and Newton refinement.  Both methods agree to sub-Hz
(property-tested); the fast one keeps the test suite quick.

The dechirp reduction is implemented **batched**: :meth:`estimate_batch`
takes an ``(n_chirps, samples_per_chirp)`` stack and runs every stage as
vectorized numpy over the whole batch, with no per-capture Python loop:

1. **dechirp** -- multiply by the cached conjugate sweep;
2. **coarse search** -- the zero-padded FFT's bins, but only those inside
   ``search_range_hz``, evaluated by one cached zoom FFT (``±40 kHz`` is
   8 % of a 1 Msps spectrum): a Bluestein chirp-z transform on
   :mod:`numpy.fft` that repeats scipy's zoom FFT operation for
   operation, so the dechirp method needs no scipy;
3. **refinement** -- a safeguarded Newton ascent on ``|C(f)|²`` that
   starts from a parabolic fit through the peak bin's neighbours and keeps
   a per-row bracket of ``±1`` bin clipped to the search range.  One pass
   computes ``C``, ``C′`` and ``C″``; two passes usually suffice.

Every row converges on its own: it stops when its Newton step or its
bracket shrinks to ``refine_tol_hz`` and drops out of the remaining
passes, and every reduction is row-wise.  So a row's estimate does not
depend on the batch around it, and :meth:`estimate` -- the batch of one --
agrees with :meth:`estimate_batch` bitwise.

Only the reference ``method="de"`` loads scipy, lazily, for
:func:`scipy.optimize.differential_evolution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from repro.core._scratch import Scratch
from repro.errors import ConfigurationError, EstimationError
from repro.phy.chirp import (
    ChirpConfig,
    cached_dechirp_template,
    cached_sample_times,
    cached_sweep_phase,
)
from repro.sdr.iq import IQTrace

#: Hard cap on refinement passes.  Bisection alone shrinks a one-bin
#: bracket below 1e-3 Hz in about 20 passes; Newton rows usually stop
#: after two.
_MAX_REFINE_PASSES = 64
#: Rows per zoom-FFT call.  The transform runs in place in one
#: ``(rows, nfft)`` buffer of the estimator's per-thread scratch, several
#: times the size of its input; 16-row chunks halved the coarse search's
#: time on a 64-row batch against one call, at SF7 and SF9 alike.
_ZOOM_ROWS = 16


@dataclass(frozen=True)
class FbEstimate:
    """An estimated frequency bias δ (Hz) with fit metadata."""

    fb_hz: float
    phase: float
    method: str
    diagnostics: dict[str, Any] = field(default_factory=dict)


def estimate_amplitude(iq: np.ndarray, noise_power: float = 0.0) -> float:
    """Template amplitude A from signal-plus-noise power (paper Sec. 7.1.2).

    ``E[I² + Q²] = A² + E[Z_I² + Z_Q²]``, so with the noise power profiled
    separately (when no LoRa signal is on the air),
    ``A = sqrt(mean power − noise power)``.
    """
    iq = np.asarray(iq)
    if iq.size == 0:
        raise EstimationError("cannot estimate amplitude of an empty trace")
    mean_power = float(np.mean(np.abs(iq) ** 2))
    if noise_power < 0:
        raise ConfigurationError(f"noise power must be >= 0, got {noise_power}")
    return float(np.sqrt(max(mean_power - noise_power, 0.0)))


def _chirp_samples(iq: np.ndarray | IQTrace, config: ChirpConfig) -> np.ndarray:
    """Extract exactly one chirp of complex samples."""
    samples = iq.samples if isinstance(iq, IQTrace) else np.asarray(iq, dtype=complex)
    n = config.samples_per_chirp
    if len(samples) < n:
        raise EstimationError(
            f"need one full chirp ({n} samples) for FB estimation, got {len(samples)}"
        )
    return samples[:n]


def _chirp_stack(chirps: np.ndarray | list, config: ChirpConfig) -> np.ndarray:
    """Validate/stack a batch of chirps into an ``(n, spc)`` complex array."""
    if isinstance(chirps, (list, tuple)):
        if not chirps:
            return np.empty((0, config.samples_per_chirp), dtype=complex)
        chirps = [c.samples if isinstance(c, IQTrace) else c for c in chirps]
        lengths = {len(c) for c in chirps}
        spc = config.samples_per_chirp
        if any(length < spc for length in lengths):
            raise EstimationError(
                f"need one full chirp ({spc} samples) per batch row for FB "
                f"estimation, got lengths {sorted(lengths)}"
            )
        chirps = np.stack([np.asarray(c, dtype=complex)[:spc] for c in chirps])
    stack = np.asarray(chirps, dtype=complex)
    if stack.ndim != 2:
        raise EstimationError(f"chirp batch must be 2-D (n, samples), got shape {stack.shape}")
    if stack.shape[1] < config.samples_per_chirp:
        raise EstimationError(
            f"need one full chirp ({config.samples_per_chirp} samples) per batch "
            f"row for FB estimation, got {stack.shape[1]}"
        )
    return stack[:, : config.samples_per_chirp]


def _quadratic_phase(config: ChirpConfig) -> np.ndarray:
    """The known sweep phase ``πW²/2^S·t² − πWt`` at the sample instants."""
    return cached_sweep_phase(config)


def _next_fast_len(target: int) -> int:
    """The smallest 11-smooth integer ``>= target``.

    These are the lengths pocketfft transforms fastest; the result equals
    ``scipy.fft.next_fast_len(target)`` for complex input.
    """
    size = target
    while True:
        rest = size
        for prime in (2, 3, 5, 7, 11):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return size
        size += 1


@dataclass(frozen=True, eq=False)
class _ZoomFft:
    """Bluestein chirp-z transform onto ``m`` bins from ``f1``, ``(f2 − f1)/m`` apart.

    The arithmetic is scipy's zoom FFT (``endpoint=False``) operation for
    operation, including each expression's grouping, so both give the
    same bits wherever numpy and scipy share a pocketfft.
    """

    #: ``a^{-k}·w^{k²/2}`` over the ``n`` input samples.
    awk2: np.ndarray
    #: The ``nfft``-point FFT of the reciprocal chirp ``w^{-k²/2}``,
    #: ``k = 1−n … m−1``.
    fwk2: np.ndarray
    #: ``w^{k²/2}`` over the ``m`` output bins.
    wk2: np.ndarray

    @classmethod
    def build(cls, n: int, f1: float, f2: float, m: int, fs: float) -> "_ZoomFft":
        """Plan the transform of ``n``-sample rows onto ``[f1, f2)`` at rate ``fs``."""
        k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
        scale = (f2 - f1) / fs
        wk2 = np.exp(-(1j * np.pi * scale * k**2) / m)
        awk2 = np.exp(-2j * np.pi * f1 / fs * k[:n]) * wk2[:n]
        nfft = _next_fast_len(n + m - 1)
        fwk2 = np.fft.fft(1 / np.hstack((wk2[n - 1 : 0 : -1], wk2[:m])), nfft)
        return cls(awk2=awk2, fwk2=fwk2, wk2=wk2[:m])

    def __call__(self, x: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """Transform every row of ``x``, shape ``(rows, n)`` → ``(rows, m)``.

        The transform runs in place in ``work``, a complex
        ``(rows, nfft)`` buffer (allocated when not given), and the
        result is a view into it.  The plan is shared between
        estimators and threads, so it holds no buffer of its own.
        """
        n, m, nfft = len(self.awk2), len(self.wk2), len(self.fwk2)
        if work is None:
            work = np.empty((len(x), nfft), dtype=complex)
        np.multiply(x, self.awk2, out=work[:, :n])
        work[:, n:] = 0.0
        np.fft.fft(work, out=work)
        # fwk2 stays the first operand: complex multiplication is not
        # bitwise commutative under numpy's fused multiply-add.
        np.multiply(self.fwk2, work, out=work)
        np.fft.ifft(work, out=work)
        y = work[:, n - 1 : n + m - 1]
        return np.multiply(y, self.wk2, out=y)


@dataclass(frozen=True)
class _ZoomPlan:
    """The coarse search's grid: the in-range bins of the zero-padded FFT."""

    #: ``fftfreq`` bin frequencies inside the search range, ascending.
    freqs: np.ndarray
    #: The padded FFT's bin spacing, ``sample_rate / n_fft``.
    bin_width_hz: float
    #: Evaluates ``freqs`` on a ``(n, samples_per_chirp)`` stack; ``None``
    #: when the search range excludes every bin.
    zoom: _ZoomFft | None


@lru_cache(maxsize=32)
def _cached_zoom_plan(
    config: ChirpConfig, search_range_hz: tuple[float, float], zero_pad_factor: int
) -> _ZoomPlan:
    """Memoized coarse-search plan for one estimator configuration.

    The grid is the one an ``n_fft``-point FFT would give, ``n_fft`` being
    ``samples_per_chirp · zero_pad_factor`` rounded up to a power of two,
    but only the bins inside ``search_range_hz`` are kept.  Building the
    zoom FFT costs milliseconds at SF12, so estimators of one
    configuration share it; the cache is bounded because a plan holds
    arrays of several times the chirp's length.
    """
    n = config.samples_per_chirp
    n_fft = int(2 ** np.ceil(np.log2(n * zero_pad_factor)))
    freqs = np.fft.fftfreq(n_fft, d=1.0 / config.sample_rate_hz)
    lo, hi = search_range_hz
    freqs = np.sort(freqs[(freqs >= lo) & (freqs <= hi)])
    freqs.setflags(write=False)
    bin_width = config.sample_rate_hz / n_fft
    zoom = None
    if len(freqs):
        # The span is m bins wide, so the m points land exactly on the
        # in-range bins, bin_width apart.
        f1 = freqs[0]
        zoom = _ZoomFft.build(n, f1, f1 + len(freqs) * bin_width, len(freqs), config.sample_rate_hz)
    return _ZoomPlan(freqs=freqs, bin_width_hz=bin_width, zoom=zoom)


class LinearRegressionFbEstimator:
    """Closed-form FB estimation by phase unwrap + linear regression."""

    def __init__(self, config: ChirpConfig):
        self.config = config
        self._quad = _quadratic_phase(config)
        self._t = cached_sample_times(config)

    def rectified_phase(self, iq: np.ndarray | IQTrace) -> np.ndarray:
        """Θ(t) after the 2kπ rectification (Fig. 12c)."""
        samples = _chirp_samples(iq, self.config)
        return np.unwrap(np.arctan2(samples.imag, samples.real))

    def linear_residual(self, iq: np.ndarray | IQTrace) -> np.ndarray:
        """Θ(t) − πW²/2^S·t² + πWt, ideally the line 2πδt + θ (Fig. 12d)."""
        return self.rectified_phase(iq) - self._quad

    def estimate(self, iq: np.ndarray | IQTrace) -> FbEstimate:
        residual = self.linear_residual(iq)
        slope, intercept = np.polyfit(self._t, residual, 1)
        fitted = slope * self._t + intercept
        rmse = float(np.sqrt(np.mean((residual - fitted) ** 2)))
        return FbEstimate(
            fb_hz=float(slope / (2 * np.pi)),
            phase=float(np.mod(intercept, 2 * np.pi)),
            method="linear_regression",
            diagnostics={"fit_rmse_rad": rmse},
        )


class LeastSquaresFbEstimator:
    """Noise-robust FB estimation by template least squares.

    Parameters
    ----------
    config:
        Chirp parameters of the monitored channel.
    search_range_hz:
        Bounds on δ.  RF oscillators are within tens of ppm, i.e. tens of
        kHz at 869.75 MHz; the default ±40 kHz covers that with margin.
    method:
        ``"dechirp"`` (fast, exact reduction) or ``"de"`` (the paper's
        differential evolution over ``(θ, δ)``).
    zero_pad_factor:
        Sets the dechirp method's coarse grid: the bins of an FFT of
        ``samples_per_chirp · zero_pad_factor`` points, rounded up to a
        power of two.  Only the bins inside ``search_range_hz`` are
        evaluated.  Finer bins start the refinement closer to the peak.
    de_seed:
        Seed of the ``"de"`` method's differential evolution, so its
        estimates are reproducible.
    refine_tol_hz:
        Convergence tolerance of the dechirp method's Newton refinement:
        a row stops once its Newton step or its bracket is this small.
    """

    def __init__(
        self,
        config: ChirpConfig,
        search_range_hz: tuple[float, float] = (-40e3, 40e3),
        method: str = "dechirp",
        zero_pad_factor: int = 8,
        de_seed: int = 7,
        refine_tol_hz: float = 1e-3,
    ):
        if search_range_hz[0] >= search_range_hz[1]:
            raise ConfigurationError(f"invalid search range {search_range_hz}")
        if method not in ("dechirp", "de"):
            raise ConfigurationError(f"method must be 'dechirp' or 'de', got {method!r}")
        if zero_pad_factor < 1:
            raise ConfigurationError(f"zero-pad factor must be >= 1, got {zero_pad_factor}")
        if refine_tol_hz <= 0:
            raise ConfigurationError(f"refine tolerance must be positive, got {refine_tol_hz}")
        self.config = config
        self.search_range_hz = search_range_hz
        self.method = method
        self.zero_pad_factor = zero_pad_factor
        self.de_seed = de_seed
        self.refine_tol_hz = refine_tol_hz
        self._quad = _quadratic_phase(config)
        self._t = cached_sample_times(config)
        self._template = cached_dechirp_template(config)
        n = config.samples_per_chirp
        self._centred_index = np.arange(n, dtype=float) - (n - 1) / 2.0
        lo, hi = search_range_hz
        self._plan = _cached_zoom_plan(config, (float(lo), float(hi)), zero_pad_factor)
        self._scratch = Scratch()

    # -- shared objective ---------------------------------------------------

    def chirp_buffer(self, rows: int) -> np.ndarray:
        """A per-thread ``(rows, samples_per_chirp)`` buffer to gather chirps into.

        :meth:`estimate_batch` on the buffer's first ``k`` rows dechirps
        them in place rather than into a copy, so it consumes them.  The
        buffer is reused by this estimator's later calls on the thread.
        """
        return self._scratch.array("dechirped", (rows, self.config.samples_per_chirp), complex)

    def _dechirped(self, stack: np.ndarray) -> np.ndarray:
        """Remove the known sweep from every row, into scratch.

        In place when ``stack`` is the head of :meth:`chirp_buffer`.
        """
        out = self._scratch.array("dechirped", stack.shape, complex)
        return np.multiply(stack, self._template, out=out)

    def _correlation_batch(
        self, dechirped: np.ndarray, fb_hz: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row correlation ``C`` against the tone ``e^{−2jπ·fb·t}`` and its moments.

        Returns ``(C, C1, C2)``, each of shape ``(n,)``, with
        ``C = Σ x_n·wⁿ``, ``C1 = Σ m·x_n·wⁿ`` and ``C2 = Σ m²·x_n·wⁿ``,
        where ``w = e^{−2jπ·fb/fs}`` and ``m = n − (N−1)/2`` is the sample
        index measured from the chirp's centre.  ``dC/dfb = −2jπ/fs·C1``
        and ``d²C/dfb² = −(2π/fs)²·C2`` (up to a common unit phase that
        cancels in ``|C|²``), so one pass yields the value, slope and
        curvature of ``|C(fb)|²``.  Centring ``m`` keeps the curvature
        free of cancellation.

        The sample grid is uniform, so the tone is the geometric sequence
        ``w^0, w^1, ...``: one complex exp per row plus a cumulative
        product replaces a full per-sample exp.  The recurrence's phase
        drift is ~``n·ε`` radians (< 1e-12 for any LoRa chirp length), far
        below the estimator's resolution.  Every reduction is a row-wise
        ``np.sum``, so a row's result does not depend on the batch size.
        """
        w = np.exp((-2j * np.pi / self.config.sample_rate_hz) * fb_hz)
        # The coarse search is over, so its zoom buffer holds the tones.
        tones = self._scratch.array("work", dechirped.shape, complex)
        tones[:, 0] = 1.0
        tones[:, 1:] = w[:, np.newaxis]
        np.cumprod(tones, axis=1, out=tones)
        np.multiply(tones, dechirped, out=tones)
        corr = np.sum(tones, axis=1)
        np.multiply(tones, self._centred_index, out=tones)
        corr1 = np.sum(tones, axis=1)
        np.multiply(tones, self._centred_index, out=tones)
        return corr, corr1, np.sum(tones, axis=1)

    # -- fast reduction, batched --------------------------------------------

    def _coarse_batch(self, dechirped: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Peak in-range FFT bin and a parabolic peak estimate per row.

        Returns ``(coarse_fb_hz, start_fb_hz)``: the bin frequency of the
        largest magnitude, and the vertex of the parabola through it and
        its two neighbours (the bin itself when it lies at the grid's edge
        or the three magnitudes are not concave).
        """
        plan = self._plan
        if plan.zoom is None:
            raise EstimationError(f"search range {self.search_range_hz} excludes every FFT bin")
        magnitudes = self._scratch.array("magnitudes", (len(dechirped), len(plan.freqs)))
        for first in range(0, len(dechirped), _ZOOM_ROWS):
            chunk = dechirped[first : first + _ZOOM_ROWS]
            work = self._scratch.array("work", (len(chunk), len(plan.zoom.fwk2)), complex)
            np.abs(plan.zoom(chunk, work), out=magnitudes[first : first + len(chunk)])
        rows = np.arange(len(magnitudes))
        last = magnitudes.shape[1] - 1
        peak = np.argmax(magnitudes, axis=1)
        centre = magnitudes[rows, peak]
        left = magnitudes[rows, np.maximum(peak - 1, 0)]
        right = magnitudes[rows, np.minimum(peak + 1, last)]
        curvature = left - 2.0 * centre + right
        fit = (peak > 0) & (peak < last) & (curvature < 0)
        offset = np.where(fit, 0.5 * (left - right) / np.where(fit, curvature, -1.0), 0.0)
        coarse = plan.freqs[peak]
        return coarse, coarse + offset * plan.bin_width_hz

    def _refine_batch(
        self, dechirped: np.ndarray, start: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Safeguarded Newton ascent on ``|C(fb)|²``, one bracket per row.

        Each pass evaluates ``C``, ``C1`` and ``C2`` at every row's current
        ``fb``.  The sign of the slope moves one end of the row's bracket
        ``[lo, hi]`` to ``fb``; the Newton step ``−g′/g″`` is taken when the
        curvature is negative and the step lands inside the bracket,
        otherwise the row bisects its bracket.  A row stops once its
        Newton step or its bracket is within ``refine_tol_hz``; its
        estimate is where that last step lands, and later passes leave it
        frozen.  Returns ``(fb_hz, correlation)`` arrays; a row's
        correlation is the one of its last live pass, evaluated within
        ``refine_tol_hz`` of its estimate.
        """
        fb = np.clip(start, lo, hi)
        corr = np.zeros(len(fb), dtype=complex)
        live = np.ones(len(fb), dtype=bool)
        hz_per_rad = self.config.sample_rate_hz / (2 * np.pi)
        tol = self.refine_tol_hz
        for _ in range(_MAX_REFINE_PASSES):
            c, c1, c2 = self._correlation_batch(dechirped, fb)
            corr = np.where(live, c, corr)
            slope = np.imag(np.conj(c) * c1)  # ∝ g′
            curvature = np.abs(c1) ** 2 - np.real(np.conj(c) * c2)  # ∝ g″
            rising = slope > 0
            lo = np.where(live & rising, fb, lo)
            hi = np.where(live & ~rising, fb, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = fb - hz_per_rad * slope / curvature
            # Inclusive bounds: near convergence the step can vanish in
            # rounding and land exactly on the end the slope just moved.
            ok = (curvature < 0) & (newton >= lo) & (newton <= hi)
            converged = (ok & (np.abs(newton - fb) <= tol)) | (hi - lo <= tol)
            fb = np.where(live, np.where(ok, newton, 0.5 * (lo + hi)), fb)
            live &= ~converged
            if not live.any():
                break
        return fb, corr

    def _estimate_dechirp_batch(
        self, stack: np.ndarray, capture_rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The dechirp reduction on an ``(n, spc)`` stack -- no row loop.

        Returns ``(fb_hz, coarse_fb_hz, correlation)``, each of shape
        ``(n,)``.  Errors name a bad row by its entry of ``capture_rows``
        (by its position in ``stack`` when not given).
        """
        dechirped = self._dechirped(stack)
        coarse, start = self._coarse_batch(dechirped)
        lo, hi = self.search_range_hz
        bin_width = self._plan.bin_width_hz
        fb, corr = self._refine_batch(
            dechirped,
            start,
            np.maximum(coarse - bin_width, lo),
            np.minimum(coarse + bin_width, hi),
        )
        # NaN or inf samples poison every correlation of their row; without
        # this check they would yield a plausible FB at the search edge.
        bad = np.flatnonzero(~np.isfinite(corr))
        if len(bad):
            if capture_rows is not None:
                bad = np.asarray(capture_rows)[bad]
            raise EstimationError(
                f"FB correlation is not finite for capture rows {bad.tolist()}: "
                "the samples hold NaN, inf or overflowing values"
            )
        return fb, coarse, corr

    # -- the paper's differential evolution ---------------------------------

    def _estimate_de(self, samples: np.ndarray, noise_power: float) -> FbEstimate:
        amplitude = estimate_amplitude(samples, noise_power)
        if not amplitude < np.inf:
            raise EstimationError("estimated template amplitude is not finite")
        if amplitude <= 0:
            raise EstimationError("estimated template amplitude is zero; SNR too low")
        i_obs, q_obs = samples.real, samples.imag
        quad, t = self._quad, self._t

        def objective(params: np.ndarray) -> float:
            theta, fb = params
            angle = quad + 2 * np.pi * fb * t + theta
            residual_i = i_obs - amplitude * np.cos(angle)
            residual_q = q_obs - amplitude * np.sin(angle)
            return float(np.sum(residual_i**2 + residual_q**2))

        from scipy import optimize

        result = optimize.differential_evolution(
            objective,
            bounds=[(0.0, 2 * np.pi), self.search_range_hz],
            seed=self.de_seed,
            tol=1e-8,
            polish=True,
        )
        theta, fb = result.x
        return FbEstimate(
            fb_hz=float(fb),
            phase=float(np.mod(theta, 2 * np.pi)),
            method="least_squares/de",
            diagnostics={
                "residual": float(result.fun),
                "amplitude": amplitude,
                "n_evaluations": int(result.nfev),
            },
        )

    def estimate(self, iq: np.ndarray | IQTrace, noise_power: float = 0.0) -> FbEstimate:
        """Estimate δ from one chirp starting at the trace's first sample.

        The SoftLoRa pipeline feeds this the *second* preamble chirp (its
        amplitude has settled; paper Sec. 7.1.2), sliced using the
        AIC-detected onset.  Delegates to :meth:`estimate_batch` with a
        batch of one, so batched and single results agree bitwise.
        """
        samples = _chirp_samples(iq, self.config)
        if self.method == "de":
            return self._estimate_de(samples, noise_power)
        fb, coarse, corr = self._estimate_dechirp_batch(samples[np.newaxis, :])
        return FbEstimate(
            fb_hz=float(fb[0]),
            phase=float(np.mod(np.angle(corr), 2 * np.pi)[0]),
            method="least_squares/dechirp",
            diagnostics={
                "coarse_fb_hz": float(coarse[0]),
                "correlation_magnitude": float(np.abs(corr[0])),
                "fft_bin_width_hz": self._plan.bin_width_hz,
            },
        )

    def estimate_batch(
        self,
        chirps: np.ndarray | list,
        noise_powers: np.ndarray | float | None = None,
        capture_rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Estimate δ for a stack of chirps, one per row; an ``(n,)`` float array.

        ``chirps`` is an ``(n, samples_per_chirp)`` complex array (longer
        rows are truncated to one chirp) or a list of equal-rate chirp
        slices.  Row ``r`` equals ``estimate(chirps[r]).fb_hz`` bitwise.
        The dechirp method runs fully vectorized; the reference
        ``"de"`` solver, kept verbatim from the paper, has no batched
        form and falls back to a per-row loop.  ``capture_rows`` gives,
        per chirp, the row number that an :class:`EstimationError` about
        a chirp holding NaN or infinite samples names (default: the
        chirp's position).
        """
        stack = _chirp_stack(chirps, self.config)
        if self.method == "de":
            powers = np.broadcast_to(
                np.asarray(0.0 if noise_powers is None else noise_powers, dtype=float),
                (len(stack),),
            )
            return np.array(
                [self._estimate_de(row, float(power)).fb_hz for row, power in zip(stack, powers)],
                dtype=float,
            )
        return self._estimate_dechirp_batch(stack, capture_rows)[0]

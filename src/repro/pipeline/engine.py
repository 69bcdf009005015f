"""The batched SoftLoRa capture-processing engine.

Runs the receive chain of the paper's Fig. 4 over ``n`` captures at once.
Stages 1, 3 and 4 stream the batch through blocks of rows, each block
about 2**17 samples, so the chain's working set is set by the capture
length and not by the batch size:

1. **onset detection** -- AIC curves of the block, scored with cumulative
   moments along the sample axis (:meth:`AicDetector.aic_curve_batch`),
   then one argmin per row over the admissible split points
   (:meth:`AicDetector.pick`);
2. **PHY timestamping** -- onset indices to absolute times in one
   vectorized pass over the batch (the sync-free data timestamps anchor
   here);
3. **chirp slicing** -- the FB-estimation chirp of every row of the block
   copied out at its own onset, into the estimator's chirp buffer;
4. **frequency-bias estimation** -- batched dechirp (cached sweep-phase
   reference), a zoom FFT over the in-range bins of the zero-padded grid,
   and a safeguarded Newton refinement on ``|C(f)|²`` that converges row
   by row, usually in two passes
   (:meth:`LeastSquaresFbEstimator.estimate_batch`).

The result is three per-capture arrays -- onset index, PHY timestamp and
FB -- and no verdict: replay verdicts belong to
:class:`repro.server.NetworkServer`.

The block's curves and chirps, and every kernel temporary, live in
per-thread buffers that the pipeline, detector and estimator reuse
across calls, so a warm call allocates no large array, whichever
component it reads: I and Q are views of the samples, and the
magnitude is written into a buffer of the pipeline's.  Every row is
computed on its own, so the result does not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core._scratch import Scratch
from repro.core.freq_bias import LeastSquaresFbEstimator
from repro.core.onset import AicDetector
from repro.errors import ConfigurationError
from repro.phy.chirp import ChirpConfig
from repro.pipeline.batch import CaptureBatch

#: Samples per streamed block: ``max(1, _BLOCK_SAMPLES // n_samples)``
#: captures go through the onset and FB stages together.  An SF12 capture
#: at 1 Msps is a block of its own; three-chirp SF9 captures at 0.5 Msps
#: (9,216 samples) go 14 at a time.
_BLOCK_SAMPLES = 2**17


@dataclass
class BatchResult:
    """The chain's outputs for a batch, one array entry per capture.

    Attributes:
        onset_indices: AIC onset sample of each capture.
        phy_timestamps_s: Absolute time of each onset, the PHY timestamp.
        fb_hz: Estimated FB of each capture; NaN where the FB chirp runs
            past the capture window.
    """

    onset_indices: np.ndarray
    phy_timestamps_s: np.ndarray
    fb_hz: np.ndarray

    def __len__(self) -> int:
        """Number of captures."""
        return len(self.onset_indices)


@dataclass
class BatchPipeline:
    """Vectorized SoftLoRa receive chain over a :class:`CaptureBatch`.

    Attributes:
        config: Chirp parameters of the monitored channel.
        onset_detector: The single-capture onset detector; its batch
            entry point is used, so batched results match the
            single-capture API bitwise.
        fb_estimator: Likewise for FB estimation (defaults to a
            least-squares estimator built from ``config``).
        fb_chirp_offset: Which preamble chirp feeds FB estimation, in
            chirps after the onset.  The default 1 is the paper's second
            preamble chirp (its amplitude has settled, Sec. 7.1.2).
    """

    config: ChirpConfig
    onset_detector: AicDetector = field(default_factory=AicDetector)
    fb_estimator: LeastSquaresFbEstimator | None = None
    fb_chirp_offset: int = 1
    _scratch: Scratch = field(default_factory=Scratch, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Fill in the default estimator and validate the chirp offset."""
        if self.fb_estimator is None:
            self.fb_estimator = LeastSquaresFbEstimator(self.config)
        if self.fb_chirp_offset < 0:
            raise ConfigurationError(
                f"FB chirp offset must be >= 0 chirps, got {self.fb_chirp_offset}"
            )

    def run(
        self,
        batch: CaptureBatch,
        component: str = "i",
        noise_powers: np.ndarray | float | None = None,
    ) -> BatchResult:
        """Process every capture of ``batch`` through the vectorized chain.

        Captures whose FB chirp would run past the capture window skip
        estimation: their ``fb_hz`` is NaN, their onset and timestamp
        stand.  ``noise_powers`` (scalar or per-capture) is only consulted
        by the reference ``"de"`` estimator; a non-scalar one that is not
        one entry per capture raises
        :class:`~repro.errors.ConfigurationError`.  A capture holding NaN
        or infinite samples raises :class:`~repro.errors.EstimationError`
        naming its row.
        """
        if np.ndim(noise_powers) > 0 and np.shape(noise_powers) != (len(batch),):
            raise ConfigurationError(
                f"noise powers of shape {np.shape(noise_powers)} do not match "
                f"{len(batch)} captures"
            )
        if len(batch) == 0:
            # An empty fleet step is a no-op, not a numpy shape error.
            return BatchResult(
                onset_indices=np.zeros(0, dtype=int),
                phy_timestamps_s=np.zeros(0),
                fb_hz=np.zeros(0),
            )

        # Stages 1, 3 and 4, one block of rows at a time.
        n_captures, n_samples = batch.samples.shape
        spc = self.config.samples_per_chirp
        offset = self.fb_chirp_offset * spc
        block_rows = min(n_captures, max(1, _BLOCK_SAMPLES // max(n_samples, 1)))
        curves = self._scratch.array("curves", (block_rows, n_samples))
        chirps = self.fb_estimator.chirp_buffer(block_rows)
        if np.ndim(noise_powers) == 1:
            noise_powers = np.asarray(noise_powers, dtype=float)
        indices = np.empty(n_captures, dtype=int)
        fb_hz = np.full(n_captures, np.nan)
        for first in range(0, n_captures, block_rows):
            block = slice(first, min(first + block_rows, n_captures))
            if component == "magnitude":
                samples = batch.samples[block]
                x = np.abs(samples, out=self._scratch.array("magnitude", samples.shape))
            else:
                x = batch.component(component, block)
            block_curves = self.onset_detector.aic_curve_batch(x, out=curves[: len(x)])
            indices[block] = self.onset_detector.pick(block_curves, first)[0]
            starts = indices[block] + offset
            # The rows whose FB chirp fits inside the capture window.
            rows = np.flatnonzero(starts + spc <= n_samples)
            if not len(rows):
                continue
            for slot, row in enumerate(rows):
                chirps[slot] = batch.samples[first + row, starts[row] : starts[row] + spc]
            powers = noise_powers
            if np.ndim(powers) == 1:
                powers = powers[first + rows]
            fb_hz[first + rows] = self.fb_estimator.estimate_batch(
                chirps[: len(rows)], noise_powers=powers, capture_rows=first + rows
            )

        # Stage 2: vectorized PHY timestamps.
        timestamps = batch.times_of_indices(indices)
        return BatchResult(onset_indices=indices, phy_timestamps_s=timestamps, fb_hz=fb_hz)

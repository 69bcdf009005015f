"""Stealthy jamming timing model (paper Sec. 4.3, Table 1).

The paper measures three windows after the legitimate frame's onset t0 on
an RN2483 gateway:

* onset in ``[t0, t0+w1]`` -- the gateway re-locks onto the (stronger)
  jamming preamble and receives the jamming frame only;
* onset in ``[t0+w1, t0+w2]`` -- the **effective attack window**: the
  chip has locked the legitimate preamble (from its 6th chirp) and drops
  the reception *silently* when the remaining preamble / header region is
  corrupted, raising no OS alert;
* onset in ``[t0+w2, t0+w3]`` -- payload corruption: the stack reports a
  CRC/corruption warning;
* onset after ``t0+w3`` -- both frames decode sequentially.

:data:`RN2483_MEASURED_WINDOWS` embeds the paper's measured values.
:class:`JammingWindowModel` reproduces them mechanistically:

* ``w1`` is the preamble lock point (5 chirps);
* ``w2`` is the end of the silently-dropped region: preamble + PHY header
  plus an empirically calibrated fraction of the payload time (the
  RN2483's internal buffering makes the silent region extend into the
  early payload, growing with payload size -- calibrated β = 0.45 against
  Table 1);
* ``w3 = w2 + report latency`` -- across all Table 1 rows the measured
  gap ``w3 − w2`` is nearly constant (~120 ms: the jamming frame's own
  airtime plus the stack's reporting latency), so it is modelled as a
  constant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.constants import PREAMBLE_LOCK_CHIRP
from repro.errors import ConfigurationError
from repro.phy.airtime import airtime_breakdown, symbol_time_s


class JammingOutcome(enum.Enum):
    """Gateway-side result of a jamming attempt."""

    JAMMER_ONLY = "jammer_only"  # jam too early: gateway locks the jammer
    SILENT_DROP = "silent_drop"  # stealthy: no alert raised
    CRC_ALERT = "crc_alert"  # payload corrupted: stack warns
    BOTH_DECODED = "both_decoded"  # jam too late: both frames decode


@dataclass(frozen=True)
class JammingWindows:
    """The three Table 1 windows, in seconds after frame onset."""

    w1_s: float
    w2_s: float
    w3_s: float

    def __post_init__(self) -> None:
        if not 0 < self.w1_s < self.w2_s < self.w3_s:
            raise ConfigurationError(
                f"windows must satisfy 0 < w1 < w2 < w3, got "
                f"({self.w1_s}, {self.w2_s}, {self.w3_s})"
            )

    @property
    def effective_window_s(self) -> tuple[float, float]:
        """The stealthy jamming interval [w1, w2]."""
        return (self.w1_s, self.w2_s)

    @property
    def effective_width_s(self) -> float:
        return self.w2_s - self.w1_s

    def classify(self, onset_offset_s: float) -> JammingOutcome:
        """Outcome of jamming starting ``onset_offset_s`` after t0."""
        if onset_offset_s < 0:
            raise ConfigurationError(
                f"jamming onset offset must be >= 0, got {onset_offset_s}"
            )
        if onset_offset_s <= self.w1_s:
            return JammingOutcome.JAMMER_ONLY
        if onset_offset_s <= self.w2_s:
            return JammingOutcome.SILENT_DROP
        if onset_offset_s <= self.w3_s:
            return JammingOutcome.CRC_ALERT
        return JammingOutcome.BOTH_DECODED


#: The paper's Table 1 measurements: (SF, payload bytes) -> windows in ms.
RN2483_MEASURED_WINDOWS: dict[tuple[int, int], JammingWindows] = {
    (7, 10): JammingWindows(5e-3, 28e-3, 141e-3),
    (7, 20): JammingWindows(5e-3, 38e-3, 156e-3),
    (7, 30): JammingWindows(6e-3, 41e-3, 165e-3),
    (7, 40): JammingWindows(6e-3, 54e-3, 178e-3),
    (8, 30): JammingWindows(10e-3, 82e-3, 208e-3),
    (9, 30): JammingWindows(22e-3, 156e-3, 274e-3),
}


@dataclass(frozen=True)
class JammingWindowModel:
    """Mechanistic w1/w2/w3 model calibrated against Table 1."""

    lock_chirps: int = PREAMBLE_LOCK_CHIRP
    payload_silent_fraction: float = 0.45
    report_latency_s: float = 0.120
    coding_rate: int = 1
    n_preamble: int = 8

    def windows(self, spreading_factor: int, payload_len: int) -> JammingWindows:
        """Predict the three windows for a legitimate frame."""
        breakdown = airtime_breakdown(
            payload_len,
            spreading_factor,
            coding_rate=self.coding_rate,
            n_preamble=self.n_preamble,
        )
        t_chirp = symbol_time_s(spreading_factor)
        w1 = self.lock_chirps * t_chirp
        w2 = breakdown.header_end_s + self.payload_silent_fraction * breakdown.payload_s
        w3 = w2 + self.report_latency_s
        return JammingWindows(w1_s=w1, w2_s=w2, w3_s=w3)

    def measured_or_modelled(self, spreading_factor: int, payload_len: int) -> JammingWindows:
        """Prefer the paper's measured windows when that row exists."""
        key = (spreading_factor, payload_len)
        return RN2483_MEASURED_WINDOWS.get(key) or self.windows(spreading_factor, payload_len)


@dataclass
class StealthyJammer:
    """Chooses jamming onsets inside the effective attack window.

    ``aim`` positions the onset within [w1, w2]: 0 targets just after w1,
    1 just before w2; the small ``guard_s`` keeps clear of both edges.
    """

    model: JammingWindowModel = field(default_factory=JammingWindowModel)
    aim: float = 0.5
    guard_s: float = 1e-3
    rng: np.random.Generator | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.aim <= 1.0:
            raise ConfigurationError(f"aim must be in [0, 1], got {self.aim}")

    def windows_for(self, spreading_factor: int, payload_len: int) -> JammingWindows:
        return self.model.measured_or_modelled(spreading_factor, payload_len)

    def choose_onset_offset_s(self, spreading_factor: int, payload_len: int) -> float:
        """Jamming onset (relative to frame start) inside [w1, w2]."""
        windows = self.windows_for(spreading_factor, payload_len)
        lo = windows.w1_s + self.guard_s
        hi = windows.w2_s - self.guard_s
        if hi <= lo:
            # Window too narrow for the guard; aim dead center.
            return (windows.w1_s + windows.w2_s) / 2.0
        if self.rng is not None:
            return float(self.rng.uniform(lo, hi))
        return lo + self.aim * (hi - lo)

    def jam(
        self, spreading_factor: int, payload_len: int, frame_start_s: float
    ) -> tuple[float, JammingOutcome]:
        """Plan one jamming shot; returns (absolute onset, expected outcome)."""
        offset = self.choose_onset_offset_s(spreading_factor, payload_len)
        outcome = self.windows_for(spreading_factor, payload_len).classify(offset)
        return frame_start_s + offset, outcome


@dataclass
class SelectiveJammer:
    """The selective jammer of Aras et al. [5] -- NOT stealthy.

    Selective jamming targets specific devices/frames, which requires
    *decoding the frame header first* to learn the destination.  The
    paper's Sec. 2 argument is mechanistic: everything the jammer can
    still corrupt after the header is payload, and payload corruption
    produces an integrity-check failure and a warning -- never the
    silent drop the frame delay attack relies on.  (Table 1's empirical
    ``w2`` extends slightly past the header end because of the RN2483's
    internal buffering, but a *selective* jammer cannot bank on chips
    exhibiting that quirk; the classification here uses the mechanistic
    boundary, i.e. silence requires corrupting preamble/header.)

    ``decode_latency_s`` models the jammer's processing time between the
    header's end and its own transmission start.
    """

    model: JammingWindowModel = field(default_factory=JammingWindowModel)
    decode_latency_s: float = 2e-3

    def mechanistic_windows(self, spreading_factor: int, payload_len: int) -> JammingWindows:
        """Windows with the silent region ending exactly at the header."""
        strict = JammingWindowModel(
            lock_chirps=self.model.lock_chirps,
            payload_silent_fraction=0.0,
            report_latency_s=self.model.report_latency_s,
            coding_rate=self.model.coding_rate,
            n_preamble=self.model.n_preamble,
        )
        return strict.windows(spreading_factor, payload_len)

    def earliest_onset_offset_s(self, spreading_factor: int, payload_len: int) -> float:
        """Earliest possible jamming onset: after the header decodes."""
        breakdown = airtime_breakdown(
            payload_len,
            spreading_factor,
            coding_rate=self.model.coding_rate,
            n_preamble=self.model.n_preamble,
        )
        return breakdown.header_end_s + self.decode_latency_s

    def jam(
        self, spreading_factor: int, payload_len: int, frame_start_s: float
    ) -> tuple[float, JammingOutcome]:
        """Jam as early as selectivity allows; classify the outcome."""
        offset = self.earliest_onset_offset_s(spreading_factor, payload_len)
        outcome = self.mechanistic_windows(spreading_factor, payload_len).classify(offset)
        return frame_start_s + offset, outcome

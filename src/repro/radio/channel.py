"""Link budget, propagation delay, and collision resolution.

Supports the two abstraction levels the experiments need:

* **frame level** -- receptions carry powers and times; collisions resolve
  with LoRa's capture effect (used by the discrete-event simulator and the
  jamming model).  :func:`resolve_collisions` is the per-object rule;
  the fleet simulator evaluates the same links and rule as columns:
  :func:`site_power_columns` gives every (frame, gateway) received power
  and delay, and :func:`window_survival` resolves a window's contention
  over them,
* **waveform level** -- amplitudes are scaled so a synthesized baseband
  trace exhibits the SNR the link budget predicts (used by the signal
  processing experiments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.constants import (
    LORA_BANDWIDTH_HZ,
    SPEED_OF_LIGHT_M_S,
    SX1276_NOISE_FIGURE_DB,
    THERMAL_NOISE_DBM_PER_HZ,
)
from repro.errors import ConfigurationError
from repro.radio.geometry import Position

#: Minimum power advantage for the stronger of two co-SF frames to survive
#: a collision (the LoRa capture effect).
DEFAULT_CAPTURE_THRESHOLD_DB = 6.0

#: Inter-SF capture thresholds (dB) for the imperfect-orthogonality model
#: of Croce et al., "Impact of LoRa Imperfect Orthogonality" (IEEE Comm.
#: Letters 2018, Table I): entry ``[i][j]`` is the power margin an
#: SF ``7+i`` frame needs over an overlapping SF ``7+j`` interferer to
#: demodulate.  Negative entries are the quasi-orthogonality headroom: a
#: cross-SF rival only destroys the frame when it is *much* stronger.
#: The diagonal is never read -- co-SF pairs resolve through
#: :attr:`InterSfCaptureMatrix.co_sf_db` (the channel's capture
#: threshold knob); the 6.0 entries only keep the table shaped like the
#: published one.
INTER_SF_CAPTURE_DB = (
    (6.0, -8.0, -9.0, -9.0, -9.0, -9.0),
    (-11.0, 6.0, -11.0, -13.0, -13.0, -13.0),
    (-15.0, -13.0, 6.0, -13.0, -14.0, -15.0),
    (-19.0, -18.0, -17.0, 6.0, -17.0, -18.0),
    (-22.0, -22.0, -21.0, -20.0, 6.0, -20.0),
    (-25.0, -25.0, -25.0, -24.0, -23.0, 6.0),
)


@dataclass(frozen=True)
class InterSfCaptureMatrix:
    """Pairwise capture thresholds for SF-heterogeneous contention.

    LoRa spreading factors are only *quasi*-orthogonal: a same-frequency
    frame at another SF still raises the noise floor, and a strong enough
    one destroys the reception outright.  ``threshold_db(i, j)`` is the
    margin a desired SF ``i`` frame must hold over an overlapping SF
    ``j`` rival; the diagonal is the classic co-SF capture threshold.

    Attributes:
        co_sf_db: Co-SF capture threshold (dB), overriding the matrix
            diagonal so the channel's single knob keeps working.
        cross_sf_db: 6x6 threshold table indexed ``[sf_desired - 7]
            [sf_interferer - 7]``; defaults to the Croce et al. Table I
            measurements (:data:`INTER_SF_CAPTURE_DB`).
    """

    co_sf_db: float = DEFAULT_CAPTURE_THRESHOLD_DB
    cross_sf_db: tuple = INTER_SF_CAPTURE_DB

    def threshold_db(self, desired_sf: int, interferer_sf: int) -> float:
        """Margin (dB) a desired-SF frame needs over one interferer.

        Args:
            desired_sf: Spreading factor of the frame being demodulated.
            interferer_sf: Spreading factor of the overlapping rival.

        Returns:
            The capture threshold in dB (negative for cross-SF pairs).
        """
        if not (7 <= desired_sf <= 12 and 7 <= interferer_sf <= 12):
            raise ConfigurationError(
                f"capture matrix covers SF7-SF12, got desired SF{desired_sf} "
                f"vs interferer SF{interferer_sf}"
            )
        if desired_sf == interferer_sf:
            return self.co_sf_db
        return float(self.cross_sf_db[desired_sf - 7][interferer_sf - 7])

    def threshold_table(self) -> np.ndarray:
        """The full 6x6 threshold grid with the co-SF diagonal applied.

        ``table[sf_i - 7, sf_j - 7] == threshold_db(sf_i, sf_j)`` for
        every SF7..SF12 pair -- the broadcastable form the vectorized
        collision sweep indexes instead of calling :meth:`threshold_db`
        per pair.
        """
        table = np.array(self.cross_sf_db, dtype=float)
        np.fill_diagonal(table, self.co_sf_db)
        return table


def propagation_delay_s(tx: Position, rx: Position) -> float:
    """One-way signal propagation time between two positions."""
    return tx.distance_to(rx) / SPEED_OF_LIGHT_M_S


def noise_floor_dbm(
    bandwidth_hz: float = LORA_BANDWIDTH_HZ,
    noise_figure_db: float = SX1276_NOISE_FIGURE_DB,
) -> float:
    """Receiver noise floor: thermal density + bandwidth + noise figure.

    For 125 kHz and a 6 dB NF this is about -117 dBm.
    """
    if bandwidth_hz <= 0:
        raise ConfigurationError(f"bandwidth must be positive, got {bandwidth_hz}")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


@dataclass(frozen=True)
class LinkBudget:
    """Received power and SNR for a path-loss model and antenna gains."""

    pathloss: Any
    tx_antenna_gain_db: float = 0.0
    rx_antenna_gain_db: float = 0.0
    bandwidth_hz: float = LORA_BANDWIDTH_HZ
    noise_figure_db: float = SX1276_NOISE_FIGURE_DB

    def rx_power_dbm(self, tx_power_dbm: float, tx: Position, rx: Position, **loss_kwargs) -> float:
        loss = self.pathloss.loss_db(tx, rx, **loss_kwargs)
        return tx_power_dbm + self.tx_antenna_gain_db + self.rx_antenna_gain_db - loss

    def snr_db(self, tx_power_dbm: float, tx: Position, rx: Position, **loss_kwargs) -> float:
        floor = noise_floor_dbm(self.bandwidth_hz, self.noise_figure_db)
        return self.rx_power_dbm(tx_power_dbm, tx, rx, **loss_kwargs) - floor


def amplitude_for_snr(snr_db: float, noise_power: float = 1.0) -> float:
    """Complex-envelope amplitude giving ``snr_db`` over a noise power.

    For a constant-envelope chirp of amplitude A, signal power is A², so
    ``A = sqrt(noise_power · 10^(SNR/10))``.
    """
    if noise_power <= 0:
        raise ConfigurationError(f"noise power must be positive, got {noise_power}")
    return math.sqrt(noise_power * 10.0 ** (snr_db / 10.0))


@dataclass
class Transmission:
    """A frame-level transmission visible on the air interface."""

    sender: str
    start_time_s: float
    airtime_s: float
    rx_power_dbm: float
    spreading_factor: int
    payload: bytes = b""
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def end_time_s(self) -> float:
        return self.start_time_s + self.airtime_s

    def overlaps(self, other: "Transmission") -> bool:
        return self.start_time_s < other.end_time_s and other.start_time_s < self.end_time_s


@dataclass(frozen=True)
class ReceptionOutcome:
    """Fate of one transmission after collision resolution."""

    transmission: Transmission
    delivered: bool
    reason: str


def resolve_collisions(
    transmissions: list[Transmission],
    capture_threshold_db: float = DEFAULT_CAPTURE_THRESHOLD_DB,
    min_snr_db: dict[int, float] | None = None,
    noise_floor: float | None = None,
    capture_matrix: InterSfCaptureMatrix | None = None,
) -> list[ReceptionOutcome]:
    """Resolve overlapping receptions at one gateway.

    Rules (standard LoRa capture model):

    * without a ``capture_matrix``, different spreading factors are
      perfectly orthogonal: no mutual loss; co-SF overlap is resolved by
      the capture effect -- the stronger survives iff it exceeds every
      overlapping co-SF rival by ``capture_threshold_db``;
    * with a ``capture_matrix``, *every* overlapping frame is a rival and
      a frame survives iff it clears the matrix's pairwise threshold
      against each one -- co-SF behavior is unchanged (the diagonal is
      the capture threshold) while a strong cross-SF rival can now
      destroy a weak frame (imperfect orthogonality);
    * optionally, frames below the SF's demodulation SNR floor are lost.
    """
    outcomes: list[ReceptionOutcome] = []
    floor = noise_floor_dbm() if noise_floor is None else noise_floor
    for tx in transmissions:
        if capture_matrix is None:
            rivals = [
                other
                for other in transmissions
                if other is not tx
                and other.spreading_factor == tx.spreading_factor
                and other.overlaps(tx)
            ]
        else:
            rivals = [
                other for other in transmissions if other is not tx and other.overlaps(tx)
            ]
        if min_snr_db is not None:
            required = min_snr_db.get(tx.spreading_factor)
            if required is not None and (tx.rx_power_dbm - floor) < required:
                outcomes.append(ReceptionOutcome(tx, False, "below demodulation SNR floor"))
                continue
        if not rivals:
            outcomes.append(ReceptionOutcome(tx, True, "clear channel"))
            continue
        if capture_matrix is None:
            strongest_rival = max(r.rx_power_dbm for r in rivals)
            if tx.rx_power_dbm >= strongest_rival + capture_threshold_db:
                outcomes.append(ReceptionOutcome(tx, True, "captured over weaker rivals"))
            else:
                outcomes.append(ReceptionOutcome(tx, False, "lost in co-SF collision"))
            continue
        fatal = [
            rival
            for rival in rivals
            if tx.rx_power_dbm
            < rival.rx_power_dbm
            + capture_matrix.threshold_db(tx.spreading_factor, rival.spreading_factor)
        ]
        if not fatal:
            outcomes.append(ReceptionOutcome(tx, True, "captured over weaker rivals"))
        elif any(r.spreading_factor == tx.spreading_factor for r in fatal):
            outcomes.append(ReceptionOutcome(tx, False, "lost in co-SF collision"))
        else:
            outcomes.append(ReceptionOutcome(tx, False, "lost to inter-SF interference"))
    return outcomes


#: Device rows per slice of the power/delay/loss matrix build: bounds
#: the build's temporary memory without changing a result bit.
_CHUNK_ROWS = 262_144


def overlap_cluster_indices(starts: np.ndarray, ends: np.ndarray) -> list[np.ndarray]:
    """Chain intervals into overlap clusters with one sorted sweep.

    Sorts by start (stable, so equal starts keep input order), then
    walks the running maximum of interval ends: an interval starting at
    or after everything seen so far opens a new cluster -- exactly the
    chaining rule the legacy per-item loop applied, as one
    ``np.maximum.accumulate`` pass.  Returns index arrays into the
    input, one per cluster, in sweep order.
    """
    order = np.argsort(starts, kind="stable")
    running_end = np.maximum.accumulate(ends[order])
    opens_cluster = np.empty(order.size, dtype=bool)
    opens_cluster[0] = True
    opens_cluster[1:] = starts[order][1:] >= running_end[:-1]
    breaks = np.flatnonzero(opens_cluster[1:]) + 1
    return np.split(order, breaks)


def site_power_columns(
    sites: Sequence[Any],
    site_xyz: np.ndarray,
    devices: list | None,
    dev_xyz: np.ndarray,
    tx_power_dbm: np.ndarray,
    *,
    return_loss: bool = False,
) -> tuple[np.ndarray, ...]:
    """Per-(frame, site) received powers and propagation delays.

    One vectorized distance/path-loss evaluation per gateway site,
    mirroring the scalar :meth:`LinkBudget.rx_power_dbm` arithmetic
    operation for operation.  The closed-form path-loss models evaluate
    their scalar ``loss_db`` through ``loss_db_from_distance``, whose
    logarithm is libm's, so every column equals the scalar link budget
    bit for bit and depends on the platform libm, not on numpy's SIMD
    level.  Both runtime modes read their SNRs (``powers`` minus the
    site noise floor) and delays from here.  Path-loss models without a
    closed distance-only form (``loss_db_from_distance`` missing or
    returning ``None``, e.g. log-distance with shadowing) fall back to
    the scalar per-device call.

    Device rows are processed in slices of ``_CHUNK_ROWS``, so the
    temporaries stay bounded on million-device fleets.  Every operation
    is elementwise, so the result is *bitwise* identical to a one-pass
    build (``tests/test_columnar.py`` pins this).

    Args:
        sites: Gateway placements (``link`` and ``position`` each), as
            returned by ``LoRaWanWorld.site_columns()``.
        site_xyz: ``(n_sites, 3)`` site coordinates, same call.
        devices: The frames' device objects, read for ``position`` (scalar
            fallback only).  Pass ``None`` for array-native fleets that
            never built device objects; the fallback then raises a
            :class:`ConfigurationError` instead of failing obscurely.
        dev_xyz: ``(n, 3)`` device coordinates, one row per staged frame.
        tx_power_dbm: ``(n,)`` per-frame transmit powers.
        return_loss: Also return the raw per-(frame, site) path loss in
            dB -- callers that later retune transmit powers (ADR) can
            then rebuild a power row with the exact build-time
            arithmetic.

    Returns:
        ``(powers, delays)``, each ``(n, n_sites)`` float64 -- plus
        ``loss`` of the same shape when ``return_loss`` is set.
    """
    n = dev_xyz.shape[0]
    powers = np.empty((n, len(sites)))
    delays = np.empty((n, len(sites)))
    loss_out = np.empty((n, len(sites))) if return_loss else None
    for column, site in enumerate(sites):
        vectorized = getattr(site.link.pathloss, "loss_db_from_distance", None)
        for lo in range(0, n, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, n)
            diff = dev_xyz[lo:hi] - site_xyz[column]
            distance = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2)
            loss = None
            if vectorized is not None:
                loss = vectorized(distance)
            if loss is None:
                if devices is None:
                    raise ConfigurationError(
                        f"path-loss model {type(site.link.pathloss).__name__} has no "
                        "vectorized distance-only form and no device objects exist "
                        "to fall back on; use a closed-form model for spec-built fleets"
                    )
                loss = np.array(
                    [
                        site.link.pathloss.loss_db(device.position, site.position)
                        for device in devices[lo:hi]
                    ]
                )
            powers[lo:hi, column] = (
                tx_power_dbm[lo:hi]
                + site.link.tx_antenna_gain_db
                + site.link.rx_antenna_gain_db
                - loss
            )
            delays[lo:hi, column] = distance / SPEED_OF_LIGHT_M_S
            if loss_out is not None:
                loss_out[lo:hi, column] = loss
    if return_loss:
        return powers, delays, loss_out
    return powers, delays


def cluster_survival_matrix(
    starts: np.ndarray,
    airtime: np.ndarray,
    powers: np.ndarray,
    spreading_factor: np.ndarray,
    threshold_table: np.ndarray,
) -> np.ndarray:
    """Which (frame, site) receptions survive one overlap cluster.

    Broadcast form of the capture-matrix rule in
    :func:`resolve_collisions`: at each site, frame
    ``i`` dies iff some other frame ``j`` overlaps it there (strict
    interval overlap on propagation-shifted times) with
    ``P_i < P_j + threshold(sf_i, sf_j)``.

    Args:
        starts: ``(k, n_sites)`` per-site arrival times.
        airtime: ``(k,)`` frame airtimes.
        powers: ``(k, n_sites)`` per-site received powers (dBm).
        spreading_factor: ``(k,)`` integer SFs in 7..12.
        threshold_table: The 6x6 grid from
            :meth:`InterSfCaptureMatrix.threshold_table`.

    Returns:
        ``(k, n_sites)`` boolean survival matrix.
    """
    ends = starts + airtime[:, None]
    overlap = (starts[:, None, :] < ends[None, :, :]) & (starts[None, :, :] < ends[:, None, :])
    diagonal = np.arange(starts.shape[0])
    overlap[diagonal, diagonal, :] = False
    thresholds = threshold_table[
        (spreading_factor - 7)[:, None], (spreading_factor - 7)[None, :]
    ]
    fatal = overlap & (powers[:, None, :] < powers[None, :, :] + thresholds[:, :, None])
    return ~fatal.any(axis=1)


def window_survival(
    emission: np.ndarray,
    airtime: np.ndarray,
    delays: np.ndarray,
    powers: np.ndarray,
    spreading_factor: np.ndarray,
    threshold_table: np.ndarray,
) -> np.ndarray:
    """Which (frame, site) receptions survive one event window.

    Chains the window's frames into overlap clusters on emission times
    (:func:`overlap_cluster_indices`), then resolves every multi-frame
    cluster with :func:`cluster_survival_matrix` on the propagation-
    shifted per-site arrival times.  Frames alone in their cluster
    survive everywhere.

    Args:
        emission: ``(n,)`` emission times.
        airtime: ``(n,)`` frame airtimes.
        delays: ``(n, n_sites)`` propagation delays.
        powers: ``(n, n_sites)`` received powers (dBm).
        spreading_factor: ``(n,)`` integer SFs in 7..12.
        threshold_table: The 6x6 grid from
            :meth:`InterSfCaptureMatrix.threshold_table`.

    Returns:
        ``(n, n_sites)`` boolean survival matrix.
    """
    survives = np.ones(powers.shape, dtype=bool)
    if emission.size < 2:
        return survives
    for cluster in overlap_cluster_indices(emission, emission + airtime):
        if cluster.size >= 2:
            survives[cluster] = cluster_survival_matrix(
                emission[cluster, None] + delays[cluster],
                airtime[cluster],
                powers[cluster],
                spreading_factor[cluster],
                threshold_table,
            )
    return survives

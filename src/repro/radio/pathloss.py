"""Path-loss models: free space, log-distance, and indoor multi-wall.

Used to regenerate the paper's link conditions:

* the campus link (Sec. 8.2) is near line-of-sight over 1.07 km,
* the in-building survey (Fig. 15) shows SNR decaying from 13 dB near the
  fixed node to -1 dB at the far end, driven by distance plus floor slabs
  and section junction walls.

Each closed-form model writes its loss once, as the array form
``loss_db_from_distance``; the scalar ``loss_db`` evaluates that form on
a one-element column, so a link's loss has the same bits whichever form
computed it.  The logarithm is the platform libm's ``log10`` mapped over
the column rather than numpy's ufunc, whose bits change with numpy's SIMD
dispatch level (AVX-512 hosts differ from others in the last ulp).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.constants import EU868_CENTER_FREQUENCY_HZ, SPEED_OF_LIGHT_M_S
from repro.errors import ConfigurationError
from repro.radio.geometry import Building, Position


def _log10(values: np.ndarray) -> np.ndarray:
    """Elementwise ``math.log10``: libm's bits on every numpy SIMD level."""
    # Iterating a memoryview hands math.log10 each float without first
    # building a list of them, which halves the cost on a 1M column.
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    logs = np.fromiter(map(math.log10, memoryview(flat)), dtype=float, count=flat.size)
    return logs.reshape(np.shape(values))


@dataclass(frozen=True)
class FixedPathLoss:
    """A constant, geometry-independent loss.

    Pins a link at an exact budget -- e.g. reproducing a *measured* SNR
    (the Sec. 8.1.1 cross-building link) where the paper publishes the
    resulting signal level but not the propagation environment.
    """

    value_db: float

    def __post_init__(self) -> None:
        if self.value_db < 0:
            raise ConfigurationError(f"path loss must be >= 0 dB, got {self.value_db}")

    def loss_db(self, tx: Position, rx: Position) -> float:
        return self.value_db

    def loss_db_from_distance(self, distance_m: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`loss_db` over an array of link distances."""
        return np.full_like(np.asarray(distance_m, dtype=float), self.value_db)


@dataclass(frozen=True)
class FreeSpacePathLoss:
    """Friis free-space loss at a given carrier."""

    carrier_hz: float = EU868_CENTER_FREQUENCY_HZ

    def loss_db(self, tx: Position, rx: Position) -> float:
        return float(self.loss_db_from_distance(np.array([tx.distance_to(rx)]))[0])

    def loss_db_from_distance(self, distance_m: np.ndarray) -> np.ndarray:
        """Friis loss over an array of link distances (clamped to >= 1 m).

        The model's one formula: :meth:`loss_db` evaluates it too, and
        its logarithm is libm's, so the result depends on the platform
        libm and not on numpy's SIMD level.
        """
        distance = np.maximum(np.asarray(distance_m, dtype=float), 1.0)
        return 20.0 * _log10(4.0 * math.pi * distance * self.carrier_hz / SPEED_OF_LIGHT_M_S)


@dataclass(frozen=True)
class LogDistancePathLoss:
    """Log-distance model with optional deterministic per-link shadowing.

    ``PL(d) = PL(d0) + 10·n·log10(d/d0) + X``, where X is a shadowing term
    drawn from N(0, σ²) using a hash of the endpoint pair, so a given link
    always sees the same shadowing (links don't flicker between calls).
    """

    exponent: float = 2.8
    reference_distance_m: float = 1.0
    reference_loss_db: float | None = None
    shadowing_sigma_db: float = 0.0
    carrier_hz: float = EU868_CENTER_FREQUENCY_HZ
    seed: int = 0

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ConfigurationError(f"path-loss exponent must be positive, got {self.exponent}")
        if self.reference_distance_m <= 0:
            raise ConfigurationError("reference distance must be positive")

    @cached_property
    def _reference_loss(self) -> float:
        """``PL(d0)``, evaluated once: it depends only on the frozen fields."""
        if self.reference_loss_db is not None:
            return self.reference_loss_db
        return FreeSpacePathLoss(self.carrier_hz).loss_db(
            Position(0.0), Position(self.reference_distance_m)
        )

    def _shadowing(self, tx: Position, rx: Position) -> float:
        if self.shadowing_sigma_db == 0.0:
            return 0.0
        key = hash(
            (round(tx.x, 3), round(tx.y, 3), round(tx.z, 3),
             round(rx.x, 3), round(rx.y, 3), round(rx.z, 3), self.seed)
        ) & 0xFFFFFFFF
        rng = np.random.default_rng(key)
        return float(rng.normal(0.0, self.shadowing_sigma_db))

    def _mean_loss_db(self, distance_m: np.ndarray) -> np.ndarray:
        """``PL(d0) + 10·n·log10(d/d0)`` over an array of distances."""
        distance = np.maximum(np.asarray(distance_m, dtype=float), self.reference_distance_m)
        return self._reference_loss + 10.0 * self.exponent * _log10(
            distance / self.reference_distance_m
        )

    def loss_db(self, tx: Position, rx: Position) -> float:
        loss = float(self._mean_loss_db(np.array([tx.distance_to(rx)]))[0])
        return loss + self._shadowing(tx, rx)

    def loss_db_from_distance(self, distance_m: np.ndarray) -> np.ndarray | None:
        """:meth:`loss_db` over an array of distances, or ``None`` with shadowing.

        Without shadowing this is the model's one formula, the one
        :meth:`loss_db` evaluates, with libm's logarithm: the result
        depends on the platform libm and not on numpy's SIMD level.  The
        per-link shadowing term hashes endpoint *positions*, which a
        distance-only column cannot reproduce -- callers fall back to
        the scalar path when this returns ``None``.
        """
        if self.shadowing_sigma_db != 0.0:
            return None
        return self._mean_loss_db(distance_m)


@dataclass(frozen=True)
class IndoorMultiWallPathLoss:
    """Indoor model: log-distance plus per-floor and per-junction losses.

    ``floor_loss_db`` charges each concrete slab on the straight path;
    ``junction_loss_db`` charges each section junction crossed along the
    building's long axis (the junctions in Fig. 15 visibly knock the SNR
    down between sections).
    """

    building: Building
    base: LogDistancePathLoss = LogDistancePathLoss(exponent=2.2)
    floor_loss_db: float = 4.0
    junction_loss_db: float = 3.0

    def loss_db(
        self,
        tx: Position,
        rx: Position,
        tx_column: str | None = None,
        rx_column: str | None = None,
    ) -> float:
        loss = self.base.loss_db(tx, rx)
        loss += self.floor_loss_db * self.building.floors_between(tx, rx)
        if tx_column is not None and rx_column is not None:
            loss += self.junction_loss_db * self.building.junctions_between(tx_column, rx_column)
        return loss

"""Frame delay attack detection by FB consistency (paper Sec. 7.2).

The SoftLoRa gateway keeps a database of the frequency biases of the nodes
it communicates with, built offline or learned at run time in the absence
of attacks.  A received frame claiming source ``N`` whose estimated FB
falls outside N's recorded range (padded by a guard band tied to the
estimation resolution) is flagged as a replay; flagged frames never update
the database, while accepted frames do — tracking slow, benign drift from
run-time conditions such as temperature.

Detection requires **changes** in a node's FB, not uniqueness of FBs
across nodes: two nodes may share an FB without weakening the defense.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Protocol, runtime_checkable

from repro.constants import FB_ESTIMATION_RESOLUTION_HZ
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FbInterval:
    """Closed acceptance interval for a node's FB, in Hz.

    ``samples`` is how many recorded estimates the bounds span.  A store
    fills it from the same read as the bounds, so the detector judges a
    frame with one store read.  It has no default: a store that left it
    out would keep every node in the learning phase, accepting every
    frame.  It takes no part in equality.
    """

    low_hz: float
    high_hz: float
    samples: int = field(compare=False)

    def contains(self, fb_hz: float) -> bool:
        return self.low_hz <= fb_hz <= self.high_hz

    @property
    def width_hz(self) -> float:
        return self.high_hz - self.low_hz

    def as_dict(self) -> dict:
        """JSON-safe form for the service control plane (exact floats)."""
        return {"low_hz": self.low_hz, "high_hz": self.high_hz}


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one replay check."""

    node_id: str
    fb_hz: float
    is_replay: bool
    reason: str
    interval: FbInterval | None = None
    deviation_hz: float = 0.0

    def as_dict(self) -> dict:
        """JSON-safe form for the service control plane (exact floats)."""
        return {
            "node_id": self.node_id,
            "fb_hz": self.fb_hz,
            "is_replay": self.is_replay,
            "reason": self.reason,
            "interval": None if self.interval is None else self.interval.as_dict(),
            "deviation_hz": self.deviation_hz,
        }


@runtime_checkable
class FbStore(Protocol):
    """Anything that can hold per-node FB history for a detector.

    :class:`FbDatabase` is the in-process implementation; the backends
    in :mod:`repro.server.store` persist it in a SQLite file.

    The protocol is ``runtime_checkable`` so a backend missing a method
    fails an ``isinstance`` conformance test instead of exploding later
    inside a worker; the full surface below is what the detector, the
    network server's ``device_state`` and provisioning collectively
    require of every store.

    The detector's per-frame traffic is one read and at most one write:
    ``interval`` returns the guarded bounds together with the sample
    count they span (:attr:`FbInterval.samples`), and ``record`` appends
    an accepted estimate.  ``record_many`` appends a whole ``(time_s,
    fb_hz)`` history in one call -- what an offline profile bootstrap
    writes -- with the same result as one ``record`` per pair.
    """

    def record(self, node_id: str, fb_hz: float, time_s: float = 0.0) -> None: ...

    def record_many(self, node_id: str, history: Iterable[tuple[float, float]]) -> None: ...

    def sample_count(self, node_id: str) -> int: ...

    def interval(self, node_id: str, guard_hz: float) -> FbInterval | None: ...

    def estimates(self, node_id: str) -> list[float]: ...

    def history(self, node_id: str) -> list[tuple[float, float]]: ...

    def known_nodes(self) -> list[str]: ...

    def node_count(self) -> int: ...


class FbDatabase:
    """Per-node history of accepted FB estimates.

    ``history_len`` bounds how many recent estimates shape the acceptance
    interval, letting the interval follow benign temperature drift while
    keeping a tight band.
    """

    def __init__(self, history_len: int = 50):
        if history_len < 1:
            raise ConfigurationError(f"history length must be >= 1, got {history_len}")
        self.history_len = history_len
        self._history: dict[str, deque[tuple[float, float]]] = {}

    def record(self, node_id: str, fb_hz: float, time_s: float = 0.0) -> None:
        """Store an accepted FB estimate for a node."""
        queue = self._history.setdefault(node_id, deque(maxlen=self.history_len))
        queue.append((time_s, fb_hz))

    def record_many(self, node_id: str, history: Iterable[tuple[float, float]]) -> None:
        """Store ``(time_s, fb_hz)`` pairs in order, as one ``record`` each."""
        pairs = [(time_s, fb_hz) for time_s, fb_hz in history]
        if pairs:
            queue = self._history.setdefault(node_id, deque(maxlen=self.history_len))
            queue.extend(pairs)

    def known_nodes(self) -> list[str]:
        return sorted(self._history)

    def node_count(self) -> int:
        return len(self._history)

    def sample_count(self, node_id: str) -> int:
        return len(self._history.get(node_id, ()))

    def estimates(self, node_id: str) -> list[float]:
        return [fb for _, fb in self._history.get(node_id, ())]

    def history(self, node_id: str) -> list[tuple[float, float]]:
        """The node's recorded ``(time_s, fb_hz)`` pairs, oldest first."""
        return list(self._history.get(node_id, ()))

    def interval(self, node_id: str, guard_hz: float) -> FbInterval | None:
        """[min − guard, max + guard] over the node's recorded history."""
        values = self.estimates(node_id)
        if not values:
            return None
        return FbInterval(
            low_hz=min(values) - guard_hz,
            high_hz=max(values) + guard_hz,
            samples=len(values),
        )


@dataclass
class ReplayDetector:
    """FB-based replay detector with a configurable guard band.

    Parameters
    ----------
    database:
        The FB history store.
    guard_hz:
        Padding added on each side of a node's observed FB range.  The
        paper's estimator resolves 120 Hz (0.14 ppm) while the smallest
        replay-chain offset measured is 543 Hz (0.62 ppm); the default
        guard of 3x the resolution keeps benign jitter inside while
        leaving every measured attack outside.
    min_history:
        Number of accepted estimates needed before the detector starts
        enforcing the interval (the run-time learning phase).
    learn_on_accept:
        Whether accepted frames update the database (run-time tracking of
        temperature-induced drift).  Frames flagged as replays never do.
    """

    database: FbStore
    guard_hz: float = 3.0 * FB_ESTIMATION_RESOLUTION_HZ
    min_history: int = 3
    learn_on_accept: bool = True

    def __post_init__(self) -> None:
        if self.guard_hz <= 0:
            raise ConfigurationError(f"guard band must be positive, got {self.guard_hz}")
        if self.min_history < 1:
            raise ConfigurationError(f"min history must be >= 1, got {self.min_history}")

    def check(self, node_id: str, fb_hz: float, time_s: float = 0.0) -> DetectionResult:
        """Classify one received frame's FB against the claimed node."""
        interval = self.database.interval(node_id, self.guard_hz)
        history = 0 if interval is None else interval.samples
        if interval is None or history < self.min_history:
            result = DetectionResult(
                node_id=node_id,
                fb_hz=fb_hz,
                is_replay=False,
                reason=f"learning phase ({history}/{self.min_history} samples)",
                interval=interval,
            )
            self.database.record(node_id, fb_hz, time_s)
        elif interval.contains(fb_hz):
            result = DetectionResult(
                node_id=node_id,
                fb_hz=fb_hz,
                is_replay=False,
                reason="FB within the node's recorded range",
                interval=interval,
            )
            if self.learn_on_accept:
                self.database.record(node_id, fb_hz, time_s)
        else:
            deviation = (
                interval.low_hz - fb_hz if fb_hz < interval.low_hz else fb_hz - interval.high_hz
            )
            result = DetectionResult(
                node_id=node_id,
                fb_hz=fb_hz,
                is_replay=True,
                reason=f"FB deviates {deviation:.0f} Hz beyond the recorded range",
                interval=interval,
                deviation_hz=float(deviation),
            )
        return result

    def bootstrap(self, node_id: str, fb_estimates: list[float]) -> None:
        """Load an offline-built FB profile for a node (paper Sec. 7.2).

        The estimates are recorded in order at ``time_s = 0`` with one
        bulk ``record_many`` write.
        """
        self.database.record_many(node_id, [(0.0, fb) for fb in fb_estimates])

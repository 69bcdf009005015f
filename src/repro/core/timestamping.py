"""Synchronization-free data timestamping (paper Secs. 1, 3.2).

Device side: sensor readings are stamped with the *unsynchronized* local
clock; right before transmission each stamp is replaced by the **elapsed
time** from the reading to now, quantized into a small fixed-width field
(18 bits at 1 ms resolution covers the 4.1-minute buffering window that a
40 ppm clock allows under a 10 ms drift budget).

Gateway side: the globally-synchronized gateway timestamps the frame's
PHY-layer arrival and reconstructs each reading's global time as
``arrival − elapsed``.  The one-hop propagation time (microseconds) is
negligible at millisecond targets — which is precisely the assumption the
frame delay attack violates and the FB detector restores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import ELAPSED_TIME_BITS, ELAPSED_TIME_RESOLUTION_S
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ElapsedTimeCodec:
    """Fixed-width elapsed-time field codec.

    The default 18-bit, 1 ms field matches the paper's sizing example.
    """

    bits: int = ELAPSED_TIME_BITS
    resolution_s: float = ELAPSED_TIME_RESOLUTION_S

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 64:
            raise ConfigurationError(f"field width must be in [1, 64] bits, got {self.bits}")
        if self.resolution_s <= 0:
            raise ConfigurationError(f"resolution must be positive, got {self.resolution_s}")

    @property
    def max_ticks(self) -> int:
        return (1 << self.bits) - 1

    @property
    def capacity_s(self) -> float:
        """Longest representable elapsed time."""
        return self.max_ticks * self.resolution_s

    def encode(self, elapsed_s: float) -> int:
        """Quantize an elapsed time to field ticks (round to nearest)."""
        if elapsed_s < 0:
            raise ConfigurationError(f"elapsed time must be >= 0, got {elapsed_s}")
        ticks = int(round(elapsed_s / self.resolution_s))
        if ticks > self.max_ticks:
            raise ConfigurationError(
                f"elapsed time {elapsed_s:.3f}s exceeds the field capacity "
                f"{self.capacity_s:.3f}s; flush the buffer sooner"
            )
        return ticks

    def decode(self, ticks: int) -> float:
        if not 0 <= ticks <= self.max_ticks:
            raise ConfigurationError(f"field value {ticks} out of range [0, {self.max_ticks}]")
        return ticks * self.resolution_s

    def pack(self, ticks_list: list[int]) -> bytes:
        """Pack multiple fields into a compact byte string."""
        bitstream = 0
        for ticks in ticks_list:
            if not 0 <= ticks <= self.max_ticks:
                raise ConfigurationError(f"field value {ticks} out of range")
            bitstream = (bitstream << self.bits) | ticks
        total_bits = self.bits * len(ticks_list)
        n_bytes = (total_bits + 7) // 8
        bitstream <<= n_bytes * 8 - total_bits
        return bitstream.to_bytes(n_bytes, "big") if n_bytes else b""

    def unpack(self, data: bytes, count: int) -> list[int]:
        """Inverse of :meth:`pack` for a known field count."""
        total_bits = self.bits * count
        if len(data) * 8 < total_bits:
            raise ConfigurationError(
                f"{len(data)} bytes cannot hold {count} fields of {self.bits} bits"
            )
        bitstream = int.from_bytes(data, "big") >> (len(data) * 8 - total_bits)
        fields = []
        for i in reversed(range(count)):
            fields.append((bitstream >> (i * self.bits)) & self.max_ticks)
        return fields


@dataclass(frozen=True)
class TimestampedReading:
    """A sensor reading with its reconstructed global timestamp."""

    value: float
    global_time_s: float
    elapsed_ticks: int


@dataclass
class SyncFreeTimestamper:
    """Gateway-side reconstruction of global timestamps.

    ``tx_latency_s`` compensates the known mean delay between the device
    requesting transmission and actual signal emission (about 3 ms on
    commodity platforms per the paper's Sec. 3.2 reference [9]); set to 0
    to reproduce the uncompensated baseline.
    """

    codec: ElapsedTimeCodec = field(default_factory=ElapsedTimeCodec)
    tx_latency_s: float = 0.0

    def reconstruct(
        self, arrival_time_s: float, elapsed_ticks: list[int], values: list[float] | None = None
    ) -> list[TimestampedReading]:
        """Recover global timestamps for the readings in one frame.

        ``arrival_time_s`` is the gateway's PHY-layer timestamp of the
        frame onset; each reading's global time is
        ``arrival − tx_latency − elapsed``.
        """
        if values is None:
            values = [float("nan")] * len(elapsed_ticks)
        if len(values) != len(elapsed_ticks):
            raise ConfigurationError(
                f"{len(values)} values do not match {len(elapsed_ticks)} elapsed fields"
            )
        emission = arrival_time_s - self.tx_latency_s
        return [
            TimestampedReading(
                value=value,
                global_time_s=emission - self.codec.decode(ticks),
                elapsed_ticks=ticks,
            )
            for value, ticks in zip(values, elapsed_ticks)
        ]


@dataclass
class DeviceRecordBuffer:
    """Device-side buffer converting local stamps into elapsed fields.

    Mirrors the paper's device behaviour: readings carry local-clock
    stamps; at send time each is replaced by its elapsed time *as measured
    by the same local clock* (so clock bias cancels and only drift over
    the buffer window remains).
    """

    codec: ElapsedTimeCodec = field(default_factory=ElapsedTimeCodec)
    _records: list[tuple[float, float]] = field(default_factory=list)

    def add(self, value: float, local_time_s: float) -> None:
        self._records.append((value, local_time_s))

    def __len__(self) -> int:
        return len(self._records)

    def flush(self, local_now_s: float) -> tuple[list[float], list[int]]:
        """Convert buffered records into (values, elapsed ticks) and clear."""
        values, ticks = [], []
        for value, stamp in self._records:
            elapsed = local_now_s - stamp
            if elapsed < 0:
                raise ConfigurationError("record stamped after the flush instant")
            values.append(value)
            ticks.append(self.codec.encode(elapsed))
        self._records.clear()
        return values, ticks

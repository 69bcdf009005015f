"""Adaptive Data Rate: the network server's closed-loop SF controller.

Real LoRaWAN network servers continuously retune device spreading
factors: each deduplicated uplink contributes its best-gateway SNR to a
per-device history, and once the link margin supports a faster data
rate the server sends a ``LinkADRReq`` MAC command through the class-A
downlink machinery.  The loop changes exactly the quantities the
paper's replay defense depends on -- airtime (collision odds), SNR
margin (delivery), and FB-estimation noise -- which is why the
reproduction models it end to end:

1. :meth:`AdrController.observe` ingests one accepted uplink's
   (SNR, SF) evidence per over-the-air transmission;
2. once ``min_history`` samples accumulate, the Semtech-style margin
   rule (``SNRmax - demod_floor(SF) - margin_db`` in ``step_db``
   steps) picks a target data rate;
3. a differing target queues one :class:`AdrCommand`; the
   :class:`~repro.sim.columnar.ColumnarRuntime` drains the queue after each
   delivery window and schedules the command through the gateway's
   :class:`~repro.lorawan.downlink.DownlinkScheduler` into the
   answering device's RX1/RX2 window (duty-cycle permitting);
4. the device applies the commanded :class:`~repro.lorawan.regional
   .DataRate` and answers ``LinkADRAns`` on its next uplink's FOpts,
   closing the loop at the controller.

One command is in flight per device at a time: the controller re-arms
when it sees the device transmit at the commanded SF, when the answer
arrives, or when the runtime reports the downlink was dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.constants import SX1276_DEMOD_SNR_FLOOR_DB
from repro.errors import ConfigurationError
from repro.lorawan.mac import LinkADRAns, LinkADRReq
from repro.lorawan.regional import EU868

#: The slowest/fastest spreading factors ADR will command (EU868 DR0/DR5).
ADR_MAX_SF = 12
ADR_MIN_SF = 7


@dataclass
class _AdrDeviceState:
    """Per-device loop state: SNR evidence and the in-flight command."""

    snr_history: deque
    last_sf: int | None = None
    inflight_sf: int | None = None
    inflight_power_only: bool = False
    power_index: int = 0
    prev_power_index: int | None = None
    fcnt_down: int = 0
    commands_issued: int = 0
    answers_seen: int = 0


@dataclass(frozen=True)
class AdrCommand:
    """One queued ``LinkADRReq``, awaiting a class-A downlink window.

    Attributes:
        dev_addr: The addressed device.
        request: The MAC command to deliver.
        issued_at_s: Server time of the decision (the anchoring uplink's
            fused timestamp).
    """

    dev_addr: int
    request: LinkADRReq
    issued_at_s: float


@dataclass
class AdrController:
    """Closed-loop ADR decision engine (Semtech recommended algorithm).

    Margin rule: with at least ``min_history`` accepted uplinks on
    record, ``margin = max(SNR history) - demod_floor(current SF) -
    margin_db`` and every full ``step_db`` of positive margin steps the
    data rate up (SF down, toward SF7).  A negative margin steps the SF
    up by one per decision.  A decision that changes the data rate
    queues exactly one :class:`AdrCommand`; further decisions for that
    device wait until the command resolves (applied, answered, or
    dropped).

    Attributes:
        margin_db: Installation margin subtracted from the link margin
            (the LoRaWAN-recommended device margin, default 10 dB).
        step_db: SNR headroom consumed per data-rate step (3 dB: one SF
            halves the chirp duration and costs ~2.5 dB of sensitivity).
        history_len: SNR samples retained per device.
        min_history: Samples required before the first decision.
        adjust_tx_power: When True, margin left over at SF7 lowers the
            commanded TX power 2 dB per remaining step.
        pending: Commands queued for the downlink path, oldest first.
    """

    margin_db: float = 10.0
    step_db: float = 3.0
    history_len: int = 8
    min_history: int = 4
    adjust_tx_power: bool = False
    pending: list[AdrCommand] = field(default_factory=list)
    _devices: dict[int, _AdrDeviceState] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Validate the margin/history configuration."""
        if self.step_db <= 0:
            raise ConfigurationError(f"step must be positive, got {self.step_db}")
        if self.history_len < 1 or self.min_history < 1:
            raise ConfigurationError(
                f"history lengths must be >= 1, got {self.history_len}/{self.min_history}"
            )
        if self.min_history > self.history_len:
            raise ConfigurationError(
                f"min_history {self.min_history} exceeds history_len {self.history_len}"
            )

    # -- evidence ingestion -----------------------------------------------------

    def observe(
        self, dev_addr: int, snr_db: float, spreading_factor: int, time_s: float
    ) -> AdrCommand | None:
        """Ingest one accepted uplink's link evidence; maybe queue a command.

        Args:
            dev_addr: The transmitting device.
            snr_db: Best-gateway SNR of the deduplicated uplink.
            spreading_factor: The SF the frame was transmitted at -- the
                device's *current* data rate, which also confirms (and
                clears) a matching in-flight command.
            time_s: The uplink's fused timestamp.

        Returns:
            The queued :class:`AdrCommand` when this observation
            triggered a retune decision, else ``None``.
        """
        state = self._devices.setdefault(
            dev_addr, _AdrDeviceState(snr_history=deque(maxlen=self.history_len))
        )
        if (
            state.inflight_sf is not None
            and spreading_factor == state.inflight_sf
            and not state.inflight_power_only
        ):
            # Command confirmed by the air interface.  A power-only
            # command cannot be confirmed this way (the SF was already
            # the commanded one); it resolves via the LinkADRAns or a
            # drop instead.
            state.inflight_sf = None
            state.prev_power_index = None
        state.last_sf = spreading_factor
        state.snr_history.append(float(snr_db))
        if state.inflight_sf is not None or len(state.snr_history) < self.min_history:
            return None
        target_sf, power_index = self._decide(spreading_factor, max(state.snr_history))
        if target_sf == spreading_factor and power_index == state.power_index:
            return None
        command = AdrCommand(
            dev_addr=dev_addr,
            request=LinkADRReq(
                data_rate_index=EU868.data_rate_index_for_sf(target_sf),
                tx_power_index=power_index,
            ),
            issued_at_s=time_s,
        )
        state.inflight_sf = target_sf
        state.inflight_power_only = target_sf == spreading_factor
        state.prev_power_index = state.power_index
        state.power_index = power_index
        state.commands_issued += 1
        self.pending.append(command)
        return command

    def _decide(self, current_sf: int, snr_max_db: float) -> tuple[int, int]:
        """The margin rule: (target SF, TXPower index) for one device."""
        floor = SX1276_DEMOD_SNR_FLOOR_DB[current_sf]
        margin = snr_max_db - floor - self.margin_db
        steps = int(margin // self.step_db)
        if steps < 0:
            return min(current_sf + 1, ADR_MAX_SF), 0
        target = current_sf
        while steps > 0 and target > ADR_MIN_SF:
            target -= 1
            steps -= 1
        power_index = min(steps, 7) if self.adjust_tx_power else 0
        return target, power_index

    # -- loop resolution --------------------------------------------------------

    def acknowledge(self, dev_addr: int, ans: LinkADRAns) -> None:
        """Record a device's ``LinkADRAns`` and re-arm its decision loop."""
        state = self._devices.get(dev_addr)
        if state is None:
            return
        state.answers_seen += 1
        state.inflight_sf = None
        state.inflight_power_only = False
        state.prev_power_index = None

    def command_dropped(self, dev_addr: int) -> None:
        """The downlink never made a receive window: re-arm for a retry.

        The optimistically-committed power index rolls back too, so a
        dropped power-only retune is re-decided on the next uplink
        instead of being presumed applied.
        """
        state = self._devices.get(dev_addr)
        if state is not None:
            state.inflight_sf = None
            state.inflight_power_only = False
            if state.prev_power_index is not None:
                state.power_index = state.prev_power_index
                state.prev_power_index = None

    def take_pending(self) -> list[AdrCommand]:
        """Drain the queued commands (the runtime's per-window pickup)."""
        commands, self.pending = self.pending, []
        return commands

    def next_fcnt_down(self, dev_addr: int) -> int:
        """Allocate the next downlink frame counter for a device."""
        state = self._devices.setdefault(
            dev_addr, _AdrDeviceState(snr_history=deque(maxlen=self.history_len))
        )
        fcnt = state.fcnt_down
        state.fcnt_down += 1
        return fcnt

    # -- queries ----------------------------------------------------------------

    def last_sf(self, dev_addr: int) -> int | None:
        """The SF of the device's most recent accepted uplink, if any."""
        state = self._devices.get(dev_addr)
        return None if state is None else state.last_sf

    def commands_issued(self, dev_addr: int) -> int:
        """Total LinkADRReq commands queued for a device so far."""
        state = self._devices.get(dev_addr)
        return 0 if state is None else state.commands_issued

    def converged(self, dev_addr: int) -> bool:
        """True when the device has evidence on file and no command in flight."""
        state = self._devices.get(dev_addr)
        return (
            state is not None
            and state.inflight_sf is None
            and len(state.snr_history) >= self.min_history
            and state.last_sf is not None
            and self._decide(state.last_sf, max(state.snr_history))[0] == state.last_sf
        )

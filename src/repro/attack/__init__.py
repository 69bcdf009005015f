"""Adversary substrate: stealthy jamming, waveform record, delayed replay.

Implements the paper's frame delay attack (Sec. 4): an eavesdropper near
the end device records the uplink waveform while a replayer near the
gateway jams the reception *stealthily* (inside the timing window where
the RN2483 silently drops the frame), then replays the recorded waveform
after an attacker-chosen delay τ.  Cryptography is untouched; the replay
chain's oscillators add the extra frequency bias SoftLoRa detects.
The attacker is given its victim; picking one out of a fleet by its
frequency trait (Sec. 4.2.1) is not modelled.
"""

from repro.attack.delay_attack import AttackOutcome, FrameDelayAttack, ReplayedFrame
from repro.attack.eavesdropper import Eavesdropper
from repro.attack.jammer import (
    JammingOutcome,
    JammingWindowModel,
    JammingWindows,
    RN2483_MEASURED_WINDOWS,
    StealthyJammer,
)
from repro.attack.replayer import Replayer

__all__ = [
    "AttackOutcome",
    "Eavesdropper",
    "FrameDelayAttack",
    "JammingOutcome",
    "JammingWindowModel",
    "JammingWindows",
    "RN2483_MEASURED_WINDOWS",
    "Replayer",
    "ReplayedFrame",
    "StealthyJammer",
]

"""LoRaWAN 1.0.2 frame security: session keys, MIC, payload encryption.

Follows the specification's constructions:

* FRMPayload is encrypted by XOR with AES-ECB keystream blocks
  ``A_i = 01 | 00*4 | dir | DevAddr | FCnt32 | 00 | i``,
* the MIC is the first four bytes of ``AES-CMAC(NwkSKey, B0 | msg)`` with
  ``B0 = 49 | 00*4 | dir | DevAddr | FCnt32 | 00 | len(msg)``.

These are exactly the checks a replayed frame still passes (paper
Sec. 4.2.1): replay changes neither bits nor counter, only arrival time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, MicError
from repro.lorawan.crypto.aes import aes128_encrypt_block
from repro.lorawan.crypto.cmac import aes_cmac

UPLINK_DIRECTION = 0
DOWNLINK_DIRECTION = 1


@dataclass(frozen=True)
class SessionKeys:
    """A device's LoRaWAN session keys (ABP-style provisioning)."""

    nwk_skey: bytes
    app_skey: bytes

    def __post_init__(self) -> None:
        if len(self.nwk_skey) != 16 or len(self.app_skey) != 16:
            raise ConfigurationError("session keys must be 16 bytes each")

    @classmethod
    def derive_for_test(cls, dev_addr: int) -> "SessionKeys":
        """Deterministic per-device keys for simulations."""
        seed = dev_addr.to_bytes(4, "little") * 4
        base = aes128_encrypt_block(b"\x2b" * 16, seed)
        return cls(nwk_skey=base, app_skey=aes128_encrypt_block(base, seed))


def _block_a(dev_addr: int, fcnt: int, direction: int, index: int) -> bytes:
    return bytes(
        [0x01, 0, 0, 0, 0, direction]
        + list(dev_addr.to_bytes(4, "little"))
        + list(fcnt.to_bytes(4, "little"))
        + [0x00, index]
    )


def encrypt_frm_payload(
    key: bytes, dev_addr: int, fcnt: int, direction: int, payload: bytes
) -> bytes:
    """Encrypt (or, being an XOR stream, decrypt) a FRMPayload."""
    if direction not in (UPLINK_DIRECTION, DOWNLINK_DIRECTION):
        raise ConfigurationError(f"direction must be 0 or 1, got {direction}")
    out = bytearray()
    for i in range(0, len(payload), 16):
        keystream = aes128_encrypt_block(key, _block_a(dev_addr, fcnt, direction, i // 16 + 1))
        chunk = payload[i : i + 16]
        out.extend(c ^ k for c, k in zip(chunk, keystream))
    return bytes(out)


def compute_uplink_mic(nwk_skey: bytes, dev_addr: int, fcnt: int, msg: bytes) -> bytes:
    """Four-byte MIC over an uplink message (MHDR | FHDR | FPort | FRM)."""
    b0 = bytes(
        [0x49, 0, 0, 0, 0, UPLINK_DIRECTION]
        + list(dev_addr.to_bytes(4, "little"))
        + list(fcnt.to_bytes(4, "little"))
        + [0x00, len(msg)]
    )
    return aes_cmac(nwk_skey, b0 + msg)[:4]


def verify_uplink_mic(nwk_skey: bytes, dev_addr: int, fcnt: int, msg: bytes, mic: bytes) -> None:
    """Raise :class:`MicError` unless the MIC verifies."""
    expected = compute_uplink_mic(nwk_skey, dev_addr, fcnt, msg)
    if expected != mic:
        raise MicError(
            f"MIC mismatch for device {dev_addr:#010x} fcnt {fcnt}: "
            f"expected {expected.hex()}, got {mic.hex()}"
        )

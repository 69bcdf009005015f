"""AES-CMAC (RFC 4493), the MAC underlying LoRaWAN's MIC."""

from __future__ import annotations

from functools import lru_cache

from repro.lorawan.crypto.aes import aes128_encrypt_block

_BLOCK_SIZE = 16
_RB = 0x87
_CARRY = 1 << 128


def _double(value: int) -> int:
    """Multiply a 128-bit block by x in GF(2^128) (RFC 4493's left shift)."""
    value <<= 1
    if value & _CARRY:
        value ^= _CARRY | _RB
    return value


@lru_cache(maxsize=4096)
def _generate_subkeys(key: bytes) -> tuple[int, int]:
    """The subkeys K1 and K2 as 128-bit integers, cached per key.

    Sized like the AES key-schedule cache: one entry per session key in
    use, so a MIC check on a known key skips the subkey AES block.
    """
    l_value = int.from_bytes(aes128_encrypt_block(key, b"\x00" * _BLOCK_SIZE), "big")
    k1 = _double(l_value)
    return k1, _double(k1)


def aes_cmac(key: bytes, message: bytes) -> bytes:
    """Full 16-byte AES-CMAC of ``message``; LoRaWAN truncates to 4."""
    k1, k2 = _generate_subkeys(bytes(key))
    n_blocks = max(1, -(-len(message) // _BLOCK_SIZE))
    complete = len(message) % _BLOCK_SIZE == 0 and len(message) > 0
    if complete:
        last = int.from_bytes(message[-_BLOCK_SIZE:], "big") ^ k1
    else:
        tail = message[(n_blocks - 1) * _BLOCK_SIZE :]
        padded = tail + b"\x80" + b"\x00" * (_BLOCK_SIZE - len(tail) - 1)
        last = int.from_bytes(padded, "big") ^ k2
    state = 0
    for i in range(n_blocks - 1):
        block = int.from_bytes(message[i * _BLOCK_SIZE : (i + 1) * _BLOCK_SIZE], "big")
        cipher = aes128_encrypt_block(key, (state ^ block).to_bytes(_BLOCK_SIZE, "big"))
        state = int.from_bytes(cipher, "big")
    return aes128_encrypt_block(key, (state ^ last).to_bytes(_BLOCK_SIZE, "big"))

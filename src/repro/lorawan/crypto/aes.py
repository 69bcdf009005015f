"""AES-128 block cipher, pure Python and table-driven.

LoRaWAN 1.0.2 protects every frame with AES-128: the MIC is an AES-CMAC
and the payload is encrypted with an AES-CTR-style construction.  The
frame delay attack *does not* break this protection -- the replayed frame
passes MIC verification untouched -- which is exactly why the paper's
PHY-layer FB defense is needed.  We implement the cipher from scratch (no
crypto packages are available offline) so the end-to-end attack
demonstration can show a cryptographically valid replay being accepted.

The network server runs AES-CMAC on every uplink copy, so encryption is
the classic T-table construction: the state is four 32-bit column words,
each middle round is 16 lookups into four 256-entry tables built from
the S-box at import, and the final round uses the S-box directly.  Each
key's expanded schedule is kept in a fixed-size LRU, so a device's
session key is expanded once, not per block.  Only the forward cipher
exists: the CMAC and the payload keystream of ABP-provisioned frames,
uplink and downlink, both encrypt blocks, so nothing needs the inverse.

This is a teaching/simulation implementation: correct (checked against
FIPS-197 vectors and a byte-wise reference in the tests) but not
constant-time -- the table lookups are indexed by secret-dependent bytes
-- and not intended to protect real secrets.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ConfigurationError

_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76"
    "ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d83115"
    "04c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f84"
    "53d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa8"
    "51a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d1973"
    "60814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479"
    "e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a"
    "703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df"
    "8ca1890dbfe6426841992d0fb054bb16"
)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) with the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


#: Distinct keys whose expanded schedules stay cached (about 2 KB each).
_SCHEDULE_CACHE_SIZE = 4096


@lru_cache(maxsize=_SCHEDULE_CACHE_SIZE)
def _key_schedule(key: bytes) -> tuple[int, ...]:
    """AES-128 key schedule: 44 big-endian 32-bit words, 4 per round key."""
    if len(key) != 16:
        raise ConfigurationError(f"AES-128 needs a 16-byte key, got {len(key)} bytes")
    sbox = _SBOX
    words = [int.from_bytes(key[i : i + 4], "big") for i in range(0, 16, 4)]
    for i in range(4, 44):
        word = words[i - 1]
        if i % 4 == 0:
            # RotWord, SubWord, then the round constant on the top byte.
            word = (
                (sbox[(word >> 16) & 0xFF] << 24)
                | (sbox[(word >> 8) & 0xFF] << 16)
                | (sbox[word & 0xFF] << 8)
                | sbox[word >> 24]
            ) ^ (_RCON[i // 4 - 1] << 24)
        words.append(words[i - 4] ^ word)
    return tuple(words)


def _t_table(column: tuple[int, int, int, int]) -> tuple[int, ...]:
    """SubBytes and one MixColumns column, fused: byte -> 32-bit word.

    ``column`` holds the GF(2^8) multipliers of one column of the
    MixColumns matrix, top row first.
    """
    table = []
    for s in _SBOX:
        m0, m1, m2, m3 = (_gmul(s, m) for m in column)
        table.append((m0 << 24) | (m1 << 16) | (m2 << 8) | m3)
    return tuple(table)


_TE0 = _t_table((2, 1, 1, 3))
_TE1 = _t_table((3, 2, 1, 1))
_TE2 = _t_table((1, 3, 2, 1))
_TE3 = _t_table((1, 1, 3, 2))


def aes128_encrypt_block(key: bytes, block: bytes) -> bytes:
    """Encrypt one 16-byte block with AES-128.

    The state is four big-endian column words.  Each middle round is 16
    T-table lookups (SubBytes, ShiftRows and MixColumns fused) and the
    final round applies the S-box directly; the key schedule comes from
    the per-key cache.
    """
    if len(block) != 16:
        raise ConfigurationError(f"AES block must be 16 bytes, got {len(block)}")
    rk = _key_schedule(bytes(key))
    te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
    state = int.from_bytes(block, "big")
    s0 = (state >> 96) ^ rk[0]
    s1 = ((state >> 64) & 0xFFFFFFFF) ^ rk[1]
    s2 = ((state >> 32) & 0xFFFFFFFF) ^ rk[2]
    s3 = (state & 0xFFFFFFFF) ^ rk[3]
    for r in range(4, 40, 4):
        # ShiftRows: output column c takes row i from input column c + i.
        s0, s1, s2, s3 = (
            te0[s0 >> 24] ^ te1[s1 >> 16 & 0xFF] ^ te2[s2 >> 8 & 0xFF] ^ te3[s3 & 0xFF] ^ rk[r],
            te0[s1 >> 24] ^ te1[s2 >> 16 & 0xFF] ^ te2[s3 >> 8 & 0xFF] ^ te3[s0 & 0xFF] ^ rk[r + 1],
            te0[s2 >> 24] ^ te1[s3 >> 16 & 0xFF] ^ te2[s0 >> 8 & 0xFF] ^ te3[s1 & 0xFF] ^ rk[r + 2],
            te0[s3 >> 24] ^ te1[s0 >> 16 & 0xFF] ^ te2[s1 >> 8 & 0xFF] ^ te3[s2 & 0xFF] ^ rk[r + 3],
        )
    sbox = _SBOX
    # fmt: off
    last = bytes(
        (
            sbox[s0 >> 24], sbox[s1 >> 16 & 0xFF], sbox[s2 >> 8 & 0xFF], sbox[s3 & 0xFF],
            sbox[s1 >> 24], sbox[s2 >> 16 & 0xFF], sbox[s3 >> 8 & 0xFF], sbox[s0 & 0xFF],
            sbox[s2 >> 24], sbox[s3 >> 16 & 0xFF], sbox[s0 >> 8 & 0xFF], sbox[s1 & 0xFF],
            sbox[s3 >> 24], sbox[s0 >> 16 & 0xFF], sbox[s1 >> 8 & 0xFF], sbox[s2 & 0xFF],
        )
    )
    # fmt: on
    last_key = (rk[40] << 96) | (rk[41] << 64) | (rk[42] << 32) | rk[43]
    return (int.from_bytes(last, "big") ^ last_key).to_bytes(16, "big")

"""Byte-wise AES-128 straight from FIPS-197, the oracle for the T-table cipher.

Shared by ``test_lorawan_crypto.py`` (fixed random pairs) and
``test_properties.py`` (hypothesis-drawn pairs).
"""

from repro.lorawan.crypto.aes import _RCON, _SBOX, _gmul


def reference_encrypt_block(key: bytes, block: bytes) -> bytes:
    """Byte-wise AES-128 straight from FIPS-197: the oracle for the T-table path."""
    words = [bytes(key[i : i + 4]) for i in range(0, 16, 4)]
    for round_index in range(10):
        prev = words[-1]
        substituted = bytes(_SBOX[b] for b in prev[1:] + prev[:1])
        mixed = bytes([substituted[0] ^ _RCON[round_index]]) + substituted[1:]
        words.append(bytes(a ^ b for a, b in zip(words[-4], mixed)))
        for _ in range(3):
            words.append(bytes(a ^ b for a, b in zip(words[-4], words[-1])))
    round_keys = [b"".join(words[4 * r : 4 * r + 4]) for r in range(11)]

    # State is column-major: byte (row r, col c) sits at index 4c + r.
    def add_round_key(state, round_key):
        return bytearray(a ^ b for a, b in zip(state, round_key))

    def sub_bytes(state):
        return bytearray(_SBOX[b] for b in state)

    def shift_rows(state):
        return bytearray(state[4 * ((c + r) % 4) + r] for c in range(4) for r in range(4))

    def mix_columns(state):
        out = bytearray(16)
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
            out[4 * c + 0] = _gmul(a0, 2) ^ _gmul(a1, 3) ^ a2 ^ a3
            out[4 * c + 1] = a0 ^ _gmul(a1, 2) ^ _gmul(a2, 3) ^ a3
            out[4 * c + 2] = a0 ^ a1 ^ _gmul(a2, 2) ^ _gmul(a3, 3)
            out[4 * c + 3] = _gmul(a0, 3) ^ a1 ^ a2 ^ _gmul(a3, 2)
        return out

    state = add_round_key(bytearray(block), round_keys[0])
    for round_index in range(1, 10):
        state = mix_columns(shift_rows(sub_bytes(state)))
        state = add_round_key(state, round_keys[round_index])
    state = add_round_key(shift_rows(sub_bytes(state)), round_keys[10])
    return bytes(state)

"""Tests for AES-128, AES-CMAC and LoRaWAN frame security."""

import random

import pytest

from aes_reference import reference_encrypt_block
from repro.errors import ConfigurationError, MicError
from repro.lorawan.crypto.aes import aes128_encrypt_block
from repro.lorawan.crypto.cmac import aes_cmac
from repro.lorawan.security import (
    SessionKeys,
    compute_uplink_mic,
    encrypt_frm_payload,
    verify_uplink_mic,
)

FIPS_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def random_pairs(n: int, seed: int) -> list[tuple[bytes, bytes]]:
    rng = random.Random(seed)
    return [(rng.randbytes(16), rng.randbytes(16)) for _ in range(n)]


class TestAes128:
    def test_fips197_appendix_b(self):
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert aes128_encrypt_block(FIPS_KEY, plaintext) == expected

    def test_fips197_appendix_c(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert aes128_encrypt_block(key, plaintext) == expected

    def test_bad_key_length(self):
        with pytest.raises(ConfigurationError):
            aes128_encrypt_block(b"short", bytes(16))

    def test_bad_block_length(self):
        with pytest.raises(ConfigurationError):
            aes128_encrypt_block(FIPS_KEY, b"tiny")

    def test_lengths_still_checked_once_the_key_is_cached(self):
        aes128_encrypt_block(FIPS_KEY, bytes(16))  # caches FIPS_KEY's schedule
        for bad_block in (b"", bytes(15), bytes(17)):
            with pytest.raises(ConfigurationError):
                aes128_encrypt_block(FIPS_KEY, bad_block)
        for bad_key in (FIPS_KEY[:15], FIPS_KEY + b"\x00"):
            for _ in range(2):  # a failed expansion is never cached
                with pytest.raises(ConfigurationError):
                    aes128_encrypt_block(bad_key, bytes(16))

    def test_bytearray_key_and_block(self):
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert aes128_encrypt_block(bytearray(FIPS_KEY), bytearray(plaintext)) == expected

    def test_table_path_matches_bytewise_reference(self):
        for key, block in random_pairs(1000, seed=2019):
            assert aes128_encrypt_block(key, block) == reference_encrypt_block(key, block)

    def test_reference_matches_fips197(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert reference_encrypt_block(key, plaintext) == expected

    def test_different_keys_different_output(self):
        block = bytes(16)
        assert aes128_encrypt_block(FIPS_KEY, block) != aes128_encrypt_block(
            bytes(16), block
        )


class TestCmac:
    """RFC 4493 test vectors."""

    def test_empty_message(self):
        assert aes_cmac(FIPS_KEY, b"").hex() == "bb1d6929e95937287fa37d129b756746"

    def test_16_bytes(self):
        msg = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        assert aes_cmac(FIPS_KEY, msg).hex() == "070a16b46b4d4144f79bdd9dd04a287c"

    def test_40_bytes(self):
        msg = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411"
        )
        assert aes_cmac(FIPS_KEY, msg).hex() == "dfa66747de9ae63030ca32611497c827"

    def test_64_bytes(self):
        msg = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52ef"
            "f69f2445df4f9b17ad2b417be66c3710"
        )
        assert aes_cmac(FIPS_KEY, msg).hex() == "51f0bebf7e3b9d92fc49741779363cfe"

    def test_mac_changes_with_message(self):
        assert aes_cmac(FIPS_KEY, b"a") != aes_cmac(FIPS_KEY, b"b")


class TestAgainstCryptography:
    """Cross-check against the ``cryptography`` package when it is installed."""

    def test_ecb_blocks(self):
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

        for key, block in random_pairs(200, seed=11):
            encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
            assert aes128_encrypt_block(key, block) == encryptor.update(block)

    def test_cmac(self):
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives.ciphers import algorithms
        from cryptography.hazmat.primitives.cmac import CMAC

        rng = random.Random(13)
        for length in (0, 1, 15, 16, 17, 31, 32, 33, 64, 100):
            key, message = rng.randbytes(16), rng.randbytes(length)
            mac = CMAC(algorithms.AES(key))
            mac.update(message)
            assert aes_cmac(key, message) == mac.finalize()


class TestSessionKeys:
    def test_key_lengths_enforced(self):
        with pytest.raises(ConfigurationError):
            SessionKeys(nwk_skey=b"short", app_skey=bytes(16))

    def test_derive_for_test_deterministic(self):
        a = SessionKeys.derive_for_test(0x1234)
        b = SessionKeys.derive_for_test(0x1234)
        assert a == b

    def test_derive_for_test_distinct_devices(self):
        assert SessionKeys.derive_for_test(1) != SessionKeys.derive_for_test(2)

    def test_nwk_and_app_keys_differ(self):
        keys = SessionKeys.derive_for_test(7)
        assert keys.nwk_skey != keys.app_skey


class TestFrameSecurity:
    def test_payload_encryption_roundtrip(self):
        keys = SessionKeys.derive_for_test(0xAABBCCDD)
        payload = b"sensor readings live here, 30B!"
        encrypted = encrypt_frm_payload(keys.app_skey, 0xAABBCCDD, 5, 0, payload)
        assert encrypted != payload
        decrypted = encrypt_frm_payload(keys.app_skey, 0xAABBCCDD, 5, 0, encrypted)
        assert decrypted == payload

    def test_encryption_depends_on_counter(self):
        keys = SessionKeys.derive_for_test(1)
        payload = b"same bytes"
        a = encrypt_frm_payload(keys.app_skey, 1, 1, 0, payload)
        b = encrypt_frm_payload(keys.app_skey, 1, 2, 0, payload)
        assert a != b

    def test_encryption_depends_on_direction(self):
        keys = SessionKeys.derive_for_test(1)
        payload = b"same bytes"
        up = encrypt_frm_payload(keys.app_skey, 1, 1, 0, payload)
        down = encrypt_frm_payload(keys.app_skey, 1, 1, 1, payload)
        assert up != down

    def test_invalid_direction(self):
        with pytest.raises(ConfigurationError):
            encrypt_frm_payload(bytes(16), 1, 1, 2, b"x")

    def test_empty_payload(self):
        assert encrypt_frm_payload(bytes(16), 1, 1, 0, b"") == b""

    def test_mic_verifies(self):
        keys = SessionKeys.derive_for_test(3)
        msg = b"\x40" + bytes(10)
        mic = compute_uplink_mic(keys.nwk_skey, 3, 9, msg)
        assert len(mic) == 4
        verify_uplink_mic(keys.nwk_skey, 3, 9, msg, mic)  # no raise

    def test_mic_rejects_tampering(self):
        keys = SessionKeys.derive_for_test(3)
        msg = bytearray(b"\x40" + bytes(10))
        mic = compute_uplink_mic(keys.nwk_skey, 3, 9, bytes(msg))
        msg[5] ^= 0x01
        with pytest.raises(MicError):
            verify_uplink_mic(keys.nwk_skey, 3, 9, bytes(msg), mic)

    def test_mic_rejects_wrong_counter(self):
        keys = SessionKeys.derive_for_test(3)
        msg = b"\x40" + bytes(10)
        mic = compute_uplink_mic(keys.nwk_skey, 3, 9, msg)
        with pytest.raises(MicError):
            verify_uplink_mic(keys.nwk_skey, 3, 10, msg, mic)

"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aes_reference import reference_encrypt_block
from repro.core.freq_bias import LeastSquaresFbEstimator, LinearRegressionFbEstimator
from repro.core.timestamping import ElapsedTimeCodec
from repro.lorawan.crypto.aes import aes128_encrypt_block
from repro.lorawan.crypto.cmac import aes_cmac
from repro.lorawan.mac import build_uplink, verify_and_decrypt
from repro.lorawan.security import SessionKeys
from repro.phy.airtime import airtime_s, n_payload_symbols
from repro.phy.chirp import ChirpConfig, upchirp
from repro.phy.encoding import (
    PayloadCodec,
    deinterleave_block,
    gray_decode,
    gray_encode,
    hamming_decode,
    hamming_encode,
    interleave_block,
    whiten,
)
from repro.phy.frame import PhyHeader, crc16_ccitt

# A fixed small config keeps waveform-based properties fast.
_CONFIG = ChirpConfig(spreading_factor=7, sample_rate_hz=0.25e6)

_SLOW = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestCodingProperties:
    @given(value=st.integers(min_value=0, max_value=1 << 20))
    def test_gray_roundtrip(self, value):
        assert gray_decode(gray_encode(value)) == value

    @given(data=st.binary(max_size=128))
    def test_whitening_involution(self, data):
        assert whiten(whiten(data)) == data

    @given(nibble=st.integers(0, 15), cr=st.integers(1, 4))
    def test_hamming_roundtrip(self, nibble, cr):
        decoded, flagged = hamming_decode(hamming_encode(nibble, cr), cr)
        assert decoded == nibble and not flagged

    @given(
        nibble=st.integers(0, 15),
        cr=st.sampled_from([3, 4]),
        bit=st.integers(0, 6),
    )
    def test_hamming_corrects_any_single_bit(self, nibble, cr, bit):
        codeword = hamming_encode(nibble, cr) ^ (1 << bit)
        decoded, changed = hamming_decode(codeword, cr)
        assert decoded == nibble and changed

    @given(
        sf=st.integers(7, 12),
        cr=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_interleaver_roundtrip(self, sf, cr, seed):
        rng = np.random.default_rng(seed)
        codewords = [int(v) for v in rng.integers(0, 1 << (4 + cr), sf)]
        symbols = interleave_block(codewords, sf, cr)
        assert deinterleave_block(symbols, sf, cr) == codewords

    @given(data=st.binary(max_size=48), cr=st.integers(1, 4))
    @_SLOW
    def test_payload_codec_roundtrip(self, data, cr):
        codec = PayloadCodec(7, cr)
        assert codec.decode(codec.encode(data), len(data)).data == data

    @given(data=st.binary(max_size=64))
    def test_crc16_detects_single_byte_change(self, data):
        if not data:
            return
        corrupted = bytearray(data)
        corrupted[0] ^= 0x5A
        assert crc16_ccitt(data) != crc16_ccitt(bytes(corrupted))


class TestAirtimeProperties:
    @given(
        payload=st.integers(0, 200),
        sf=st.integers(7, 12),
        cr=st.integers(1, 4),
    )
    def test_airtime_positive_and_monotone_in_payload(self, payload, sf, cr):
        t1 = airtime_s(payload, sf, coding_rate=cr)
        t2 = airtime_s(payload + 1, sf, coding_rate=cr)
        assert 0 < t1 <= t2

    @given(payload=st.integers(0, 200), sf=st.integers(7, 11))
    def test_airtime_monotone_in_sf(self, payload, sf):
        assert airtime_s(payload, sf) < airtime_s(payload, sf + 1)

    @given(payload=st.integers(0, 255), sf=st.integers(7, 12))
    def test_symbol_count_at_least_minimum(self, payload, sf):
        assert n_payload_symbols(payload, sf) >= 8


class TestCryptoProperties:
    @given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=16, max_size=16))
    @_SLOW
    def test_aes_matches_bytewise_reference(self, key, block):
        assert aes128_encrypt_block(key, block) == reference_encrypt_block(key, block)

    @given(
        key=st.binary(min_size=16, max_size=16),
        message=st.binary(max_size=64),
    )
    @_SLOW
    def test_cmac_deterministic_and_16_bytes(self, key, message):
        a = aes_cmac(key, message)
        assert a == aes_cmac(key, message)
        assert len(a) == 16

    @given(
        dev_addr=st.integers(0, 0xFFFFFFFF),
        fcnt=st.integers(0, 0xFFFF),
        payload=st.binary(max_size=32),
        fport=st.integers(0, 255),
    )
    @_SLOW
    def test_mac_frame_roundtrip(self, dev_addr, fcnt, payload, fport):
        keys = SessionKeys.derive_for_test(dev_addr)
        raw = build_uplink(keys, dev_addr, fcnt, payload, fport=fport)
        frame = verify_and_decrypt(raw, keys)
        assert frame.dev_addr == dev_addr
        assert frame.fcnt == fcnt
        assert frame.fport == fport
        assert frame.frm_payload == payload


class TestElapsedTimeProperties:
    @given(ticks=st.lists(st.integers(0, (1 << 18) - 1), max_size=16))
    def test_pack_unpack_roundtrip(self, ticks):
        codec = ElapsedTimeCodec()
        assert codec.unpack(codec.pack(ticks), len(ticks)) == ticks

    @given(elapsed=st.floats(min_value=0.0, max_value=262.0, allow_nan=False))
    def test_quantization_error_bounded(self, elapsed):
        codec = ElapsedTimeCodec()
        decoded = codec.decode(codec.encode(elapsed))
        assert abs(decoded - elapsed) <= codec.resolution_s / 2 + 1e-12

    @given(
        bits=st.integers(4, 32),
        resolution_ms=st.sampled_from([0.1, 1.0, 10.0]),
    )
    def test_capacity_consistent(self, bits, resolution_ms):
        codec = ElapsedTimeCodec(bits=bits, resolution_s=resolution_ms * 1e-3)
        assert codec.encode(codec.capacity_s) == codec.max_ticks
        assert codec.decode(codec.max_ticks) == pytest.approx(codec.capacity_s)


class TestPhyHeaderProperties:
    @given(
        payload_len=st.integers(0, 255),
        cr=st.integers(1, 4),
        crc=st.booleans(),
    )
    def test_header_roundtrip(self, payload_len, cr, crc):
        header = PhyHeader(payload_len=payload_len, coding_rate=cr, has_crc=crc)
        assert PhyHeader.from_bytes(header.to_bytes()) == header


class TestEstimatorProperties:
    @given(
        fb_khz=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
        phase=st.floats(min_value=0.0, max_value=6.28, allow_nan=False),
    )
    @_SLOW
    def test_linear_regression_exact_on_clean_chirps(self, fb_khz, phase):
        chirp = upchirp(_CONFIG, fb_hz=fb_khz * 1e3, phase=phase)
        estimate = LinearRegressionFbEstimator(_CONFIG).estimate(chirp)
        assert estimate.fb_hz == pytest.approx(fb_khz * 1e3, abs=2.0)

    @given(
        fb_khz=st.floats(min_value=-35.0, max_value=35.0, allow_nan=False),
        phase=st.floats(min_value=0.0, max_value=6.28, allow_nan=False),
        amplitude=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    )
    @_SLOW
    def test_least_squares_exact_on_clean_chirps(self, fb_khz, phase, amplitude):
        chirp = upchirp(_CONFIG, fb_hz=fb_khz * 1e3, phase=phase, amplitude=amplitude)
        estimate = LeastSquaresFbEstimator(_CONFIG).estimate(chirp)
        assert estimate.fb_hz == pytest.approx(fb_khz * 1e3, abs=2.0)

    @given(
        fb_khz=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        phase=st.floats(min_value=0.1, max_value=6.1, allow_nan=False),
    )
    @_SLOW
    def test_estimators_agree_on_clean_chirps(self, fb_khz, phase):
        chirp = upchirp(_CONFIG, fb_hz=fb_khz * 1e3, phase=phase)
        lr = LinearRegressionFbEstimator(_CONFIG).estimate(chirp)
        ls = LeastSquaresFbEstimator(_CONFIG).estimate(chirp)
        assert lr.fb_hz == pytest.approx(ls.fb_hz, abs=3.0)

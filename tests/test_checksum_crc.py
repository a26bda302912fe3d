"""Tests for the CRC-10 (AAL3/4) and CRC-32 (Ethernet) implementations."""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.checksum import crc10, crc10_check, crc32
from repro.checksum.crc import CRC10_POLY


def crc10_bitwise(data: bytes) -> int:
    """Bit-at-a-time reference for CRC-10."""
    crc = 0
    for byte in data:
        for i in range(7, -1, -1):
            bit = (byte >> i) & 1
            top = (crc >> 9) & 1
            crc = (crc << 1) & 0x3FF
            if top ^ bit:
                crc ^= CRC10_POLY & 0x3FF
    return crc


class TestCRC10:
    def test_empty(self):
        assert crc10(b"") == 0

    @given(st.binary(max_size=64))
    def test_table_matches_bitwise_reference(self, data):
        assert crc10(data) == crc10_bitwise(data)

    def test_detects_single_bit_flip(self):
        data = bytes(range(44))  # one AAL3/4 cell payload
        good = crc10(data)
        for bit in (0, 7, 173, 351):
            corrupted = bytearray(data)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            assert crc10(bytes(corrupted)) != good

    def test_check_helper(self):
        data = b"atm cell payload"
        assert crc10_check(data, crc10(data))
        assert not crc10_check(data, crc10(data) ^ 1)

    def test_ten_bit_range(self):
        assert 0 <= crc10(bytes(range(256))) <= 0x3FF


class TestCRC32:
    @given(st.binary(max_size=256))
    def test_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)

    def test_known_vector(self):
        # The classic "123456789" check value for CRC-32/IEEE.
        assert crc32(b"123456789") == 0xCBF43926

    def test_accepts_every_buffer_type(self):
        for buf in (bytearray(b"123456789"), memoryview(b"123456789")):
            assert crc32(buf) == 0xCBF43926

    def test_detects_burst_error(self):
        frame = bytes(range(64)) * 4
        good = crc32(frame)
        corrupted = bytearray(frame)
        corrupted[100:104] = b"\xff\xff\xff\xff"
        assert crc32(bytes(corrupted)) != good

    def test_initial_chaining(self):
        a, b = b"hello ", b"world"
        assert crc32(b, initial=crc32(a)) == crc32(a + b)

import random

import pytest

from p5cert.bits import Bits
from helpers import BitReader, BitUnderflow, BitWriter


def test_from01_round_trip():
    for s in ("", "0", "1", "0011010001011011", "1" * 70, "0" * 9 + "1"):
        assert Bits.from01(s).to01() == s


def test_concat_is_length_additive():
    a, b = Bits.from01("101"), Bits.from01("0011")
    assert (a + b).to01() == "1010011"
    assert (a + b + Bits(0, 0)).length == 7


def test_field_and_bit():
    b = Bits.from01("11010010")
    assert b.field(2, 4) == 0b0100


def test_flip():
    b = Bits.from01("0000")
    assert b.flip(1).to01() == "0100"
    assert b.flip(1).flip(1) == b


def test_writer_reader_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        fields = [(rng.randrange(1 << w), w) for w in rng.choices(range(1, 40), k=8)]
        w = BitWriter()
        for value, width in fields:
            w.push(value, width)
        r = BitReader(w.result())
        assert [r.read(width) for _, width in fields] == [v for v, _ in fields]
        assert r.exhausted()


def test_reader_underflow():
    r = BitReader(Bits.from01("101"))
    with pytest.raises(BitUnderflow):
        r.read(4)


def test_writer_rejects_overflow():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.push(4, 2)


def test_hex_padding_round_trip():
    rng = random.Random(2)
    for _ in range(200):
        length = rng.randrange(0, 67)
        b = Bits(rng.getrandbits(length) if length else 0, length)
        assert Bits.from_hex(b.to_hex(), length) == b


def test_hex_rejects_nonzero_padding():
    with pytest.raises(ValueError):
        Bits.from_hex("01", 7)  # last bit of the byte must be padding zero
    with pytest.raises(ValueError):
        Bits.from_hex("ff", 4)


def test_hex_rejects_non_hex_digits():
    # int(text, 16) takes every one of these
    for text in ("1_23", "0x12", "+123", " 123", "\uff11\uff12"):
        with pytest.raises(ValueError, match="^not a hex string$"):
            Bits.from_hex(text, len(text) * 4)
    assert Bits.from_hex("aB09", 16) == Bits(0xAB09, 16)

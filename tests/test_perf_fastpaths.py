"""Tests for the codec hot paths: the production decoder against the
cursor-based oracle, and encodings that follow the briefcase's state."""

import struct

import pytest

from repro.core import codec
from repro.core.briefcase import Briefcase
from repro.core.errors import CodecError
from tests.codec_oracle import decode_reference


@pytest.fixture
def both_decoders():
    """Yields a helper that runs production ``decode`` and the oracle
    on the same input and asserts they agree (same briefcase, or same
    error type and message)."""
    def run(data):
        results = {}
        for name, decoder in (("oracle", decode_reference),
                              ("decode", codec.decode)):
            try:
                results[name] = ("ok", decoder(data))
            except CodecError as exc:
                results[name] = ("err", type(exc), str(exc))
        assert results["oracle"] == results["decode"], (
            f"decoders disagree on {data!r}: {results}")
        return results["decode"]
    return run


def wire_of(mapping) -> bytes:
    return codec.encode(Briefcase(mapping))


class TestDecoderEquivalence:
    def test_agree_on_valid_input(self, both_decoders):
        status, briefcase = both_decoders(wire_of({
            "HOSTS": ["a", "b"], "DATA": [b"\x00\x01", b""], "EMPTY": []}))
        assert status == "ok"
        assert briefcase.names() == ["HOSTS", "DATA", "EMPTY"]

    @pytest.mark.parametrize("cut", list(range(0, 10)))
    def test_agree_on_every_short_prefix(self, both_decoders, cut):
        wire = wire_of({"F": [b"xy"]})
        status, *_ = both_decoders(wire[:cut])
        if cut < len(wire):
            assert status == "err"

    @pytest.mark.parametrize("cut", [10, 12, 15, 20, -1])
    def test_agree_on_truncated_body(self, both_decoders, cut):
        wire = wire_of({"FOLDER": [b"payload", b"more"]})
        status, *_ = both_decoders(wire[:cut])
        assert status == "err"

    def test_agree_on_bad_magic(self, both_decoders):
        wire = bytearray(wire_of({"F": [b"x"]}))
        wire[0] = 0x00
        status, _type, message = both_decoders(bytes(wire))
        assert status == "err" and "magic" in message

    def test_agree_on_bad_version(self, both_decoders):
        wire = bytearray(wire_of({"F": [b"x"]}))
        wire[4] = 9
        status, _type, message = both_decoders(bytes(wire))
        assert status == "err" and "version 9" in message

    def test_agree_on_trailing_garbage(self, both_decoders):
        status, _type, message = both_decoders(wire_of({"F": [b"x"]}) + b"!!")
        assert status == "err" and "trailing" in message

    def test_agree_on_duplicate_folder(self, both_decoders):
        one = wire_of({"DUP": [b"x"]})
        body = one[9:]
        wire = one[:5] + struct.pack(">I", 2) + body + body
        status, _type, message = both_decoders(wire)
        assert status == "err" and "duplicate" in message

    def test_agree_on_non_utf8_name(self, both_decoders):
        folder = struct.pack(">H", 2) + b"\xff\xfe" + struct.pack(">I", 0)
        wire = (codec.MAGIC + struct.pack(">B", codec.VERSION) +
                struct.pack(">I", 1) + folder)
        status, _type, message = both_decoders(wire)
        assert status == "err" and "UTF-8" in message

    def test_agree_on_empty_name(self, both_decoders):
        folder = struct.pack(">H", 0) + struct.pack(">I", 0)
        wire = (codec.MAGIC + struct.pack(">B", codec.VERSION) +
                struct.pack(">I", 1) + folder)
        status, _type, message = both_decoders(wire)
        assert status == "err" and "empty folder name" in message

    def test_fast_decoder_accepts_bytearray_and_memoryview(self):
        wire = wire_of({"F": [b"data", b""], "G": []})
        expected = codec.decode(wire)
        assert codec.decode(bytearray(wire)) == expected
        assert codec.decode(memoryview(wire)) == expected

    def test_fast_decoder_accepts_window_into_larger_buffer(self):
        wire = wire_of({"F": [b"data"]})
        framed = b"HEAD" + wire + b"TAIL"
        window = memoryview(framed)[4:4 + len(wire)]
        assert codec.decode(window) == codec.decode(wire)


class TestEncodingFollowsState:
    def test_encoded_size_equals_encode_length(self):
        from repro.core.limits import WireLimits

        briefcase = Briefcase({"F": [b"x" * 100]})
        wire = codec.encode(briefcase)
        assert codec.encoded_size(briefcase) == len(wire)
        assert codec.check_briefcase(briefcase, WireLimits()) == len(wire)

    def test_mutation_changes_encoding(self):
        briefcase = Briefcase({"F": [b"x"]})
        stale = codec.encode(briefcase)
        briefcase.folder("F").push(b"y")
        fresh = codec.encode(briefcase)
        assert fresh != stale
        assert codec.decode(fresh) == briefcase

    def test_snapshot_is_independent_of_source_mutation(self):
        briefcase = Briefcase({"F": [b"x"]})
        wire = codec.encode(briefcase)
        snapshot = briefcase.snapshot()
        briefcase.folder("F").push(b"mutate-source")
        assert codec.encode(snapshot) == wire
        assert codec.encode(briefcase) != wire

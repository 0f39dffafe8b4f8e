"""Property tests for the codec hot paths.

Two invariants underwrite the hot-path work:

1. Round-trip byte identity: for any briefcase, ``encode`` produces the
   same bytes regardless of which decoder (production or the
   ``tests/codec_oracle.py`` reference) built the briefcase, and
   ``decode(encode(b)) == b`` through both.
2. Mutation round trip: after every mutating ``Folder`` / ``Briefcase``
   operation, ``encode`` reflects the mutated state, so it never serves
   stale bytes.
"""

import string

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core import codec  # noqa: E402
from repro.core.briefcase import Briefcase  # noqa: E402
from tests.codec_oracle import decode_reference  # noqa: E402

folder_names = st.text(
    alphabet=string.ascii_letters + string.digits + "-_.",
    min_size=1,
    max_size=24,
)

briefcases = st.dictionaries(
    folder_names,
    st.lists(st.binary(max_size=200), max_size=8),
    max_size=8,
).map(Briefcase.from_dict)


class TestRoundTripByteIdentity:
    @given(briefcase=briefcases)
    @settings(max_examples=150, deadline=None)
    def test_encode_decode_round_trip_both_paths(self, briefcase):
        wire = codec.encode(briefcase)
        fast = codec.decode(wire)
        reference = decode_reference(wire)
        assert fast == reference == briefcase
        # Re-encoding either decode result reproduces the input bytes.
        assert codec.encode(fast) == wire
        assert codec.encode(reference) == wire

    @given(briefcase=briefcases)
    @settings(max_examples=75, deadline=None)
    def test_decode_is_buffer_type_agnostic(self, briefcase):
        wire = codec.encode(briefcase)
        assert codec.decode(bytearray(wire)) == briefcase
        assert codec.decode(memoryview(wire)) == briefcase

    @given(briefcase=briefcases)
    @settings(max_examples=75, deadline=None)
    def test_encoded_size_matches_actual_encoding(self, briefcase):
        assert codec.encoded_size(briefcase) == len(codec.encode(briefcase))


# Each entry mutates the briefcase it receives; the name labels the
# operation under test.  Operations that need a folder get "A", which
# every generated briefcase below is guaranteed to contain.
FOLDER_MUTATIONS = {
    "push": lambda b: b.folder("A").push(b"new"),
    "push_all": lambda b: b.folder("A").push_all([b"x", b"y"]),
    "insert": lambda b: b.folder("A").insert(0, b"head"),
    "pop_first": lambda b: b.folder("A").pop_first(),
    "pop_last": lambda b: b.folder("A").pop_last(),
    "remove_at": lambda b: b.folder("A").remove_at(0),
    "clear": lambda b: b.folder("A").clear(),
    "replace": lambda b: b.folder("A").replace([b"only"]),
}

BRIEFCASE_MUTATIONS = {
    "folder": lambda b: b.folder("BRAND-NEW"),
    "drop": lambda b: b.drop("A"),
    "drop_all_except": lambda b: b.drop_all_except([]),
    "put": lambda b: b.put("A", b"exclusive"),
    "append": lambda b: b.append("A", b"tail"),
    "merge": lambda b: b.merge(Briefcase({"OTHER": [b"z"]})),
}

ALL_MUTATIONS = {**FOLDER_MUTATIONS, **BRIEFCASE_MUTATIONS}


class TestMutationRoundTrip:
    @pytest.mark.parametrize("op", sorted(ALL_MUTATIONS))
    @given(briefcase=briefcases)
    @settings(max_examples=25, deadline=None)
    def test_mutation_round_trips_through_encoding(self, op, briefcase):
        # Guarantee folder "A" exists with at least one element so every
        # operation is applicable.
        briefcase.put("A", b"seed")
        before = codec.encode(briefcase)
        ALL_MUTATIONS[op](briefcase)
        after = codec.encode(briefcase)
        # The encoding reflects the mutated state: re-decoding the
        # fresh bytes reproduces the briefcase exactly.
        assert codec.decode(after) == briefcase
        assert codec.encoded_size(briefcase) == len(after)
        assert decode_reference(after) == briefcase
        if after == before:
            # A mutation may restore the identical logical state (e.g.
            # replace on a folder that already held that value); bytes
            # then legitimately match.  It must still decode correctly,
            # which the asserts above covered.
            return
        assert after != before

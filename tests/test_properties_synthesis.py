"""Property tests for the workload-synthesis primitives.

``RandomStream.zipf_index`` and ``make_filler`` must be bit-for-bit the
loops kept in ``tests/synthesis_oracle.py``:

1. ``zipf_index`` returns the oracle's index for any ``n``, skew and
   stream state, raises what it raises, and consumes exactly one
   ``random()`` per draw — also when draws of different ``n`` grow the
   shared running-sum table out of order.
2. ``make_filler`` returns the oracle's text for any length and salt,
   including the lengths that end exactly on a word boundary (where the
   text comes out one byte short).
"""

import contextlib

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim import rng  # noqa: E402
from repro.sim.rng import RandomStream  # noqa: E402
from repro.web.page import _FILLER_WORDS, make_filler  # noqa: E402
from tests.synthesis_oracle import (  # noqa: E402
    make_filler_reference,
    zipf_index_reference,
)

#: The skews the site and log generators use.
PROGRAM_SKEWS = (0.5, 0.7, 0.8, 1.0)

skews = st.one_of(
    st.sampled_from(PROGRAM_SKEWS),
    st.floats(min_value=0.01, max_value=4.0),
    st.floats(min_value=0.0, exclude_min=True, allow_nan=False),
)

draws = st.lists(
    st.tuples(st.integers(min_value=1, max_value=5000), skews),
    min_size=1, max_size=12)


def _outcome(draw, *args):
    try:
        return ("value", draw(*args))
    except Exception as exc:  # the oracle's error is part of its contract
        return ("raises", type(exc))


def _assert_draws_match(seed, sequence):
    """Draw ``sequence`` on two equal streams, one through the oracle."""
    fast = RandomStream(seed, "zipf")
    slow = RandomStream(seed, "zipf")
    with _scratch_tables(*(skew for _, skew in sequence)):
        for n, skew in sequence:
            got = _outcome(fast.zipf_index, n, skew)
            want = _outcome(zipf_index_reference, slow, n, skew)
            assert got == want, (n, skew)
            assert fast._random.getstate() == slow._random.getstate()


def _oracle_sums(n, skew):
    """The oracle's running sums (``acc`` at each index) and ``total``."""
    weights = [1.0 / (i + 1) ** skew for i in range(n)]
    running, acc = [], 0.0
    for weight in weights:
        acc += weight
        running.append(acc)
    return running, sum(weights)


def _table(n, skew):
    cumulative, total = rng._zipf_table(n, skew)
    return cumulative[:n], total


@contextlib.contextmanager
def _scratch_tables(*skews):
    """Drop the tables these skews add, unless the program uses them."""
    fresh = set(skews) - set(rng._ZIPF_PREFIXES) - set(PROGRAM_SKEWS)
    try:
        yield
    finally:
        for skew in fresh:
            rng._ZIPF_PREFIXES.pop(skew, None)
        for key in [key for key in rng._ZIPF_DRAWS if key[0] in fresh]:
            del rng._ZIPF_DRAWS[key]


class TestZipfIndexMatchesOracle:
    @given(seed=st.integers(min_value=0, max_value=2**64), sequence=draws)
    @settings(max_examples=150, deadline=None)
    def test_interleaved_draws_match_oracle(self, seed, sequence):
        _assert_draws_match(seed, sequence)

    @pytest.mark.parametrize("skew", PROGRAM_SKEWS)
    def test_prefix_grown_out_of_order(self, skew):
        # Large n first, then smaller and larger ones: every draw reads
        # a table that an earlier, different n grew.
        sequence = [(n, skew) for n in (4000, 1, 2, 37, 4000, 4999, 3, 5000)]
        _assert_draws_match(11, sequence * 20)

    @given(sizes=st.lists(st.integers(min_value=1, max_value=5000),
                          min_size=1, max_size=6),
           skew=st.one_of(st.sampled_from(PROGRAM_SKEWS),
                          st.floats(min_value=0.01, max_value=4.0)))
    @settings(max_examples=100, deadline=None)
    def test_table_holds_the_oracle_sums(self, sizes, skew):
        # Each running sum is the oracle's ``acc`` and each total is its
        # ``sum()``; from Python 3.12 the two differ in the last bits.
        with _scratch_tables(skew):
            for n in sizes:
                assert _table(n, skew) == _oracle_sums(n, skew)

    def test_non_positive_n_raises_without_drawing(self):
        stream = RandomStream(5, "zipf")
        state = stream._random.getstate()
        for n in (0, -1):
            with pytest.raises(ValueError):
                stream.zipf_index(n)
        assert stream._random.getstate() == state


def _word_boundaries(salt, words):
    """The ``nbytes`` at which filler ends exactly after word 1..words."""
    size, boundaries = 0, []
    for k in range(words):
        size += len(_FILLER_WORDS[(salt + 7 * k) % len(_FILLER_WORDS)]) + 1
        boundaries.append(size)
    return boundaries


class TestMakeFillerMatchesOracle:
    @given(nbytes=st.integers(min_value=-2, max_value=20000),
           salt=st.integers(min_value=0, max_value=200))
    @settings(max_examples=300, deadline=None)
    def test_any_length_and_salt(self, nbytes, salt):
        assert make_filler(nbytes, salt) == make_filler_reference(nbytes, salt)

    @given(salt=st.integers(min_value=0, max_value=200), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_word_boundary_lengths(self, salt, data):
        nbytes = data.draw(st.sampled_from(_word_boundaries(salt, 3000)))
        text = make_filler(nbytes, salt)
        assert text == make_filler_reference(nbytes, salt)
        assert len(text) == nbytes - 1

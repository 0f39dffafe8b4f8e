"""The synthesis oracles: the original word-by-word and weight-list loops.

``RandomStream.zipf_index`` draws by bisection in running sums shared by
every ``n``, and ``make_filler`` slices a cached 30-word period.  This
module keeps the loops they were derived from, verbatim, so the tests
can check that production draws the same index from the same stream
state, consumes the same randomness, and emits the same filler bytes.
It is test-only code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from repro.sim.rng import RandomStream
from repro.web.page import _FILLER_WORDS

__all__ = ["make_filler_reference", "zipf_index_reference"]


def zipf_index_reference(stream: RandomStream, n: int,
                         skew: float = 1.0) -> int:
    """An index in [0, n) drawn from a Zipf-like distribution."""
    if n <= 0:
        raise ValueError("zipf_index requires n >= 1")
    weights = [1.0 / (i + 1) ** skew for i in range(n)]
    total = sum(weights)
    point = stream._random.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if point <= acc:
            return i
    return n - 1


def make_filler_reference(nbytes: int, salt: int = 0) -> str:
    """Deterministic prose filler of approximately ``nbytes`` bytes."""
    if nbytes <= 0:
        return ""
    words = []
    size = 0
    i = salt
    while size < nbytes:
        word = _FILLER_WORDS[i % len(_FILLER_WORDS)]
        words.append(word)
        size += len(word) + 1
        i += 7
    return " ".join(words)[:nbytes]

"""Effect summaries: what a call can *do*, independent of where.

The dataflow pass (:mod:`repro.analysis.dataflow`) propagates a small
closed set of effects bottom-up through the call graph.  This module
owns that vocabulary, the tables classifying *external* call targets
(standard-library and third-party names the graph cannot resolve into
the project), the derivation of a function's *intrinsic* effects from
its :class:`~repro.analysis.symbols.ModuleFacts`, and the on-disk
per-module facts cache keyed by source content hash.

Effect -> rule mapping is one-to-one where a rule exists; effects
without a consuming rule (``mutates-briefcase``) still propagate and
appear in ``repro lint --graph`` exports.

Suppressions are *propagation barriers*: an intrinsic effect whose
origin line carries ``# lint: disable=<rule>`` (or whose module
carries the file-wide form) is sanctioned at the source and never
enters the dataflow — a helper's justified, suppressed ``heapq``
import must not taint every CLI entry point that calls it.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis.rules import (
    RNG_SANCTUARY,
    KERNEL_MODULES,
    WALL_CLOCK_CALLS,
)
from repro.analysis.symbols import (
    FACTS_VERSION,
    FunctionFacts,
    ModuleFacts,
)

# -- the effect vocabulary --------------------------------------------------

READS_WALL_CLOCK = "reads-wall-clock"
UNSEEDED_RANDOM = "unseeded-random"
ENV_READ = "env-read"
BLOCKING_IO = "blocking-io"
KERNEL_BYPASS = "kernel-bypass"
RAISES_PERMANENT = "raises-permanent"
MUTATES_BRIEFCASE = "mutates-briefcase"
#: Pseudo-effect: the function lives in (or transitively enters) the
#: virtual-time simulation — code slated for the real transport backend
#: must stay clean of it (ASY001).
SIM_COUPLED = "sim-coupled"

ALL_EFFECTS: Tuple[str, ...] = (
    BLOCKING_IO, ENV_READ, KERNEL_BYPASS, MUTATES_BRIEFCASE,
    RAISES_PERMANENT, READS_WALL_CLOCK, SIM_COUPLED, UNSEEDED_RANDOM,
)

#: Effect -> lint rule id enforcing it (used both for suppression
#: barriers and for attributing transitive findings).
EFFECT_RULE: Dict[str, str] = {
    READS_WALL_CLOCK: "DET001",
    UNSEEDED_RANDOM: "DET002",
    ENV_READ: "DET003",
    KERNEL_BYPASS: "KER001",
    BLOCKING_IO: "ASY001",
    SIM_COUPLED: "ASY001",
    RAISES_PERMANENT: "ERR002",
}

#: Effect -> module prefixes allowed to *originate* it.  Functions in a
#: sanctuary module never acquire the effect, so nothing propagates out
#: of them — the kernel may keep its heap, the rng module its entropy.
EFFECT_SANCTUARIES: Dict[str, Tuple[str, ...]] = {
    UNSEEDED_RANDOM: RNG_SANCTUARY,
    KERNEL_BYPASS: KERNEL_MODULES,
}

# -- external call classification -------------------------------------------

#: Entropy sources the simulation cannot replay (mirrors DET002).
_RANDOM_CALLS = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})
_RANDOM_PREFIXES = ("random.", "numpy.random.", "secrets.")

#: Calls that block on the host OS — poison for the deterministic sim
#: and for the planned asyncio transport backend's event loop.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "socket.socket", "socket.create_connection", "socket.getaddrinfo",
    "select.select", "select.poll", "select.epoll",
    "subprocess.run", "subprocess.Popen", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "urllib.request.urlopen", "http.client.HTTPConnection",
    "requests.get", "requests.post", "requests.request",
    "input", "sys.stdin.read", "sys.stdin.readline",
})

#: Scheduling primitives that bypass the kernel (mirrors KER001).
_KERNEL_BYPASS_PREFIXES = ("heapq.", "sched.")
_KERNEL_BYPASS_CALLS = frozenset({"threading.Timer"})


def external_effects(target: str, nargs: int) -> Tuple[str, ...]:
    """Effects of calling the unresolved external ``target``.

    Mirrors the local rules' classification (DET001/DET002/KER001) and
    adds the blocking-io table; returns a sorted tuple (determinism).
    """
    effects: List[str] = []
    if target in WALL_CLOCK_CALLS:
        effects.append(READS_WALL_CLOCK)
    if target in _RANDOM_CALLS:
        effects.append(UNSEEDED_RANDOM)
    elif target == "random.Random":
        if nargs == 0:
            effects.append(UNSEEDED_RANDOM)
    elif target.startswith(_RANDOM_PREFIXES):
        effects.append(UNSEEDED_RANDOM)
    if target == "os.getenv":
        effects.append(ENV_READ)
    if target in BLOCKING_CALLS:
        effects.append(BLOCKING_IO)
    if target in _KERNEL_BYPASS_CALLS or \
            target.startswith(_KERNEL_BYPASS_PREFIXES):
        effects.append(KERNEL_BYPASS)
    return tuple(sorted(effects))


def in_sanctuary(effect: str, module: str) -> bool:
    return module in EFFECT_SANCTUARIES.get(effect, ())


class IntrinsicEffect:
    """One effect a function exhibits in its own body."""

    __slots__ = ("effect", "line", "col", "note", "visible", "snippet")

    def __init__(self, effect: str, line: int, col: int, note: str,
                 visible: bool, snippet: str) -> None:
        self.effect = effect
        self.line = line
        self.col = col
        #: Human phrase for witness chains ("time.time() bound to
        #: _clock at line 12").
        self.note = note
        #: True when the *local* rule pack can already see this origin
        #: (a direct, resolvable call) — the transitive rules then defer
        #: to the local finding instead of duplicating it.
        self.visible = visible
        self.snippet = snippet


def intrinsic_effects(facts: FunctionFacts,
                      module_facts: ModuleFacts) -> List[IntrinsicEffect]:
    """A function's own effects, suppression- and sanctuary-filtered.

    Deterministic: ordered by (line, col, effect).
    """
    found: List[IntrinsicEffect] = []

    def add(effect: str, line: int, col: int, note: str, visible: bool,
            snippet: str) -> None:
        if in_sanctuary(effect, facts.module):
            return
        rule = EFFECT_RULE.get(effect)
        if rule is not None and module_facts.suppressed(line, rule):
            return
        found.append(IntrinsicEffect(effect, line, col, note, visible,
                                     snippet))

    if facts.module.startswith("repro.sim.") or \
            facts.module == "repro.sim":
        add(SIM_COUPLED, facts.line, 1,
            f"defined in virtual-time module {facts.module}", False, "")

    for call in facts.calls:
        for effect in external_effects(call.target, call.nargs):
            visible = call.via == ""
            note = f"{call.target}()"
            if call.via == "alias":
                note = (f"{call.target} called through an alias bound at "
                        f"line {call.bind_line}")
            elif call.via == "partial":
                note = (f"{call.target} called through functools.partial "
                        f"bound at line {call.bind_line}")
            elif call.via == "decorator":
                note = f"{call.target} applied as a decorator"
            add(effect, call.line, call.col, note, visible, call.snippet)

    for line in facts.env_attr_lines:
        add(ENV_READ, line, 1, "os.environ read", True, "")

    # Raise permanence needs the project-wide class taxonomy, so
    # RAISES_PERMANENT is attached by the dataflow pass, not here.

    for line in sorted(set(facts.briefcase_mutations)):
        add(MUTATES_BRIEFCASE, line, 1, "briefcase mutated", True, "")

    found.sort(key=lambda e: (e.line, e.col, e.effect))
    return found


# -- the per-module facts cache ---------------------------------------------


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class FactsCache:
    """Content-hash-keyed cache of serialized :class:`ModuleFacts`.

    One JSON file per module under ``directory``; an entry is valid only
    when both the schema version and the source sha256 match, so edits
    and analyzer upgrades invalidate transparently.  The cache holds the
    extracted facts only — every file is still parsed for the per-file
    rules, and cross-module resolution and dataflow rerun every
    invocation, which is what keeps cold and warm runs
    byte-identical (tested in ``tests/test_analysis_project.py``).
    """

    def __init__(self, directory: Optional[str]) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def _entry_path(self, module: str, digest: str, display: str) -> str:
        # The key folds in the display path as well as the content
        # digest: same-named modules from different trees (fixture
        # forests each shipping their own ``repro`` package, often with
        # byte-identical ``__init__.py`` files) get separate entries
        # instead of evicting each other every run, and a cached entry
        # can never leak a stale display path into findings.
        assert self.directory is not None
        safe = module.replace(".", "_") or "unnamed"
        key = hashlib.sha256(
            f"{display}::{digest}".encode("utf-8")).hexdigest()[:12]
        return os.path.join(self.directory, f"{safe}-{key}.json")

    def load(self, module: str, digest: str,
             display: str) -> Optional[ModuleFacts]:
        if self.directory is None:
            return None
        path = self._entry_path(module, digest, display)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("version") != FACTS_VERSION or \
                data.get("sha256") != digest:
            return None
        try:
            facts = ModuleFacts.from_dict(data["facts"])
        except (KeyError, TypeError, ValueError, IndexError):
            return None
        self.hits += 1
        return facts

    def store(self, module: str, digest: str, facts: ModuleFacts) -> None:
        if self.directory is None:
            return
        display = facts.path
        self.misses += 1
        os.makedirs(self.directory, exist_ok=True)
        document: Mapping[str, Any] = {
            "version": FACTS_VERSION,
            "sha256": digest,
            "facts": facts.to_dict(),
        }
        path = self._entry_path(module, digest, display)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")

"""The declarative suite schema: YAML/JSON in, expanded cells out.

A suite file names scenario plugins and parameter matrices; loading it
produces a :class:`SuiteSpec` whose cells are fully expanded, validated
against each plugin's parameter domain, and stamped with a canonical
**cell id** — the identity the deterministic per-cell seed derives from.

Schema (top level)::

    suite: smoke                    # required name
    description: ...                # optional
    seed: 7                         # default suite seed (CLI overrides)
    early_stop: never|first-failure # default never
    cells:                          # required, non-empty
      - plugin: chaos               # required per entry
        params: {plan: mid-crash}   # fixed parameters
        matrix:                     # cross-product axes (optional)
          plan: [none, mid-crash]
          seed: [7, 11]             # 'seed' is a reserved axis
        checks: [...]               # REPLACE the plugin defaults
        expect: [...]               # ADD to the effective checks

Matrix expansion is deterministic: axes are taken in sorted-name order
and values in their listed order, so the cell sequence of a suite file
is a pure function of its contents.  The reserved ``seed`` parameter
pins a cell's seed explicitly; otherwise the runner derives it from the
suite seed and the cell id (see :func:`repro.sim.rng.derive_seed`), so
an identical cell gets an identical seed **regardless of matrix
position** — the property that makes standalone re-runs of one cell
byte-identical to its in-matrix document.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.suites.registry import SuiteError, get_plugin

EARLY_STOP_POLICIES = ("never", "first-failure")

#: Characters a string parameter value may use (cell ids embed values).
_SAFE_VALUE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789._:/+-")

_TOP_LEVEL_KEYS = frozenset(
    {"suite", "description", "seed", "early_stop", "cells"})
_ENTRY_KEYS = frozenset({"plugin", "params", "matrix", "checks", "expect"})


class SuiteConfigError(SuiteError):
    """A suite file failed validation; the message carries the path."""


@dataclass(frozen=True)
class CellSpec:
    """One fully expanded, validated matrix cell."""

    plugin: str
    params: Tuple[Tuple[str, object], ...]  # canonical sorted items
    checks: Tuple[str, ...]
    explicit_seed: Optional[int] = None

    @property
    def cell_id(self) -> str:
        """The canonical identity: plugin plus sorted ``k=v`` params
        (and the explicit seed when one was pinned)."""
        parts = [f"{key}={_canon_value(value)}"
                 for key, value in self.params]
        if self.explicit_seed is not None:
            parts.append(f"seed={self.explicit_seed}")
        return f"{self.plugin}[{','.join(parts)}]"

    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)


@dataclass(frozen=True)
class SuiteSpec:
    """A loaded, validated suite: name, seed, policy, expanded cells."""

    name: str
    description: str
    seed: int
    early_stop: str
    cells: Tuple[CellSpec, ...]
    source: str = "<memory>"


def _canon_value(value: object) -> str:
    """Cell-id rendering of a scalar (JSON-ish, lowercase booleans)."""
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _fail(source: str, where: str, message: str) -> "SuiteConfigError":
    return SuiteConfigError(f"{source}: {where}: {message}")


def _validate_scalar(source: str, where: str, value: object) -> object:
    if isinstance(value, bool) or isinstance(value, int) \
            or isinstance(value, float):
        return value
    if isinstance(value, str):
        if not value or not set(value) <= _SAFE_VALUE:
            raise _fail(source, where,
                        f"string value {value!r} may only use "
                        f"[A-Za-z0-9._:/+-] (cell ids embed it)")
        return value
    raise _fail(source, where,
                f"parameter values must be scalars, got "
                f"{type(value).__name__}")


def _parse_entry(source: str, where: str, entry: object
                 ) -> List[CellSpec]:
    if not isinstance(entry, dict):
        raise _fail(source, where, "each cell entry must be a mapping")
    unknown = set(entry) - _ENTRY_KEYS
    if unknown:
        raise _fail(source, where,
                    f"unknown key(s) {sorted(unknown)} "
                    f"(have {sorted(_ENTRY_KEYS)})")
    plugin_name = entry.get("plugin")
    if not isinstance(plugin_name, str) or not plugin_name:
        raise _fail(source, where, "'plugin' (a string) is required")
    plugin = get_plugin(plugin_name)  # raises UnknownPluginError

    fixed = entry.get("params") or {}
    if not isinstance(fixed, dict):
        raise _fail(source, where, "'params' must be a mapping")
    matrix = entry.get("matrix") or {}
    if not isinstance(matrix, dict):
        raise _fail(source, where, "'matrix' must be a mapping of "
                                   "parameter -> list of values")
    overlap = set(fixed) & set(matrix)
    if overlap:
        raise _fail(source, where,
                    f"parameter(s) {sorted(overlap)} appear in both "
                    f"'params' and 'matrix'")

    from repro.suites.runner import parse_check  # cycle-free at runtime
    checks_override = entry.get("checks")
    if checks_override is not None:
        if not isinstance(checks_override, list):
            raise _fail(source, where, "'checks' must be a list")
        checks: Tuple[str, ...] = tuple(checks_override)
    else:
        checks = tuple(plugin.checks)
    extra = entry.get("expect") or []
    if not isinstance(extra, list):
        raise _fail(source, where, "'expect' must be a list")
    checks = checks + tuple(extra)
    for check in checks:
        if not isinstance(check, str):
            raise _fail(source, where,
                        f"checks must be strings, got {check!r}")
        try:
            parse_check(check)
        except SuiteError as exc:
            raise _fail(source, where, str(exc))

    axes: List[Tuple[str, List[object]]] = []
    for name in sorted(matrix):
        values = matrix[name]
        if not isinstance(values, list) or not values:
            raise _fail(source, where,
                        f"matrix axis {name!r} must be a non-empty list")
        axes.append((name, [
            _validate_scalar(source, f"{where}.matrix.{name}", v)
            for v in values]))
    for name, value in fixed.items():
        _validate_scalar(source, f"{where}.params.{name}", value)

    cells: List[CellSpec] = []
    for combo in itertools.product(*(values for _, values in axes)) \
            if axes else [()]:
        params = dict(fixed)
        params.update({name: value for (name, _), value
                       in zip(axes, combo)})
        explicit_seed = params.pop("seed", None)
        if explicit_seed is not None and (
                isinstance(explicit_seed, bool)
                or not isinstance(explicit_seed, int)):
            raise _fail(source, where,
                        f"'seed' must be an int, got {explicit_seed!r}")
        try:
            validated = plugin.validate_params(params)
        except SuiteError as exc:
            raise _fail(source, where, str(exc))
        cells.append(CellSpec(
            plugin=plugin.name,
            params=tuple(sorted(validated.items())),
            checks=checks,
            explicit_seed=explicit_seed))
    return cells


def parse_suite(data: object, source: str = "<memory>") -> SuiteSpec:
    """Validate a decoded suite document into a :class:`SuiteSpec`."""
    if not isinstance(data, dict):
        raise _fail(source, "top level", "the suite must be a mapping")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise _fail(source, "top level",
                    f"unknown key(s) {sorted(unknown)} "
                    f"(have {sorted(_TOP_LEVEL_KEYS)})")
    name = data.get("suite")
    if not isinstance(name, str) or not name:
        raise _fail(source, "top level", "'suite' (a string) is required")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise _fail(source, "top level", "'description' must be a string")
    seed = data.get("seed", 7)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise _fail(source, "top level", f"'seed' must be an int, "
                                         f"got {seed!r}")
    early_stop = data.get("early_stop", "never")
    if early_stop not in EARLY_STOP_POLICIES:
        raise _fail(source, "top level",
                    f"'early_stop' must be one of "
                    f"{list(EARLY_STOP_POLICIES)}, got {early_stop!r}")
    entries = data.get("cells")
    if not isinstance(entries, list) or not entries:
        raise _fail(source, "top level",
                    "'cells' must be a non-empty list")
    cells: List[CellSpec] = []
    for index, entry in enumerate(entries):
        cells.extend(_parse_entry(source, f"cells[{index}]", entry))
    return SuiteSpec(name=name, description=description, seed=seed,
                     early_stop=early_stop, cells=tuple(cells),
                     source=source)


def parse_cell_id(cell_id: str) -> CellSpec:
    """Parse a canonical cell id ``plugin[k=v,...,seed=S]`` back into
    the :class:`CellSpec` it names, with the plugin's default checks.

    The inverse of :attr:`CellSpec.cell_id`: a string value is taken as
    written, any other value (and ``seed``) is read as the JSON literal
    the id renders it as, and the entry is then validated exactly like
    a suite-file cell.  Omitted parameters take their defaults, so
    ``parse_cell_id(cell.cell_id).cell_id == cell.cell_id``.
    """
    plugin_name, bracket, body = cell_id.partition("[")
    if not plugin_name or not bracket or not body.endswith("]"):
        raise _fail("cell id", repr(cell_id),
                    "expected the form plugin[k=v,...]")
    plugin = get_plugin(plugin_name)  # raises UnknownPluginError
    params: Dict[str, object] = {}
    for item in body[:-1].split(",") if body != "]" else ():
        name, equals, text = item.partition("=")
        if not name or not equals:
            raise _fail("cell id", repr(cell_id),
                        f"expected k=v, got {item!r}")
        if name in params:
            raise _fail("cell id", repr(cell_id),
                        f"parameter {name!r} given twice")
        spec = plugin.params.get(name)
        if spec is not None and spec.kind is str:
            params[name] = text
            continue
        try:
            params[name] = json.loads(text)
        except json.JSONDecodeError:
            params[name] = text  # not a literal: validation rejects it
    (cell,) = _parse_entry("cell id", repr(cell_id),
                           {"plugin": plugin_name, "params": params})
    return cell


def _decode(text: str, path: str) -> object:
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError:
            raise SuiteConfigError(
                f"{path}: PyYAML is not installed in this environment; "
                f"use a .json suite file instead") from None
        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise SuiteConfigError(f"{path}: invalid YAML: {exc}") \
                from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SuiteConfigError(f"{path}: invalid JSON: {exc}") from None


def load_suite(path: str) -> SuiteSpec:
    """Load and validate a suite file (``.yaml``/``.yml``/``.json``)."""
    if not os.path.isfile(path):
        raise SuiteConfigError(f"{path}: no such suite file")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_suite(_decode(text, path), source=path)

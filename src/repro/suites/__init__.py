"""Declarative experiment suites: scenario plugins plus a matrix runner.

``repro.suites`` turns the repo's bespoke scenario drivers (chaos,
partition, crashtest, overload, the paper experiments) into registered
:class:`ScenarioPlugin`\\ s and executes YAML/JSON-declared parameter
matrices over them deterministically — per-cell seeds derive from the
suite seed and the cell identity, so every suite document is a pure
function of ``(suite file, seed)`` and any one cell re-runs standalone
from its id (:func:`parse_cell_id`).  See ``docs/experiments.md``.
"""

from repro.suites.registry import (ParamSpec, ScenarioPlugin, SuiteError,
                                   UnknownPluginError, ensure_builtin_plugins,
                                   get_plugin, plugin_descriptions,
                                   plugin_names, register_plugin)
from repro.suites.runner import (SUITE_SCHEMA, cell_seed, document_digest,
                                 evaluate_check, parse_check, render_suite_json,
                                 run_cell, run_suite)
from repro.suites.schema import (EARLY_STOP_POLICIES, CellSpec,
                                 SuiteConfigError, SuiteSpec, load_suite,
                                 parse_cell_id, parse_suite)

__all__ = [
    "ParamSpec", "ScenarioPlugin", "SuiteError", "UnknownPluginError",
    "ensure_builtin_plugins", "get_plugin", "plugin_descriptions",
    "plugin_names", "register_plugin",
    "SUITE_SCHEMA", "cell_seed", "document_digest", "evaluate_check",
    "parse_check", "render_suite_json", "run_cell", "run_suite",
    "EARLY_STOP_POLICIES", "CellSpec", "SuiteConfigError", "SuiteSpec",
    "load_suite", "parse_cell_id", "parse_suite",
]

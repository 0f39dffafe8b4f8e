"""The built-in scenario plugins: every scenario driver, registered.

``run_chaos`` / ``run_partition`` / ``run_crashtest`` / ``run_overload``
and the paper-experiment drivers are all registered
:class:`~repro.suites.registry.ScenarioPlugin`\\ s sharing one result
envelope, so the matrix runner composes them uniformly.  The plugins
are also the only command-line entry to the scenarios: ``repro suite
run FILE`` runs a matrix of cells, ``repro run '<cell-id>'`` runs one.

Each plugin declares its parameter domain (the matrix axes: named fault
plan / scenario / mode, topology ``workers``, governor mode) and its
default invariant checks — the expressions the runner evaluates against
the returned document to decide the cell verdict.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.bench import experiments, overload
from repro.bench.runner import report_to_dict
from repro.chaos import crashtest, partition
from repro.chaos import scenario as chaos
from repro.suites.registry import (ParamSpec, ScenarioPlugin,
                                   register_plugin)


def _run_chaos(seed: int, plan: str, recovery: bool,
               workers: int) -> Dict[str, Any]:
    return chaos.run_chaos(seed=seed, plan=plan, recovery=recovery,
                           workers=workers)


def _run_partition(seed: int, scenario: str, workers: int) -> Dict[str, Any]:
    return partition.run_partition(seed=seed, scenario=scenario,
                                   workers=workers)


def _run_crashtest(seed: int, scenario: str, workers: int) -> Dict[str, Any]:
    return crashtest.run_crashtest(seed=seed, scenario=scenario,
                                   workers=workers)


def _run_overload(seed: int, mode: str) -> Dict[str, Any]:
    return overload.run_overload_mode(seed=seed, mode=mode)


def _run_experiment(seed: int, id: str) -> Dict[str, Any]:
    kwargs: Dict[str, int] = \
        {"seed": seed} if id in experiments.SEEDED_EXPERIMENTS else {}
    return report_to_dict(experiments.run_experiment(id, **kwargs))


def _render_experiment(document: Dict[str, Any]) -> str:
    return json.dumps(document, sort_keys=True, indent=2)


register_plugin(ScenarioPlugin(
    name="chaos",
    description="the survey itinerary under a named fault plan "
                "(crashes, restarts, link flaps)",
    run=_run_chaos,
    render=chaos.render_chaos_json,
    params={
        "plan": ParamSpec("mid-crash", str, chaos.PLAN_NAMES,
                          "fault plan name"),
        "recovery": ParamSpec(True, bool,
                              help="carry the recovery kit (monitor/"
                                   "checkpoint/retry/rear-guard)"),
        "workers": ParamSpec(3, int, help="worker-host count (topology)"),
    },
    # The agent reported at least one site and was not silently lost.
    checks=("agent.sites_visited>=1", "!agent.timed_out"),
    variant_param="plan",
    variant_descriptions=chaos.PLAN_DESCRIPTIONS,
))

register_plugin(ScenarioPlugin(
    name="partition",
    description="exactly-once delivery under partition storms, "
                "split brain and asymmetric ack loss",
    run=_run_partition,
    render=partition.render_partition_json,
    params={
        "scenario": ParamSpec("partition-storm", str,
                              partition.SCENARIO_NAMES, "scenario name"),
        "workers": ParamSpec(3, int, help="worker-host count (topology)"),
    },
    checks=("exactly_once.holds",),
    variant_param="scenario",
    variant_descriptions=partition.SCENARIO_DESCRIPTIONS,
))

register_plugin(ScenarioPlugin(
    name="crashtest",
    description="journal replay resurrects bare agents through host "
                "crashes, torn tails and crash loops",
    run=_run_crashtest,
    render=crashtest.render_crashtest_json,
    params={
        "scenario": ParamSpec("kill-during-migration", str,
                              crashtest.SCENARIO_NAMES, "scenario name"),
        "workers": ParamSpec(3, int, help="worker-host count (topology)"),
    },
    checks=("exactly_once.holds", "conservation.holds"),
    variant_param="scenario",
    variant_descriptions=crashtest.SCENARIO_DESCRIPTIONS,
))

register_plugin(ScenarioPlugin(
    name="overload",
    description="N greedy principals flood one host with or without "
                "the firewall governor (the governor-config axis)",
    run=_run_overload,
    render=overload.render_overload_json,
    params={
        "mode": ParamSpec("governed", str, overload.MODE_NAMES,
                          "governed or ungoverned"),
    },
    # Shedding must smooth the flood, not break delivery.
    checks=(f"flood.completion_rate>={overload.COMPLETION_FLOOR}",),
    variant_param="mode",
    variant_descriptions=overload.MODE_DESCRIPTIONS,
))

register_plugin(ScenarioPlugin(
    name="experiment",
    description="one paper-reproduction experiment (E1, E2, ...) as a "
                "suite cell; the check is its paper-vs-measured verdict",
    run=_run_experiment,
    render=_render_experiment,
    params={
        "id": ParamSpec("E1", str, tuple(sorted(experiments.EXPERIMENTS)),
                        "experiment id"),
    },
    checks=("reproduced",),
    variant_param="id",
))

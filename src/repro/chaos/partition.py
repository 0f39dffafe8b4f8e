"""Named partition scenarios: exactly-once delivery under split-brain.

This is the workload behind the ``partition`` suite plugin: the same
home + workers LAN and mobility-wrapped survey agent as
:mod:`repro.chaos.scenario`, but the fault plans aim squarely at the
*exactly-once* machinery — group partitions that heal, duplicate/
reorder/corrupt delivery storms, and asymmetric link failures that eat
acks while transports get through.

The survey briefcase carries an :data:`~repro.core.wellknown.INCARNATION`
stamp and the rear guard tracks it, so a split brain that produces two
live copies of the agent ends with the stale incarnation detected and
killed.  Every node makes the chaos principal a site owner — the rear
guard is the application's control plane and needs ``kill`` rights on
the landing pads it guards.

The returned document is **byte-for-byte identical** across runs with
the same seed and scenario (everything is virtual-time and seeded);
the CI smoke suite runs every scenario twice as its determinism check.
Its ``exactly_once`` block is the acceptance evidence: per-host dedup
conservation (``offered == accepted + duplicates + rejected``),
suppressed duplicate landings, tombstone refusals, and no site visited
twice in the winning report.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.core.errors import CommTimeoutError, TaxError
from repro.core.retry import install_retry
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.chaos.engine import ChaosEngine
from repro.chaos.rearguard import RearGuard
from repro.chaos.scenario import (
    AGENT_NAME,
    CHAOS_PRINCIPAL,
    CHAOS_RETRY,
    DRAWER,
    HEARTBEAT_SECONDS,
    HEARTBEAT_TIMEOUT,
    HOME_HOST,
    POLL_SECONDS,
    STOP_WORK_SECONDS,
    _counter_total,
    build_chaos_cluster,
    build_survey_program,
)
from repro.sim.faults import FaultPlan
from repro.sim.rng import retry_stream
from repro.wrappers.fault import CheckpointWrapper
from repro.wrappers.mobility import make_task_briefcase
from repro.wrappers.monitor import MonitorWrapper
from repro.wrappers.stack import WrapperSpec, install_wrappers

SCENARIO_NAMES = ("partition-storm", "split-brain", "asym-ack-loss")

#: Per-hop ack patience carried in the survey briefcase.  Short enough
#: that a lost ack triggers a re-send within the scenario (exercising
#: the landing handshake) instead of stalling out the whole run on the
#: default meet timeout.
HOP_TIMEOUTS = {
    "partition-storm": 5.0,
    "split-brain": 5.0,
    "asym-ack-loss": 1.5,
}

SCENARIO_DESCRIPTIONS = {
    "partition-storm":
        "duplicate/reorder/corrupt storm + a group partition that "
        "heals mid-itinerary; the flagship exactly-once run",
    "split-brain":
        "home is cut off from every worker; the rear guard relaunches "
        "from checkpoint, the heal resurrects the orphan twin, the "
        "guard detects the stale incarnation and kills it",
    "asym-ack-loss":
        "one-way link failure eats acks while transports land, so "
        "retried migrations must be re-acked, not re-launched",
}


def named_partition_plan(name: str, workers: List[str]) -> FaultPlan:
    """The built-in plans the ``partition`` plugin's ``scenario``
    parameter accepts."""
    plan = FaultPlan(name=name)
    if name == "partition-storm":
        plan.duplicate_probability = 0.25
        plan.reorder_probability = 0.2
        plan.wire_corrupt_probability = 0.05
        return plan.split_brain(
            2.0, 1.5, [HOME_HOST, workers[0]], workers[1:])
    if name == "split-brain":
        plan.duplicate_probability = 0.1
        return plan.split_brain(1.2, 3.3, [HOME_HOST], workers)
    if name == "asym-ack-loss":
        plan.duplicate_probability = 0.15
        # Down from t=0 so the very first migration's ack is eaten:
        # the transport lands at the worker, the ack dies on the way
        # back, and the origin's re-sends must be re-acked through the
        # landing registry rather than re-launched.
        plan.link_down_oneway(0.0, workers[0], HOME_HOST)
        return plan.link_up_oneway(2.5, workers[0], HOME_HOST)
    raise ValueError(f"unknown partition scenario {name!r} "
                     f"(have {list(SCENARIO_NAMES)})")


def run_partition(seed: int = 7, scenario: str = "partition-storm",
                  workers: int = 3, recv_timeout: float = 600.0) -> Dict:
    """Run the survey under ``scenario``; return the JSON document."""
    cluster, worker_names = build_chaos_cluster(workers)
    fault_plan = named_partition_plan(scenario, worker_names)
    engine = ChaosEngine(cluster, fault_plan, seed=seed)
    auditor = cluster.enable_conservation()
    home = cluster.node(HOME_HOST)
    cabinet_uri = str(AgentUri(host=HOME_HOST, name="ag_cabinet"))
    for node in cluster.nodes.values():
        # The guard must be able to kill orphan twins anywhere.
        node.firewall.policy.add_owner(CHAOS_PRINCIPAL)

    guard = RearGuard(
        home, cabinet=cabinet_uri, drawer=DRAWER,
        candidates=[str(cluster.vm_uri(HOME_HOST))],
        principal=CHAOS_PRINCIPAL, tag=AGENT_NAME,
        heartbeat_timeout=HEARTBEAT_TIMEOUT, poll_interval=POLL_SECONDS,
        expected_incarnation=0)
    guard.ctx.configure_retry(CHAOS_RETRY,
                              retry_stream(seed, "rear_guard"))
    # Twin kills cross hosts: the guard's admin requests must arrive
    # authenticated or the destination firewall refuses them.
    guard.ctx.configure_signing(cluster.keychain)

    program = build_survey_program(cluster.keychain)
    stops = [{"vm": str(cluster.vm_uri(host)),
              "args": {"site": host, "work": STOP_WORK_SECONDS}}
             for host in worker_names]
    briefcase = make_task_briefcase(
        program, stops, home_uri=guard.uri, agent_name=AGENT_NAME,
        hop_timeout=HOP_TIMEOUTS[scenario])
    briefcase.put(wellknown.INCARNATION, "0")
    install_wrappers(briefcase, [
        WrapperSpec.by_ref(MonitorWrapper, {
            "monitor": guard.uri, "tag": AGENT_NAME,
            "heartbeat": HEARTBEAT_SECONDS}),
        WrapperSpec.by_ref(CheckpointWrapper, {
            "cabinet": cabinet_uri, "drawer": DRAWER}),
    ])
    install_retry(briefcase, CHAOS_RETRY, seed=seed)

    engine.start()
    cluster.kernel.spawn(guard.watch(), name="rear-guard-watch")

    def scenario_proc():
        reply = yield from guard.ctx.meet(
            cluster.vm_uri(HOME_HOST), briefcase, timeout=60.0)
        if reply.get_text(wellknown.STATUS) != "ok":
            raise TaxError(
                f"launch failed: {reply.get_text(wellknown.ERROR)}")
        results: List[Dict] = []
        failures: List[Dict] = []
        timed_out = False
        try:
            message = yield from guard.ctx.recv(
                timeout=recv_timeout,
                match=lambda m: not guard.ctx.is_pending_reply(m))
            report = message.briefcase
            results.extend(e.as_json() for e in
                           report.folder(wellknown.RESULTS))
            failures.extend(e.as_json() for e in
                            report.folder("FAILURES"))
        except CommTimeoutError:
            timed_out = True
        # The winning report can beat an in-flight twin kill home;
        # drain the guard's pending kills (bounded) so the scenario
        # doesn't end with a detected orphan still alive.
        deadline = guard.ctx.now + HEARTBEAT_TIMEOUT * 8
        while guard.twin_kills_pending and guard.ctx.now < deadline:
            yield guard.ctx.kernel.timeout(POLL_SECONDS)
        guard.stop()
        return results, failures, timed_out

    results, failures, timed_out = cluster.run(
        scenario_proc(), name=f"partition:{scenario}")

    metrics = cluster.telemetry.metrics
    delivery = {}
    conservation_violations = []
    duplicates_suppressed = 0
    duplicate_landings = 0
    tombstone_refusals = 0
    for host_name in sorted(cluster.nodes):
        firewall = cluster.nodes[host_name].firewall
        dedup = firewall.dedup.snapshot()
        landings = firewall.landings.snapshot()
        delivery[host_name] = {"dedup": dedup, "landings": landings}
        if not dedup["conservation_holds"]:
            conservation_violations.append(host_name)
        duplicates_suppressed += dedup["duplicates"]
        duplicate_landings += landings["duplicate_landings"]
        tombstone_refusals += landings["tombstone_refusals"]

    sites = [r.get("site") for r in results]
    completed = len(results) == len(worker_names)
    exactly_once = {
        "sites_planned": len(worker_names),
        "sites_visited": len(results),
        "duplicate_site_visits": len(sites) - len(set(sites)),
        "completed": completed,
        "conservation_violations": conservation_violations,
        "duplicates_suppressed": duplicates_suppressed,
        "duplicate_landings_suppressed": duplicate_landings,
        "tombstone_refusals": tombstone_refusals,
        "landing_aborts": _counter_total(metrics, "agent.landing_aborts"),
        "twins_detected": len(guard.twins),
        "twins_killed": _counter_total(metrics, "recovery.twins_killed"),
        # The acceptance claim in one boolean: the itinerary completed,
        # no site ran twice in the winning report, and every host's
        # delivery counters balance.
        "holds": (completed and
                  len(sites) == len(set(sites)) and
                  not conservation_violations and
                  not timed_out),
    }

    document = {
        "schema": "repro.partition/1",
        "seed": seed,
        "scenario": scenario,
        "description": SCENARIO_DESCRIPTIONS[scenario],
        "plan": fault_plan.to_dict(),
        "applied": engine.applied,
        "injector": engine.injector.stats(),
        "agent": {
            "name": AGENT_NAME,
            "results": results,
            "failures": failures,
            "timed_out": timed_out,
        },
        "exactly_once": exactly_once,
        "conservation": auditor.report(),
        "delivery": delivery,
        "rear_guard": guard.stats(),
        "flight_recorder": {
            "dumps": list(cluster.telemetry.flight.dumps),
            "dumps_evicted": cluster.telemetry.flight.dumps_evicted,
        },
        "stats": {
            "faults_injected": _counter_total(metrics, "faults.injected"),
            "transport_retries": _counter_total(metrics,
                                                "transport.retries"),
            "recovery_relaunches": _counter_total(metrics,
                                                  "recovery.relaunches"),
            "vm_duplicate_landings": _counter_total(
                metrics, "vm.duplicate_landings"),
            "dead_letters": sum(len(node.firewall.pending.dead_letters)
                                for node in cluster.nodes.values()),
            "remote_bytes": cluster.network.total_remote_bytes(),
            "remote_messages": cluster.network.total_remote_messages(),
        },
        "elapsed": cluster.kernel.now,
    }
    return document


def render_partition_json(document: Dict) -> str:
    """The canonical (determinism-checkable) serialisation."""
    return json.dumps(document, sort_keys=True, indent=2)

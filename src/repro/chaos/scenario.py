"""Named chaos scenarios: the quickstart itinerary under a fault plan.

This is the workload behind the ``chaos`` suite plugin: a small LAN
(one home host, three workers), a mobility-wrapped survey agent that
visits every worker and charges a fixed slice of virtual work at each
stop, and a named
:class:`~repro.sim.faults.FaultPlan` fired against the cluster while the
agent travels.  With recovery enabled the agent carries the full
robustness kit — monitor wrapper with heartbeats, checkpoint wrapper,
transport retry policy — and a :class:`~repro.chaos.rearguard.RearGuard`
waits at home; without it the agent is bare (the pre-resilience
baseline).

Everything is virtual-time and seeded, so :func:`run_chaos` returns a
JSON-able document that is **byte-for-byte identical** across runs with
the same seed and plan — which is exactly what the CI determinism smoke
asserts.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.core.briefcase import Briefcase
from repro.core.errors import CommTimeoutError, TaxError
from repro.core.retry import RetryPolicy, install_retry
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.chaos.engine import ChaosEngine
from repro.chaos.rearguard import RearGuard
from repro.obs.telemetry import Telemetry
from repro.sim.faults import FaultPlan
from repro.sim.network import BANDWIDTH_10MBIT, LATENCY_LAN
from repro.sim.rng import retry_stream
from repro.system.cluster import TaxCluster
from repro.vm import loader
from repro.wrappers.fault import CheckpointWrapper
from repro.wrappers.mobility import make_task_briefcase
from repro.wrappers.monitor import MonitorWrapper
from repro.wrappers.stack import WrapperSpec, install_wrappers

#: The world the named scenarios run on.
HOME_HOST = "home.chaos.example"
WORKER_HOSTS = ("w1.chaos.example", "w2.chaos.example", "w3.chaos.example")
CHAOS_PRINCIPAL = "chaosproject"
AGENT_NAME = "survey"
DRAWER = "chaos-survey"

#: Virtual seconds of work the survey charges at each stop.
STOP_WORK_SECONDS = 1.5

#: Heartbeat / detection cadence of the recovery kit.
HEARTBEAT_SECONDS = 0.5
HEARTBEAT_TIMEOUT = 2.0
POLL_SECONDS = 0.5

#: Retry policy generous enough to ride out a short host outage.
CHAOS_RETRY = RetryPolicy(max_attempts=6, base_delay=0.4, multiplier=2.0,
                          max_delay=4.0, jitter=0.2)

#: The carried program: charge deterministic work, report the host.
SURVEY_SOURCE = '''
def run_survey(args, env):
    """One itinerary stop: spend the configured work, name the site."""
    work = float(args.get("work", 1.5))
    env.ledger.add("survey", work, 0)
    return {"host": env.host.name, "site": args.get("site"),
            "work": work}
'''

PLAN_NAMES = ("none", "mid-crash", "crash-restart", "flaky-links")

PLAN_DESCRIPTIONS = {
    "none":
        "control run, no faults",
    "mid-crash":
        "the second worker crashes mid-itinerary and never returns; "
        "recovery must skip it and report it unreachable",
    "crash-restart":
        "same crash, but the host restarts while the recovered agent "
        "is still retrying, so the itinerary completes",
    "flaky-links":
        "no crashes, but a link flap plus probabilistic message "
        "drops/corruption that transport retries must absorb",
}


def build_survey_program(keychain, principal: str = CHAOS_PRINCIPAL,
                         archs=("x86-unix",)) -> loader.Payload:
    """Compile and sign the survey program (a tiny webbot stand-in)."""
    source = loader.pack_source(SURVEY_SOURCE, "run_survey",
                                origin="chaos-survey")
    compiled = loader.compile_source(source)
    return loader.pack_binary_list(
        [(arch, compiled) for arch in archs], keychain, principal)


def build_chaos_cluster(workers: int = 3
                        ) -> Tuple[TaxCluster, List[str]]:
    """Home + N workers on a full-mesh 10 Mbit LAN, telemetry on."""
    cluster = TaxCluster(telemetry=Telemetry(enabled=True))
    names = list(WORKER_HOSTS[:workers])
    for host in [HOME_HOST] + names:
        cluster.add_node(host)
    all_hosts = [HOME_HOST] + names
    for i, a in enumerate(all_hosts):
        for b in all_hosts[i + 1:]:
            cluster.network.link(a, b, latency=LATENCY_LAN,
                                 bandwidth=BANDWIDTH_10MBIT)
    cluster.add_principal(CHAOS_PRINCIPAL, trusted=True)
    return cluster, names


def named_plan(name: str, workers: List[str]) -> FaultPlan:
    """The built-in fault plans the ``chaos`` plugin's ``plan``
    parameter accepts.

    - ``none``          — control run, no faults;
    - ``mid-crash``     — the second worker crashes mid-itinerary and
      never returns (recovery must skip it and report it unreachable);
    - ``crash-restart`` — same crash, but the host restarts while the
      recovered agent is still retrying, so the itinerary completes;
    - ``flaky-links``   — no crashes, but a link flap plus probabilistic
      message drops/corruption that transport retries must absorb.
    """
    target = workers[1] if len(workers) > 1 else workers[0]
    plan = FaultPlan(name=name)
    if name == "none":
        return plan
    if name == "mid-crash":
        return plan.crash(2.5, target)
    if name == "crash-restart":
        return plan.crash(2.5, target, outage=3.5)
    if name == "flaky-links":
        plan.drop_probability = 0.03
        plan.corrupt_probability = 0.01
        return plan.flap(1.0, HOME_HOST, workers[0], 0.4)
    raise ValueError(f"unknown chaos plan {name!r} "
                     f"(have {list(PLAN_NAMES)})")


def _counter_total(metrics, name: str) -> int:
    metric = metrics.get(name)
    if metric is None:
        return 0
    return int(sum(sample["value"] for sample in metric.samples()))


def run_chaos(seed: int = 7, plan: str = "mid-crash",
              recovery: bool = True, workers: int = 3,
              recv_timeout: float = 600.0) -> Dict:
    """Run the survey itinerary under ``plan``; return the JSON document.

    With ``recovery`` the agent carries heartbeat monitoring,
    per-hop checkpointing and a transport retry policy, and a rear guard
    watches from home; without it the run shows the pre-resilience
    behaviour (a crashed host simply eats the agent and the run times
    out empty).
    """
    cluster, worker_names = build_chaos_cluster(workers)
    fault_plan = named_plan(plan, worker_names)
    engine = ChaosEngine(cluster, fault_plan, seed=seed)
    auditor = cluster.enable_conservation()
    home = cluster.node(HOME_HOST)
    cabinet_uri = str(AgentUri(host=HOME_HOST, name="ag_cabinet"))

    guard = RearGuard(
        home, cabinet=cabinet_uri, drawer=DRAWER,
        candidates=[str(cluster.vm_uri(HOME_HOST))],
        principal=CHAOS_PRINCIPAL, tag=AGENT_NAME,
        heartbeat_timeout=HEARTBEAT_TIMEOUT, poll_interval=POLL_SECONDS)
    if recovery:
        guard.ctx.configure_retry(CHAOS_RETRY,
                                  retry_stream(seed, "rear_guard"))

    program = build_survey_program(cluster.keychain)
    stops = [{"vm": str(cluster.vm_uri(host)),
              "args": {"site": host, "work": STOP_WORK_SECONDS}}
             for host in worker_names]
    briefcase = make_task_briefcase(
        program, stops, home_uri=guard.uri, agent_name=AGENT_NAME)
    if recovery:
        install_wrappers(briefcase, [
            WrapperSpec.by_ref(MonitorWrapper, {
                "monitor": guard.uri, "tag": AGENT_NAME,
                "heartbeat": HEARTBEAT_SECONDS}),
            WrapperSpec.by_ref(CheckpointWrapper, {
                "cabinet": cabinet_uri, "drawer": DRAWER}),
        ])
        install_retry(briefcase, CHAOS_RETRY, seed=seed)

    engine.start()
    if recovery:
        cluster.kernel.spawn(guard.watch(), name="rear-guard-watch")

    def scenario():
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
            # The agent was lost and nobody brought it back.
            timed_out = True
        guard.stop()
        return results, failures, timed_out

    results, failures, timed_out = cluster.run(
        scenario(), name=f"chaos:{plan}")

    metrics = cluster.telemetry.metrics
    unreachable = sorted({f["host"] for f in failures
                          if f.get("phase") == "go"})
    document = {
        "schema": "repro.chaos/1",
        "seed": seed,
        "recovery": recovery,
        "plan": fault_plan.to_dict(),
        "applied": engine.applied,
        "injector": engine.injector.stats(),
        "agent": {
            "name": AGENT_NAME,
            "sites_planned": len(worker_names),
            "sites_visited": len(results),
            "completed": len(results) == len(worker_names),
            "timed_out": timed_out,
            "results": results,
            "failures": failures,
            "unreachable_hosts": unreachable,
        },
        # Agent conservation: every instance ever spawned must end in a
        # terminal bucket.  Without recovery a crashed host legitimately
        # loses the agent, so ``holds`` is evidence, not a gate, here.
        "conservation": auditor.report(),
        "rear_guard": guard.stats(),
        # Post-mortems: every host crash freezes that host's flight
        # recorder (admissions, rejections, breaker flips, hops) into a
        # dump, so the document carries the last moments before impact.
        "flight_recorder": {
            "dumps": list(cluster.telemetry.flight.dumps),
            "dumps_evicted": cluster.telemetry.flight.dumps_evicted,
        },
        "stats": {
            "host_crashes": _counter_total(metrics, "host.crashes"),
            "faults_injected": _counter_total(metrics, "faults.injected"),
            "transport_retries": _counter_total(metrics,
                                                "transport.retries"),
            "recovery_relaunches": _counter_total(metrics,
                                                  "recovery.relaunches"),
            "dead_letters": sum(len(node.firewall.pending.dead_letters)
                                for node in cluster.nodes.values()),
            "checkpoints": _counter_total(metrics, "checkpoint.taken"),
            "remote_bytes": cluster.network.total_remote_bytes(),
            "remote_messages": cluster.network.total_remote_messages(),
        },
        "elapsed": cluster.kernel.now,
    }
    return document


def render_chaos_json(document: Dict) -> str:
    """The canonical (determinism-checkable) serialisation."""
    return json.dumps(document, sort_keys=True, indent=2)

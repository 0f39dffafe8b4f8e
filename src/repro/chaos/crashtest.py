"""Named crash-durability scenarios: journal replay under host crashes.

This is the workload behind the ``crashtest`` suite plugin (``repro run
'crashtest[scenario=...]'``): the chaos LAN and the
mobility survey agent again, but this time the agent carries **no
recovery kit at all** — no monitor, no checkpoint wrapper, no rear
guard.  Before this subsystem existed, a host crash simply ate such an
agent (the ``chaos[recovery=false]`` baseline).  Here every host
runs a crash-durable store + write-ahead journal
(:mod:`repro.durability`), so a crashed worker replays its journal on
restart and relaunches the resident agent from its journaled arrival
blob — the un-checkpointed agent survives the crash.

Scenarios:

- ``kill-during-migration`` — the second worker is killed mid-itinerary
  while the bare agent is resident on it, and restarts later; replay
  must resurrect the agent and the itinerary must complete;
- ``torn-journal-tail`` — the same crash, but seeded storage faults
  tear the journal tail (a partial frame survives) and eat a durable
  suffix (firmware that lied about an fsync); replay must stop cleanly
  at the last good record and still recover;
- ``crash-loop`` — the worker crashes and restarts three times in a
  row, with an aggressive snapshot cadence so compaction runs during
  the loop; the relaunch-supersede protocol must not accumulate twins.

The verdict is two booleans, and the plugin's cell checks fail unless
**both** hold: ``exactly_once.holds`` (itinerary completed, no
site visited twice in the winning report, dedup conservation on every
host) and ``conservation.holds`` (every agent instance ever spawned is
accounted for — alive, completed, moved, relaunched, or dead-lettered;
none silently lost).  Everything is virtual-time and seeded, so the
document is byte-for-byte identical across runs with the same seed and
scenario.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.core.errors import CommTimeoutError, TaxError
from repro.core.retry import install_retry
from repro.core import wellknown
from repro.chaos.engine import ChaosEngine
from repro.chaos.scenario import (
    AGENT_NAME,
    CHAOS_PRINCIPAL,
    CHAOS_RETRY,
    HOME_HOST,
    STOP_WORK_SECONDS,
    _counter_total,
    build_chaos_cluster,
    build_survey_program,
)
from repro.sim.faults import FaultPlan, StorageFaults
from repro.sim.rng import retry_stream
from repro.wrappers.mobility import make_task_briefcase

SCENARIO_NAMES = ("kill-during-migration", "torn-journal-tail",
                  "crash-loop")

SCENARIO_DESCRIPTIONS = {
    "kill-during-migration":
        "a worker dies mid-itinerary with a bare (un-checkpointed) "
        "agent resident; journal replay must resurrect it",
    "torn-journal-tail":
        "the same crash, but storage faults tear the journal tail and "
        "eat a durable suffix; replay recovers from the last good "
        "record",
    "crash-loop":
        "the worker crashes and restarts three times with aggressive "
        "snapshot compaction; no twins may accumulate",
}

#: Snapshot cadence per scenario (records between snapshots).  The
#: crash-loop cadence is aggressive on purpose: compaction must run
#: *during* the loop, not just at restart.
SNAPSHOT_INTERVALS = {
    "kill-during-migration": 64,
    "torn-journal-tail": 64,
    "crash-loop": 8,
}

#: Journal records embedded in the document (the tail of the crashed
#: worker's active segment).  Blob payloads are summarised, not
#: inlined, so the sample stays bounded.
JOURNAL_SAMPLE_LIMIT = 80

#: The worker the scenarios crash.
TARGET_INDEX = 1


def named_crash_plan(name: str, workers: List[str]) -> FaultPlan:
    """The built-in plans the ``crashtest`` plugin's ``scenario``
    parameter accepts."""
    target = workers[TARGET_INDEX] if len(workers) > TARGET_INDEX \
        else workers[0]
    plan = FaultPlan(name=name)
    if name == "kill-during-migration":
        # t=2.5 lands mid-way through the agent's 1.5s work slice on
        # the second worker: the crash interrupts a resident agent.
        return plan.crash(2.5, target, outage=2.5)
    if name == "torn-journal-tail":
        plan.storage = StorageFaults(
            torn_tail_probability=1.0,
            lost_suffix_probability=1.0,
            lost_suffix_max_bytes=64)
        return plan.crash(2.5, target, outage=2.5)
    if name == "crash-loop":
        # Each outage + replayed work slice takes ~2s; three crashes
        # two virtual seconds apart each interrupt the resident agent
        # (the third lands on a twice-resurrected instance).
        plan.crash(2.2, target, outage=1.2)
        plan.crash(4.2, target, outage=1.2)
        return plan.crash(6.2, target, outage=1.2)
    raise ValueError(f"unknown crashtest scenario {name!r} "
                     f"(have {list(SCENARIO_NAMES)})")


def _journal_sample(durability) -> List[dict]:
    """The tail of a host's active journal segment, blobs summarised."""
    records, torn, segment = durability.journal.read_active()
    sample = []
    for record in records[-JOURNAL_SAMPLE_LIMIT:]:
        entry = dict(record)
        blob = entry.pop("blob", None)
        if blob is not None:
            entry["blob_bytes"] = len(blob)
            entry["blob_sha256"] = hashlib.sha256(
                blob.encode("ascii")).hexdigest()[:16]
        sample.append(entry)
    return {"segment": segment, "torn": torn,
            "total_records": len(records), "tail": sample}


def run_crashtest(seed: int = 7, scenario: str = "kill-during-migration",
                  workers: int = 3, recv_timeout: float = 600.0) -> Dict:
    """Run the bare survey under ``scenario``; return the JSON document."""
    cluster, worker_names = build_chaos_cluster(workers)
    fault_plan = named_crash_plan(scenario, worker_names)
    engine = ChaosEngine(cluster, fault_plan, seed=seed)
    auditor = cluster.enable_conservation()
    hosts = cluster.enable_durability(
        injector=engine.injector,
        snapshot_interval=SNAPSHOT_INTERVALS[scenario])
    home = cluster.node(HOME_HOST)

    # The home end of the run is a plain driver context — deliberately
    # no rear guard: recovery must come from the journal, not from a
    # checkpoint relaunch.
    ctx = home.driver(name="crashtest-home", principal=CHAOS_PRINCIPAL)
    ctx.configure_retry(CHAOS_RETRY, retry_stream(seed, "home"))

    program = build_survey_program(cluster.keychain)
    stops = [{"vm": str(cluster.vm_uri(host)),
              "args": {"site": host, "work": STOP_WORK_SECONDS}}
             for host in worker_names]
    briefcase = make_task_briefcase(
        program, stops, home_uri=str(ctx.uri), agent_name=AGENT_NAME)
    # The only resilience the agent carries is transport retry: enough
    # to ride out the outage window, nothing that could re-create the
    # agent from application state.
    install_retry(briefcase, CHAOS_RETRY, seed=seed)

    engine.start()

    def scenario_proc():
        reply = yield from ctx.meet(
            cluster.vm_uri(HOME_HOST), briefcase, timeout=60.0)
        if reply.get_text(wellknown.STATUS) != "ok":
            raise TaxError(
                f"launch failed: {reply.get_text(wellknown.ERROR)}")
        results: List[Dict] = []
        failures: List[Dict] = []
        timed_out = False
        try:
            message = yield from ctx.recv(
                timeout=recv_timeout,
                match=lambda m: not ctx.is_pending_reply(m))
            report = message.briefcase
            results.extend(e.as_json() for e in
                           report.folder(wellknown.RESULTS))
            failures.extend(e.as_json() for e in
                            report.folder("FAILURES"))
        except CommTimeoutError:
            timed_out = True
        return results, failures, timed_out

    results, failures, timed_out = cluster.run(
        scenario_proc(), name=f"crashtest:{scenario}")

    metrics = cluster.telemetry.metrics
    target = worker_names[TARGET_INDEX] if len(worker_names) > TARGET_INDEX \
        else worker_names[0]

    conservation_violations = []
    duplicates_suppressed = 0
    for host_name in sorted(cluster.nodes):
        dedup = cluster.nodes[host_name].firewall.dedup.snapshot()
        if not dedup["conservation_holds"]:
            conservation_violations.append(host_name)
        duplicates_suppressed += dedup["duplicates"]

    sites = [r.get("site") for r in results]
    completed = len(results) == len(worker_names)
    exactly_once = {
        "sites_planned": len(worker_names),
        "sites_visited": len(results),
        "duplicate_site_visits": len(sites) - len(set(sites)),
        "completed": completed,
        "conservation_violations": conservation_violations,
        "duplicates_suppressed": duplicates_suppressed,
        "holds": (completed and
                  len(sites) == len(set(sites)) and
                  not conservation_violations and
                  not timed_out),
    }

    durability = {
        host_name: {
            "disk": hosts[host_name].disk.stats(),
            "journal": hosts[host_name].journal.stats(),
            "last_replay": hosts[host_name].last_replay,
        }
        for host_name in sorted(hosts)
    }

    document = {
        "schema": "repro.crashtest/1",
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
        "durability": durability,
        # The crashed worker's journal tail: the record taxonomy in
        # action, and the journal-tail CI artifact.
        "journal_sample": _journal_sample(hosts[target]),
        "stats": {
            "host_crashes": _counter_total(metrics, "host.crashes"),
            "records_replayed": _counter_total(
                metrics, "recovery.journal_records_replayed"),
            "agents_restored": _counter_total(
                metrics, "recovery.agents_restored"),
            "ambiguous_departures": _counter_total(
                metrics, "recovery.ambiguous_departures"),
            "transport_retries": _counter_total(metrics,
                                                "transport.retries"),
            "dead_letters": sum(len(node.firewall.pending.dead_letters)
                                for node in cluster.nodes.values()),
            "remote_bytes": cluster.network.total_remote_bytes(),
            "remote_messages": cluster.network.total_remote_messages(),
        },
        "elapsed": cluster.kernel.now,
    }
    return document


def render_crashtest_json(document: Dict) -> str:
    """The canonical (determinism-checkable) serialisation."""
    return json.dumps(document, sort_keys=True, indent=2)

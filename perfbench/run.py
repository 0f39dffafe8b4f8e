"""The repository benchmark: seeded workloads, timed end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Workloads: ``paper``, ``log_mining``, ``scenario_matrix``, ``lint_self``
(see ``perfbench/README.md``).  A pass runs the workload's phases,
each in a fresh interpreter, one operation at a time (a closed loop with
one client).  With ``--trace 0`` the run makes one full pass, then
repeats the phase ``wall_s`` times for about ``--seconds`` seconds, and
reports the end-to-end metrics as medians, scaled to a reference
machine speed (``speed_factor``).
With ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer metrics.  Every operation's output is checked; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKER = os.path.join(BENCH_DIR, "worker.py")

sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
import workloads  # noqa: E402

#: ``src/repro`` as of commit 110045f, the input ``lint_self`` analyses.
#: It is frozen so that later edits to ``src/`` do not change the input.
FROZEN_TREE = os.path.join(BENCH_DIR, "data", "src-repro-110045f.tar.gz")
FROZEN_TREE_SHA256 = \
    "184f4eee6b047b086bdd4665d778df01398fcc93d41116b94b7a29d948aed071"

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: The calibration kernel's median time (``worker.calibrate``) on the
#: reference machine, a 2-vCPU shared VM (Intel Xeon, 2.0 GHz) running
#: CPython 3.11.7.  Timings are reported in seconds at that speed.
REFERENCE_CALIBRATION_S = 0.018

#: How far timings follow the kernel's time when the host's speed
#: changes: the slope of log pass time over log kernel time, fitted by
#: least squares over runs of all four workloads on the reference
#: machine (see perfbench/README.md, "Machine-speed scaling").  It is
#: below 1 because the kernel, which holds no large heap, speeds up and
#: slows down more than the program does.
SPEED_EXPONENT = 0.75

#: ``setup_s`` is the median of at least this many interpreter starts.
MIN_SETUP_SAMPLES = 11
#: Kill a phase that has not finished after this long (it then fails).
PHASE_TIMEOUT_S = 150.0


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in print order."""
    metrics = [(f"bench.op.{op}.s", "s") for op in workloads.EXPERIMENT_IDS]
    metrics += [(f"suites.cell.{plugin}.s", "s")
                for plugin in workloads.SCENARIO_PLUGINS]
    metrics += [("lint_fill_s", "s"), ("lint_warm_s", "s")]
    for boundary in tracing.BOUNDARIES:
        metrics.append((f"{boundary.name}.calls", "count"))
        metrics.append((f"{boundary.name}.{boundary.time_metric}", "s"))
    metrics += [
        ("web.generate_site.distinct", "count"),
        ("web.generate_site.distinct_ratio", "ratio"),
        ("sim.kernel.events", "count"),
        ("sim.kernel.us_per_event", "us"),
        ("sim.network.remote_bytes", "bytes"),
        ("core.codec.encode.bytes", "bytes"),
        ("agent.transport_retries", "count"),
        ("analysis.files", "count"),
        ("analysis.parses", "count"),
        ("analysis.parse_per_file", "ratio"),
        ("analysis.cache.hits", "count"),
        ("analysis.cache.lookups", "count"),
        ("analysis.cache.hit_ratio", "ratio"),
        ("bench.trace_overhead", "ratio"),
        ("bench.unattributed_s", "s"),
    ]
    return metrics


class FrozenTreeError(RuntimeError):
    """The frozen lint input is missing or not the recorded archive."""


def prepare_lint_tree() -> Tuple[str, int, int]:
    """Extract the frozen tree; returns ``(root, files, lines)``.

    The analyzer runs with ``root`` as its working directory over
    ``src/repro``, so findings carry the same paths as ``repro lint``.
    """
    try:
        with open(FROZEN_TREE, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise FrozenTreeError(f"cannot read {FROZEN_TREE}: {exc}") from None
    digest = hashlib.sha256(blob).hexdigest()
    if digest != FROZEN_TREE_SHA256:
        raise FrozenTreeError(f"{FROZEN_TREE} has sha256 {digest}, "
                              f"expected {FROZEN_TREE_SHA256}")
    root = os.path.join(WORK, "lint-110045f")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    with tarfile.open(FROZEN_TREE, "r:gz") as archive:
        for member in archive.getmembers():
            if member.name.split("/")[0] != "src" or ".." in member.name \
                    or not (member.isfile() or member.isdir()):
                raise FrozenTreeError(f"unexpected member {member.name!r}")
        # Members were checked above; the "data" filter adds its own
        # checks where this Python has it.
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(root, **safe)
    files = lines = 0
    for dirpath, _, filenames in os.walk(os.path.join(root, "src", "repro")):
        for name in filenames:
            if name.endswith(".py"):
                files += 1
                with open(os.path.join(dirpath, name), "rb") as handle:
                    lines += handle.read().count(b"\n")
    return root, files, lines


def spawn(config: Dict[str, Any], cwd: str
          ) -> Tuple[float, Optional[Dict[str, Any]], Optional[str]]:
    """Run one worker; returns ``(setup_s, result, error)``.

    The worker's string hashes are seeded from the workload seed: the
    program derives some inputs from ``hash()`` (the stub sites of
    ``repro.web.site``), so a random hash seed would change the work
    from one process to the next.
    """
    command = [sys.executable, WORKER, json.dumps(config)]
    env = dict(os.environ, PYTHONHASHSEED=str(config["seed"] % 2 ** 32))
    start = time.perf_counter()
    process = subprocess.Popen(command, cwd=cwd, stdout=subprocess.PIPE,
                               text=True, env=env)
    try:
        line = process.stdout.readline()
        setup_s = time.perf_counter() - start
        process.communicate(timeout=PHASE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return setup_s, None, f"worker timed out after {PHASE_TIMEOUT_S} s"
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if line != "ready\n" or process.returncode != 0:
        return setup_s, None, f"worker exited with {process.returncode}"
    if not config["phase"]:
        return setup_s, None, None
    with open(config["result"], "r", encoding="utf-8") as handle:
        return setup_s, json.load(handle), None


class Pass:
    """The phases of one pass over a workload."""

    def __init__(self) -> None:
        self.setup: List[float] = []
        self.phases: Dict[str, Dict[str, Any]] = {}
        self.errors: List[str] = []
        #: Harness seconds per phase: interpreter start, calibration and
        #: the operations.
        self.elapsed: Dict[str, float] = {}

    def ops(self) -> List[Dict[str, Any]]:
        return [op for phase in self.phases.values() for op in phase["ops"]]

    def phase_seconds(self, phase: str) -> Optional[float]:
        """Time of the phase's operations, or None if its worker died."""
        if phase not in self.phases:
            return None
        return sum(op["s"] for op in self.phases[phase]["ops"])

    def seconds(self) -> float:
        return sum(op["s"] for op in self.ops())

    def calibration(self) -> List[float]:
        return [sample for phase in self.phases.values()
                for sample in phase["calibration_s"]]


def speed_factor(calibration: List[float]) -> float:
    """The factor that restates a timing at the reference speed.

    The shared host this benchmark runs on changes speed by up to 2x over
    tens of minutes, and every timing moves with it.  The worker times a
    fixed kernel that runs no program code between operations; the
    factor is the kernel's reference time over its median time in
    ``calibration``, raised to ``SPEED_EXPONENT``.  It cancels most of
    the machine's drift, while a change to the program, which does not
    move the kernel, shows in full.
    """
    ratio = REFERENCE_CALIBRATION_S / statistics.median(calibration)
    return ratio ** SPEED_EXPONENT


def scaled_phase_s(passes: List[Pass], phase: str) -> Optional[float]:
    """The phase's time at the reference speed, or None if it never ran.

    Each operation's time is scaled by its own pass's calibration; the
    result sums, over the operations, each one's median across passes,
    so that a burst of load on the host during one operation of one pass
    does not move the figure.
    """
    runs = []
    for one in passes:
        if phase in one.phases:
            result = one.phases[phase]
            factor = speed_factor(result["calibration_s"])
            runs.append({op["id"]: op["s"] * factor for op in result["ops"]})
    if not runs:
        return None
    return sum(statistics.median(run[op_id] for run in runs)
               for op_id in runs[0])


def run_pass(workload: str, seed: int, traced: bool, lint_root: str,
             phases: Optional[Tuple[str, ...]] = None) -> Pass:
    """One pass over ``phases`` (all of the workload's by default)."""
    result = Pass()
    cache_dir = os.path.join(WORK, "lint-cache")
    for phase in phases or workloads.PHASES[workload]:
        if phase == "fill":
            shutil.rmtree(cache_dir, ignore_errors=True)
        tag = f"{workload}-{phase}{'-traced' if traced else ''}"
        config = {
            "workload": workload, "phase": phase, "seed": seed,
            "traced": traced, "src": SRC, "cache_dir": cache_dir,
            "result": os.path.join(WORK, f"result-{tag}.json"),
            "spans": os.path.join(WORK, f"spans-{tag}.json"),
        }
        cwd = lint_root if workload == "lint_self" else WORK
        started = time.perf_counter()
        setup_s, phase_result, error = spawn(config, cwd)
        result.elapsed[phase] = time.perf_counter() - started
        result.setup.append(setup_s)
        if phase_result is None:
            result.errors.append(f"{phase}: {error}")
            continue
        result.phases[phase] = phase_result
    if workload == "lint_self" and "uncached" in result.phases:
        reference = result.phases["uncached"]["ops"][0]["sha256"]
        for phase in ("fill", "warm"):
            for op in result.phases.get(phase, {"ops": []})["ops"]:
                if op["sha256"] != reference:
                    op["ok"] = False
                    op["error"] = "JSON differs from the uncached pass"
    return result


def setup_only(workload: str) -> float:
    config = {"workload": workload, "phase": "", "seed": 0, "traced": False,
              "src": SRC, "cache_dir": "", "result": "", "spans": ""}
    return spawn(config, WORK)[0]


def mismatches(passes: List[Pass]) -> List[str]:
    """Operations whose document differs from the first pass's."""
    reference = {op["id"]: op["sha256"] for op in passes[0].ops()}
    return [f"{op['id']}: output differs from the first pass"
            for one in passes[1:] for op in one.ops()
            if op["sha256"] != reference.get(op["id"])]


def digest(seed: int, one_pass: Pass) -> str:
    """sha256 over the seed and each operation's canonical document."""
    text = f"seed={seed}\n" + "".join(f"{op['id']} {op['sha256']}\n"
                                      for op in one_pass.ops())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def layer_metrics(workload: str, plain: Pass, traced: Pass
                  ) -> Dict[str, float]:
    """The per-layer figures of one untraced and one traced pass."""
    values = {name: 0.0 for name, _ in per_layer_metrics()}
    for op in plain.ops():
        if workload in ("paper", "log_mining"):
            values[f"bench.op.{op['id']}.s"] = op["s"]
        elif workload == "scenario_matrix":
            plugin = op["id"].split("[", 1)[0]
            values[f"suites.cell.{plugin}.s"] += op["s"]
        values["agent.transport_retries"] += \
            op["info"].get("agent.transport_retries", 0.0)
    if workload == "lint_self":
        for phase in ("fill", "warm"):
            values[f"lint_{phase}_s"] = plain.phase_seconds(phase) or 0.0
    traces = {phase: result["trace"]
              for phase, result in traced.phases.items()}
    calls: Dict[str, float] = {}
    own: Dict[str, float] = {}
    extra: Dict[str, float] = {}
    distinct = 0
    unattributed = 0.0
    for trace in traces.values():
        for table, source in ((calls, trace["calls"]), (own, trace["self_s"]),
                              (extra, trace["extra"])):
            for name, value in source.items():
                table[name] = table.get(name, 0.0) + value
        distinct += trace["distinct"].get("web.generate_site", 0)
        unattributed += sum(op["unattributed_s"]
                            for op in trace["ops"].values())
    for boundary in tracing.BOUNDARIES:
        values[f"{boundary.name}.calls"] = calls.get(boundary.name, 0.0)
        values[f"{boundary.name}.{boundary.time_metric}"] = \
            own.get(boundary.name, 0.0)
    sites = calls.get("web.generate_site", 0.0)
    values["web.generate_site.distinct"] = float(distinct)
    values["web.generate_site.distinct_ratio"] = \
        distinct / sites if sites else 0.0
    events = extra.get("sim.kernel.events", 0.0)
    values["sim.kernel.events"] = events
    dispatch_s = own.get("sim.eventloop.Kernel.run", 0.0) + \
        own.get("sim.eventloop.Kernel.run_until", 0.0)
    values["sim.kernel.us_per_event"] = \
        dispatch_s / events * 1e6 if events else 0.0
    values["sim.network.remote_bytes"] = extra.get("sim.network.remote_bytes",
                                                   0.0)
    values["core.codec.encode.bytes"] = extra.get("core.codec.encode.bytes",
                                                  0.0)
    if workload == "lint_self" and "uncached" in traces \
            and "uncached" in plain.phases:
        info = plain.phases["uncached"]["ops"][0]["info"]
        files = info.get("analysis.files", 0.0)
        parses = traces["uncached"]["calls"].get("analysis.ast.parse", 0)
        values["analysis.files"] = files
        values["analysis.parses"] = float(parses)
        values["analysis.parse_per_file"] = parses / files if files else 0.0
    if workload == "lint_self" and "warm" in plain.phases:
        info = plain.phases["warm"]["ops"][0]["info"]
        hits = info.get("analysis.cache.hits", 0.0)
        lookups = info.get("analysis.cache.lookups", 0.0)
        values["analysis.cache.hits"] = hits
        values["analysis.cache.lookups"] = lookups
        values["analysis.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    untraced_s = plain.seconds()
    values["bench.trace_overhead"] = \
        traced.seconds() / untraced_s if untraced_s else 0.0
    values["bench.unattributed_s"] = unattributed
    return values


def trace_problems(traced: Pass) -> List[str]:
    """Checks on the traced pass: the tracer's books must balance."""
    problems = []
    for phase, result in traced.phases.items():
        trace = result["trace"]
        if not trace["restored"]:
            problems.append(f"{phase}: wrapped attributes not restored")
        if trace["unbalanced"]:
            problems.append(f"{phase}: {trace['unbalanced']} spans closed "
                            f"out of order")
        for op_id, entry in trace["ops"].items():
            if entry["min_self_s"] < -1e-9 or \
                    entry["self_sum_s"] > entry["total_s"] + 1e-6:
                problems.append(f"{op_id}: self times do not add up")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool,
            lint_root: str) -> Tuple[List[Pass], Optional[Pass], List[float]]:
    """Run the passes; returns ``(untraced passes, traced pass, setups)``."""
    passes: List[Pass] = []
    traced: Optional[Pass] = None
    setups: List[float] = []
    # wall_s times only the first phase; after one full pass, repeat only
    # that phase, so a run holds more samples of it.
    timed_phase = workloads.PHASES[workload][:1]
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed, False, lint_root,
                               timed_phase if passes else None))
        setups.extend(passes[-1].setup)
        if trace:
            traced = run_pass(workload, seed, True, lint_root)
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.elapsed[timed_phase[0]] for p in passes
                                    if timed_phase[0] in p.elapsed)
        # Leave time for the interpreter starts still owed after the pass.
        owed = MIN_SETUP_SAMPLES - len(setups) - len(timed_phase)
        reserve = max(0, owed) * statistics.median(setups)
        if elapsed + typical + reserve > seconds:
            break
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_only(workload))
    return passes, traced, setups


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)

    lint_root = ""
    if args.workload == "lint_self":
        try:
            lint_root, files, lines = prepare_lint_tree()
        except FrozenTreeError as exc:
            # Never fall back to the live tree: every operation fails.
            print(f"perfbench: frozen lint input unavailable: {exc}",
                  file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 3, "failed": 3,
                              "metrics": {}}))
            return 1
        print(f"lint input: src/repro as of 110045f, {files} files, "
              f"{lines} lines")

    passes, traced, setups = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace), lint_root)

    every = passes + ([traced] if traced is not None else [])
    ops = [op for one in every for op in one.ops()]
    # A phase whose worker died counts as one failed operation.
    crashed = [error for one in every for error in one.errors]
    attempted = len(ops) + len(crashed)
    failed = sum(1 for op in ops if not op["ok"]) + len(crashed)
    problems = list(crashed)
    problems += [f"{op['id']}: {op['error'] or 'check failed'}"
                 for op in ops if not op["ok"]]
    problems += mismatches(every)
    if traced is not None:
        problems += trace_problems(traced)

    timed = {phase: [t for t in (p.phase_seconds(phase) for p in passes)
                     if t is not None]
             for phase in workloads.PHASES[args.workload]}
    wall = timed[workloads.PHASES[args.workload][0]]
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)}"
          f"{' +1 traced' if traced else ''} ops={attempted} "
          f"ops_failed={failed} failed_ratio={failed / attempted:.6f} "
          f"digest={digest(args.seed, every[0])}")
    print("  pass_s = " + " ".join(f"{t:.3f}" for t in wall))
    for problem in problems:
        print(f"  problem: {problem.strip().splitlines()[-1]}")
    if not wall:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    if traced is None:
        calibration = [sample for one in passes
                       for sample in one.calibration()]
        print(f"  unscaled: setup_s = {statistics.median(setups)!r} s, "
              f"wall_s = {statistics.median(wall)!r} s, calibration_s = "
              f"{statistics.median(calibration)!r} s "
              f"(median of {len(calibration)})")
        values = {
            "setup_s": statistics.median(setups) * speed_factor(calibration),
            "wall_s": scaled_phase_s(passes,
                                     workloads.PHASES[args.workload][0]),
            "peak_rss_mb": max(
                statistics.median(p.phases[phase]["rss_mb"]
                                  for p in passes if phase in p.phases)
                for phase in timed if timed[phase]),
        }
        units = dict(END_TO_END)
        for phase in ("fill", "warm"):
            if timed.get(phase):
                print(f"  lint_{phase}_s = "
                      f"{scaled_phase_s(passes, phase)!r} s")
    else:
        values = layer_metrics(args.workload, passes[0], traced)
        units = dict(per_layer_metrics())
    for name, value in values.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

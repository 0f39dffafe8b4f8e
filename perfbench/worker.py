"""One phase of a workload in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/worker.py '<json config>'``.
The worker imports what the workload uses, writes ``ready`` to stdout
(the parent times spawn-to-ready as ``setup_s``), runs the phase's
operations one at a time, and writes a JSON result file.  Between
operations it times a fixed calibration kernel that uses no program
code, so the parent can tell how fast the machine ran (see
``run.speed_factor``).  With
``traced`` set it wraps the layer boundaries first and restores them
afterwards; end-to-end figures never come from a traced phase.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random
import resource
import sys
import time
import traceback
from typing import Iterator, List, Tuple

import workloads

#: Calibration takes this share of the time the operations take; the
#: samples land between operations, close in time to what they calibrate.
CALIBRATION_SHARE = 0.10
#: Samples taken before the first operation of a phase.
CALIBRATION_WARMUP = 3


def _resumer(n: int) -> Iterator[int]:
    total = 0
    for _ in range(n):
        total += yield total


def calibrate() -> float:
    """Seconds for one run of a fixed pure-Python kernel.

    Float arithmetic over a list (like weighted random draws) and
    generators resumed in turn beside a heap (like an event loop): the
    interpreter work the program itself does.  It runs no program code,
    so no change to the program changes its time.  The cyclic collector
    is off while it runs: its passes cost time in proportion to the
    program's heap.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        draws = random.Random(1)
        for _ in range(25):
            weights = [1.0 / (i + 1) ** 1.1 for i in range(2000)]
            point = draws.random() * sum(weights)
            acc = 0.0
            for weight in weights:
                acc += weight
                if acc >= point:
                    break
        heap: List[Tuple[int, int, int]] = []
        for turn in range(60):
            process = _resumer(200)
            next(process)
            for i in range(199):
                heapq.heappush(heap, (i * 7 % 13, turn, i))
                process.send(i)
            while heap:
                heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_phase(config: dict) -> dict:
    operations = workloads.operations(config["workload"], config["phase"],
                                      config["seed"], config["cache_dir"])
    tracer = installation = None
    if config["traced"]:
        import tracing
        tracing.import_boundary_modules()
        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
    records = []
    calibration = [calibrate() for _ in range(CALIBRATION_WARMUP)]
    spent = 0.0
    try:
        for op_id, operation in operations:
            error = None
            start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.operation(op_id):
                        ok, document, info = operation()
                else:
                    ok, document, info = operation()
            except Exception:  # an operation's failure must not stop the run
                ok, document, info = False, "", {}
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
            records.append({
                "id": op_id, "s": elapsed, "ok": ok, "error": error,
                "sha256": hashlib.sha256(document.encode("utf-8")).hexdigest(),
                "info": info,
            })
            spent += elapsed
            while sum(calibration) < CALIBRATION_SHARE * spent:
                calibration.append(calibrate())
    finally:
        if installation is not None:
            installation.restore()
    result = {
        "ops": records,
        "calibration_s": calibration,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        import tracing
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "extra": dict(tracer.extra),
            "distinct": {name: len(keys)
                         for name, keys in tracer.distinct.items()},
            "ops": tracing.breakdown(tracer),
            "unbalanced": tracer.unbalanced,
            "restored": installation.restored(),
        }
        with open(config["spans"], "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle, separators=(",", ":"))
    return result


def main() -> int:
    config = json.loads(sys.argv[1])
    sys.path.insert(0, config["src"])
    workloads.setup(config["workload"])
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    # Keep the ready pipe clean of anything the program prints.
    sys.stdout = sys.stderr
    if not config["phase"]:
        return 0
    result = run_phase(config)
    with open(config["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

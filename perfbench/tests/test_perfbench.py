"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The traced-pass fixture runs every workload once with tracing on (about
a minute), in worker processes like a real run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _declared():
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def traced_passes():
    """One untraced and one traced pass of every workload."""
    os.makedirs(run.WORK, exist_ok=True)
    lint_root = run.prepare_lint_tree()[0]
    passes = {}
    for workload in workloads.WORKLOADS:
        plain = run.run_pass(workload, 7, False, lint_root)
        traced = run.run_pass(workload, 7, True, lint_root)
        assert not plain.errors and not traced.errors, workload
        passes[workload] = (plain, traced)
    return passes


def test_declared_metrics_match_the_harness():
    declared = _declared()
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == \
        run.per_layer_metrics()
    assert [w["name"] for w in declared["workloads"]] == \
        list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         "scenario_matrix", "--seed", "7", "--seconds", "1", "--trace",
         str(trace)], cwd=run.ROOT, capture_output=True, text=True,
        timeout=170, check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == declared


def test_every_boundary_fires_on_its_workload(traced_passes):
    silent = []
    for boundary in tracing.BOUNDARIES:
        for workload in boundary.fires_on:
            traced = traced_passes[workload][1]
            calls = sum(phase["trace"]["calls"].get(boundary.name, 0)
                        for phase in traced.phases.values())
            if not calls:
                silent.append(f"{boundary.name} on {workload}")
    assert not silent


def test_self_times_are_non_negative_and_within_the_operation(traced_passes):
    for workload, (_, traced) in traced_passes.items():
        assert run.trace_problems(traced) == [], workload
        for phase in traced.phases.values():
            for op_id, entry in phase["trace"]["ops"].items():
                assert entry["min_self_s"] >= -1e-9, op_id
                assert entry["self_sum_s"] <= entry["total_s"] + 1e-6, op_id


def test_tracing_changes_no_output(traced_passes):
    for workload, (plain, traced) in traced_passes.items():
        assert run.digest(7, plain) == run.digest(7, traced), workload


def test_paper_layer_ratios(traced_passes):
    plain, traced = traced_passes["paper"]
    values = run.layer_metrics("paper", plain, traced)
    assert values["web.generate_site.calls"] == 43
    assert values["web.generate_site.distinct"] == 14


def test_lint_layer_ratios(traced_passes):
    plain, traced = traced_passes["lint_self"]
    values = run.layer_metrics("lint_self", plain, traced)
    assert values["analysis.files"] == 130
    assert values["analysis.cache.hit_ratio"] == 1.0
    assert values["analysis.parses"] >= values["analysis.files"]


def _bindings():
    """Every attribute a boundary can replace, with its current object."""
    seen = {}
    for module_name, module in sorted(sys.modules.items()):
        if module is not None and (module_name == "ast"
                                   or module_name.startswith("repro")):
            for attr, value in list(vars(module).items()):
                seen[(module_name, attr)] = value
    for boundary in tracing.BOUNDARIES:
        module_name, _, qualname = boundary.target.partition(":")
        if "." in qualname:
            class_name, method = qualname.split(".")
            cls = getattr(sys.modules[module_name], class_name)
            for sub in tracing._subclasses(cls):
                if method in vars(sub):
                    seen[(sub.__qualname__, method)] = vars(sub)[method]
    return seen


def test_install_and_restore_leaves_every_attribute_original():
    sys.path.insert(0, run.SRC)
    tracing.import_boundary_modules()
    before = _bindings()
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        assert len(installation.replaced) >= len(tracing.BOUNDARIES)
        from repro.bench.experiments import run_experiment
        with tracer.operation("E1"):
            run_experiment("E1", seed=7)
    finally:
        installation.restore()
    assert tracer.calls["web.generate_site"] > 0
    assert installation.restored()
    after = _bindings()
    changed = [key for key, value in before.items()
               if after.get(key) is not value]
    assert not changed


def test_frozen_tree_is_counted_and_checked(monkeypatch):
    os.makedirs(run.WORK, exist_ok=True)
    _, files, lines = run.prepare_lint_tree()
    assert files == 130 and lines > 20000
    monkeypatch.setattr(run, "FROZEN_TREE_SHA256", "0" * 64)
    with pytest.raises(run.FrozenTreeError):
        run.prepare_lint_tree()


def test_missing_frozen_tree_fails_every_lint_operation(monkeypatch, capsys):
    monkeypatch.setattr(run, "FROZEN_TREE",
                        os.path.join(run.WORK, "no-such-archive.tar.gz"))
    code = run.main(["--workload", "lint_self", "--seed", "1",
                     "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 3


def test_refuses_to_run_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "paper", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def _pass(calibration_s, **ops):
    one = run.Pass()
    one.phases["cells"] = {
        "ops": [{"id": op_id, "s": s} for op_id, s in ops.items()],
        "calibration_s": calibration_s}
    return one


def test_scaling_follows_machine_speed_and_drops_single_bursts():
    reference = run.REFERENCE_CALIBRATION_S
    slowdown = 2 ** run.SPEED_EXPONENT
    at_speed = _pass([reference] * 3, a=1.0, b=2.0)
    half_speed = _pass([2 * reference] * 3, a=slowdown, b=2 * slowdown)
    burst_in_b = _pass([reference] * 3, a=1.0, b=9.0)
    scaled = run.scaled_phase_s([at_speed, half_speed, burst_in_b], "cells")
    assert scaled == pytest.approx(3.0)
    # A slower program is not scaled away.
    slower = _pass([reference] * 3, a=1.5, b=3.0)
    assert run.scaled_phase_s([slower], "cells") == pytest.approx(4.5)
    assert run.scaled_phase_s([at_speed], "missing") is None


def test_excluded_variants_are_left_out_of_the_sweep():
    sys.path.insert(0, run.SRC)
    workloads.setup("scenario_matrix")
    from repro.suites.registry import get_plugin
    cells = {(cell.plugin,
              dict(cell.params)[get_plugin(cell.plugin).variant_param])
             for cell in workloads.scenario_cells()}
    assert len(cells) == 11
    assert not cells & workloads.EXCLUDED_VARIANTS

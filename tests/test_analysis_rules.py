"""Per-rule fixtures for the static analyzer (repro.analysis).

Every rule has a seeded fixture file under ``tests/fixtures/lint``
containing positive cases, negative (allowed) cases, and an inline
suppression; these tests pin the exact rule ids and line numbers the
analyzer must report, plus the scoping, suppression, fingerprint, and
baseline machinery.
"""

import os

import pytest

from repro.analysis import Analyzer, RULES, apply_baseline, load_baseline
from repro.analysis.baseline import write_baseline
from repro.analysis.findings import fingerprinted, sort_findings
from repro.analysis.rules import all_rule_ids

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")
CASES = os.path.join(FIXTURES, "cases")
SCOPED = os.path.join(FIXTURES, "scoped")


def lint_file(*parts):
    findings, _facts = Analyzer().analyze_file(os.path.join(*parts))
    return sort_findings(findings)


def rule_lines(findings, rule):
    return [f.line for f in findings if f.rule == rule]


def test_rule_pack_registered():
    ids = all_rule_ids()
    assert ids == ("DET001", "DET002", "DET003", "DET004", "DET005",
                   "DET006", "DUR001", "ERR001", "KER001", "MUT001",
                   "MUT002", "OBS001", "OBS002")
    assert len(RULES) == len(ids)


def test_det001_wall_clock():
    findings = lint_file(CASES, "det001_wallclock.py")
    assert rule_lines(findings, "DET001") == [8, 9]
    assert all(f.rule == "DET001" for f in findings)


def test_det002_unseeded_random():
    findings = lint_file(CASES, "det002_random.py")
    assert rule_lines(findings, "DET002") == [9, 10, 11, 12]
    assert all(f.rule == "DET002" for f in findings)


def test_det002_sanctuary_module_exempt():
    source = "import random\nx = random.random()\n"
    analyzer = Analyzer()
    assert analyzer.analyze_source(source, module="repro.sim.rng") == []
    outside = analyzer.analyze_source(source, module="repro.sim.network")
    assert [f.rule for f in outside] == ["DET002"]


def test_det003_env_scoped():
    findings = lint_file(SCOPED, "repro", "core", "env_read.py")
    assert rule_lines(findings, "DET003") == [9, 10]
    assert lint_file(SCOPED, "repro", "other", "env_ok.py") == []
    assert lint_file(CASES, "env_unscoped.py") == []


def test_det004_set_iteration():
    findings = lint_file(CASES, "det004_setiter.py")
    assert rule_lines(findings, "DET004") == [6, 8]
    assert all(f.rule == "DET004" for f in findings)


def test_det005_identity_order():
    findings = lint_file(CASES, "det005_identity.py")
    assert rule_lines(findings, "DET005") == [5, 6, 8, 9]
    assert all(f.rule == "DET005" for f in findings)


def test_det006_popitem():
    findings = lint_file(CASES, "det006_popitem.py")
    assert rule_lines(findings, "DET006") == [5]
    assert all(f.rule == "DET006" for f in findings)


def test_dur001_journal_bypass():
    findings = lint_file(CASES, "dur001_journal_bypass.py")
    assert rule_lines(findings, "DUR001") == [6, 7, 11, 12]
    assert all(f.rule == "DUR001" for f in findings)


def test_dur001_recovery_module_exempt():
    source = "firewall.dedup = image.dedup\n"
    analyzer = Analyzer()
    assert analyzer.analyze_source(
        source, module="repro.durability.recovery") == []
    outside = analyzer.analyze_source(
        source, module="repro.firewall.firewall")
    assert [f.rule for f in outside] == ["DUR001"]


def test_err001_broad_except():
    findings = lint_file(CASES, "err001_broad.py")
    assert rule_lines(findings, "ERR001") == [7, 12, 17]
    assert all(f.rule == "ERR001" for f in findings)


def test_ker001_kernel_bypass():
    findings = lint_file(CASES, "ker001_bypass.py")
    assert rule_lines(findings, "KER001") == [3, 5, 9]
    assert all(f.rule == "KER001" for f in findings)


def test_ker001_kernel_module_exempt():
    analyzer = Analyzer()
    source = "import heapq\n"
    assert analyzer.analyze_source(
        source, module="repro.sim.eventloop") == []
    outside = analyzer.analyze_source(source, module="repro.agent.context")
    assert [f.rule for f in outside] == ["KER001"]


def test_mut001_mutable_defaults():
    findings = lint_file(CASES, "mut001_defaults.py")
    assert rule_lines(findings, "MUT001") == [6, 11, 15]
    assert all(f.rule == "MUT001" for f in findings)


def test_mut002_missing_slots():
    findings = lint_file(CASES, "mut002_slots.py")
    assert rule_lines(findings, "MUT002") == [7, 13]
    assert all(f.rule == "MUT002" for f in findings)


def test_obs001_telemetry_facade():
    findings = lint_file(CASES, "obs001_facade.py")
    assert rule_lines(findings, "OBS001") == [10, 11, 12]
    assert all(f.rule == "OBS001" for f in findings)


def test_obs001_facade_module_exempt():
    source = ("from repro.obs.tracing import Tracer\n"
              "def build():\n"
              "    return Tracer(enabled=True)\n")
    analyzer = Analyzer()
    assert analyzer.analyze_source(
        source, module="repro.obs.telemetry") == []
    outside = analyzer.analyze_source(
        source, module="repro.wrappers.monitor")
    assert [f.rule for f in outside] == ["OBS001"]


def test_obs002_module_global_state():
    findings = lint_file(CASES, "obs002_module_state.py")
    assert rule_lines(findings, "OBS002") == [8, 9, 10, 11]
    # Line 9 binds a registry at module scope: both the facade rule and
    # the module-global rule apply, and the function-local and
    # suppressed constructions produce nothing.
    assert rule_lines(findings, "OBS001") == [9]
    assert {f.rule for f in findings} == {"OBS001", "OBS002"}


def test_file_wide_suppression():
    assert lint_file(CASES, "disable_file.py") == []


def test_fingerprints_survive_line_drift():
    source = open(os.path.join(CASES, "det006_popitem.py")).read()
    analyzer = Analyzer()
    before = fingerprinted(analyzer.analyze_source(source, path="x.py"))
    drifted = fingerprinted(analyzer.analyze_source(
        "\n\n\n" + source, path="x.py"))
    assert [f.fingerprint for f in before] == \
        [f.fingerprint for f in drifted]
    assert [f.line for f in before] != [f.line for f in drifted]


def test_fingerprints_distinguish_identical_lines():
    source = "d.popitem()\nd.popitem()\n"
    findings = fingerprinted(
        Analyzer().analyze_source(source, path="x.py"))
    assert len(findings) == 2
    assert findings[0].fingerprint != findings[1].fingerprint


def test_baseline_round_trip(tmp_path):
    path = os.path.join(CASES, "det006_popitem.py")
    report = Analyzer().analyze_paths([path])
    assert report.exit_code == 1
    baseline_path = str(tmp_path / "baseline.json")
    count = write_baseline(report.findings, baseline_path)
    assert count == len(report.findings) == 1
    apply_baseline(report, load_baseline(baseline_path))
    assert report.exit_code == 0
    assert all(f.baselined for f in report.findings)
    # A finding absent from the baseline still fails the gate.
    fresh = Analyzer().analyze_paths(
        [path, os.path.join(CASES, "det001_wallclock.py")])
    apply_baseline(fresh, load_baseline(baseline_path))
    assert fresh.exit_code == 1
    assert {f.rule for f in fresh.new_findings} == {"DET001"}


def test_bad_baseline_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(ValueError):
        load_baseline(str(bad))


def test_report_ordering_is_total():
    report = Analyzer().analyze_paths([CASES])
    keys = [f.sort_key() for f in report.findings]
    assert keys == sorted(keys)
    assert report.findings  # the fixture tree is not silently empty

"""Whole-program analysis: call graph, effect dataflow, witness chains.

Each interprocedural rule has a seeded fixture tree under
``tests/fixtures/lint/ipa`` where the *local* rule pack sees nothing
(the offending call is laundered through an alias, a
``functools.partial``, a cross-module hop, or a retry loop) and only
the project pass reports it — with the full call chain as a witness.
These tests pin the rule ids, lines, and witness hops per fixture, plus
the engine guarantees the workflow depends on: byte-determinism,
cold/warm cache equivalence, witness-independent fingerprints, and the
decorated-``def`` suppression span.
"""

import ast
import json
import os
import shutil

from repro.analysis import Analyzer, Dataflow, export_dot, export_json
from repro.analysis.findings import fingerprinted, render_json, sort_findings
from repro.analysis.iprules import all_project_rule_ids
from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")
IPA = os.path.join(FIXTURES, "ipa")


def lint_tree(*parts, **kwargs):
    analyzer = Analyzer(**kwargs)
    report = analyzer.analyze_paths([os.path.join(IPA, *parts)])
    return sort_findings(report.findings)


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


def witness_functions(finding):
    return [step.function for step in finding.witness]


def test_project_rule_pack_registered():
    assert sorted(all_project_rule_ids()) == [
        "ASY001", "DET001", "DET002", "DET003",
        "ERR002", "KER001", "WIRE001"]


def test_det001_transitive_through_module_alias():
    findings = lint_tree("det001_alias")
    assert [(f.rule, f.line) for f in findings] == [
        ("DET001", 16), ("DET001", 28)]
    transitive, local = findings
    # The laundered call carries the full chain: callers first, then
    # the hop where the wall-clock read actually happens.
    assert witness_functions(transitive) == [
        "pipeline.deliver", "pipeline.build_record", "pipeline.stamp"]
    assert "alias bound at line 12" in transitive.message
    # The honest time.time() call stays the local rule's finding.
    assert local.witness == ()


def test_det002_transitive_through_partial():
    findings = lint_tree("det002_partial")
    assert [(f.rule, f.line) for f in findings] == [("DET002", 15)]
    finding = findings[0]
    assert "functools.partial bound at line 11" in finding.message
    assert witness_functions(finding) == [
        "jitterlib.plan_backoff", "jitterlib.jitter"]


def test_det003_cross_module_env_read_scoped():
    findings = lint_tree("det003_env")
    # Only the repro.core entry point reports: the out-of-scope helper
    # module holding os.getenv is not itself a finding.
    assert [(f.rule, f.path.endswith("repro/core/config.py"), f.line)
            for f in findings] == [("DET003", True, 15)]
    finding = findings[0]
    assert witness_functions(finding) == [
        "repro.core.config.build_config",
        "repro.core.config.resolve_region",
        "repro.util.envsrc.deep_default_region",
        "repro.util.envsrc.default_region"]
    assert finding.witness[-1].note == "os.getenv()"


def test_ker001_transitive_heap_alias():
    findings = lint_tree("ker001_alias")
    assert [(f.rule, f.line) for f in findings] == [
        ("KER001", 9), ("KER001", 15)]
    local_import, transitive = findings
    assert local_import.witness == ()
    assert "heapq.heappush called through an alias" in transitive.message
    assert witness_functions(transitive) == [
        "heapuser.schedule_batch", "heapuser.enqueue"]


def test_err002_retry_burns_on_permanent_error():
    findings = lint_tree("err002_retry")
    assert [(f.rule, f.line) for f in findings] == [("ERR002", 31)]
    finding = findings[0]
    assert "AccessDeniedError" in finding.message
    assert "transient=False" in finding.message
    assert witness_functions(finding) == [
        "client.fetch_with_retries", "client.fetch_sealed",
        "client.open_channel"]
    assert "raises AccessDeniedError" in finding.witness[-1].note
    # Guarded, narrowed, and re-raising retry loops stay silent
    # (fetch_guarded / fetch_narrow / fetch_reraising in the fixture).


def test_wire001_reserved_folder_write_without_strip_path():
    findings = lint_tree("wire001_reserved")
    assert [(f.rule, f.line) for f in findings] == [("WIRE001", 12)]
    finding = findings[0]
    assert "TRACE-CONTEXT" in finding.message
    # inject/extract in repro.obs.propagation is the sanctioned pairing
    # and produces nothing; the mailer's stray write does.
    assert finding.path.endswith("repro/mailer.py")
    assert witness_functions(finding) == [
        "repro.mailer.send_with_trace", "repro.mailer.stamp_trace"]


def test_asy001_transport_clean_scope():
    findings = lint_tree("asy001_transport")
    assert [(f.rule, f.severity, f.line) for f in findings] == [
        ("ASY001", "warning", 17), ("ASY001", "warning", 30)]
    sim_coupled, blocking = findings
    assert "virtual time" in sim_coupled.message
    assert witness_functions(sim_coupled) == [
        "repro.core.retry.send_with_backoff", "repro.core.retry.backoff",
        "repro.sim.pacing.paced_wait"]
    assert "time.sleep" in blocking.message


def test_project_findings_are_byte_deterministic():
    analyzer = Analyzer()
    first = render_json(analyzer.analyze_paths([IPA]))
    second = render_json(Analyzer().analyze_paths([IPA]))
    assert first == second


def test_cold_and_warm_cache_are_byte_identical(tmp_path):
    cache = str(tmp_path / "facts-cache")
    cold = render_json(
        Analyzer(cache_dir=cache).analyze_paths([IPA]))
    assert os.listdir(cache)  # the cold run populated the cache
    warm_analyzer = Analyzer(cache_dir=cache)
    warm = render_json(warm_analyzer.analyze_paths([IPA]))
    uncached = render_json(Analyzer().analyze_paths([IPA]))
    assert cold == warm == uncached
    assert warm_analyzer.cache.hits > 0
    assert warm_analyzer.cache.misses == 0


def test_each_file_is_parsed_once(monkeypatch):
    """One ``analyze_paths`` run reads, parses and prepares every file
    once: the per-file rules and fact extraction share one tree."""
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        if str(filename).endswith(".py"):
            parsed.append(os.path.abspath(filename))
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    report = Analyzer().analyze_paths([IPA])
    assert len(report.analyzed) > 1
    assert sorted(parsed) == sorted(
        os.path.abspath(path) for path in report.analyzed)


def test_cache_invalidates_on_source_change(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(IPA, "det001_alias"), str(tree))
    cache = str(tmp_path / "cache")
    target = tree / "pipeline.py"
    before = Analyzer(cache_dir=cache).analyze_paths([str(tree)])
    target.write_text(target.read_text().replace(
        "_clock = time.time", "_clock = len"))
    after = Analyzer(cache_dir=cache).analyze_paths([str(tree)])
    assert [f.line for f in by_rule(before.findings, "DET001")] == [16, 28]
    assert [f.line for f in by_rule(after.findings, "DET001")] == [28]


def test_witness_does_not_feed_the_fingerprint(tmp_path):
    """A baselined transitive finding survives edits to its callers:
    the witness chain is reporting detail, not identity."""
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(IPA, "det001_alias"), str(tree))

    def transitive():
        report = Analyzer().analyze_paths([str(tree)])
        finding = fingerprinted(sort_findings(report.findings))[0]
        assert finding.rule == "DET001" and finding.witness
        return finding

    before = transitive()
    # Push the callers down two lines: every witness hop moves, but the
    # finding's own snippet and occurrence index do not.
    target = tree / "pipeline.py"
    target.write_text(target.read_text().replace(
        "def build_record(", "# shifted\n# shifted\ndef build_record("))
    after = transitive()
    assert [s.line for s in before.witness] != [s.line for s in after.witness]
    assert before.fingerprint == after.fingerprint


def test_suppression_spans_decorated_def_header():
    """``# lint: disable=RULE`` anywhere on a decorated ``def`` header
    (decorator lines through the ``def`` line) covers the whole
    statement — the decorator expression included."""
    deco = ("def deco(stamp):\n"
            "    def wrap(fn):\n"
            "        return fn\n"
            "    return wrap\n")
    analyzer = Analyzer()
    on_def = ("import time\n" + deco +
              "@deco(time.time())\n"
              "def f():  # lint: disable=DET001\n"
              "    return 1\n")
    assert analyzer.analyze_source(on_def) == []
    on_decorator = ("import time\n" + deco +
                    "@deco(1)  # lint: disable=DET001\n"
                    "def g(t=time.time()):\n"
                    "    return t\n")
    assert analyzer.analyze_source(on_decorator) == []
    unsuppressed = ("import time\n" + deco +
                    "@deco(time.time())\n"
                    "def h():\n"
                    "    return 1\n")
    assert [f.rule for f in analyzer.analyze_source(unsuppressed)] == \
        ["DET001"]


def test_graph_json_export_is_deterministic():
    analyzer = Analyzer()
    project = analyzer.build_project([IPA])
    flow = Dataflow(project)
    first = export_json(project, flow.effects)
    repeat = export_json(Analyzer().build_project([IPA]),
                         Dataflow(Analyzer().build_project([IPA])).effects)
    assert first == repeat
    document = json.loads(first)
    assert document["tool"] == "repro-lint-graph"
    assert document["summary"]["functions"] == len(document["nodes"])
    by_name = {node["function"]: node for node in document["nodes"]}
    assert "reads-wall-clock" in by_name["pipeline.stamp"]["effects"]
    assert any(edge["from"] == "pipeline.deliver"
               and edge["to"] == "pipeline.build_record"
               for edge in document["edges"])


def test_graph_cli_flags(tmp_path, capsys):
    code = main(["lint", IPA, "--graph", "json", "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["tool"] == "repro-lint-graph"
    code = main(["lint", IPA, "--graph", "dot", "--no-baseline"])
    dot = capsys.readouterr().out
    assert code == 0
    assert dot.startswith("digraph callgraph {")
    assert '"pipeline.deliver" -> "pipeline.build_record";' in dot


def test_cli_json_includes_witness_and_sarif_related_locations(
        tmp_path, capsys):
    sarif_path = str(tmp_path / "ipa.sarif")
    code = main(["lint", os.path.join(IPA, "det003_env"), "--json",
                 "--no-baseline", "--sarif", sarif_path])
    out = capsys.readouterr().out
    assert code == 1
    finding = json.loads(out)["findings"][0]
    assert [step["function"] for step in finding["witness"]][-1] == \
        "repro.util.envsrc.default_region"
    sarif = json.loads(open(sarif_path).read())
    result = sarif["runs"][0]["results"][0]
    assert len(result["relatedLocations"]) == 4
    rule_ids = {rule["id"] for rule in
                sarif["runs"][0]["tool"]["driver"]["rules"]}
    # Interprocedural-only rules are declared to the SARIF viewer too.
    assert {"ERR002", "WIRE001", "ASY001"} <= rule_ids

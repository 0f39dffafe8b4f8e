"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``experiments [E1 E2 ...]`` — run the paper-reproduction experiments
  and print paper-vs-measured tables (all of them by default);
- ``crawl`` — one ad-hoc link-check comparison (stationary vs mobile)
  on a synthetic site with configurable scale and network;
- ``site`` — generate a synthetic site and print its statistics;
- ``trace`` — run the traced quickstart itinerary and export the span
  trace as Chrome ``trace_event`` JSON (Perfetto-loadable) or JSONL;
- ``suite`` — the declarative experiment-suite runner
  (``repro.suites``).  ``suite run FILE`` executes a YAML/JSON-declared
  parameter matrix over the registered scenario plugins (chaos,
  partition, crashtest, overload, experiment) and prints one canonical
  suite document — per-cell seeds derive from the suite seed and the
  cell identity, so the document is a pure function of ``(FILE,
  --seed)`` and CI diffs two runs byte-for-byte; exits non-zero if any
  cell's invariant checks fail.  ``suite list`` shows the plugins and
  their named variants (or, given a file, its expanded cells with
  derived seeds); ``suite validate FILE`` checks a suite file without
  running it;
- ``run CELL_ID`` — run one suite cell standalone, e.g. ``repro run
  'partition[scenario=split-brain,seed=7]'``, and print the plugin's
  canonical document.  Parameters left out of the id take their
  defaults; without ``seed=`` in the id the cell seed derives from
  ``--seed`` exactly as in ``suite run``, so the output is the cell's
  document from the suite run.  Exits 0 when the cell's checks pass, 1
  when one fails (each failed check goes to stderr), 2 on a bad id;
- ``report`` — run the traced quickstart itinerary and print the
  per-trace itinerary + SLO report as canonical JSON (``--json``/
  ``--html`` also write the document and a self-contained HTML
  rendering to files).  The stdout JSON is a pure function of the
  scenario: CI runs the command twice and diffs byte-for-byte;
- ``metrics`` — run the traced quickstart and print the metrics
  registry as OpenMetrics text (histograms with cumulative buckets,
  ``# EOF`` terminated).  Deterministic like ``report``; CI diffs two
  runs byte-for-byte;
- ``lint`` — run the determinism/safety rule pack (``repro.analysis``)
  over the source tree and print findings as text, canonical JSON
  (``--json``) or SARIF (``--sarif FILE``).  Findings matching the
  committed baseline (``lint-baseline.json``) are reported but do not
  fail the gate; ``--sanitize`` additionally runs the reference
  scenarios under the briefcase-aliasing sanitizer and merges its
  findings into the same document.  Output is a pure function of the
  tree: CI runs the command twice and diffs byte-for-byte.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.runner import main as experiments_main


def _cmd_crawl(args: argparse.Namespace) -> int:
    from repro.mining.strategies import (
        CrawlTask, run_mobile, run_stationary)
    from repro.system.bootstrap import build_linkcheck_testbed
    from repro.web.site import SiteSpec

    spec = SiteSpec(host="www.cs.uit.no", n_pages=args.pages,
                    total_bytes=args.bytes,
                    external_hosts=("www.w3.org", "www.cornell.edu"),
                    seed=args.seed)
    testbed = build_linkcheck_testbed(
        spec=spec, bandwidth=args.bandwidth_mbit * 1_000_000 / 8,
        latency=args.latency_ms / 1000.0)
    site = testbed.site_of(spec.host)
    print(f"site: {site.n_pages} pages, {site.total_bytes:,d} bytes, "
          f"{site.truth.dead_total} planted dead links")
    task = CrawlTask.for_site(site, max_depth=args.max_depth)
    rows = []
    if args.strategy in ("stationary", "both"):
        rows.append(run_stationary(testbed, [task]))
    if args.strategy in ("mobile", "both"):
        rows.append(run_mobile(testbed, [task], monitor=args.monitor))
    for metrics in rows:
        print(metrics.summary_row())
    if len(rows) == 2:
        ratio = rows[0].elapsed_seconds / rows[1].elapsed_seconds
        print(f"speedup (stationary/mobile): {ratio:.3f}")
    return 0


def _cmd_site(args: argparse.Namespace) -> int:
    from repro.web.site import SiteSpec, generate_site

    spec = SiteSpec(host=args.host, n_pages=args.pages,
                    total_bytes=args.bytes, seed=args.seed,
                    external_hosts=("www.w3.org",),
                    redirect_fraction=args.redirects,
                    robots_disallow=("/private",) if args.robots else (),
                    private_pages=5 if args.robots else 0)
    site = generate_site(spec)
    truth = site.truth
    print(f"host          : {site.host}")
    print(f"pages         : {site.n_pages}")
    print(f"bytes         : {site.total_bytes:,d}")
    print(f"dead internal : {len(truth.dead_internal)}")
    print(f"dead external : {len(truth.dead_external)}")
    print(f"redirects     : {len(site.redirects)} "
          f"({len(truth.redirect_dead)} dead)")
    print(f"robots rules  : "
          f"{site.robots_txt.count('Disallow') if site.robots_txt else 0}")
    for depth in (1, 2, 4, 8):
        print(f"pages within depth {depth}: "
              f"{truth.pages_within_depth(depth)}")
    if args.show_truth:
        for src, href in truth.dead_internal:
            print(f"  dead: {src} -> {href}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.demo import run_traced_quickstart

    cluster, result = run_traced_quickstart()
    tracer = cluster.telemetry.tracer
    greetings = result.folder("GREETINGS").texts()
    print(f"quickstart itinerary finished at t={cluster.kernel.now:.4f}s "
          f"virtual; {len(greetings)} greetings, "
          f"{len(tracer.spans)} spans, {len(tracer.instants)} instants")
    wrote = False
    try:
        if args.chrome:
            n = tracer.export_chrome(args.chrome)
            print(f"wrote {n} trace events to {args.chrome} "
                  "(load in https://ui.perfetto.dev)")
            wrote = True
        if args.jsonl:
            n = tracer.export_jsonl(args.jsonl)
            print(f"wrote {n} JSONL rows to {args.jsonl}")
            wrote = True
    except OSError as exc:
        print(f"cannot write trace: {exc}", file=sys.stderr)
        return 1
    if not wrote:
        print("(no output file requested; use --chrome and/or --jsonl)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.demo import run_traced_quickstart
    from repro.obs.report import (
        build_report, render_report_html, render_report_json)

    cluster, _ = run_traced_quickstart()
    document = build_report(cluster.telemetry,
                            meta={"scenario": "traced-quickstart"})
    rendered = render_report_json(document)
    print(rendered)
    try:
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
            print(f"wrote report JSON to {args.json_path}",
                  file=sys.stderr)
        if args.html_path:
            with open(args.html_path, "w", encoding="utf-8") as handle:
                handle.write(render_report_html(document))
            print(f"wrote report HTML to {args.html_path}",
                  file=sys.stderr)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.demo import run_traced_quickstart
    from repro.obs.openmetrics import render_openmetrics

    cluster, _ = run_traced_quickstart()
    rendered = render_openmetrics(cluster.telemetry.metrics.snapshot())
    print(rendered, end="")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"cannot write metrics: {exc}", file=sys.stderr)
            return 1
        print(f"wrote OpenMetrics text to {args.out}", file=sys.stderr)
    return 0


def _print_name_table(names, descriptions) -> None:
    width = max(len(name) for name in names)
    for name in names:
        print(f"  {name:<{width}}  {descriptions.get(name, '')}")


def _report_failures(cells, suite_seed: int) -> int:
    """Print every failed check of ``cells`` (suite-document envelopes)
    with its observed value, and the command that re-runs the cell on
    its own, to stderr.  Returns the exit code: 1 if any cell failed."""
    import json

    failed = [cell for cell in cells if cell["status"] == "failed"]
    for cell in failed:
        for check in cell["checks"]:
            if not check["ok"]:
                observed = json.dumps(check["value"], sort_keys=True)
                print(f"FAILED {cell['id']}: {check['check']} "
                      f"(observed {observed})", file=sys.stderr)
        print(f"  reproduce: repro run '{cell['id']}' --seed {suite_seed}",
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.suites import SuiteError, get_plugin, parse_cell_id, run_cell

    try:
        cell = parse_cell_id(args.cell_id)
    except SuiteError as exc:
        print(f"repro run: {exc}", file=sys.stderr)
        print("(use `repro suite list` to see the plugins and their "
              "variants)", file=sys.stderr)
        return 2
    envelope = run_cell(cell, args.seed)
    print(get_plugin(cell.plugin).render(envelope["document"]))
    return _report_failures([envelope], args.seed)


def _default_lint_paths() -> List[str]:
    """The installed ``repro`` package tree (works from any cwd)."""
    import os

    import repro
    return [os.path.dirname(os.path.abspath(repro.__file__))]


def _default_baseline_path() -> str:
    """``lint-baseline.json`` at the repository root (two levels above
    the package: ``<root>/src/repro``)."""
    import os

    import repro
    package = os.path.dirname(os.path.abspath(repro.__file__))
    root = os.path.dirname(os.path.dirname(package))
    return os.path.join(root, "lint-baseline.json")


def _cmd_lint(args: argparse.Namespace) -> int:
    import os

    from repro.analysis import (
        Analyzer,
        SANITIZER_RULES,
        apply_baseline,
        load_baseline,
        render_json,
        render_sarif,
        render_text,
        rule_index,
        run_sanitized_scenarios,
        write_baseline,
    )
    from repro.analysis.findings import fingerprinted

    paths = list(args.paths) or _default_lint_paths()
    analyzer = Analyzer(cache_dir=args.cache)

    if args.graph:
        from repro.analysis.callgraph import export_dot, export_json
        from repro.analysis.dataflow import Dataflow

        try:
            project = analyzer.build_project(paths)
        except (OSError, SyntaxError) as exc:
            print(f"lint: cannot analyze: {exc}", file=sys.stderr)
            return 2
        flow = Dataflow(project)
        render = export_dot if args.graph == "dot" else export_json
        print(render(project, flow.effects), end="")
        return 0

    try:
        report = analyzer.analyze_paths(paths)
    except (OSError, SyntaxError) as exc:
        print(f"lint: cannot analyze: {exc}", file=sys.stderr)
        return 2

    if args.sanitize:
        runtime = run_sanitized_scenarios()
        report.findings = fingerprinted(
            list(report.findings) + list(runtime))
        report.analyzed.extend(
            sorted({f.path for f in runtime}))

    baseline_path = args.baseline or _default_baseline_path()
    if args.write_baseline:
        count = write_baseline(report.findings, baseline_path)
        print(f"wrote baseline with {count} finding(s) to {baseline_path}")
        return 0
    if not args.no_baseline and os.path.isfile(baseline_path):
        try:
            apply_baseline(report, load_baseline(baseline_path))
        except (OSError, ValueError) as exc:
            print(f"lint: bad baseline {baseline_path}: {exc}",
                  file=sys.stderr)
            return 2

    if args.sarif:
        from repro.analysis.iprules import project_rule_index

        index = dict(rule_index())
        index.update(project_rule_index())
        index.update(SANITIZER_RULES)
        try:
            with open(args.sarif, "w", encoding="utf-8") as handle:
                handle.write(render_sarif(report, index))
        except OSError as exc:
            print(f"lint: cannot write SARIF: {exc}", file=sys.stderr)
            return 2
    print(render_json(report) if args.json else render_text(report),
          end="")
    return report.exit_code


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.suites import (SuiteError, cell_seed, get_plugin,
                              load_suite, plugin_descriptions,
                              plugin_names, render_suite_json, run_suite)

    def load():
        try:
            return load_suite(args.file)
        except SuiteError as exc:
            print(f"repro suite: {exc}", file=sys.stderr)
            return None

    if args.suite_command == "list":
        if not args.file:
            print("scenario plugins:")
            _print_name_table(plugin_names(), plugin_descriptions())
            for name in plugin_names():
                plugin = get_plugin(name)
                variants = [str(v) for v in plugin.variants()]
                if not variants:
                    continue
                print(f"{name}[{plugin.variant_param}=...]:")
                if plugin.variant_descriptions:
                    _print_name_table(variants,
                                      plugin.variant_descriptions)
                else:
                    print(f"  {', '.join(variants)}")
            return 0
        spec = load()
        if spec is None:
            return 2
        print(f"suite {spec.name!r} ({spec.source}): "
              f"{len(spec.cells)} cell(s), seed {spec.seed}, "
              f"early_stop {spec.early_stop}")
        for index, cell in enumerate(spec.cells):
            print(f"  [{index}] {cell.cell_id} "
                  f"seed={cell_seed(spec.seed, cell)}")
        return 0

    spec = load()
    if spec is None:
        return 2
    if args.suite_command == "validate":
        print(f"{spec.source}: OK — suite {spec.name!r}, "
              f"{len(spec.cells)} cell(s)")
        return 0

    document = run_suite(spec, seed=args.seed,
                         include_documents=not args.digests_only)
    rendered = render_suite_json(document)
    print(rendered)
    if args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
        except OSError as exc:
            print(f"cannot write {args.json_path}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"wrote suite document to {args.json_path}",
              file=sys.stderr)
    code = _report_failures(document["cells"], document["seed"])
    summary = document["summary"]
    print(f"suite {spec.name!r}: {summary['passed']}/"
          f"{summary['planned']} passed, {summary['failed']} failed, "
          f"{summary['skipped']} skipped", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TAX 2.0 / wrapped-Webbot reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiments",
                         help="run the paper-reproduction experiments")
    exp.add_argument("ids", nargs="*", default=[],
                     help="experiment ids (default: all)")
    exp.add_argument("--seed", type=int, default=2000)
    exp.add_argument("--json", dest="json_path", default=None,
                     help="also write machine-readable results here")

    crawl = sub.add_parser("crawl", help="ad-hoc link-check comparison")
    crawl.add_argument("--pages", type=int, default=200)
    crawl.add_argument("--bytes", type=int, default=650_000)
    crawl.add_argument("--bandwidth-mbit", type=float, default=100.0)
    crawl.add_argument("--latency-ms", type=float, default=0.5)
    crawl.add_argument("--max-depth", type=int, default=12)
    crawl.add_argument("--strategy",
                       choices=("stationary", "mobile", "both"),
                       default="both")
    crawl.add_argument("--monitor", action="store_true")
    crawl.add_argument("--seed", type=int, default=2000)

    site = sub.add_parser("site", help="generate and describe a site")
    site.add_argument("--host", default="www.cs.uit.no")
    site.add_argument("--pages", type=int, default=917)
    site.add_argument("--bytes", type=int, default=3_000_000)
    site.add_argument("--seed", type=int, default=2000)
    site.add_argument("--redirects", type=float, default=0.0)
    site.add_argument("--robots", action="store_true")
    site.add_argument("--show-truth", action="store_true")

    trace = sub.add_parser(
        "trace", help="run the traced quickstart and export the spans")
    trace.add_argument("--chrome", default=None, metavar="OUT.json",
                       help="write a Chrome trace_event document here")
    trace.add_argument("--jsonl", default=None, metavar="OUT.jsonl",
                       help="write the span/instant rows as JSONL here")

    report = sub.add_parser(
        "report",
        help="run the traced quickstart; print the itinerary/SLO report")
    report.add_argument("--json", dest="json_path", default=None,
                        metavar="REPORT.json",
                        help="also write the canonical JSON document here")
    report.add_argument("--html", dest="html_path", default=None,
                        metavar="REPORT.html",
                        help="also write a self-contained HTML rendering")

    metrics = sub.add_parser(
        "metrics",
        help="run the traced quickstart; print OpenMetrics text")
    metrics.add_argument("--out", default=None, metavar="METRICS.txt",
                         help="also write the OpenMetrics text here")

    run = sub.add_parser(
        "run",
        help="run one suite cell standalone; print its document")
    run.add_argument("cell_id", metavar="CELL_ID",
                     help="plugin[k=v,...] as printed by `suite list FILE` "
                          "and in suite documents; add seed=N to pin the "
                          "cell seed")
    run.add_argument("--seed", type=int, default=7,
                     help="suite seed the cell seed derives from when the "
                          "id pins none (default 7, as in suite files)")

    suite = sub.add_parser(
        "suite",
        help="run/list/validate declarative experiment suites")
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)
    suite_run = suite_sub.add_parser(
        "run", help="execute a suite file; print the canonical suite "
                    "document; exit non-zero if any cell check fails")
    suite_run.add_argument("file", help="suite file (.yaml/.yml/.json)")
    suite_run.add_argument("--seed", type=int, default=None,
                           help="override the suite file's seed")
    suite_run.add_argument("--json", dest="json_path", default=None,
                           metavar="SUITE.json",
                           help="also write the suite document here "
                                "(the CI artifact)")
    suite_run.add_argument("--digests-only", action="store_true",
                           help="omit the raw per-cell documents; keep "
                                "only their digests and check verdicts")
    suite_list = suite_sub.add_parser(
        "list", help="list the scenario plugins, or a file's expanded "
                     "cells with their derived seeds")
    suite_list.add_argument("file", nargs="?", default=None,
                            help="optional suite file to expand")
    suite_validate = suite_sub.add_parser(
        "validate", help="validate a suite file without running it")
    suite_validate.add_argument("file",
                                help="suite file (.yaml/.yml/.json)")

    lint = sub.add_parser(
        "lint",
        help="run the determinism/safety rule pack over the tree")
    lint.add_argument("paths", nargs="*", default=[],
                      help="files/directories to analyze (default: the "
                           "installed repro package tree)")
    lint.add_argument("--json", action="store_true",
                      help="print the canonical JSON document instead "
                           "of text")
    lint.add_argument("--sarif", default=None, metavar="OUT.sarif",
                      help="also write a SARIF 2.1.0 document here")
    lint.add_argument("--baseline", default=None,
                      metavar="BASELINE.json",
                      help="baseline file (default: lint-baseline.json "
                           "at the repository root)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline: every finding fails "
                           "the gate")
    lint.add_argument("--write-baseline", action="store_true",
                      help="write the current findings as the baseline "
                           "and exit 0")
    lint.add_argument("--sanitize", action="store_true",
                      help="also run the reference scenarios under the "
                           "briefcase-aliasing sanitizer")
    lint.add_argument("--graph", default=None, choices=("dot", "json"),
                      help="print the module-qualified call graph with "
                           "propagated effects instead of findings")
    lint.add_argument("--cache", default=None, metavar="DIR",
                      help="per-module facts cache directory (keyed by "
                           "source content hash; output is byte-"
                           "identical with or without it)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiments":
        forwarded = list(args.ids) + ["--seed", str(args.seed)]
        if args.json_path:
            forwarded += ["--json", args.json_path]
        return experiments_main(forwarded)
    if args.command == "crawl":
        return _cmd_crawl(args)
    if args.command == "site":
        return _cmd_site(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "suite":
        return _cmd_suite(args)
    if args.command == "lint":
        return _cmd_lint(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())

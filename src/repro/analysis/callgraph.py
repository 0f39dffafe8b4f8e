"""The module-qualified call graph over extracted :class:`ModuleFacts`.

Resolution is a pure function of the facts: dotted references are
chased through each module's import-alias table (so package re-exports
like ``repro.obs.Tracer`` land on ``repro.obs.tracing.Tracer``), method
calls are resolved along a best-effort MRO over project classes, class
constructions resolve to the ``__init__`` actually inherited, and
everything else becomes an honest ``unknown``-kind edge — the dataflow
pass treats unknown callees as effect-free rather than guessing.

Determinism: nodes and adjacency lists are sorted wherever an order is
observable; the dot/json exports are byte-stable pure functions of the
graph (CI uploads the json form as an artifact).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.symbols import ClassFacts, FunctionFacts, ModuleFacts

#: Bare names that resolve to builtins with analyzer-known behaviour;
#: any other dot-free external target is an unknown callee.
_KNOWN_BUILTINS = frozenset({
    "input", "print", "len", "sorted", "min", "max", "sum", "abs",
    "range", "enumerate", "zip", "map", "filter", "repr", "str", "int",
    "float", "bool", "bytes", "bytearray", "list", "dict", "set",
    "tuple", "frozenset", "type", "isinstance", "issubclass", "getattr",
    "setattr", "hasattr", "iter", "next", "open", "id", "hash", "round",
    "divmod", "vars", "super", "format", "ord", "chr", "any", "all",
    "reversed", "memoryview", "slice", "object", "callable",
})

_RESOLVE_DEPTH_LIMIT = 16


@dataclass(frozen=True)
class Edge:
    """One call edge out of a function."""

    line: int
    col: int
    #: ``"call"`` (project function), ``"external"`` (classified
    #: non-project target), or ``"unknown"`` (honest unresolved).
    kind: str
    #: Callee function qname / external dotted target / raw text.
    callee: str
    #: ``""`` | ``"alias"`` | ``"partial"`` | ``"decorator"``.
    via: str = ""
    bind_line: int = 0
    nargs: int = 0
    snippet: str = ""


class Project:
    """The whole-program view: facts, indexes, and the call graph, plus
    the per-file findings and display paths of the run that built it."""

    def __init__(self, modules: Mapping[str, ModuleFacts],
                 findings: Iterable[Finding],
                 analyzed: Iterable[str]) -> None:
        self.findings: List[Finding] = list(findings)
        self.analyzed: List[str] = list(analyzed)
        #: module name -> facts, insertion in sorted module order.
        self.modules: Dict[str, ModuleFacts] = {
            name: modules[name] for name in sorted(modules)}
        self.functions: Dict[str, FunctionFacts] = {}
        self.classes: Dict[str, ClassFacts] = {}
        for facts in self.modules.values():
            for function in facts.functions:
                self.functions[function.qname] = function
            for klass in facts.classes:
                self.classes[klass.qname] = klass
        #: caller qname -> edges in call-site order.
        self.graph: Dict[str, Tuple[Edge, ...]] = {}
        #: callee qname -> sorted caller qnames (filled by build()).
        self.callers: Dict[str, Tuple[str, ...]] = {}
        self._resolve_cache: Dict[str, Tuple[str, str]] = {}
        self._build()

    # -- name resolution ----------------------------------------------------

    def module_facts(self, qname: str) -> Optional[ModuleFacts]:
        function = self.functions.get(qname)
        if function is None:
            return None
        return self.modules.get(function.module)

    def resolve(self, dotted: str) -> Tuple[str, str]:
        """Resolve a dotted reference to ``(kind, name)`` where kind is
        ``"function"``, ``"class"``, or ``"external"``.

        Chases package re-exports through module alias tables with a
        depth cap; anything unresolved is external (by its final
        normalized spelling).
        """
        cached = self._resolve_cache.get(dotted)
        if cached is not None:
            return cached
        result = self._resolve_uncached(dotted)
        self._resolve_cache[dotted] = result
        return result

    def _resolve_uncached(self, dotted: str) -> Tuple[str, str]:
        current = dotted
        for _ in range(_RESOLVE_DEPTH_LIMIT):
            if current in self.functions:
                return ("function", current)
            if current in self.classes:
                return ("class", current)
            if "." not in current:
                break
            prefix, leaf = current.rsplit(".", 1)
            # Method reference spelled through the class.
            if prefix in self.classes:
                method = self.resolve_method(prefix, leaf)
                if method is not None:
                    return ("function", method)
                return ("external", current)
            # Re-export: prefix is a project module aliasing the leaf.
            module = self.modules.get(prefix)
            if module is not None:
                alias = module.aliases.get(leaf)
                if alias is not None and alias != current:
                    current = alias
                    continue
                bound = module.module_aliases.get(leaf)
                if bound is not None and bound[0] != current:
                    current = bound[0]
                    continue
            break
        return ("external", current)

    def mro(self, class_qname: str) -> List[str]:
        """Best-effort linearization: the class then its (project)
        bases depth-first, left-to-right, deduplicated."""
        order: List[str] = []
        seen: Set[str] = set()
        stack: List[str] = [class_qname]
        while stack:
            name = stack.pop(0)
            if name in seen:
                continue
            seen.add(name)
            klass = self.classes.get(name)
            if klass is None:
                kind, resolved = self.resolve(name)
                if kind != "class":
                    continue
                name = resolved
                if name in seen:
                    continue
                seen.add(name)
                klass = self.classes[name]
            order.append(name)
            stack = list(klass.bases) + stack
        return order

    def resolve_method(self, class_qname: str,
                       method: str) -> Optional[str]:
        for klass in self.mro(class_qname):
            candidate = f"{klass}.{method}"
            if candidate in self.functions:
                return candidate
            facts = self.classes.get(klass)
            if facts is not None:
                alias = facts.attr_aliases.get(method)
                if alias is not None:
                    kind, resolved = self.resolve(alias[0])
                    if kind == "function":
                        return resolved
        return None

    def class_transient(self, class_qname: str) -> str:
        """The error taxonomy's ``transient`` marker along the MRO:
        ``"true"``/``"false"``/``"none"`` or ``"unset"``."""
        for klass in self.mro(class_qname):
            facts = self.classes.get(klass)
            if facts is not None and facts.transient != "unset":
                return facts.transient
        return "unset"

    # -- graph construction -------------------------------------------------

    def _build(self) -> None:
        for qname in sorted(self.functions):
            function = self.functions[qname]
            edges = [self._edge_for(call.line, call.col, call.kind,
                                    call.target, call.via, call.bind_line,
                                    call.nargs, call.snippet)
                     for call in function.calls]
            self.graph[qname] = tuple(edges)
        reverse: Dict[str, Set[str]] = {}
        for caller, edges in self.graph.items():
            for edge in edges:
                if edge.kind == "call":
                    reverse.setdefault(edge.callee, set()).add(caller)
        self.callers = {callee: tuple(sorted(callers))
                        for callee, callers in sorted(reverse.items())}

    def _edge_for(self, line: int, col: int, kind: str, target: str,
                  via: str, bind_line: int, nargs: int,
                  snippet: str) -> Edge:
        if kind == "unknown":
            return Edge(line, col, "unknown", target, via, bind_line,
                        nargs, snippet)
        if kind == "method":
            class_qname, method = target.rsplit(".", 1)
            resolved_kind, resolved = self.resolve(class_qname)
            if resolved_kind == "class":
                found = self.resolve_method(resolved, method)
                if found is not None:
                    return Edge(line, col, "call", found, via, bind_line,
                                nargs, snippet)
            return Edge(line, col, "unknown", target, via, bind_line,
                        nargs, snippet)
        resolved_kind, resolved = self.resolve(target)
        if resolved_kind == "function":
            return Edge(line, col, "call", resolved, via, bind_line,
                        nargs, snippet)
        if resolved_kind == "class":
            init = self.resolve_method(resolved, "__init__")
            if init is not None:
                return Edge(line, col, "call", init, via, bind_line,
                            nargs, snippet)
            return Edge(line, col, "external", f"{resolved}()", via,
                        bind_line, nargs, snippet)
        if "." not in resolved and resolved not in _KNOWN_BUILTINS:
            return Edge(line, col, "unknown", resolved, via, bind_line,
                        nargs, snippet)
        return Edge(line, col, "external", resolved, via, bind_line,
                    nargs, snippet)

    # -- reachability (WIRE001 and friends) ---------------------------------

    def reaches(self, roots: Iterable[str],
                reverse: bool = False) -> Set[str]:
        """Functions transitively connected to ``roots`` along call
        edges — callees of roots (forward) or callers of roots
        (``reverse=True``); includes the roots themselves."""
        seen: Set[str] = set()
        stack = sorted(set(roots))
        while stack:
            qname = stack.pop()
            if qname in seen or qname not in self.functions:
                continue
            seen.add(qname)
            if reverse:
                stack.extend(self.callers.get(qname, ()))
            else:
                stack.extend(edge.callee for edge in self.graph[qname]
                             if edge.kind == "call")
        return seen


# -- export -----------------------------------------------------------------


def export_json(project: Project,
                effects: Optional[Mapping[str, Mapping[str, object]]] = None
                ) -> str:
    """The canonical graph document (sorted keys, trailing newline)."""
    nodes = []
    for qname in sorted(project.functions):
        function = project.functions[qname]
        node: Dict[str, object] = {
            "function": qname,
            "module": function.module,
            "path": function.path,
            "line": function.line,
        }
        if effects is not None:
            node["effects"] = sorted(effects.get(qname, {}))
        nodes.append(node)
    edges = []
    for caller in sorted(project.graph):
        for edge in project.graph[caller]:
            entry: Dict[str, object] = {
                "from": caller,
                "to": edge.callee,
                "kind": edge.kind,
                "line": edge.line,
            }
            if edge.via:
                entry["via"] = edge.via
            edges.append(entry)
    edges.sort(key=lambda e: (str(e["from"]), int(str(e["line"])),
                              str(e["to"]), str(e["kind"])))
    document = {
        "version": 1,
        "tool": "repro-lint-graph",
        "nodes": nodes,
        "edges": edges,
        "summary": {
            "functions": len(nodes),
            "call_edges": sum(1 for e in edges if e["kind"] == "call"),
            "external_edges": sum(1 for e in edges
                                  if e["kind"] == "external"),
            "unknown_edges": sum(1 for e in edges
                                 if e["kind"] == "unknown"),
        },
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def export_dot(project: Project,
               effects: Optional[Mapping[str, Mapping[str, object]]] = None
               ) -> str:
    """A Graphviz rendering of the project-internal call graph.

    External/unknown callees are collapsed away; unknown-callee edges
    are kept (dashed) so blind spots stay visible in review.
    """
    def quote(name: str) -> str:
        return '"' + name.replace('"', '\\"') + '"'

    lines = ["digraph callgraph {", "  rankdir=LR;",
             '  node [shape=box, fontsize=10];']
    for qname in sorted(project.functions):
        attrs = []
        if effects is not None and effects.get(qname):
            tags = ",".join(sorted(effects[qname]))
            attrs.append(f'xlabel="{tags}"')
        attrs_text = (" [" + ", ".join(attrs) + "]") if attrs else ""
        lines.append(f"  {quote(qname)}{attrs_text};")
    for caller in sorted(project.graph):
        seen: Set[Tuple[str, str]] = set()
        for edge in project.graph[caller]:
            if edge.kind == "external":
                continue
            style = ' [style=dashed, label="?"]' \
                if edge.kind == "unknown" else ""
            key = (edge.callee, edge.kind)
            if key in seen:
                continue
            seen.add(key)
            lines.append(f"  {quote(caller)} -> {quote(edge.callee)}"
                         f"{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"

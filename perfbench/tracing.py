"""Span tracing around the program's layer boundaries, from outside it.

The traced run wraps the public functions and methods listed in
:data:`BOUNDARIES` with timing shims, runs the workload, and restores
every attribute it replaced.  Nothing in ``src/`` is edited: a function
is wrapped under every name a loaded ``repro`` module binds it to (the
name the caller looks up), and a method is wrapped on its class and on
every subclass that overrides it.

Span model:

* every operation is a root span carrying the operation id;
* a call to a wrapped boundary is a child span of the innermost open
  span (name, start, end, parent);
* a *leaf* boundary (a hot function such as ``zipf_index``) is not kept
  as one span per call but aggregated into count, total and self time
  at its parent span;
* a *generator* boundary (a process step the kernel resumes) is timed
  per resume, so its figure is busy time, not first-to-last elapsed
  time, which would include other processes' work.

Self time is a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

_WRAPPED_MARK = "__perfbench_original__"


@dataclass(frozen=True)
class Boundary:
    """One wrapped call site.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    ``kind`` is ``call``, ``leaf`` (aggregated at its parent) or ``gen``
    (a generator timed per resume).  ``fires_on`` names the workloads on
    which the boundary must be reached (checked by the self-tests).
    ``bindings`` limits a function boundary to the names bound in the
    given modules (by default every loaded ``repro`` module's binding).
    """

    layer: str
    label: str
    target: str
    kind: str
    fires_on: Tuple[str, ...]
    caller_prefix: str = ""
    bindings: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.label}"

    @property
    def time_metric(self) -> str:
        return "busy_s" if self.kind == "gen" else "self_s"


BOUNDARIES: Tuple[Boundary, ...] = (
    # Testbeds build their sites through the name bootstrap binds;
    # ``external_stub_site`` also calls it for one-page stub hosts.
    Boundary("web", "generate_site", "repro.web.site:generate_site",
             "call", ("paper", "log_mining"),
             bindings=("repro.system.bootstrap",)),
    Boundary("web", "make_filler", "repro.web.page:make_filler",
             "leaf", ("paper", "log_mining")),
    Boundary("web", "SimHttpClient.request",
             "repro.web.client:SimHttpClient.request", "call", ("paper",)),
    Boundary("web", "WebServer.handle", "repro.web.server:WebServer.handle",
             "call", ("paper",)),
    Boundary("sim.rng", "RandomStream.zipf_index",
             "repro.sim.rng:RandomStream.zipf_index", "leaf",
             ("log_mining",)),
    Boundary("mining", "generate_access_log",
             "repro.mining.logmining:generate_access_log", "call",
             ("log_mining",)),
    Boundary("mining", "run_stationary",
             "repro.mining.strategies:run_stationary", "call", ("paper",)),
    Boundary("mining", "run_mobile", "repro.mining.strategies:run_mobile",
             "call", ("paper",)),
    Boundary("robot", "Webbot.run", "repro.robot.webbot:Webbot.run", "call",
             ("paper",)),
    Boundary("robot", "validate_rejected",
             "repro.robot.linkcheck:validate_rejected", "call", ("paper",)),
    Boundary("system", "build_linkcheck_testbed",
             "repro.system.bootstrap:build_linkcheck_testbed", "call",
             ("paper",)),
    Boundary("system", "build_campus_testbed",
             "repro.system.bootstrap:build_campus_testbed", "call",
             ("paper",)),
    Boundary("sim.eventloop", "Kernel.run", "repro.sim.eventloop:Kernel.run",
             "call", ()),
    # Scenarios drive the kernel through ``run_process``, which
    # dispatches in ``run_until``, not ``run``.
    Boundary("sim.eventloop", "Kernel.run_until",
             "repro.sim.eventloop:Kernel.run_until", "call",
             ("paper", "scenario_matrix")),
    Boundary("sim.network", "Network.transfer",
             "repro.sim.network:Network.transfer", "gen",
             ("scenario_matrix",)),
    Boundary("sim.network", "Network.charge",
             "repro.sim.network:Network.charge", "call", ("paper",)),
    Boundary("core", "codec.encode", "repro.core.codec:encode", "call",
             ("scenario_matrix",)),
    Boundary("core", "codec.decode", "repro.core.codec:decode", "call",
             ("scenario_matrix",)),
    Boundary("core", "codec.encoded_size", "repro.core.codec:encoded_size",
             "leaf", ("scenario_matrix",)),
    Boundary("core", "Briefcase.snapshot",
             "repro.core.briefcase:Briefcase.snapshot", "leaf",
             ("scenario_matrix",)),
    Boundary("firewall", "Firewall.submit",
             "repro.firewall.firewall:Firewall.submit", "gen",
             ("scenario_matrix",)),
    Boundary("firewall", "Firewall.receive_remote",
             "repro.firewall.firewall:Firewall.receive_remote", "call",
             ("scenario_matrix",)),
    Boundary("firewall", "Firewall.register_agent",
             "repro.firewall.firewall:Firewall.register_agent", "call",
             ("scenario_matrix",)),
    Boundary("agent", "AgentContext.send",
             "repro.agent.context:AgentContext.send", "gen",
             ("scenario_matrix",)),
    Boundary("agent", "AgentContext.go", "repro.agent.context:AgentContext.go",
             "gen", ("scenario_matrix",)),
    Boundary("agent", "AgentContext.spawn_to",
             "repro.agent.context:AgentContext.spawn_to", "gen", ("paper",)),
    Boundary("durability", "HostJournal.record",
             "repro.durability.journal:HostJournal.record", "leaf",
             ("scenario_matrix",)),
    Boundary("durability", "HostJournal.replay",
             "repro.durability.journal:HostJournal.replay", "call",
             ("scenario_matrix",)),
    Boundary("obs", "MetricsRegistry.inc",
             "repro.obs.metrics:MetricsRegistry.inc", "leaf",
             ("scenario_matrix",)),
    Boundary("obs", "FlightRecorder.record",
             "repro.obs.flightrec:FlightRecorder.record", "leaf",
             ("scenario_matrix",)),
    Boundary("obs", "Telemetry.flush_ledger",
             "repro.obs.telemetry:Telemetry.flush_ledger", "call",
             ("paper",)),
    Boundary("suites", "run_cell", "repro.suites.runner:run_cell", "call",
             ("scenario_matrix",)),
    # ``ast.parse`` is shared with the rest of the program (the VM loader
    # parses agent source); only the analysis package's calls count.
    Boundary("analysis", "ast.parse", "ast:parse", "leaf", ("lint_self",),
             caller_prefix="repro.analysis"),
    Boundary("analysis", "Analyzer.analyze_file",
             "repro.analysis.engine:Analyzer.analyze_file", "call",
             ("lint_self",)),
    Boundary("analysis", "Analyzer.build_project",
             "repro.analysis.engine:Analyzer.build_project", "call",
             ("lint_self",)),
    Boundary("analysis", "Dataflow",
             "repro.analysis.dataflow:Dataflow.__init__", "call",
             ("lint_self",)),
    Boundary("analysis", "ProjectRule.check",
             "repro.analysis.iprules:ProjectRule.check", "call",
             ("lint_self",)),
)


class Frame:
    __slots__ = ("name", "leaf", "start", "child", "span", "counted")

    def __init__(self, name: str, leaf: bool, start: float, span: int,
                 counted: bool) -> None:
        self.name = name
        self.leaf = leaf
        self.start = start
        self.child = 0.0
        self.span = span
        self.counted = counted


class Tracer:
    """Keeps spans and per-boundary totals in memory for one process.

    ``spans`` holds ``[name, parent, start, end, op_id, self]`` for every
    root and non-leaf span (``parent`` is an index into ``spans`` or -1);
    ``leaves`` maps ``(parent span, name)`` to ``[count, total, self]``.
    """

    def __init__(self) -> None:
        self.stack: List[Frame] = []
        self.spans: List[List[Any]] = []
        self.leaves: Dict[Tuple[int, str], List[float]] = {}
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.extra: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = defaultdict(set)
        self.unbalanced = 0
        self._op_id: Optional[str] = None

    def enter(self, name: str, leaf: bool = False,
              counted: bool = True) -> Frame:
        if counted:
            self.calls[name] += 1
        stack = self.stack
        parent = stack[-1].span if stack else -1
        if leaf:
            span = parent
        else:
            span = len(self.spans)
            self.spans.append([name, parent, 0.0, 0.0, self._op_id, 0.0])
        frame = Frame(name, leaf, _clock(), span, counted)
        stack.append(frame)
        if not leaf:
            self.spans[span][2] = frame.start
        return frame

    def exit(self, frame: Frame) -> None:
        end = _clock()
        stack = self.stack
        if not stack or stack[-1] is not frame:
            # A span closed out of order; keep going but report it.
            self.unbalanced += 1
            if frame in stack:
                del stack[stack.index(frame):]
        else:
            stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        self.self_s[frame.name] += own
        if stack:
            stack[-1].child += duration
        if frame.leaf:
            key = (frame.span, frame.name)
            entry = self.leaves.get(key)
            if entry is None:
                entry = self.leaves[key] = [0, 0.0, 0.0]
            if frame.counted:
                entry[0] += 1
            entry[1] += duration
            entry[2] += own
        else:
            record = self.spans[frame.span]
            record[3] = end
            record[5] += own

    def operation(self, op_id: str) -> "_OperationSpan":
        """Context manager: the root span of one operation."""
        return _OperationSpan(self, op_id)

    def export(self) -> Dict[str, Any]:
        """The spans and leaf aggregates as plain JSON-ready data."""
        return {
            "spans": self.spans,
            "leaves": [[parent, name, count, total, own]
                       for (parent, name), (count, total, own)
                       in sorted(self.leaves.items())],
        }


class _OperationSpan:
    def __init__(self, tracer: Tracer, op_id: str) -> None:
        self.tracer = tracer
        self.op_id = op_id
        self.frame: Optional[Frame] = None

    def __enter__(self) -> "_OperationSpan":
        self.tracer._op_id = self.op_id
        self.frame = self.tracer.enter("op", counted=False)
        return self

    def __exit__(self, *exc: Any) -> None:
        assert self.frame is not None
        self.tracer.exit(self.frame)
        self.tracer._op_id = None


# -- counters taken at the boundaries ---------------------------------------


def _site_spec(spec: Any, *args: Any, **kwargs: Any) -> Any:
    return spec


def _nbytes(src: Any, dst: Any, nbytes: int, *args: Any, **kwargs: Any) -> int:
    return nbytes


def _pre_generate_site(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    tracer.distinct["web.generate_site"].add(_site_spec(*args, **kwargs))


def _pre_network_bytes(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    tracer.extra["sim.network.remote_bytes"] += _nbytes(*args[1:], **kwargs)


def _pre_kernel_run(tracer: Tracer, args: tuple, kwargs: dict) -> int:
    return args[0].processed_events


def _post_kernel_run(tracer: Tracer, token: int, args: tuple,
                     result: Any) -> None:
    tracer.extra["sim.kernel.events"] += args[0].processed_events - token


def _post_encode(tracer: Tracer, token: Any, args: tuple,
                 result: Any) -> None:
    tracer.extra["core.codec.encode.bytes"] += len(result)


_PRE: Dict[str, Callable[..., Any]] = {
    "web.generate_site": _pre_generate_site,
    "sim.network.Network.transfer": _pre_network_bytes,
    "sim.network.Network.charge": _pre_network_bytes,
    "sim.eventloop.Kernel.run": _pre_kernel_run,
    "sim.eventloop.Kernel.run_until": _pre_kernel_run,
}

_POST: Dict[str, Callable[..., None]] = {
    "sim.eventloop.Kernel.run": _post_kernel_run,
    "sim.eventloop.Kernel.run_until": _post_kernel_run,
    "core.codec.encode": _post_encode,
}


# -- wrappers ---------------------------------------------------------------


def _proxy(tracer: Tracer, name: str, inner: Any):
    """Drive ``inner`` one resume at a time, timing each resume."""
    send_value: Any = None
    pending: Optional[BaseException] = None
    while True:
        frame = tracer.enter(name, counted=False)
        try:
            if pending is not None:
                error, pending = pending, None
                item = inner.throw(error)
            else:
                item = inner.send(send_value)
        except StopIteration as stop:
            tracer.exit(frame)
            return stop.value
        except BaseException:
            tracer.exit(frame)
            raise
        tracer.exit(frame)
        try:
            send_value = yield item
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as error:  # thrown in by the kernel
            pending = error
            send_value = None


def _wrap(original: Callable[..., Any], boundary: Boundary,
          tracer: Tracer) -> Callable[..., Any]:
    name = boundary.name
    leaf = boundary.kind == "leaf"
    pre = _PRE.get(name)
    post = _POST.get(name)
    prefix = boundary.caller_prefix

    if boundary.kind == "gen":
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if pre is not None:
                pre(tracer, args, kwargs)
            frame = tracer.enter(name)
            try:
                inner = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if not inspect.isgenerator(inner):
                return inner
            proxy = _proxy(tracer, name, inner)
            # The kernel names processes after their generator.
            proxy.__name__ = inner.__name__
            proxy.__qualname__ = inner.__qualname__
            return proxy
    else:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if prefix and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith(prefix):
                return original(*args, **kwargs)
            token = pre(tracer, args, kwargs) if pre is not None else None
            frame = tracer.enter(name, leaf)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if post is not None:
                post(tracer, token, args, result)
            return result

    functools.update_wrapper(wrapper, original)
    setattr(wrapper, _WRAPPED_MARK, original)
    return wrapper


def _subclasses(cls: type) -> List[type]:
    found: List[type] = [cls]
    index = 0
    while index < len(found):
        for sub in found[index].__subclasses__():
            if sub not in found:
                found.append(sub)
        index += 1
    return found


def _repro_modules(extra: Any) -> List[Any]:
    modules = [module for name, module in sorted(sys.modules.items())
               if module is not None
               and (name == "repro" or name.startswith("repro."))]
    if extra not in modules:
        modules.append(extra)
    return modules


class Installation:
    """The attributes one :func:`install` replaced, for restoring."""

    def __init__(self) -> None:
        self.replaced: List[Tuple[Any, str, Any]] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every replaced attribute is the original object
        again and no loaded ``repro`` module still binds a wrapper."""
        for owner, attr, original in self.replaced:
            if vars(owner).get(attr) is not original:
                return False
        for module in _repro_modules(sys.modules["ast"]):
            for value in list(vars(module).values()):
                if hasattr(value, _WRAPPED_MARK):
                    return False
        return True


def install(tracer: Tracer,
            boundaries: Tuple[Boundary, ...] = BOUNDARIES) -> Installation:
    """Wrap every boundary; the caller must :meth:`Installation.restore`."""
    installation = Installation()
    for boundary in boundaries:
        module_name, _, qualname = boundary.target.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, method = qualname.split(".")
            for cls in _subclasses(getattr(module, class_name)):
                raw = vars(cls).get(method)
                if raw is None:
                    continue
                installation.replaced.append((cls, method, raw))
                setattr(cls, method, _wrap(raw, boundary, tracer))
        else:
            original = getattr(module, qualname)
            wrapper = _wrap(original, boundary, tracer)
            owners = ([importlib.import_module(name)
                       for name in boundary.bindings]
                      if boundary.bindings else _repro_modules(module))
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        installation.replaced.append((owner, attr, value))
                        setattr(owner, attr, wrapper)
    return installation


def import_boundary_modules() -> None:
    """Import every module a boundary lives in, so that all the names
    :func:`install` must rebind are bound before it scans for them."""
    for boundary in BOUNDARIES:
        importlib.import_module(boundary.target.partition(":")[0])
    # Binds the crawl strategies and testbed builders by name.
    importlib.import_module("repro.bench.experiments")


def breakdown(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per operation: total time, self time left at the root (time under
    no wrapped span), the sum of all self times and the smallest one."""
    ops: Dict[str, Dict[str, float]] = {}
    owner: List[Optional[str]] = []
    for name, parent, start, end, op_id, own in tracer.spans:
        owner.append(op_id)
        entry = ops.setdefault(op_id, {"total_s": 0.0, "unattributed_s": 0.0,
                                       "self_sum_s": 0.0, "min_self_s": 0.0})
        if parent == -1:
            entry["total_s"] += end - start
            entry["unattributed_s"] += own
        entry["self_sum_s"] += own
        entry["min_self_s"] = min(entry["min_self_s"], own)
    for (parent, name), (count, total, own) in tracer.leaves.items():
        entry = ops[owner[parent]]
        entry["self_sum_s"] += own
        entry["min_self_s"] = min(entry["min_self_s"], own)
    return ops

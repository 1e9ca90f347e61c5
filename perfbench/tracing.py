"""Outside-in tracing of the library's layers for the traced run.

:class:`Tracer` replaces public functions of each layer with timing
wrappers (and puts the originals back afterwards), records one span per
call in memory — name, start, end, parent span, operation id — and folds
the spans into per-layer counts, total and self times.  Nothing under
``src/`` is edited: the wrappers are installed on the classes and modules
from outside, for the duration of the traced run only.

:data:`LAYER_METRICS` names the per-layer metrics a traced run prints;
``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: (module group, span name, owner import path, attribute) of every
#: wrapped function.  The owner is a class ("pkg.mod:Class") or a module
#: ("pkg.mod"); module functions are also rebound where another module
#: imported them by name (see :data:`REBINDS`).
PROBES: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim", "sim.schedule", "repro.sim.engine:Simulator", "schedule"),
    ("repro.sim", "sim.cancel", "repro.sim.engine:Simulator", "cancel"),
    ("repro.sim", "sim.run_all", "repro.sim.engine:Simulator", "run_all"),
    ("serve.scheduler", "scheduler.submit",
     "repro.serve.scheduler:Scheduler", "submit"),
    ("serve.scheduler", "scheduler.take_batch",
     "repro.serve.scheduler:Scheduler", "take_batch"),
    ("serve.scheduler", "scheduler.tier_for",
     "repro.serve.scheduler:Scheduler", "tier_for"),
    ("serve.scheduler", "scheduler.requeue",
     "repro.serve.scheduler:Scheduler", "requeue"),
    ("serve.scheduler", "scheduler.shed",
     "repro.serve.scheduler:Scheduler", "shed"),
    ("serve.fleet", "fleet.assign", "repro.serve.fleet:Node", "assign"),
    ("serve.fleet", "fleet.batch_service",
     "repro.serve.fleet:ServiceBook", "batch_service"),
    ("serve.fleet", "fleet.set_draw",
     "repro.serve.fleet:PowerTracker", "set_draw"),
    ("serve.fleet", "book.profile",
     "repro.serve.fleet:AnalyticServiceBook", "profile"),
    ("serve.resilience", "resilience.breaker.allows",
     "repro.serve.resilience:CircuitBreaker", "allows"),
    ("serve.resilience", "resilience.breaker.note_dispatch",
     "repro.serve.resilience:CircuitBreaker", "note_dispatch"),
    ("serve.resilience", "resilience.breaker.record_failure",
     "repro.serve.resilience:CircuitBreaker", "record_failure"),
    ("serve.resilience", "resilience.breaker.record_success",
     "repro.serve.resilience:CircuitBreaker", "record_success"),
    ("serve.resilience", "resilience.health.observe",
     "repro.serve.resilience:HealthMonitor", "observe"),
    ("serve.resilience", "resilience.health.usable",
     "repro.serve.resilience:HealthMonitor", "usable"),
    ("serve.resilience", "resilience.overload.observe",
     "repro.serve.resilience:OverloadController", "observe"),
    ("serve.resilience", "resilience.overload.note_deferral",
     "repro.serve.resilience:OverloadController", "note_deferral"),
    ("serve.resilience", "resilience.slo.record_completion",
     "repro.serve.resilience:SloTracker", "record_completion"),
    ("serve.resilience", "resilience.slo.record_drop",
     "repro.serve.resilience:SloTracker", "record_drop"),
    ("serve.metrics", "report.metrics",
     "repro.serve.metrics:ServeReport", "metrics"),
    ("serve.metrics", "report.json",
     "repro.serve.metrics:ServeReport", "to_json"),
    ("serve.workload", "workload.arrivals",
     "repro.serve.workload:PoissonWorkload", "arrivals"),
    ("core.envelope", "envelope.solve",
     "repro.core.envelope:PowerEnvelopeSolver", "solve"),
    ("repro.power", "power.max_frequency_within",
     "repro.power.pulp_model:PulpPowerModel", "max_frequency_within"),
    ("repro.power", "power.voltage_for",
     "repro.power.operating_point:OperatingPointTable", "voltage_for"),
    ("repro.power", "power.poly_eval",
     "repro.power.interpolation:PolynomialInterpolator", "__call__"),
    ("core.offload", "offload.timing",
     "repro.core.offload:OffloadCostModel", "offload_timing"),
    ("runtime.omp", "omp.execute", "repro.runtime.omp:DeviceOpenMp",
     "execute"),
    ("link", "link.encode_frame", "repro.link.protocol", "encode_frame"),
    ("link", "link.decode_frames", "repro.link.protocol", "decode_frames"),
    ("pulp.soc", "soc.handle_frame", "repro.pulp.soc:PulpSoc",
     "handle_frame"),
    ("core.system", "host_baseline",
     "repro.core.system:HeterogeneousSystem", "run_on_host"),
    ("repro.dse", "dse.evaluate", "repro.dse.evaluate", "evaluate_config"),
    ("repro.dse", "dse.cache.put", "repro.dse.cache:ResultCache", "put"),
    ("repro.dse", "dse.cache.get", "repro.dse.cache:ResultCache", "get"),
)

#: Kernel methods, wrapped on every kernel class that defines them.
KERNEL_METHODS = ("compute", "build_program", "generate_inputs")

#: Modules that imported a wrapped module function by name.
REBINDS: Dict[str, Tuple[str, ...]] = {
    "repro.link.protocol:encode_frame": ("repro.core.system",),
    "repro.link.protocol:decode_frames": ("repro.core.system",),
}


def _resolve(path: str):
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _kernel_classes() -> List[type]:
    from repro.kernels.base import Kernel
    import repro.kernels.registry  # noqa: F401  (registers every kernel)

    found, todo = [], [Kernel]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            found.append(sub)
            todo.append(sub)
    return sorted(set(found), key=lambda c: (c.__module__, c.__name__))


def _arrays_digest(inputs) -> str:
    digest = hashlib.sha1()
    for key in sorted(inputs):
        digest.update(key.encode("utf-8"))
        digest.update(inputs[key].tobytes())
    return digest.hexdigest()


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self.groups: Dict[str, str] = {}
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        #: Operation id stamped on new spans (-1 = set-up).
        self.op_id = -1
        self.counts: Dict[str, int] = {}
        self._keys: Dict[str, set] = {}
        self._patches: List[_Patch] = []
        self.missing: List[str] = []

    # -- recording ---------------------------------------------------------------

    def _intern(self, name: str, group: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups[name] = group
        return self._name_ids[name]

    def note_key(self, counter: str, key) -> None:
        """Count *key* under *counter*, and whether it was seen before."""
        seen = self._keys.setdefault(counter, set())
        if key in seen:
            self.counts[counter + ".repeat"] = \
                self.counts.get(counter + ".repeat", 0) + 1
        else:
            seen.add(key)

    def bump(self, counter: str, by: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + by

    def distinct(self, counter: str) -> int:
        return len(self._keys.get(counter, ()))

    def wrap(self, name: str, group: str, function: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of *function*.

        *observe* sees ``(args, result)`` after each call returns; it
        feeds ratio counters (cache hits, repeated keys, batch sizes).
        """
        name_id = self._intern(name, group)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(tracer.span_start)
            stack = tracer._stack
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_end.append(0.0)
            stack.append(index)
            tracer.span_start.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.span_end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        traced.__wrapped__ = function
        return traced

    # -- installing --------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, group: str,
               observe: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, group, original, observe))
        self._patches.append(_Patch(owner, attr, original))

    def install(self) -> None:
        """Wrap every probe; a probe whose target is gone is skipped and
        listed in :attr:`missing`."""
        observers = self._observers()
        for group, name, path, attr in PROBES:
            try:
                owner = _resolve(path)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            if attr not in owner.__dict__:
                self.missing.append(name)
                continue
            self._patch(owner, attr, name, group, observers.get(name))
            module_path = path.partition(":")[0]
            for rebind in REBINDS.get(f"{module_path}:{attr}", ()):
                consumer = _resolve(rebind)
                if consumer.__dict__.get(attr) is self._patches[-1].original:
                    setattr(consumer, attr, getattr(owner, attr))
                    self._patches.append(_Patch(
                        consumer, attr, self._patches[-1].original))
        for cls in _kernel_classes():
            for attr in KERNEL_METHODS:
                if attr in cls.__dict__:
                    name = f"kernels.{attr}"
                    self._patch(cls, attr, name, "repro.kernels",
                                observers.get(name))

    def uninstall(self) -> None:
        """Put every original back (last patched, first restored)."""
        while self._patches:
            patch = self._patches.pop()
            setattr(patch.owner, patch.attr, patch.original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _observers(self) -> Dict[str, Callable]:
        def solve(args, result):
            solver, host_frequency, activity = args[0], args[1], args[2]
            self.note_key("envelope.solve", (
                solver.budget, solver.link_reserve,
                getattr(solver.host_device, "name", id(solver.host_device)),
                host_frequency, repr(activity)))

        def compute(args, result):
            kernel, inputs = args[0], args[1]
            self.note_key("kernels.compute",
                          (kernel.name, _arrays_digest(inputs)))

        def take_batch(args, result):
            batch = result[0]
            if batch:
                self.bump("scheduler.batched_requests", len(batch))
            else:
                self.bump("scheduler.take_batch.empty")

        def profile(args, result):
            book, kernel = args[0], args[1]
            tier = args[2] if len(args) > 2 else "fast"
            self.note_key("book.profile", (id(book), kernel, tier))

        def cache_get(args, result):
            if result is not None:
                self.bump("dse.cache.hits")

        return {"envelope.solve": solve, "kernels.compute": compute,
                "scheduler.take_batch": take_batch, "book.profile": profile,
                "dse.cache.get": cache_get}

    # -- folding -----------------------------------------------------------------

    def fold(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total ms, self ms (total minus the time
        covered by direct child spans)."""
        count = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i]
                     for i in range(count)]
        child_time = [0.0] * count
        parents = self.span_parent
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        table = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
                 for name in self.names}
        names = self.names
        for i in range(count):
            row = table[names[self.span_name[i]]]
            row["calls"] += 1
            row["total_ms"] += durations[i] * 1e3
            row["self_ms"] += (durations[i] - child_time[i]) * 1e3
        return table

    def outer_ms(self, names: Tuple[str, ...]) -> float:
        """Time of spans named *names* not nested in another of them."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        total = 0.0
        for i in range(len(self.span_start)):
            if self.span_name[i] not in ids:
                continue
            parent = self.span_parent[i]
            nested = False
            while parent >= 0:
                if self.span_name[parent] in ids:
                    nested = True
                    break
                parent = self.span_parent[parent]
            if not nested:
                total += self.span_end[i] - self.span_start[i]
        return total * 1e3

    def write(self, path) -> None:
        """Write the raw spans (gzipped columnar JSON) to *path*."""
        payload = {
            "names": self.names,
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "op": list(self.span_op),
            "start": list(self.span_start),
            "end": list(self.span_end),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) \
                as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _row(table, name: str, key: str) -> float:
    row = table.get(name)
    return row[key] if row is not None else 0


#: (metric name, unit) of every per-layer metric a traced run prints.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.events_per_req", "1/req"),
    ("sim.cancels", "count"),
    ("sim.loop_self_ms", "ms"),
    ("scheduler.submit.calls", "count"),
    ("scheduler.submit.ms", "ms"),
    ("scheduler.take_batch.calls", "count"),
    ("scheduler.take_batch.ms", "ms"),
    ("scheduler.take_batch.empty_share", "ratio"),
    ("scheduler.batch_size.mean", "req"),
    ("scheduler.tier_for.calls", "count"),
    ("scheduler.tier_for.ms", "ms"),
    ("scheduler.requeue.calls", "count"),
    ("scheduler.shed.calls", "count"),
    ("fleet.assign.calls", "count"),
    ("fleet.batch_service.calls", "count"),
    ("fleet.batch_service.ms", "ms"),
    ("fleet.set_draw.calls", "count"),
    ("fleet.set_draw.ms", "ms"),
    ("book.profile.calls", "count"),
    ("book.profile.ms", "ms"),
    ("book.priced", "count"),
    ("resilience.breaker.calls", "count"),
    ("resilience.breaker.ms", "ms"),
    ("resilience.health.calls", "count"),
    ("resilience.health.ms", "ms"),
    ("resilience.overload.calls", "count"),
    ("resilience.overload.ms", "ms"),
    ("resilience.slo.calls", "count"),
    ("resilience.slo.ms", "ms"),
    ("report.metrics.ms", "ms"),
    ("report.json.ms", "ms"),
    ("report.ms_per_kreq", "ms/kreq"),
    ("workload.arrivals.ms", "ms"),
    ("envelope.solve.calls", "count"),
    ("envelope.solve.ms", "ms"),
    ("envelope.solve.unique_share", "ratio"),
    ("power.max_frequency_within.calls", "count"),
    ("power.voltage_for.calls", "count"),
    ("power.poly_evals", "count"),
    ("kernels.compute.calls", "count"),
    ("kernels.compute.ms", "ms"),
    ("kernels.compute.repeat_share", "ratio"),
    ("kernels.build_program.calls", "count"),
    ("kernels.build_program.ms", "ms"),
    ("kernels.generate_inputs.calls", "count"),
    ("kernels.generate_inputs.ms", "ms"),
    ("offload.timing.calls", "count"),
    ("offload.timing.ms", "ms"),
    ("omp.execute.calls", "count"),
    ("omp.execute.ms", "ms"),
    ("link.frames", "count"),
    ("link.codec.ms", "ms"),
    ("soc.handle_frame.calls", "count"),
    ("host_baseline.calls", "count"),
    ("host_baseline.ms", "ms"),
    ("dse.evaluate.calls", "count"),
    ("dse.evaluate.ms", "ms"),
    ("dse.cache.put.ms", "ms"),
    ("dse.cache.get.ms", "ms"),
    ("dse.cache.hit_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)

_GROUPS = {
    "resilience.breaker": ("resilience.breaker.allows",
                           "resilience.breaker.note_dispatch",
                           "resilience.breaker.record_failure",
                           "resilience.breaker.record_success"),
    "resilience.health": ("resilience.health.observe",
                          "resilience.health.usable"),
    "resilience.overload": ("resilience.overload.observe",
                            "resilience.overload.note_deferral"),
    "resilience.slo": ("resilience.slo.record_completion",
                       "resilience.slo.record_drop"),
}


def layer_metrics(tracer: Tracer, requests: int,
                  overhead_pct: float) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value of a finished traced run.

    *requests* is the number of requests the traced operations simulated
    (0 on workloads that simulate none).
    """
    table = tracer.fold()

    def calls(name):
        return _row(table, name, "calls")

    def total(name):
        return _row(table, name, "total_ms")

    out: Dict[str, float] = {
        "sim.events": calls("sim.schedule"),
        "sim.events_per_req": _share(calls("sim.schedule"), requests),
        "sim.cancels": calls("sim.cancel"),
        "sim.loop_self_ms": _row(table, "sim.run_all", "self_ms"),
        "scheduler.take_batch.empty_share": _share(
            tracer.counts.get("scheduler.take_batch.empty", 0),
            calls("scheduler.take_batch")),
        "scheduler.batch_size.mean": _share(
            tracer.counts.get("scheduler.batched_requests", 0),
            calls("scheduler.take_batch")
            - tracer.counts.get("scheduler.take_batch.empty", 0)),
        "book.priced": tracer.distinct("book.profile"),
        "report.metrics.ms": total("report.metrics"),
        "report.json.ms": total("report.json"),
        "report.ms_per_kreq": _share(
            tracer.outer_ms(("report.metrics", "report.json")),
            requests / 1000.0),
        "workload.arrivals.ms": total("workload.arrivals"),
        "envelope.solve.unique_share": _share(
            tracer.distinct("envelope.solve"), calls("envelope.solve")),
        "power.poly_evals": calls("power.poly_eval"),
        "kernels.compute.repeat_share": _share(
            tracer.counts.get("kernels.compute.repeat", 0),
            calls("kernels.compute")),
        "link.frames": calls("link.encode_frame"),
        "link.codec.ms": total("link.encode_frame")
        + total("link.decode_frames"),
        "host_baseline.calls": calls("host_baseline"),
        "host_baseline.ms": total("host_baseline"),
        "dse.cache.put.ms": total("dse.cache.put"),
        "dse.cache.get.ms": total("dse.cache.get"),
        "dse.cache.hit_share": _share(tracer.counts.get("dse.cache.hits", 0),
                                      calls("dse.cache.get")),
        "trace.spans": len(tracer.span_start),
        "trace.overhead_pct": overhead_pct,
    }
    for group, members in _GROUPS.items():
        out[f"{group}.calls"] = sum(calls(m) for m in members)
        out[f"{group}.ms"] = sum(total(m) for m in members)
    for metric, _ in LAYER_METRICS:
        if metric in out:
            continue
        base, _, kind = metric.rpartition(".")
        out[metric] = calls(base) if kind == "calls" else total(base)
    return {metric: out[metric] for metric, _ in LAYER_METRICS}


def render_table(tracer: Tracer) -> str:
    """The per-layer table, grouped by module."""
    table = tracer.fold()
    lines = [f"{'layer / function':<44}{'calls':>10}{'total ms':>12}"
             f"{'self ms':>12}"]
    by_group: Dict[str, List[str]] = {}
    for name in tracer.names:
        by_group.setdefault(tracer.groups[name], []).append(name)
    for group in sorted(by_group):
        lines.append(group)
        for name in sorted(by_group[group]):
            row = table[name]
            lines.append(f"  {name:<42}{row['calls']:>10}"
                         f"{row['total_ms']:>12.2f}{row['self_ms']:>12.2f}")
    if tracer.missing:
        lines.append("not traced (target gone): "
                     + ", ".join(sorted(tracer.missing)))
    return "\n".join(lines)

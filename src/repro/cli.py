"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro table1 [--json]
    python -m repro figure3 [--json]
    python -m repro figure4 [--json]
    python -m repro figure5a [--json]
    python -m repro figure5b [--kernel matmul] [--json]
    python -m repro offload --kernel "svm (RBF)" --host-mhz 8 --iterations 32
    python -m repro trace matmul --out trace.json [--flame flame.txt]
    python -m repro metrics [--kernel matmul] [--json]
    python -m repro lint kernel.s [--format json|sarif] [--entry-regs r1,r2]
    python -m repro lint kernel.s --cores 4 --preset r5=0@8 [--dma-out 0x700:0x780]
    python -m repro lint --all-builtin
    python -m repro faults --scenarios 11 --seed 1 [--json] [--trace t.json]
    python -m repro dse --host-mhz 2,4,8 --budget-mw 5,10 --jobs 4 \
        --cache-dir .dse-cache [--json]
    python -m repro dse --spec space.json --jobs 4
    python -m repro serve --nodes 4 --policy power-cap --arrival-rate 250 \
        --faults on --seed 7 [--json] [--trace serve.json]
    python -m repro chaos [--json] [--alerts alerts.log]
    python -m repro chaos --plan storm.json --chaos-seed 7 --nodes 4
    python -m repro chaos --empty --serve-json report.json
    python -m repro bench [--quick] [--check] [--profile bench.json]
    python -m repro bench --compare BENCH_7.json BENCH_8.json
    python -m repro learn dataset --out ds.json [--tiny] [--jobs 4]
    python -m repro learn train --dataset ds.json --out model.json
    python -m repro learn eval --dataset ds.json [--max-regret 0.15]
    python -m repro learn predict --model model.json --program dwconv3_i8
    python -m repro serve --scheduler predicted --model model.json
    python -m repro capacity plan --arrival-rate 300 --power-budget 40
    python -m repro capacity validate [--tolerance 0.10] [--json]
    python -m repro capacity sweep --nodes 4 --rates 50:700:50
    python -m repro all

argparse is the only command registry: every (sub)parser carries its
handler via ``set_defaults(handler=...)``, and a handler returns its
output together with its exit code.  ``trace`` runs one offload under
the telemetry hub plus a DES replay of the cluster and writes a Chrome
trace-event JSON loadable in Perfetto; ``metrics`` prints the telemetry
counters/lane/phase snapshot.  ``faults`` runs a seeded fault-injection
campaign, ``serve`` drives a fleet of accelerator nodes
(``docs/SERVING.md``), ``chaos`` replays fleet-scope fault campaigns
through the same engine with resilience armed (with ``--empty`` it is
bit-identical to a plain ``serve`` of the same spec and seed),
``learn`` trains configuration predictors (``docs/LEARNING.md``),
``capacity`` is the analytic fast path over the fleet
(``docs/CAPACITY.md``) and ``bench`` writes the next ``BENCH_<n>.json``
trajectory entry (``docs/BENCHMARKS.md``).

Exit codes, one contract for every command (``docs/API.md``):

- 0 — ok;
- 1 — bad input (a one-line ``<command>: <message>`` on stderr, never a
  traceback: :func:`main` turns every :class:`~repro.errors.ReproError`
  into that ``SystemExit``) or, for ``lint``, an ERROR finding;
- 3 — a gate breached or a run degraded: ``faults`` needed the host
  fallback, ``serve`` missed ``--miss-threshold``, ``chaos`` exhausted
  an SLO budget, ``learn eval`` exceeded ``--max-regret``, ``capacity
  validate``/``plan`` breached the tolerance;
- 4 — a run failed: a ``faults`` scenario produced no result, or a
  ``chaos`` fleet collapsed;
- 5 — ``bench --check``/``--compare`` found a throughput regression.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from typing import List, Optional

from repro.core.system import HeterogeneousSystem
from repro.errors import ConfigurationError, IsaError, ReproError
from repro.experiments import figure3, figure4, figure5, table1
from repro.kernels import BENCHMARK_NAMES, kernel_by_name
from repro.units import mhz

#: The exit-code contract (see the module docstring).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GATE = 3
EXIT_FAILED = 4
EXIT_REGRESSION = BENCH_EXIT_REGRESSION = 5


def _dump(payload, sort_keys: bool = False) -> str:
    """The one ``--json`` dumper; key order is the command's choice."""
    return json.dumps(payload, indent=2, sort_keys=sort_keys)


def _csv(text: str, parse=str, what: str = "value") -> list:
    """A comma-separated list; a bad or missing token is bad input."""
    values = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        try:
            values.append(parse(token))
        except ValueError:
            raise ConfigurationError(f"bad {what} {token!r}") from None
    if not values:
        raise ConfigurationError(f"empty {what} list {text!r}")
    return values


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_json(path):
    return json.loads(_read_text(path))


def _load(what: str, path, loader=_read_json):
    """``loader(path)``; any failure is bad input naming *what*."""
    try:
        return loader(path)
    except (OSError, ValueError, ReproError) as exc:
        raise ConfigurationError(f"cannot load {what} {path}: {exc}") from exc


@contextlib.contextmanager
def _telemetry(path=None, live: bool = False):
    """A live telemetry hub over the block when *live* or a Chrome
    trace *path* is given (the trace is written there on exit); the
    block runs untraced under ``None`` otherwise."""
    if not (live or path):
        yield None
        return
    from repro.obs import Telemetry, use_telemetry, write_chrome_trace

    hub = Telemetry(enabled=True)
    with use_telemetry(hub):
        yield hub
    if path:
        write_chrome_trace(hub, path)


# -- the paper's tables and figures -------------------------------------------

#: command -> (title, what it shows, run, to_json_dict, render).
_FIGURES = {
    "table1": ("Table I", "benchmark summary",
               table1.run, table1.to_json_dict, table1.render),
    "figure3": ("Figure 3", "GOPS vs power on matmul",
                figure3.run, figure3.to_json_dict, figure3.render),
    "figure4": ("Figure 4", "architectural/parallel speedup",
                figure4.run, figure4.to_json_dict, figure4.render),
    "figure5a": ("Figure 5a", "speedup within 10 mW", figure5.run_figure5a,
                 figure5.figure5a_to_json_dict, figure5.render_figure5a),
    "figure5b": ("Figure 5b", "efficiency vs iterations/offload",
                 figure5.run_figure5b, figure5.figure5b_to_json_dict,
                 figure5.render_figure5b),
}


def _cmd_figure(args):
    _, _, run, to_json_dict, render = _FIGURES[args.command]
    kernel = getattr(args, "kernel", None)
    result = run(kernel_by_name(kernel)) if kernel else run()
    text = _dump(to_json_dict(result)) if args.json else render(result)
    return text, EXIT_OK


def _cmd_all(_args):
    blocks = [f"{'=' * 12} {title} {'=' * 12}\n{render(run())}"
              for title, _, run, _, render in _FIGURES.values()]
    return "\n\n".join(blocks), EXIT_OK


def _cmd_report(_args):
    from repro.experiments.report import build_report

    return build_report(), EXIT_OK


# -- offload and telemetry ----------------------------------------------------

#: Benchmark -> built-in machine program used for the flamegraph view
#: (the instruction-level counterpart where one exists).
_FLAME_PROGRAMS = {"matmul": "matmul_i8"}

#: DES replay cap: chunk cycles are scaled down so one replay stays
#: interactive while preserving the compute/memory mix.
_DES_CYCLE_CAP = 20_000.0


def _offload_flags(sp, iterations: int, positional_kernel: bool = False):
    """The offload flags shared by ``offload``, ``trace`` and ``metrics``."""
    if positional_kernel:
        sp.add_argument("kernel", nargs="?", choices=BENCHMARK_NAMES,
                        default="matmul", help="benchmark to trace")
    else:
        sp.add_argument("--kernel", choices=BENCHMARK_NAMES, default="matmul")
    sp.add_argument("--host-mhz", type=float, default=8.0)
    sp.add_argument("--iterations", type=int, default=iterations)
    sp.add_argument("--double-buffer", action="store_true")


def _des_cluster_lanes(hub, kernel, target) -> None:
    """Replay the kernel's first parallel loop on the DES cluster and
    route per-core / per-bank / per-DMA-channel lanes into *hub*."""
    from repro.obs.bridge import route_recorder
    from repro.pulp.cluster import Cluster
    from repro.pulp.timing import kernel_op_streams
    from repro.sim.tracing import TraceRecorder

    streams = kernel_op_streams(kernel.build_program(), target,
                                Cluster.CORES, cycle_cap=_DES_CYCLE_CAP)
    recorder = TraceRecorder()
    cluster = Cluster()
    run = cluster.run(streams,
                      dma_jobs=[(0, 0, 1024, True), (0, 4096, 1024, False)],
                      recorder=recorder)
    route_recorder(recorder, hub)
    hub.gauge("cluster.wall_cycles", run.wall_cycles, domain="cycles")
    hub.gauge("cluster.conflict_rate", run.conflict_rate, domain="cycles")


def _offload(args, hub=None):
    """The offload the flags describe; under a live *hub*, plus the DES
    cluster replay."""
    system = HeterogeneousSystem()
    kernel = kernel_by_name(args.kernel)
    result = system.offload(kernel, host_frequency=mhz(args.host_mhz),
                            iterations=args.iterations,
                            double_buffered=args.double_buffer)
    if hub is not None:
        _des_cluster_lanes(hub, kernel, system.target)
    return result


def _cmd_offload(args):
    result = _offload(args)
    text = _dump(result.to_json_dict()) if args.json else result.report()
    return text, EXIT_OK


def _cmd_trace(args):
    from repro.obs import TraceAnalyzer, render_span_timeline, write_flamegraph

    with _telemetry(args.out, live=True) as hub:
        result = _offload(args, hub)
    lines = [f"wrote Chrome trace to {args.out} "
             f"({len(hub.spans)} spans, {len(hub.lanes())} lanes) — "
             f"open in https://ui.perfetto.dev"]
    if args.flame:
        from repro.machine.programs import profile_builtin

        builtin = _FLAME_PROGRAMS.get(args.kernel, "matmul_i8")
        profiled = profile_builtin(builtin)
        write_flamegraph(profiled, args.flame, root=builtin)
        lines.append(f"wrote collapsed stacks of {builtin!r} to {args.flame}")
    analyzer = TraceAnalyzer(hub)
    phase, share = analyzer.critical_phase()
    lines += ["", result.report(), "",
              f"critical phase {phase!r} ({share:.1%} of phase time), "
              f"overlap efficiency {analyzer.overlap_efficiency():.1%}, "
              f"attributed energy {hub.total_energy():.6g} J"]
    if args.ascii:
        lines += ["", render_span_timeline(hub, domain="wall"),
                  "", render_span_timeline(hub, domain="cycles")]
    return "\n".join(lines), EXIT_OK


def _cmd_metrics(args):
    from repro.obs import metrics_snapshot, render_metrics

    with _telemetry(live=True) as hub:
        result = _offload(args, hub)
    snapshot = metrics_snapshot(hub, extra={
        "kernel": result.kernel_name,
        "verified": result.verified,
        "model_energy_j": result.timing.energy.total_energy,
    })
    return _dump(snapshot) if args.json else render_metrics(snapshot), EXIT_OK


# -- static analysis ----------------------------------------------------------

def _register(token: str) -> int:
    index = int(token.lower().lstrip("r"))
    if not 0 <= index < 32:
        raise ValueError(token)
    return index


def _parse_presets(tokens, cores: int):
    """``--preset rN=base[@step]`` -> per-core register preset dicts.

    Core *c* gets ``base + c * step`` (the SPMD static-schedule idiom:
    one register carries the core's chunk start).
    """
    presets = [dict() for _ in range(cores)]
    for token in tokens:
        try:
            register_text, value_text = token.split("=", 1)
            base_text, at, step_text = value_text.partition("@")
            register = _register(register_text)
            base = int(base_text, 0)
            step = int(step_text, 0) if at else 0
        except ValueError:
            raise ConfigurationError(
                f"bad --preset {token!r} (expected rN=base[@step])") from None
        for core in range(cores):
            presets[core][register] = base + core * step
    return presets


def _parse_dma_out(text):
    if not text:
        return None
    try:
        lo_text, hi_text = text.split(":", 1)
        region = (int(lo_text, 0), int(hi_text, 0))
    except ValueError:
        raise ConfigurationError(
            f"bad --dma-out {text!r} (expected lo:hi)") from None
    if region[0] >= region[1]:
        raise ConfigurationError(f"empty --dma-out region {text!r}")
    return region


def _cmd_lint(args):
    from repro.analysis.concurrency import analyze_spmd
    from repro.analysis.dataflow import ALL_REGISTERS
    from repro.analysis.linter import lint_instructions, lint_source
    from repro.isa.validate import Severity
    from repro.machine.assembler import assemble_unit
    from repro.machine.parallel import PARALLEL_PROGRAMS
    from repro.machine.programs import BUILTIN_PROGRAMS

    if args.cores < 0:
        raise ConfigurationError("--cores must be >= 0")
    entry_regs = frozenset(_csv(args.entry_regs, _register, "register")
                           if args.entry_regs else ())
    reports = []
    if args.all_builtin:
        for program in BUILTIN_PROGRAMS.values():
            reports.append(lint_source(
                program.source, name=program.name,
                entry_regs=program.entry_regs,
                exit_live=program.exit_live if program.exit_live is not None
                else ALL_REGISTERS))
        for parallel in PARALLEL_PROGRAMS.values():
            cores = args.cores if args.cores >= 2 else 4
            report = lint_instructions(
                parallel.unit.instructions, name=parallel.name,
                lines=parallel.unit.lines, entry_regs=parallel.entry_regs)
            spmd = analyze_spmd(
                parallel.unit.instructions, cores=cores,
                presets=parallel.presets(cores), lines=parallel.unit.lines,
                dma_out=parallel.dma_out)
            report.findings.extend(spmd.findings)
            reports.append(report)
    if not args.all_builtin and not args.files:
        raise ConfigurationError("give one or more .s files or --all-builtin")
    for path in args.files:
        source = _load("source", path, _read_text)
        try:
            report = lint_source(source, name=path, entry_regs=entry_regs)
        except IsaError as exc:
            # Assembly itself failed; surface it like a finding and fail.
            reports.append(None)
            print(f"{path}: assembly error: {exc}", file=sys.stderr)
            continue
        if args.cores >= 2 and report.cfg is not None:
            unit = assemble_unit(source)
            report.findings.extend(analyze_spmd(
                unit.instructions, cores=args.cores,
                presets=_parse_presets(args.preset, args.cores),
                lines=unit.lines, dma_out=_parse_dma_out(args.dma_out),
                banks=args.banks).findings)
        reports.append(report)

    failed = any(report is None or not report.ok for report in reports)
    if args.strict:
        failed = failed or any(
            report is not None and any(
                f.severity is not Severity.INFO for f in report.findings)
            for report in reports)
    code = EXIT_ERROR if failed else EXIT_OK
    good = [report for report in reports if report is not None]
    if args.format == "json":
        return "[" + ",\n".join(r.to_json() for r in good) + "]", code
    if args.format == "sarif":
        from repro.analysis.sarif import SARIF_SCHEMA, SARIF_VERSION, to_sarif

        runs = []
        for report in good:
            runs.extend(to_sarif(report.findings, uri=report.name)["runs"])
        return _dump({"$schema": SARIF_SCHEMA, "version": SARIF_VERSION,
                      "runs": runs}), code
    return "\n\n".join(r.render() for r in good), code


# -- fault campaigns ----------------------------------------------------------

def _cmd_faults(args):
    from repro.faults import CampaignRunner, build_campaign

    scenarios = build_campaign(
        args.scenarios, seed=args.seed, kernel=args.kernel,
        host_mhz=args.host_mhz, iterations=args.iterations,
        bit_error_rate=args.ber)
    runner = CampaignRunner(fallback_enabled=not args.no_fallback)
    with _telemetry(args.trace):
        result = runner.run(scenarios)
    code = (EXIT_FAILED if result.failed
            else EXIT_GATE if result.degraded else EXIT_OK)
    return _dump(result.to_json_dict()) if args.json else result.render(), code


# -- serving and chaos --------------------------------------------------------

#: The ``--faults on`` per-node plans, cycled across the fleet: a clean
#: node, a transiently hanging one, one that dies (three consecutive
#: boot failures exhaust the ladder), and a browned-out slow one.
_SERVE_FAULT_PLANS = (
    ("clean", ()),
    ("kernel_hang", (2,)),
    ("boot_failure", (3,)),
    ("brownout", (0.85,)),
)


def _serve_workload(args):
    from repro.serve import (
        ClosedLoopWorkload,
        MmppWorkload,
        PoissonWorkload,
        TraceWorkload,
    )

    if args.replay:
        return TraceWorkload.from_json(args.replay)
    requests = args.requests if args.requests > 0 else None
    if requests is None and args.duration is None:
        raise ConfigurationError("give --requests > 0 or a --duration")
    common = dict(
        deadline_factor=(args.deadline_factor
                         if args.deadline_factor > 0 else None),
        iterations=args.iterations, seed=args.seed)
    if args.workload == "mmpp":
        return MmppWorkload(
            rates=(args.arrival_rate, args.arrival_rate * args.burst),
            requests=requests, duration=args.duration, **common)
    if args.workload == "closed":
        per_client = max(1, (requests or args.clients) // args.clients)
        return ClosedLoopWorkload(
            clients=args.clients, think_s=args.think_ms * 1e-3,
            requests_per_client=per_client, **common)
    return PoissonWorkload(rate=args.arrival_rate, requests=requests,
                           duration=args.duration, **common)


def _serve_book_and_policy(args):
    """Resolve the pricing backend and dispatch policy of a serve run."""
    from repro.serve import AnalyticServiceBook
    from repro.serve.scheduler import Policy

    if args.scheduler is None and args.model is None:
        return AnalyticServiceBook(host_mhz=args.host_mhz), \
            Policy(args.policy)
    # Extension territory: the learned book and/or a registered policy.
    import repro.learn.service as learn_service
    from repro.serve.scheduler import registered_policies

    policy = args.scheduler if args.scheduler is not None \
        else Policy(args.policy)
    if isinstance(policy, str) and policy not in registered_policies():
        known = ", ".join(registered_policies())
        raise ConfigurationError(f"unknown --scheduler {policy!r}; "
                                 f"registered: {known}")
    if args.model is None:
        raise ConfigurationError(
            f"--scheduler {args.scheduler} needs --model "
            "<trained model JSON> (train one with: python -m repro "
            "learn train)")
    fitted = _load("model", args.model, learn_service.predictor_from_file)
    book = learn_service.PredictedServiceBook(
        fitted, confidence=args.confidence, host_mhz=args.host_mhz)
    return book, policy


def _serve_config_from_args(args):
    """The :class:`ServeConfig` of the shared serve-spec flags.

    Used verbatim by ``serve`` and by ``chaos`` (which layers a fleet
    fault plan and the resilience machinery on top), so a chaos run
    under the empty plan prices exactly the run ``serve`` would.
    """
    from repro.faults.plan import FaultPlan
    from repro.serve.engine import ServeConfig, default_power_budget
    from repro.serve.scheduler import Policy, SchedulerConfig
    from repro.units import mw

    book, policy = _serve_book_and_policy(args)
    budget = mw(args.power_budget) if args.power_budget is not None else None
    if budget is None and policy is Policy.POWER_CAP:
        budget = default_power_budget(book, args.nodes)
    plans = None
    if args.faults == "on":
        plans = [getattr(FaultPlan, name)(*plan_args)
                 for name, plan_args in _SERVE_FAULT_PLANS]
    return ServeConfig(
        workload=_serve_workload(args),
        nodes=args.nodes,
        scheduler=SchedulerConfig(
            policy=policy, queue_capacity=args.queue_capacity,
            max_batch=args.max_batch, power_budget_w=budget,
            drop_late=args.drop_late),
        fault_plans=plans, seed=args.seed, book=book)


def _cmd_serve(args):
    from repro.serve.engine import ServeEngine

    config = _serve_config_from_args(args)
    with _telemetry(args.trace):
        report = ServeEngine(config).run()
    code = EXIT_GATE if report.miss_rate > args.miss_threshold else EXIT_OK
    return report.to_json() if args.json else report.render(), code


def _fleet_plans(path):
    from repro.faults.plan import FleetPlan

    payload = _read_json(path)
    plans = payload if isinstance(payload, list) else [payload]
    return [FleetPlan.from_dict(plan) for plan in plans]


def _cmd_chaos(args):
    import dataclasses

    from repro.faults.plan import FleetPlan
    from repro.serve.chaos import (
        pinned_campaign_config,
        pinned_campaign_plans,
        run_campaign,
    )
    from repro.serve.resilience import ResilienceConfig

    if not (args.empty or args.plan):
        config = pinned_campaign_config(nodes=args.nodes, seed=args.seed)
        plans = pinned_campaign_plans()
        armed = args.resilience != "off"
    else:
        plans = ([FleetPlan.empty()] if args.empty
                 else _load("--plan", args.plan, _fleet_plans))
        config = _serve_config_from_args(args)
        armed = args.resilience == "on" or (
            args.resilience == "auto"
            and any(plan.events for plan in plans))
        if armed:
            config = dataclasses.replace(
                config, resilience=ResilienceConfig())
    if not armed:
        config = dataclasses.replace(config, resilience=None)
    if armed and args.slo_factor is not None:
        resilience = config.resilience
        config = dataclasses.replace(config, resilience=dataclasses.replace(
            resilience,
            slo=dataclasses.replace(resilience.slo,
                                    latency_factor=args.slo_factor)))
    result = run_campaign(config, plans, chaos_seed=args.chaos_seed,
                          collapse_threshold=args.collapse_threshold)
    if args.serve_json:
        with open(args.serve_json, "w", encoding="utf-8") as handle:
            handle.write(result.runs[0].report.to_json() + "\n")
    if args.alerts:
        with open(args.alerts, "w", encoding="utf-8") as handle:
            for run in result.runs:
                for alert in run.alerts:
                    handle.write(f"{run.scenario}: {alert.render()}\n")
    return result.to_json() if args.json else result.render(), result.exit_code


# -- design-space exploration -------------------------------------------------

def _parse_bool(token: str) -> bool:
    if token.lower() in ("true", "1", "yes"):
        return True
    if token.lower() in ("false", "0", "no"):
        return False
    raise ValueError(token)


#: dse inline options, one comma-separated ``--<dest>`` flag each:
#: (argparse dest, knob name, element parser, what the list holds).
_DSE_KNOB_OPTIONS = (
    ("kernel", "kernel", str, "kernel names"),
    ("host_mhz", "host_mhz", float, "host frequencies (MHz)"),
    ("budget_mw", "budget_mw", float, "power budgets (mW)"),
    ("spi", "spi_mode", str, "link widths: single,quad"),
    ("tying", "link_tying", str, "link tying: tied,untied"),
    ("untied_clock_mhz", "untied_clock_mhz", float,
     "untied SPI clocks (MHz)"),
    ("cluster", "cluster_size", int, "cluster sizes"),
    ("iterations", "iterations", int, "iterations-per-offload values"),
    ("double_buffer", "double_buffered", _parse_bool,
     "schedules: false,true"),
)


def _cmd_dse(args):
    from repro.dse import (
        ExplorationEngine,
        ParameterSpace,
        ResultCache,
        render,
        to_json_dict,
    )

    if args.spec:
        spec = _load("spec", args.spec)
    else:
        grid = {knob: _csv(getattr(args, dest), parse)
                for dest, knob, parse, _ in _DSE_KNOB_OPTIONS
                if getattr(args, dest) is not None}
        if not grid:
            raise ConfigurationError("give --spec or at least one knob "
                                     "option (e.g. --host-mhz 2,4,8)")
        spec = {"grid": grid}
    space = ParameterSpace.from_dict(spec)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    result = ExplorationEngine(cache=cache, jobs=args.jobs).run(space)
    text = _dump(to_json_dict(result)) if args.json else render(result)
    return text, EXIT_OK


# -- benchmarks ---------------------------------------------------------------

def _cmd_bench(args):
    from repro.bench import (
        DEFAULT_REPEATS,
        QUICK_REPEATS,
        BenchOptions,
        BenchRunner,
        compare,
        latest_bench,
        load_report,
        next_index,
        render_comparison,
        render_report,
        write_report,
    )

    if args.compare:
        old_path, new_path = args.compare
        comparison = compare(load_report(old_path), load_report(new_path),
                             threshold=args.threshold)
        code = EXIT_OK if comparison.ok else EXIT_REGRESSION
        if args.json:
            return _dump(comparison.to_json_dict()), code
        return render_comparison(comparison, old_label=old_path,
                                 new_label=new_path), code
    repeats = args.repeats if args.repeats is not None else (
        QUICK_REPEATS if args.quick else DEFAULT_REPEATS)
    suites = _csv(args.suites, what="suite") if args.suites else None
    # Resolve the baseline before writing, so a fresh entry never
    # becomes its own baseline.
    baseline_path = args.baseline or latest_bench(args.out_dir)
    runner = BenchRunner(BenchOptions(
        repeats=repeats, quick=args.quick, suites=suites,
        profile_path=args.profile, flame_path=args.flame))
    doc = runner.run(index=next_index(args.out_dir))
    lines = [render_report(doc)]
    path = None
    if not args.no_write:
        path = write_report(doc, args.out_dir)
        lines.append(f"wrote {path}")
    lines.extend(f"wrote {artifact}" for artifact in runner.artifacts)
    comparison = None
    if args.check and baseline_path is None:
        lines.append("check: no baseline BENCH_*.json in "
                     f"{args.out_dir} — nothing to gate against")
    elif args.check:
        comparison = compare(load_report(baseline_path), doc,
                             threshold=args.threshold)
        lines += ["", render_comparison(
            comparison, old_label=baseline_path,
            new_label=f"BENCH_{doc['bench_index']}")]
    code = EXIT_REGRESSION if comparison is not None \
        and not comparison.ok else EXIT_OK
    if not args.json:
        return "\n".join(lines), code
    payload = {"report": doc, "path": path, "artifacts": runner.artifacts}
    if args.check:
        payload["baseline"] = baseline_path
        payload["check"] = (comparison.to_json_dict()
                            if comparison is not None else None)
    return _dump(payload), code


# -- learned configuration prediction -----------------------------------------

def _load_dataset(path):
    from repro.learn.dataset import load_dataset

    return _load("dataset", path, load_dataset)


def _cmd_dataset(args):
    from repro.dse import ResultCache
    from repro.learn.dataset import build_dataset, save_dataset

    programs = _csv(args.programs, what="program") if args.programs else None
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    dataset = build_dataset(programs=programs, tiny=args.tiny,
                            cache=cache, jobs=args.jobs)
    save_dataset(dataset, args.out)
    if args.json:
        return _dump({
            "out": args.out,
            "rows": len(dataset.rows),
            "labels": list(dataset.labels),
            "feature_names": len(dataset.feature_names),
            "digest": dataset.digest,
            "tiny": args.tiny,
        }, sort_keys=True), EXIT_OK
    return (f"wrote {args.out}: {len(dataset.rows)} rows, "
            f"{len(dataset.labels)} classes, "
            f"{len(dataset.feature_names)} features "
            f"(digest {dataset.digest[:12]}...)"), EXIT_OK


def _cmd_train(args):
    from repro.learn.models import save_model, train_model

    dataset = _load_dataset(args.dataset)
    fitted = train_model(dataset, kind=args.model)
    save_model(fitted, args.out)
    importances = sorted(fitted.importances().items(),
                         key=lambda kv: (-kv[1], kv[0]))[:5]
    if args.json:
        return _dump({
            "out": args.out,
            "kind": fitted.kind,
            "labels": list(fitted.labels),
            "dataset_digest": fitted.dataset_digest,
            "importances": dict(importances),
        }, sort_keys=True), EXIT_OK
    lines = [f"wrote {args.out}: {fitted.kind} over "
             f"{len(dataset.rows)} rows, {len(fitted.labels)} classes"]
    lines += [f"  {name:40s} {value:6.1%}"
              for name, value in importances if value > 0]
    return "\n".join(lines), EXIT_OK


def _cmd_eval(args):
    from repro.learn.eval import DEFAULT_KINDS, evaluate

    dataset = _load_dataset(args.dataset)
    kinds = tuple(_csv(args.kinds, what="model kind")) if args.kinds \
        else DEFAULT_KINDS
    report = evaluate(dataset, kinds=kinds, topk=args.topk)
    regret = report.models[kinds[0]]._mean("energy")
    code = EXIT_GATE if regret > args.max_regret else EXIT_OK
    if args.json:
        payload = report.to_dict()
        payload["max_regret"] = args.max_regret
        payload["primary"] = kinds[0]
        payload["primary_mean_energy_regret"] = regret
        return _dump(payload, sort_keys=True), code
    return "\n".join([
        report.render(), "",
        f"gate: {kinds[0]} mean energy regret {regret:.1%} "
        f"vs ceiling {args.max_regret:.1%} -> "
        + ("FAIL" if code else "ok")]), code


def _cmd_predict(args):
    from repro.learn.dataset import corpus_features, label_knobs
    from repro.learn.models import load_model

    fitted = _load("model", args.model, load_model)
    features = corpus_features(args.program, args.iterations)
    ranked = fitted.ranked(features)[:args.topk]
    if args.json:
        return _dump({
            "program": args.program,
            "iterations": args.iterations,
            "kind": fitted.kind,
            "ranked": [{"label": label, "confidence": confidence,
                        **label_knobs(label)}
                       for label, confidence in ranked],
        }, sort_keys=True), EXIT_OK
    lines = [f"{args.program} x{args.iterations} ({fitted.kind}):"]
    lines += [f"  {label:14s} {confidence:6.1%}"
              for label, confidence in ranked]
    return "\n".join(lines), EXIT_OK


# -- capacity planning --------------------------------------------------------

def _cmd_plan(args):
    from repro.capacity.composition import CompositionSpace
    from repro.capacity.planner import FleetPlanner
    from repro.capacity.report import plan_json_dict, render_plan
    from repro.units import mw

    budget = mw(args.power_budget) if args.power_budget is not None \
        else None
    space = CompositionSpace(
        min_nodes=args.min_nodes, max_nodes=args.max_nodes,
        max_per_archetype=args.max_per_archetype, power_budget_w=budget)
    planner = FleetPlanner(space, arrival_rate=args.arrival_rate,
                           requests=args.requests,
                           max_batch=args.max_batch,
                           headroom=args.headroom)
    result = planner.plan()
    code = EXIT_OK
    if not args.no_verify:
        planner.verify_frontier(result, seed=args.verify_seed,
                                requests=args.verify_requests,
                                tolerance=args.tolerance)
        code = EXIT_OK if result.verified_ok else EXIT_GATE
    if args.json:
        return _dump(plan_json_dict(result), sort_keys=True), code
    return render_plan(result, verbose=args.verbose), code


def _cmd_validate(args):
    from repro.capacity.report import render_validation
    from repro.capacity.validation import TOLERANCE, run_validation

    tolerance = args.tolerance if args.tolerance is not None else TOLERANCE
    report = run_validation(tolerance=tolerance)
    code = EXIT_OK if report["passed"] else EXIT_GATE
    if args.json:
        return _dump(report, sort_keys=True), code
    return render_validation(report), code


def _parse_rates(spec: str):
    if ":" not in spec:
        return _csv(spec, float, "rate")
    try:
        lo, hi, step = map(float, spec.split(":"))
        valid = step > 0 and hi >= lo
    except ValueError:
        valid = False
    if not valid:
        raise ConfigurationError(f"bad --rates {spec!r} (want lo:hi:step)")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + index * step for index in range(count)]


def _cmd_sweep(args):
    from repro.capacity.model import CapacityInputs, CapacityModel
    from repro.capacity.report import render_sweep
    from repro.serve import AnalyticServiceBook
    from repro.serve.engine import default_power_budget

    rates = _parse_rates(args.rates)
    book = AnalyticServiceBook()
    model = CapacityModel(book)
    budget = None
    if args.power_fraction is not None:
        budget = default_power_budget(book, args.nodes,
                                      args.power_fraction)
    points = []
    saturation = None
    started = time.perf_counter()
    for rate in rates:
        prediction = model.predict(CapacityInputs(
            arrival_rate=rate, requests=args.requests, nodes=args.nodes,
            max_batch=args.max_batch, power_budget_w=budget))
        row = prediction.to_json_dict()
        row["arrival_rate"] = rate
        points.append(row)
        if saturation is None and not prediction.stable:
            previous = rates[max(0, len(points) - 2)]
            saturation = [previous, rate]
    wall_ms = (time.perf_counter() - started) * 1e3
    payload = {
        "nodes": args.nodes,
        "max_batch": args.max_batch,
        "requests": args.requests,
        "power_fraction": args.power_fraction,
        "points": points,
        "saturation_rate": saturation,
    }
    if args.json:
        return _dump(payload, sort_keys=True), EXIT_OK
    return render_sweep({**payload, "wall_ms": wall_ms}), EXIT_OK


# -- the parser ---------------------------------------------------------------

def _command(sub, name: str, handler, help_text: str, json_flag: bool = False):
    """One (sub)command: its parser, its handler and maybe ``--json``."""
    sp = sub.add_parser(name, help=help_text)
    sp.set_defaults(handler=handler)
    if json_flag:
        sp.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    return sp


def _serve_spec(sp: argparse.ArgumentParser) -> None:
    """The shared serving-run specification: ``serve`` runs it as-is,
    ``chaos`` layers fleet fault plans and resilience on top."""
    sp.add_argument("--nodes", type=int, default=4,
                    help="accelerator nodes in the fleet")
    sp.add_argument("--policy", choices=("fifo", "sjf", "edf", "power-cap"),
                    default="fifo", help="dispatch policy")
    sp.add_argument("--workload", choices=("poisson", "mmpp", "closed"),
                    default="poisson", help="request-stream generator")
    sp.add_argument("--arrival-rate", type=float, default=250.0,
                    help="open-loop arrival rate (requests/s)")
    sp.add_argument("--requests", type=int, default=600,
                    help="request-count bound (0 = duration-bound only)")
    sp.add_argument("--duration", type=float, default=None,
                    help="arrival-window bound in simulated seconds")
    sp.add_argument("--burst", type=float, default=4.0,
                    help="mmpp burst-state rate multiplier")
    sp.add_argument("--clients", type=int, default=8,
                    help="closed-loop client count")
    sp.add_argument("--think-ms", type=float, default=10.0,
                    help="closed-loop mean think time (ms)")
    sp.add_argument("--iterations", type=int, default=1,
                    help="kernel iterations per request")
    sp.add_argument("--deadline-factor", type=float, default=25.0,
                    help="deadline = arrival + factor x expected "
                         "service (0 disables deadlines)")
    sp.add_argument("--max-batch", type=int, default=8,
                    help="same-kernel requests coalesced per dispatch")
    sp.add_argument("--queue-capacity", type=int, default=0,
                    help="admission-control queue bound (0 = unbounded)")
    sp.add_argument("--drop-late", action="store_true",
                    help="drop requests already past their deadline at "
                         "dispatch time")
    sp.add_argument("--power-budget", type=float, default=None,
                    metavar="MW", help="fleet power budget in mW "
                    "(power-cap default: sized from the fleet)")
    sp.add_argument("--faults", choices=("on", "off"), default="off",
                    help="cycle canned per-node fault plans across "
                         "the fleet")
    sp.add_argument("--seed", type=int, default=1,
                    help="run seed (same seed => identical report)")
    sp.add_argument("--host-mhz", type=float, default=8.0)
    sp.add_argument("--scheduler", default=None, metavar="NAME",
                    help="extension dispatch policy registered by name "
                         "(e.g. 'predicted'; overrides --policy and "
                         "needs --model)")
    sp.add_argument("--model", default=None, metavar="PATH",
                    help="trained repro.learn model JSON: price the "
                         "fast tier at the predicted operating points")
    sp.add_argument("--confidence", type=float, default=0.5,
                    help="minimum model confidence before trusting a "
                         "prediction over the analytic point")
    sp.add_argument("--replay", default=None, metavar="PATH",
                    help="replay a JSON request trace instead of a "
                         "generator")


def _add_learn(sub) -> None:
    learn = sub.add_parser(
        "learn", help="learned configuration prediction: labeled "
                      "datasets, seeded models, regret vs the DSE oracle")
    learn_sub = learn.add_subparsers(dest="learn_command", required=True)

    dataset = _command(
        learn_sub, "dataset", _cmd_dataset,
        "sweep the corpus through the DSE engine and write the labeled "
        "dataset", json_flag=True)
    dataset.add_argument("--out", default="learn_dataset.json",
                         metavar="PATH", help="dataset output path")
    dataset.add_argument("--tiny", action="store_true",
                         help="reduced candidate grid (CI smoke scale)")
    dataset.add_argument("--programs", default=None,
                         help="comma-separated corpus subset "
                              "(default: the whole corpus)")
    dataset.add_argument("--jobs", type=int, default=1,
                         help="DSE worker processes")
    dataset.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persistent DSE result cache directory")

    train = _command(learn_sub, "train", _cmd_train,
                     "fit one model on a dataset and write its JSON",
                     json_flag=True)
    train.add_argument("--dataset", required=True, metavar="PATH")
    train.add_argument("--out", default="learn_model.json", metavar="PATH",
                       help="model output path")
    train.add_argument("--model", choices=("tree", "ridge", "dummy"),
                       default="tree", help="model kind")

    evaluate = _command(
        learn_sub, "eval", _cmd_eval,
        "leave-one-kernel-out regret report vs the oracle", json_flag=True)
    evaluate.add_argument("--dataset", required=True, metavar="PATH")
    evaluate.add_argument("--topk", type=int, default=3,
                          help="top-k window for the accuracy columns")
    evaluate.add_argument("--kinds", default=None,
                          help="comma-separated model kinds (first one "
                               "is the gated primary; default "
                               "tree,ridge,dummy)")
    evaluate.add_argument("--max-regret", type=float, default=0.15,
                          help="mean-energy-regret ceiling before "
                               f"exiting {EXIT_GATE}")

    predict = _command(
        learn_sub, "predict", _cmd_predict,
        "rank candidate configurations for one corpus program + "
        "iteration context", json_flag=True)
    predict.add_argument("--model", required=True, metavar="PATH")
    predict.add_argument("--program", required=True,
                         help="corpus program name (see repro.learn.CORPUS)")
    predict.add_argument("--iterations", type=int, default=1,
                         help="offload iteration context")
    predict.add_argument("--topk", type=int, default=3,
                         help="ranked labels to show")


def _add_capacity(sub) -> None:
    capacity = sub.add_parser(
        "capacity", help="analytic capacity model: fleet-composition "
                         "planning, DES cross-validation, rate sweeps")
    capacity_sub = capacity.add_subparsers(dest="capacity_command",
                                           required=True)

    plan = _command(capacity_sub, "plan", _cmd_plan,
                    "search archetype compositions under a power budget; "
                    "Pareto frontier, DES-verified", json_flag=True)
    plan.add_argument("--arrival-rate", type=float, default=300.0,
                      help="workload arrival rate (requests/s)")
    plan.add_argument("--power-budget", type=float, default=None,
                      metavar="MW", help="fleet provisioned-power budget "
                                         "in milliwatts (default: "
                                         "unbounded)")
    plan.add_argument("--min-nodes", type=int, default=1)
    plan.add_argument("--max-nodes", type=int, default=6,
                      help="total fleet size ceiling")
    plan.add_argument("--max-per-archetype", type=int, default=4)
    plan.add_argument("--requests", type=int, default=2000,
                      help="run length the analytic model prices")
    plan.add_argument("--max-batch", type=int, default=8)
    plan.add_argument("--headroom", type=float, default=0.85,
                      help="per-class utilization ceiling for "
                           "feasibility")
    plan.add_argument("--no-verify", action="store_true",
                      help="skip the DES re-verification of the frontier")
    plan.add_argument("--verify-requests", type=int, default=600,
                      help="request count of the verification DES runs")
    plan.add_argument("--verify-seed", type=int, default=7)
    plan.add_argument("--tolerance", type=float, default=0.15,
                      help="verification error bound before exiting "
                           f"{EXIT_GATE}")
    plan.add_argument("--verbose", action="store_true",
                      help="histogram the infeasibility reasons")

    validate = _command(capacity_sub, "validate", _cmd_validate,
                        "pinned analytic-vs-DES grid; the CI calibration "
                        "gate", json_flag=True)
    validate.add_argument("--tolerance", type=float, default=None,
                          help="gated relative-error bound (default: "
                               "the pinned 10%%); breach exits "
                               f"{EXIT_GATE}")

    sweep = _command(capacity_sub, "sweep", _cmd_sweep,
                     "analytic arrival-rate sweep of a homogeneous fleet "
                     "(no DES)", json_flag=True)
    sweep.add_argument("--rates", default="50:700:50",
                       help="lo:hi:step or comma-separated rates "
                            "(requests/s)")
    sweep.add_argument("--nodes", type=int, default=4)
    sweep.add_argument("--requests", type=int, default=2000)
    sweep.add_argument("--max-batch", type=int, default=8)
    sweep.add_argument("--power-fraction", type=float, default=None,
                       help="power-cap the fleet at "
                            "default_power_budget(book, nodes, FRACTION)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser: the one registry of commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the DATE 2016 heterogeneous-accelerator "
                    "paper's evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (title, about, *_) in _FIGURES.items():
        figure = _command(sub, name, _cmd_figure, f"{title}: {about}",
                          json_flag=True)
        if name == "figure5b":
            figure.add_argument("--kernel", choices=BENCHMARK_NAMES,
                                default=None,
                                help="benchmark to sweep (default: cnn)")
    _offload_flags(_command(sub, "offload", _cmd_offload,
                            "run one offload and report it", json_flag=True),
                   iterations=1)
    trace = _command(sub, "trace", _cmd_trace,
                     "offload under telemetry; export a Perfetto trace")
    _offload_flags(trace, iterations=4, positional_kernel=True)
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace-event JSON output path")
    trace.add_argument("--flame", default=None, metavar="PATH",
                       help="also write flamegraph collapsed stacks of the "
                            "kernel's machine-level counterpart")
    trace.add_argument("--ascii", action="store_true",
                       help="print ASCII span timelines too")
    _offload_flags(_command(sub, "metrics", _cmd_metrics,
                            "telemetry counters/lanes/phases of one offload",
                            json_flag=True),
                   iterations=4)

    lint = _command(sub, "lint", _cmd_lint,
                    "static CFG/dataflow analysis of OR10N-mini assembly")
    lint.add_argument("files", nargs="*",
                      help="assembly source files to analyze")
    lint.add_argument("--all-builtin", action="store_true",
                      help="lint every built-in machine program")
    lint.add_argument("--format", choices=("pretty", "json", "sarif"),
                      default="pretty", help="output format")
    lint.add_argument("--entry-regs", default="",
                      help="comma-separated registers preset at entry, "
                           "e.g. r1,r2,r4")
    lint.add_argument("--cores", type=int, default=0,
                      help="also run the SPMD concurrency analysis "
                           "(OR011..OR014) with this many cores")
    lint.add_argument("--preset", action="append", default=[],
                      metavar="rN=BASE[@STEP]",
                      help="per-core entry value: core c gets BASE + "
                           "c*STEP (repeatable; needs --cores)")
    lint.add_argument("--dma-out", default=None, metavar="LO:HI",
                      help="byte region a DMA ships out after the "
                           "program ends (enables OR013; needs --cores)")
    lint.add_argument("--banks", type=int, default=8,
                      help="TCDM banks for the OR014 conflict model")
    lint.add_argument("--strict", action="store_true",
                      help="fail on warnings too, not only errors")

    faults = _command(sub, "faults", _cmd_faults,
                      "seeded fault-injection campaign on the resilient "
                      "offload runtime", json_flag=True)
    faults.add_argument("--scenarios", type=int, default=11,
                        help="number of seeded scenarios (cycles through "
                             "the fault taxonomy)")
    faults.add_argument("--seed", type=int, default=1,
                        help="campaign seed (same seed => identical matrix)")
    faults.add_argument("--kernel", choices=BENCHMARK_NAMES,
                        default="matmul")
    faults.add_argument("--host-mhz", type=float, default=8.0)
    faults.add_argument("--iterations", type=int, default=1)
    faults.add_argument("--ber", type=float, default=2e-5,
                        help="bit error rate of the bit-error scenarios")
    faults.add_argument("--no-fallback", action="store_true",
                        help="disable the OpenMP host fallback (exhausted "
                             "ladders then count as failed)")
    faults.add_argument("--trace", default=None, metavar="PATH",
                        help="also write a Chrome trace of the campaign")

    dse = _command(sub, "dse", _cmd_dse,
                   "design-space exploration: parallel, cached sweeps with "
                   "Pareto analysis", json_flag=True)
    dse.add_argument("--spec", default=None, metavar="PATH",
                     help="JSON parameter-space spec "
                          '({"grid": {...}, "points": [...]})')
    for dest, _, _, what in _DSE_KNOB_OPTIONS:
        dse.add_argument("--" + dest.replace("_", "-"), default=None,
                         help=f"comma-separated {what}")
    dse.add_argument("--jobs", type=int, default=1,
                     help="worker processes (1 = in-process, deterministic "
                          "fallback)")
    dse.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="persistent result cache directory")

    serve = _command(sub, "serve", _cmd_serve,
                     "multi-accelerator serving simulation: workload -> "
                     "scheduler -> node fleet", json_flag=True)
    _serve_spec(serve)
    serve.add_argument("--miss-threshold", type=float, default=0.05,
                       help=f"miss-rate ceiling before exiting {EXIT_GATE}")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="also write a Chrome trace of the run")
    chaos = _command(sub, "chaos", _cmd_chaos,
                     "fleet fault campaigns over the serving runtime: crash "
                     "storms, brownouts, flapping, surges -> resilience "
                     "scorecard", json_flag=True)
    _serve_spec(chaos)
    chaos.add_argument("--plan", default=None, metavar="PATH",
                       help="JSON fleet plan (object or list of objects) "
                            "instead of the pinned campaign")
    chaos.add_argument("--empty", action="store_true",
                       help="run the empty plan only: bit-identical to a "
                            "plain `serve` of the same spec")
    chaos.add_argument("--chaos-seed", type=int, default=1,
                       help="seed of the fleet-plan expansion (independent "
                            "of the serve --seed)")
    chaos.add_argument("--resilience", choices=("auto", "on", "off"),
                       default="auto",
                       help="arm breakers/hedging/overload/SLO machinery "
                            "(auto: only when the plan has events)")
    chaos.add_argument("--collapse-threshold", type=float, default=0.5,
                       help="availability floor under which a scenario "
                            "counts as fleet collapse")
    chaos.add_argument("--slo-factor", type=float, default=None,
                       help="override the latency SLO factor "
                            "(target = factor x expected service)")
    chaos.add_argument("--serve-json", default=None, metavar="PATH",
                       help="write the first scenario's full serve report "
                            "JSON to PATH")
    chaos.add_argument("--alerts", default=None, metavar="PATH",
                       help="write the alerts.log-style event stream to "
                            "PATH")

    bench = _command(sub, "bench", _cmd_bench,
                     "tracked performance benchmarks: write the next "
                     "BENCH_<n>.json, gate on regressions", json_flag=True)
    bench.add_argument("--quick", action="store_true",
                       help="median-of-3 instead of median-of-5 (same "
                            "pinned workloads, so results stay comparable)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="explicit timed repeats per suite")
    bench.add_argument("--suites", default=None,
                       help="comma-separated suite subset (default: all; "
                            "sim,serve,dse_cold,dse_cached,faults,analysis,"
                            "learn,chaos,capacity)")
    bench.add_argument("--out-dir", default="benchmarks/results",
                       metavar="DIR",
                       help="trajectory directory for BENCH_<n>.json")
    bench.add_argument("--no-write", action="store_true",
                       help="run and report without writing a trajectory "
                            "entry")
    bench.add_argument("--check", action="store_true",
                       help="compare against the latest committed entry "
                            f"(or --baseline); exit {EXIT_REGRESSION} "
                            "on regression")
    bench.add_argument("--baseline", default=None, metavar="PATH",
                       help="explicit baseline file for --check")
    bench.add_argument("--threshold", type=float, default=0.20,
                       help="median-throughput loss treated as a "
                            "regression (default 0.20)")
    bench.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                       default=None,
                       help="judge two existing BENCH files; no run")
    bench.add_argument("--profile", default=None, metavar="PATH",
                       help="write per-suite Chrome traces of the "
                            "instrumented pass (PATH gets the suite name "
                            "inserted)")
    bench.add_argument("--flame", default=None, metavar="PATH",
                       help="write a collapsed-stack flamegraph of the "
                            "per-phase totals")

    _add_learn(sub)
    _add_capacity(sub)
    _command(sub, "all", _cmd_all, "everything, in paper order")
    _command(sub, "report", _cmd_report,
             "markdown reproduction report with anchor checks")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The one error boundary: a :class:`~repro.errors.ReproError` from any
    command becomes ``SystemExit("<command>: <message>")`` — exit 1 with
    a one-line message on stderr, no traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        output, code = args.handler(args)
    except ReproError as exc:
        raise SystemExit(f"{args.command}: {exc}") from None
    try:
        print(output)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
    return code


if __name__ == "__main__":
    sys.exit(main())

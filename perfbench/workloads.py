"""The benchmark's three workloads, driven through the library's public API.

Each workload is set up once per process (:meth:`Workload.setup`) and then
runs *rounds*.  A round is a fixed, seeded amount of work whose library
calls are timed one operation at a time; everything else in a round
(building inputs, checking outputs) stays outside the timed regions.

* ``serve-steady`` — a round is one plain serve simulation;
* ``serve-chaos`` — a round is one heterogeneous, resilient serve
  simulation under a rolling fleet fault plan;
* ``dse-sweep`` — a round is one cold pass over a ~240-point design-space
  grid, one timed operation per configuration, plus a check that the
  pinned Pareto frontier of ``benchmarks/results/golden.json`` comes back.

Every operation's outputs are checked; a failed check is a failed
operation.  Simulated statistics are outputs to check, not metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.dse import (ExplorationEngine, ParameterSpace, ResultCache,
                       pareto_frontier)
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, FleetPlan
from repro.kernels import BENCHMARK_NAMES
from repro.serve import (AnalyticServiceBook, FleetSpec, NodeArchetype,
                         Policy, PoissonWorkload, Request, ResilienceConfig,
                         SchedulerConfig, ServeConfig, ServeEngine,
                         default_power_budget, run_scenario)
from repro.serve.workload import DEFAULT_MIX

#: Relative tolerance of simulated float statistics against the pinned
#: reference: loose enough for float reassociation, tight enough that a
#: mispriced kernel (a per-cent level shift) fails.  Counts (arrivals,
#: completions, drops, requeues, ...) must match exactly, so one lost
#: event fails too.
REL_TOL = 1e-4

#: Tolerance of the golden Pareto frontier (the same as the repository's
#: own golden-results test).
GOLDEN_REL_TOL = 1e-9

#: Seed of the reference operation compared against ``reference.json``.
REFERENCE_SEED = 2016

#: Slack of the power-cap check (the scheduler's own power epsilon).
POWER_SLACK = 1e-6

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Round:
    """What one round did: timed operations, checks, statistics."""

    #: (host seconds, work units) of every timed operation.
    ops: List[Tuple[float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def units(self) -> int:
        return sum(units for _, units in self.ops)

    @property
    def samples_s(self) -> List[float]:
        return [seconds for seconds, _ in self.ops]

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation; record *message* when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    """Whether *a* and *b* agree within *rel* (relative to the larger)."""
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def compare_stats(got: Dict[str, object], pinned: Dict[str, object],
                  rel: float = REL_TOL) -> List[str]:
    """Mismatches of *got* against *pinned*: exact ints, *rel* floats."""
    problems = []
    for key in sorted(set(got) | set(pinned)):
        if key not in got or key not in pinned:
            problems.append(f"{key}: missing on one side")
            continue
        a, b = got[key], pinned[key]
        if isinstance(b, float) or isinstance(a, float):
            if not close(float(a), float(b), rel):
                problems.append(f"{key}: {a!r} != pinned {b!r}")
        elif a != b:
            problems.append(f"{key}: {a!r} != pinned {b!r}")
    return problems


def load_reference() -> Dict[str, Dict[str, object]]:
    """The pinned reference statistics, keyed by workload name."""
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def op_seed(seed: int, index: int) -> int:
    """The library seed of operation *index* of a run seeded with *seed*."""
    return seed * 1000 + index + 1


class Workload:
    """Base class: set-up, seeded rounds, and the reference round."""

    name = ""
    #: What one unit of work is (for human-readable output).
    unit = ""

    def setup(self, seed: int) -> None:
        """Everything before the first timed operation."""
        raise NotImplementedError

    def round(self, index: int) -> Round:
        """Run and check round *index* (seeded from the run's seed)."""
        raise NotImplementedError

    def reference_round(self) -> Optional[Round]:
        """An extra round at :data:`REFERENCE_SEED`, checked against the
        pinned statistics (None when every round is already checked)."""
        raise NotImplementedError

    def reference_stats(self) -> Dict[str, object]:
        """The statistics ``reference.json`` pins for this workload."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up created (work directories)."""


# -- serving ---------------------------------------------------------------------

def serve_stats(report, summary: Dict[str, object]) -> Dict[str, object]:
    """The simulated statistics of one serve report (digest + reference);
    *summary* is the report's ``metrics()``."""
    stats = {key: summary[key] for key in (
        "arrivals", "completed", "dropped", "requeues", "host_fallbacks",
        "deadline_misses", "duration_s", "latency_p50_ms", "latency_p95_ms",
        "latency_p99_ms", "mean_latency_ms", "energy_per_request_uj",
        "fleet_energy_mj", "power_peak_mw")}
    stats["drop_reasons"] = dict(sorted(summary["drop_reasons"].items()))
    if report.resilience is not None:
        res = report.resilience
        stats["breaker_trips"] = res["breakers"]["trips"]
        stats["hedges"] = res["hedging"]["issued"]
        stats["sheds"] = res["overload"]["sheds"]
        stats["ejections"] = res["health"]["ejections"]
        stats["alerts"] = len(res["alerts"])
    return stats


def check_serve_report(result: Round, report, requests: int,
                       budget_w: Optional[float],
                       drop_reasons: tuple) -> None:
    """Output checks of one serve simulation (one checked operation).

    Conservation is checked against the generated stream, not against
    the report's own totals, so a report that loses one record fails:
    every generated request id must be completed or dropped exactly once.
    """
    problems = []
    ids = sorted([r.request.request_id for r in report.records]
                 + [request.request_id for request, _ in report.dropped])
    if ids != list(range(requests)):
        problems.append(
            f"conservation: {len(report.records)} completed + "
            f"{len(report.dropped)} dropped do not cover the "
            f"{requests} generated requests exactly once")
    if report.fleet_energy_j < 0 or any(r.energy_j < 0
                                        for r in report.records):
        problems.append("negative energy")
    if any(r.start_s < r.request.arrival_s or r.end_s < r.start_s
           for r in report.records):
        problems.append("a request started before it arrived or ended "
                        "before it started")
    if budget_w is not None \
            and report.power_peak_w > budget_w * (1.0 + POWER_SLACK):
        problems.append(f"peak power {report.power_peak_w!r} W over the "
                        f"{budget_w!r} W budget")
    unexpected = {reason for _, reason in report.dropped} \
        - set(drop_reasons)
    if unexpected:
        problems.append(f"unexpected drop reasons {sorted(unexpected)}")
    result.check(not problems, "; ".join(problems))


class _ServeWorkload(Workload):
    """Shared round logic of the two serve workloads."""

    unit = "simulated requests"
    requests = 0
    rate_per_s = 0.0
    budget_w: Optional[float] = None
    drop_reasons: tuple = ()

    def setup(self, seed: int) -> None:
        self.seed = seed

    def simulate(self, library_seed: int):
        """Run one simulation; returns the serve report."""
        raise NotImplementedError

    def _run(self, library_seed: int) -> Round:
        result = Round()
        started = time.perf_counter()
        try:
            report = self.simulate(library_seed)
            summary = report.metrics()
            report.to_json()
        except Exception as exc:  # a crashed simulation is a failed op
            result.check(False, f"seed {library_seed}: "
                         f"{type(exc).__name__}: {exc}")
            return result
        result.ops.append((time.perf_counter() - started, self.requests))
        check_serve_report(result, report, self.requests, self.budget_w,
                           self.drop_reasons)
        result.stats = serve_stats(report, summary)
        return result

    def round(self, index: int) -> Round:
        return self._run(op_seed(self.seed, index))

    def reference_stats(self) -> Dict[str, object]:
        return self._run(REFERENCE_SEED).stats

    def reference_round(self) -> Round:
        result = self._run(REFERENCE_SEED)
        if result.stats:
            pinned = load_reference()[self.name]
            problems = compare_stats(result.stats, pinned)
            result.check(not problems,
                         "reference: " + "; ".join(problems))
        return result


class ServeSteady(_ServeWorkload):
    """A homogeneous 4-node FIFO fleet below saturation, no faults."""

    name = "serve-steady"
    nodes = 4
    requests = 20000
    rate_per_s = 300.0

    def setup(self, seed: int) -> None:
        super().setup(seed)
        # Pricing is set-up: every simulation reuses the priced book.
        self.book = AnalyticServiceBook()
        for kernel in DEFAULT_MIX:
            for tier in self.book.tiers():
                self.book.profile(kernel, tier)

    def simulate(self, library_seed: int):
        config = ServeConfig(
            workload=PoissonWorkload(rate=self.rate_per_s,
                                     requests=self.requests,
                                     seed=library_seed),
            nodes=self.nodes, book=self.book, seed=library_seed)
        return ServeEngine(config).run()


class PricedFleetSpec(FleetSpec):
    """A FleetSpec handing out books priced once, at set-up, so that each
    simulation measures serving rather than re-pricing the archetypes."""

    priced: Optional[Dict[str, AnalyticServiceBook]] = None

    def books(self):
        return self.priced


class ServeChaos(_ServeWorkload):
    """Two routed archetypes under power cap, resilience and rolling chaos."""

    name = "serve-chaos"
    requests = 12000
    rate_per_s = 400.0
    drop_reasons = ("shed", "retry-budget")
    #: Per-attempt kernel-hang probability after each node's first,
    #: certain hang.  Hung batches overrun their promised end, which is
    #: what makes hedged dispatch fire.  It is 0 so that no batch hangs
    #: twice and reaches the ``reboot`` rung of the recovery ladder, where
    #: the library exceeds the POWER_CAP budget (see README.md, "Known
    #: defect"; ``tests/test_perfbench.py`` pins it).
    hang_rate = 0.0

    def setup(self, seed: int) -> None:
        super().setup(seed)
        big = NodeArchetype(name="big", cluster_size=4)
        lite = NodeArchetype(name="lite", cluster_size=2)
        spec = FleetSpec(groups=((big, 3), (lite, 3)),
                         routing={"cnn": "big", "svm (RBF)": "lite"})
        # Pricing is set-up: price each archetype's book once and hand
        # every simulation the same books.
        books = spec.books()
        for book in books.values():
            for kernel in DEFAULT_MIX:
                for tier in book.tiers():
                    book.profile(kernel, tier)
                book.host_time(Request(request_id=-1, kernel=kernel,
                                       arrival_s=0.0))
        self.fleet = PricedFleetSpec(groups=spec.groups,
                                     routing=spec.routing)
        self.fleet.priced = books
        self.budget_w = default_power_budget(books["big"], spec.nodes)
        self.resilience = ResilienceConfig(
            breaker_failures=1, queue_high=48, queue_low=8,
            overload_patience=4, retry_budget=16)

    def plans(self, library_seed: int):
        """(fleet plan, per-node fault plans) of one simulation.

        The fleet plan rolls over the whole run: a crash storm, a fleet
        brownout and an arrival surge every ~1.2 s of model time, with
        seeded jitter, plus one node flapping throughout.
        """
        rng = random.Random(library_seed)
        horizon = self.requests / self.rate_per_s
        events = []
        t = 0.3
        while t < horizon:
            jitter = 0.2 * rng.random()
            events.append(FleetPlan.crash_storm(
                nodes=2, start_s=t + jitter, window_s=0.3, recover_s=0.4))
            events.append(FleetPlan.fleet_brownout(
                droop=0.6, start_s=t + 0.5 + jitter, window_s=0.4))
            events.append(FleetPlan.arrival_surge(
                factor=3.0, start_s=t + 0.8 + jitter, window_s=0.25))
            t += 1.2
        events.append(FleetPlan.flapping(nodes=1, period_s=0.2,
                                         start_s=0.1, window_s=horizon))
        fleet_plan = FleetPlan.fleet_combined("rolling", *events)
        # count=1: the first attempt on every node hangs, its re-arm runs.
        hangs = FaultPlan("hangs", (FaultSpec(
            FaultKind.KERNEL_HANG, count=1, rate=self.hang_rate),))
        return fleet_plan, [hangs]

    def simulate(self, library_seed: int):
        fleet_plan, fault_plans = self.plans(library_seed)
        config = ServeConfig(
            workload=PoissonWorkload(rate=self.rate_per_s,
                                     requests=self.requests,
                                     seed=library_seed),
            fleet=self.fleet,
            scheduler=SchedulerConfig(policy=Policy.POWER_CAP,
                                      power_budget_w=self.budget_w,
                                      max_batch=4),
            fault_plans=fault_plans, seed=library_seed,
            resilience=self.resilience)
        return run_scenario(config, fleet_plan,
                            chaos_seed=library_seed).report


# -- design-space exploration ----------------------------------------------------


#: The swept grid: every kernel x host clock x budget x SPI x cluster.
DSE_GRID = {
    "host_mhz": [2.0, 8.0, 16.0],
    "budget_mw": [5.0, 10.0],
    "spi_mode": ["single", "quad"],
    "cluster_size": [2, 4],
}

GOLDEN_PATH = Path("benchmarks") / "results" / "golden.json"


def dse_stats(records: List[Dict[str, object]]) -> Dict[str, object]:
    """Order-independent statistics of one sweep pass."""
    feasible = [r["metrics"] for r in records if r["feasible"]]
    return {
        "configs": len(records),
        "feasible": len(feasible),
        "verified": sum(1 for m in feasible if m["verified"]),
        # fsum is exact, so the sums do not depend on the pass order.
        "speedup_sum": math.fsum(m["effective_speedup"] for m in feasible),
        "energy_sum_j": math.fsum(m["energy_per_iteration_j"]
                                  for m in feasible),
        "power_sum_w": math.fsum(m["total_power_w"] for m in feasible),
    }


def check_dse_record(result: Round, config, record) -> None:
    """Output checks of one evaluated configuration."""
    if record["config_hash"] != config.hash:
        result.check(False, f"{config.label()}: wrong config hash")
    elif record["feasible"]:
        result.check(bool(record["metrics"]["verified"]),
                     f"{config.label()}: feasible but not verified")
    else:
        # Infeasible points are results, but they must say why.
        result.check(bool(record["error"]),
                     f"{config.label()}: infeasible without a reason")


def check_frontier(result: Round, records: List[Dict[str, object]],
                   golden: Dict[str, object], golden_hashes: set) -> None:
    """The golden ``dse_pareto`` frontier, rebuilt from this pass."""
    subset = [r for r in records if r["config_hash"] in golden_hashes]
    measured = pareto_frontier(subset)
    pinned = golden["frontier"]
    ok = [r["config_hash"] for r in measured] \
        == [r["config_hash"] for r in pinned]
    if ok:
        for pin, got in zip(pinned, measured):
            for key in ("effective_speedup", "energy_per_iteration_j",
                        "total_power_w"):
                ok = ok and close(got["metrics"][key], pin[key],
                                  GOLDEN_REL_TOL)
    result.check(ok, "golden dse_pareto frontier not reproduced")


class DseSweep(Workload):
    """A cold exploration: fresh cache per pass, one config per operation."""

    name = "dse-sweep"
    unit = "configurations"

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work

    def setup(self, seed: int) -> None:
        self.seed = seed
        with open(self.root / GOLDEN_PATH, "r", encoding="utf-8") as handle:
            self.golden = json.load(handle)["dse_pareto"]
        golden_space = ParameterSpace.from_dict(self.golden["spec"])
        golden_configs = golden_space.expand()
        self.golden_hashes = {config.hash for config in golden_configs}
        space = ParameterSpace(
            grid=dict(DSE_GRID, kernel=list(BENCHMARK_NAMES)),
            points=[config.as_dict() for config in golden_configs])
        self.configs = space.expand()
        self.work.mkdir(parents=True, exist_ok=True)

    def round(self, index: int) -> Round:
        result = self.sweep(index)
        problems = compare_stats(result.stats, load_reference()[self.name])
        result.check(not problems, "reference: " + "; ".join(problems))
        return result

    def reference_stats(self) -> Dict[str, object]:
        return self.sweep(0).stats

    def sweep(self, index: int) -> Round:
        """One cold pass in a seeded order, checked per configuration."""
        configs = list(self.configs)
        # Every pass evaluates the same configurations, in its own order.
        random.Random(op_seed(self.seed, index)).shuffle(configs)
        cache_dir = self.work / f"cache-{index}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        engine = ExplorationEngine(cache=ResultCache(cache_dir), jobs=1)
        result = Round()
        records = []
        for config in configs:
            started = time.perf_counter()
            try:
                outcome = engine.run(ParameterSpace(
                    points=[config.as_dict()]))
            except Exception as exc:  # a crashed evaluation is a failed op
                result.check(False, f"{config.label()}: "
                             f"{type(exc).__name__}: {exc}")
                continue
            result.ops.append((time.perf_counter() - started, 1))
            record = outcome.records[0]
            check_dse_record(result, config, record)
            records.append(record)
        shutil.rmtree(cache_dir, ignore_errors=True)
        check_frontier(result, records, self.golden, self.golden_hashes)
        result.stats = dse_stats(records)
        return result

    def reference_round(self) -> None:
        # The sweep is the same set of configurations whatever the seed
        # (the seed only orders it), so every round is already compared
        # against the pinned statistics.
        return None

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def make_workload(name: str, root: Path, work: Path) -> Workload:
    """The workload called *name*; *work* is its work directory."""
    if name == "dse-sweep":
        return DseSweep(root, work)
    return {"serve-steady": ServeSteady, "serve-chaos": ServeChaos}[name]()


def digest(stats: List[Dict[str, object]]) -> str:
    """Exact digest of the simulated statistics of every round."""
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

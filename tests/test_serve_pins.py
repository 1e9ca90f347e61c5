"""Pinned outputs of four seeded serve scenarios.

Every engine path — plain dispatch, the power gate with per-node fault
ladders, strict routing on a heterogeneous fleet, the resilience
machinery with and without hedging — is run once on a seeded workload
and folded into exact counts, floats compared at ``rel=1e-9``, and a
SHA-256 of every completed request's ``(request_id, node, tier,
requeues, fault_attempts)`` in report order.  A refactor of the engine
must leave all of them where they are.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.faults.plan import FaultPlan, FleetPlan
from repro.serve import (
    AnalyticServiceBook,
    FleetSpec,
    NodeArchetype,
    PoissonWorkload,
    ResilienceConfig,
    ServeConfig,
    ServeEngine,
    run_scenario,
)
from repro.serve.engine import default_power_budget
from repro.serve.scheduler import Policy, SchedulerConfig

#: The ``repro serve --faults on`` per-node plans, cycled across nodes.
CANNED_PLANS = (FaultPlan.clean(), FaultPlan.kernel_hang(2),
                FaultPlan.boot_failure(3), FaultPlan.brownout(0.85))

ROUTED_SPEC = FleetSpec(
    groups=((NodeArchetype(name="big", cluster_size=4), 2),
            (NodeArchetype(name="lite", cluster_size=2), 2)),
    routing={"cnn": "big", "svm (RBF)": "lite"})

#: Tight enough that the storm trips breakers, spends and exhausts the
#: retry budget, climbs the overload ladder to shedding, and hedges
#: overdue batches.
ARMED = ResilienceConfig(breaker_failures=1, queue_high=48, queue_low=8,
                         overload_patience=4, retry_budget=2,
                         retry_ratio=0.0, hedge_margin_s=1e-4)


def _plain_fifo(book):
    return ServeEngine(ServeConfig(
        workload=PoissonWorkload(rate=600.0, requests=600, seed=2016),
        nodes=4, scheduler=SchedulerConfig(policy=Policy.FIFO),
        seed=2016, book=book)).run()


def _power_cap_faults(book):
    return ServeEngine(ServeConfig(
        workload=PoissonWorkload(rate=400.0, requests=600, seed=7),
        nodes=4,
        scheduler=SchedulerConfig(
            policy=Policy.POWER_CAP,
            power_budget_w=default_power_budget(book, 4)),
        fault_plans=list(CANNED_PLANS), seed=7, book=book)).run()


def routed_storm(book, hedging=True):
    """(config, fleet plan) of the routed, resilient crash-storm run."""
    # Room for every node to run hot, so the power gate never blocks a
    # hedge.
    budget = default_power_budget(book, ROUTED_SPEC.nodes,
                                  active_fraction=1.0)
    config = ServeConfig(
        workload=PoissonWorkload(rate=560.0, requests=480, seed=5),
        fleet=ROUTED_SPEC,
        scheduler=SchedulerConfig(policy=Policy.POWER_CAP,
                                  power_budget_w=budget, max_batch=4),
        # The first attempt on every other node hangs, so early batches
        # overrun their promised end and get hedged onto a clean peer.
        fault_plans=[FaultPlan.kernel_hang(1), FaultPlan.clean()], seed=5,
        resilience=dataclasses.replace(ARMED, hedging=hedging))
    plan = FleetPlan.crash_storm(nodes=2, start_s=0.2, window_s=0.3,
                                 recover_s=0.4)
    return config, plan


def _routed_storm(book, hedging=True):
    config, plan = routed_storm(book, hedging)
    return run_scenario(config, plan, chaos_seed=5).report


SCENARIOS = {
    "plain-fifo": _plain_fifo,
    "power-cap-faults": _power_cap_faults,
    "routed-storm-hedged": _routed_storm,
    "routed-storm-unhedged": lambda book: _routed_storm(book,
                                                       hedging=False),
}

_COUNTS = ("arrivals", "completed", "dropped", "drop_reasons",
           "deadline_misses", "host_fallbacks", "requeues",
           "fault_attempts", "dead_nodes", "reboots")
_FLOATS = ("duration_s", "latency_p50_ms", "latency_p95_ms",
           "latency_p99_ms", "mean_wait_ms", "mean_latency_ms",
           "wasted_time_ms", "energy_per_request_uj", "fleet_energy_mj",
           "power_peak_mw")


def pins(report):
    """(exact counts, floats, record digest) of one report."""
    metrics = report.metrics()
    counts = {key: metrics[key] for key in _COUNTS}
    counts["node_requests"] = dict(sorted(report.node_requests.items()))
    counts["node_batches"] = dict(sorted(report.node_batches.items()))
    floats = {key: metrics[key] for key in _FLOATS}
    res = report.resilience
    if res is not None:
        counts["resilience"] = {
            "breaker_trips": res["breakers"]["trips"],
            "retry_spent": res["retry_budget"]["spent"],
            "retry_denied": res["retry_budget"]["denied"],
            "hedges": res["hedging"]["issued"],
            "hedge_wins": res["hedging"]["wins"],
            "hedge_covered_failures": res["hedging"]["covered_failures"],
            "ejections": res["health"]["ejections"],
            "readmissions": res["health"]["readmissions"],
            "peak_level": res["overload"]["peak_level"],
            "escalations": res["overload"]["escalations"],
            "eco_degrades": res["overload"]["eco_degrades"],
            "sheds": res["overload"]["sheds"],
            "alerts": len(res["alerts"]),
        }
        floats["hedge_waste_time_s"] = res["hedging"]["waste_time_s"]
        floats["slo_worst_burn"] = res["slo"]["worst_burn"]
    rows = [[record.request.request_id, record.node, record.tier,
             record.requeues, record.fault_attempts]
            for record in report.records]
    digest = hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    return counts, floats, digest


#: Recorded from these seeded runs; an engine change that moves any of
#: them changes serving behaviour and must say so.
PINNED = {
    "plain-fifo": (
        {"arrivals": 600,
         "completed": 600,
         "dropped": 0,
         "drop_reasons": {},
         "deadline_misses": 0,
         "host_fallbacks": 0,
         "requeues": 0,
         "fault_attempts": 0,
         "dead_nodes": 0,
         "reboots": 0,
         "node_requests": {"host-fallback": 0,
                           "node0": 153,
                           "node1": 155,
                           "node2": 144,
                           "node3": 148},
         "node_batches": {"host-fallback": 0,
                          "node0": 102,
                          "node1": 109,
                          "node2": 102,
                          "node3": 107}},
        {"duration_s": 1.052817646,
         "latency_p50_ms": 10.725876,
         "latency_p95_ms": 31.24578,
         "latency_p99_ms": 39.987547,
         "mean_wait_ms": 2.267313,
         "mean_latency_ms": 13.219808,
         "wasted_time_ms": 0.0,
         "energy_per_request_uj": 34.164044,
         "fleet_energy_mj": 30.69054,
         "power_peak_mw": 32.499942},
        "2df30edc77cdf27d728171cccac3c0723de51267"
        "554d10987a67818f44b0b954"),
    "power-cap-faults": (
        {"arrivals": 600,
         "completed": 600,
         "dropped": 0,
         "drop_reasons": {},
         "deadline_misses": 0,
         "host_fallbacks": 0,
         "requeues": 1,
         "fault_attempts": 2,
         "dead_nodes": 1,
         "reboots": 2,
         "node_requests": {"host-fallback": 0,
                           "node0": 226,
                           "node1": 201,
                           "node2": 0,
                           "node3": 173},
         "node_batches": {"host-fallback": 0,
                          "node0": 158,
                          "node1": 159,
                          "node2": 0,
                          "node3": 133}},
        {"duration_s": 1.549970908,
         "latency_p50_ms": 9.918932,
         "latency_p95_ms": 28.678472,
         "latency_p99_ms": 40.660352,
         "mean_wait_ms": 2.546171,
         "mean_latency_ms": 12.960838,
         "wasted_time_ms": 16.029939,
         "energy_per_request_uj": 35.422186,
         "fleet_energy_mj": 33.150407,
         "power_peak_mw": 32.499827},
        "de2629d821def28093e88d593c8c8eecfa30f158"
        "f585dc5e8649563838b8868a"),
    "routed-storm-hedged": (
        {"arrivals": 480,
         "completed": 435,
         "dropped": 45,
         "drop_reasons": {"retry-budget": 2, "shed": 43},
         "deadline_misses": 16,
         "host_fallbacks": 4,
         "requeues": 1,
         "fault_attempts": 1,
         "dead_nodes": 0,
         "reboots": 2,
         "node_requests": {"host-fallback": 4,
                           "node0": 65,
                           "node1": 118,
                           "node2": 84,
                           "node3": 166},
         "node_batches": {"host-fallback": 1,
                          "node0": 46,
                          "node1": 61,
                          "node2": 49,
                          "node3": 73},
         "resilience": {"breaker_trips": 2,
                        "retry_spent": 1,
                        "retry_denied": 2,
                        "hedges": 2,
                        "hedge_wins": 1,
                        "hedge_covered_failures": 0,
                        "ejections": 2,
                        "readmissions": 2,
                        "peak_level": 3,
                        "escalations": 3,
                        "eco_degrades": 15,
                        "sheds": 43,
                        "alerts": 20}},
        {"duration_s": 1.87870131,
         "latency_p50_ms": 20.078158,
         "latency_p95_ms": 95.527444,
         "latency_p99_ms": 118.345477,
         "mean_wait_ms": 16.080543,
         "mean_latency_ms": 40.842691,
         "wasted_time_ms": 5.514969,
         "energy_per_request_uj": 33.366216,
         "fleet_energy_mj": 25.571524,
         "power_peak_mw": 32.499975,
         "hedge_waste_time_s": 0.024802194,
         "slo_worst_burn": 106.382979},
        "5c6092299a514634ac2440dc3b6706ea9bc742c2"
        "41d0896e887491823b76d911"),
    "routed-storm-unhedged": (
        {"arrivals": 480,
         "completed": 435,
         "dropped": 45,
         "drop_reasons": {"retry-budget": 2, "shed": 43},
         "deadline_misses": 16,
         "host_fallbacks": 4,
         "requeues": 1,
         "fault_attempts": 2,
         "dead_nodes": 0,
         "reboots": 2,
         "node_requests": {"host-fallback": 4,
                           "node0": 65,
                           "node1": 116,
                           "node2": 85,
                           "node3": 165},
         "node_batches": {"host-fallback": 1,
                          "node0": 47,
                          "node1": 64,
                          "node2": 50,
                          "node3": 71},
         "resilience": {"breaker_trips": 2,
                        "retry_spent": 1,
                        "retry_denied": 2,
                        "hedges": 0,
                        "hedge_wins": 0,
                        "hedge_covered_failures": 0,
                        "ejections": 2,
                        "readmissions": 2,
                        "peak_level": 3,
                        "escalations": 3,
                        "eco_degrades": 15,
                        "sheds": 43,
                        "alerts": 20}},
        {"duration_s": 1.87870131,
         "latency_p50_ms": 19.875091,
         "latency_p95_ms": 95.527444,
         "latency_p99_ms": 118.345477,
         "mean_wait_ms": 15.902069,
         "mean_latency_ms": 40.507773,
         "wasted_time_ms": 14.02718,
         "energy_per_request_uj": 33.470128,
         "fleet_energy_mj": 25.428372,
         "power_peak_mw": 32.499975,
         "hedge_waste_time_s": 0.0,
         "slo_worst_burn": 106.382979},
        "7d3194c8c422da846ac9973f37192eb2766b1de2"
        "ae184f01e30044a69866c5af"),
}


@pytest.fixture(scope="module")
def book():
    return AnalyticServiceBook()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_serve_outputs_are_pinned(name, book):
    counts, floats, digest = pins(SCENARIOS[name](book))
    want_counts, want_floats, want_digest = PINNED[name]
    assert counts == want_counts
    assert floats == pytest.approx(want_floats, rel=1e-9, abs=0.0)
    assert digest == want_digest


def test_scenarios_exercise_their_paths():
    """The pins are only worth something if each path actually ran."""
    hedged = PINNED["routed-storm-hedged"][0]["resilience"]
    unhedged = PINNED["routed-storm-unhedged"][0]["resilience"]
    assert hedged["hedges"] > 0 and hedged["hedge_wins"] > 0
    assert unhedged["hedges"] == 0
    for res in (hedged, unhedged):
        assert res["breaker_trips"] > 0 and res["retry_denied"] > 0
        assert res["peak_level"] == 3 and res["sheds"] > 0
    storm = PINNED["routed-storm-hedged"][0]
    assert storm["requeues"] > 0 and storm["host_fallbacks"] > 0
    faulted = PINNED["power-cap-faults"][0]
    assert faulted["dead_nodes"] == 1 and faulted["fault_attempts"] > 0

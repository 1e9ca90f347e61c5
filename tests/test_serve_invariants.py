"""Serve-engine invariants: equivalences, properties, bookkeeping.

* a single-group :class:`FleetSpec` serves exactly like the homogeneous
  fleet of the same size;
* over small random configs every request is completed or dropped
  exactly once, energy is never negative, timestamps are causal, reruns
  are bit-identical, an empty chaos plan is a plain serve, and a
  fault-free power-capped fleet never exceeds its budget;
* the hedging flight table is empty once a run drains.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FleetPlan
from repro.serve import (
    AnalyticServiceBook,
    ChaosInjector,
    FleetSpec,
    PoissonWorkload,
    ServeConfig,
    ServeEngine,
    run_scenario,
)
from repro.serve.engine import default_power_budget
from repro.serve.scheduler import POWER_EPSILON, Policy, SchedulerConfig
from tests.test_serve_pins import CANNED_PLANS, routed_storm

@pytest.fixture(scope="module")
def book():
    """One calibrated book: pricing is lazy and cached per (kernel, tier)."""
    return AnalyticServiceBook()


def _json_without_archetypes(report):
    payload = json.loads(report.to_json())
    payload.pop("node_archetypes", None)
    return payload


@pytest.mark.parametrize("policy", [Policy.FIFO, Policy.POWER_CAP])
def test_single_group_fleet_spec_equals_homogeneous_fleet(policy, book):
    budget = default_power_budget(book, 4) \
        if policy is Policy.POWER_CAP else None
    plain = ServeConfig(
        workload=PoissonWorkload(rate=500.0, requests=300, seed=9),
        nodes=4,
        scheduler=SchedulerConfig(policy=policy, power_budget_w=budget),
        fault_plans=list(CANNED_PLANS) if policy is Policy.POWER_CAP
        else None,
        seed=9)
    spec = dataclasses.replace(plain, fleet=FleetSpec.homogeneous(4))
    homogeneous = ServeEngine(plain).run()
    grouped = ServeEngine(spec).run()
    assert grouped.node_archetypes is not None
    assert homogeneous.node_archetypes is None
    assert _json_without_archetypes(grouped) \
        == _json_without_archetypes(homogeneous)


@given(nodes=st.integers(1, 4), policy=st.sampled_from(list(Policy)),
       max_batch=st.integers(1, 6),
       rate=st.sampled_from([100.0, 400.0, 1500.0]),
       requests=st.integers(5, 40),
       deadline_factor=st.sampled_from([None, 2.0, 8.0]),
       drop_late=st.booleans(), faults=st.booleans(),
       seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_serve_invariants_hold_on_random_configs(
        book, nodes, policy, max_batch, rate, requests, deadline_factor,
        drop_late, faults, seed):
    config = ServeConfig(
        workload=PoissonWorkload(rate=rate, requests=requests,
                                 deadline_factor=deadline_factor,
                                 seed=seed),
        nodes=nodes,
        scheduler=SchedulerConfig(
            policy=policy, max_batch=max_batch, drop_late=drop_late,
            power_budget_w=(default_power_budget(book, nodes)
                            if policy is Policy.POWER_CAP else None)),
        fault_plans=list(CANNED_PLANS) if faults else None,
        seed=seed, book=book)
    report = ServeEngine(config).run()

    served = [record.request.request_id for record in report.records]
    dropped = [request.request_id for request, _ in report.dropped]
    ids = served + dropped
    assert len(ids) == len(set(ids)) == requests

    assert report.fleet_energy_j >= 0.0
    assert all(energy >= 0.0 for energy in report.node_energy_j.values())
    for record in report.records:
        assert record.energy_j >= 0.0 and record.wasted_energy_j >= 0.0
        assert record.request.arrival_s <= record.start_s \
            <= record.end_s <= report.duration_s
    times = [t for t, _ in report.power_timeline]
    assert times == sorted(times)

    budget = config.scheduler.power_budget_w
    if budget is not None and not faults:
        assert report.power_peak_w <= budget * (1.0 + POWER_EPSILON)

    assert ServeEngine(config).run().to_json() == report.to_json()
    chaos = run_scenario(config, FleetPlan.empty())
    assert chaos.report.to_json() == report.to_json()


@pytest.mark.parametrize("hedging", [True, False])
def test_flight_table_is_empty_after_drain(hedging, book):
    config, plan = routed_storm(book, hedging=hedging)
    engine = ServeEngine(config)
    ChaosInjector(engine, plan, seed=5).install()
    report = engine.run()
    assert (report.resilience["hedging"]["issued"] > 0) == hedging
    assert engine._flights == {}

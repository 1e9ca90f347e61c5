"""Tests for repro.faults: plans, the injector, the resilient runtime
and the campaign layer."""

import json

import pytest

from repro import errors
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    DegradedExecutionError,
    FaultInjectionError,
)
from repro.faults import (
    CampaignRunner,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResilientDriver,
    RetryPolicy,
    Scenario,
    await_end_of_computation,
    build_campaign,
)
from repro.core.system import HeterogeneousSystem
from repro.kernels import MatmulKernel, all_kernels
from repro.link.protocol import Command, Frame, decode_frames, encode_frame
from repro.obs import Telemetry, use_telemetry
from repro.units import mhz


class TestFaultPlan:
    def test_clean_plan_is_empty(self):
        plan = FaultPlan.clean()
        assert plan.specs == ()
        assert plan.describe() == "clean"

    def test_plan_round_trips_through_json(self):
        plan = FaultPlan.combined(
            "mix",
            FaultPlan.bit_errors(1e-5),
            FaultPlan.kernel_hang(2),
            FaultPlan.brownout(0.75))
        payload = json.loads(json.dumps(plan.to_dict()))
        assert FaultPlan.from_dict(payload) == plan

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.combined("dup", FaultPlan.kernel_hang(1),
                               FaultPlan.kernel_hang(2))

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.BIT_ERRORS, rate=0.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.DROP_FRAME)  # needs rate or count
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.KERNEL_HANG, count=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.BROWNOUT, droop=1.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.DROP_FRAME, rate=1.5)

    def test_describe_names_every_spec(self):
        plan = FaultPlan.combined("mix", FaultPlan.drop_frames(count=3),
                                  FaultPlan.bit_errors(1e-4))
        text = plan.describe()
        assert "drop-frame(count=3)" in text
        assert "bit-errors(rate=0.0001)" in text


class TestFaultInjector:
    def test_same_seed_same_events(self):
        plan = FaultPlan.combined("mix", FaultPlan.drop_frames(rate=0.4),
                                  FaultPlan.boot_failure(2))
        def trail(seed):
            injector = FaultInjector(plan, seed=seed)
            out = []
            for _ in range(32):
                out.append(injector.mangle_transmission(b"abcdef"))
                out.append(injector.boot_fails())
            return out, injector.events
        assert trail(11) == trail(11)
        assert trail(11) != trail(12)

    def test_count_budget_consumed_first(self):
        injector = FaultInjector(FaultPlan.kernel_hang(2), seed=1)
        assert injector.kernel_hangs()
        assert injector.kernel_hangs()
        assert not injector.kernel_hangs()
        assert injector.events == ["kernel-hang", "kernel-hang"]

    def test_dropped_transmission_reaches_receiver_as_nothing(self):
        injector = FaultInjector(FaultPlan.drop_frames(count=1), seed=1)
        channel = injector.channel()
        encoded = encode_frame(Frame(Command.START, 0))
        assert channel.transmit(encoded) == b""
        assert channel.transmit(encoded) == encoded  # budget spent

    def test_truncation_keeps_a_prefix(self):
        injector = FaultInjector(FaultPlan.truncate_frames(count=1), seed=1)
        encoded = encode_frame(Frame(Command.WRITE_DATA, 0, b"x" * 32))
        mangled = injector.mangle_transmission(encoded)
        assert 0 < len(mangled) < len(encoded)
        assert encoded.startswith(mangled)
        with pytest.raises(errors.ProtocolError):
            decode_frames(mangled)

    def test_duplicate_decodes_to_two_frames(self):
        injector = FaultInjector(FaultPlan.duplicate_frames(count=1), seed=1)
        encoded = encode_frame(Frame(Command.START, 0))
        mangled = injector.mangle_transmission(encoded)
        assert len(decode_frames(mangled)) == 2

    def test_corrupt_status_never_names_a_valid_state(self):
        injector = FaultInjector(FaultPlan.corrupt_status(count=1), seed=1)
        reply = injector.corrupt_status(b"\x02")
        assert reply != b"\x02"
        assert reply[0] >= 0x80  # outside any SocState index

    def test_brownout_droop(self):
        injector = FaultInjector(FaultPlan.brownout(0.8), seed=1)
        assert injector.brownout_droop() == pytest.approx(0.8)
        assert FaultInjector(FaultPlan.clean(), 1).brownout_droop() == 1.0

    def test_events_counted_on_telemetry(self):
        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            injector = FaultInjector(FaultPlan.boot_failure(1), seed=1)
            injector.boot_fails()
        assert hub.counters["faults.injected"].value == 1
        assert hub.counters["faults.injected.boot-failure"].value == 1


class TestWatchdogDes:
    def test_clean_wait_returns_compute_time(self):
        elapsed = await_end_of_computation(1.5e-3, hang=False)
        assert elapsed == pytest.approx(1.5e-3)

    def test_hang_surfaces_as_clean_deadlock_error(self):
        # The injected hang drives the DES deadlock-detection path: the
        # event queue drains while the host still waits on EOC.
        with pytest.raises(DeadlockError) as info:
            await_end_of_computation(1.5e-3, hang=True)
        assert "host-eoc-wait" in str(info.value)

    def test_resilient_driver_converts_hang_to_watchdog_recovery(self):
        driver = ResilientDriver(FaultPlan.kernel_hang(1), seed=5)
        result = driver.offload(MatmulKernel("char"))
        assert result.verified and not result.degraded
        assert "watchdog" in result.recovery_actions
        assert result.fault_attempts == 1
        # The watchdog period was charged to the bill.
        policy = driver.policy
        assert result.wasted_time_s >= policy.watchdog_floor_s


class TestResilientDriver:
    def test_clean_offload_matches_plain_cost(self):
        # A clean resilient offload must price exactly like the plain
        # one: same operating point, same total time and energy, to the
        # last bit, for every kernel at every host clock in the budget.
        for kernel in all_kernels():
            for host_mhz in (2, 8, 16):
                where = f"{kernel.name} @ {host_mhz} MHz"
                result = ResilientDriver(FaultPlan.clean(), seed=1).offload(
                    kernel, host_frequency=mhz(host_mhz))
                plain = HeterogeneousSystem().offload(
                    kernel, host_frequency=mhz(host_mhz))
                assert result.verified, where
                assert not result.degraded, where
                assert result.recovery_actions == (), where
                assert result.fault_attempts == 0, where
                assert result.wasted_energy_j == 0.0, where
                assert result.envelope == plain.envelope, where
                assert result.timing.total_time.hex() \
                    == plain.timing.total_time.hex(), where
                assert result.timing.energy.total_energy.hex() \
                    == plain.timing.energy.total_energy.hex(), where

    @pytest.mark.parametrize("plan", [
        FaultPlan.bit_errors(2e-5),
        FaultPlan.drop_frames(count=2),
        FaultPlan.truncate_frames(count=2),
        FaultPlan.duplicate_frames(count=2),
        FaultPlan.corrupt_status(count=1),
        FaultPlan.boot_failure(count=1),
        FaultPlan.brownout(droop=0.8),
    ], ids=lambda plan: plan.name)
    def test_single_fault_recovers_without_fallback(self, plan):
        result = ResilientDriver(plan, seed=7).offload(MatmulKernel("char"))
        assert result.verified
        assert not result.degraded

    def test_recovery_is_never_free(self):
        clean = ResilientDriver(FaultPlan.clean(), seed=7).offload(
            MatmulKernel("char"))
        faulty = ResilientDriver(FaultPlan.boot_failure(1), seed=7).offload(
            MatmulKernel("char"))
        assert faulty.timing.total_time > clean.timing.total_time
        assert faulty.timing.energy.total_energy \
            > clean.timing.energy.total_energy
        assert any(phase.label == "recovery"
                   for phase in faulty.timing.energy.phases)

    def test_brownout_slows_compute(self):
        clean = ResilientDriver(FaultPlan.clean(), seed=7).offload(
            MatmulKernel("char"))
        drooped = ResilientDriver(FaultPlan.brownout(0.8), seed=7).offload(
            MatmulKernel("char"))
        assert drooped.timing.compute_time > clean.timing.compute_time
        assert drooped.envelope.pulp_frequency \
            < clean.envelope.pulp_frequency

    def test_ladder_exhaustion_falls_back_to_host(self):
        driver = ResilientDriver(FaultPlan.kernel_hang(3), seed=3)
        result = driver.offload(MatmulKernel("char"))
        assert result.degraded
        assert result.verified  # computed on the host
        assert result.fallback_reason == "kernel-hang"
        assert result.recovery_actions[-1] == "host-fallback"
        assert "re-arm" in result.recovery_actions
        assert "reboot" in result.recovery_actions
        # Host-model latency/energy plus the wasted attempts on the bill.
        host = result.host_baseline
        assert result.timing.compute_time == pytest.approx(host.time)
        assert result.timing.total_time \
            == pytest.approx(host.time + result.wasted_time_s)
        assert result.wasted_energy_j > 0
        assert result.timing.energy.total_energy == pytest.approx(
            host.energy + result.wasted_energy_j)
        assert result.effective_speedup < 1.0  # degraded is honest

    def test_fallback_disabled_raises_degraded_error(self):
        driver = ResilientDriver(FaultPlan.kernel_hang(3), seed=3,
                                 fallback_enabled=False)
        with pytest.raises(DegradedExecutionError):
            driver.offload(MatmulKernel("char"))

    def test_status_corruption_exhaustion_is_fault_injection_error(self):
        # Enough corrupted STATUS replies to outlast every poll of every
        # ladder rung: the ladder exhausts and falls back.
        plan = FaultPlan.corrupt_status(rate=0.0, count=64)
        result = ResilientDriver(plan, seed=2).offload(MatmulKernel("char"))
        assert result.degraded
        assert result.fallback_reason == "corrupt-status"

    def test_reboot_reloads_the_binary(self):
        driver = ResilientDriver(FaultPlan.kernel_hang(2), seed=4)
        result = driver.offload(MatmulKernel("char"))
        assert not result.degraded
        assert "reboot" in result.recovery_actions
        assert driver.soc.loaded is not None  # reloaded after power cycle

    def test_frame_timeout_raises_timeout_error(self):
        policy = RetryPolicy(op_timeout_s=1e-9)
        driver = ResilientDriver(FaultPlan.clean(), seed=1, policy=policy)
        with pytest.raises(DegradedExecutionError):
            # Every delivery blows the (absurd) budget; with fallback off
            # the ladder exhausts into DegradedExecutionError.
            ResilientDriver(FaultPlan.clean(), seed=1, policy=policy,
                            fallback_enabled=False).offload(
                                MatmulKernel("char"))
        result = driver.offload(MatmulKernel("char"))
        assert result.degraded  # with fallback on, it lands on the host

    def test_deterministic_per_seed(self):
        def run(seed):
            result = ResilientDriver(
                FaultPlan.combined("mix", FaultPlan.kernel_hang(1),
                                   FaultPlan.bit_errors(2e-5)),
                seed=seed).offload(MatmulKernel("char"))
            return (result.recovery_actions, result.fault_attempts,
                    result.wasted_time_s, result.timing.total_time)
        assert run(9) == run(9)


class TestCampaign:
    def test_build_campaign_cycles_plans(self):
        scenarios = build_campaign(13, seed=100)
        assert len(scenarios) == 13
        assert scenarios[0].plan.name == "clean"
        assert scenarios[11].plan.name == scenarios[0].plan.name
        assert [s.seed for s in scenarios] == list(range(100, 113))

    def test_build_campaign_rejects_zero(self):
        with pytest.raises(errors.ReproError):
            build_campaign(0)

    def test_full_taxonomy_campaign_survives(self):
        # The acceptance scenario: one pass over the full taxonomy ends
        # with every scenario recovered or on the host — zero unhandled
        # exceptions, zero 'failed' outcomes.
        result = CampaignRunner().run(build_campaign(11, seed=1))
        assert len(result.outcomes) == 11
        assert result.availability == 1.0
        assert not result.failed
        assert result.count("failed") == 0
        for entry in result.outcomes:
            assert entry.outcome in ("clean", "recovered", "host-fallback")

    def test_same_seed_reproduces_identical_matrix(self):
        first = CampaignRunner().run(build_campaign(11, seed=1))
        second = CampaignRunner().run(build_campaign(11, seed=1))
        dump = lambda r: json.dumps(r.to_json_dict(), sort_keys=True)
        assert dump(first) == dump(second)

    def test_different_seed_changes_details(self):
        first = CampaignRunner().run(build_campaign(4, seed=1))
        second = CampaignRunner().run(build_campaign(4, seed=77))
        assert [e.total_time_s for e in first.outcomes] \
            != [e.total_time_s for e in second.outcomes]

    def test_fallback_scenarios_priced_on_host_model(self):
        result = CampaignRunner().run(
            [Scenario(FaultPlan.kernel_hang(3), seed=3)])
        entry, = result.outcomes
        assert entry.outcome == "host-fallback"
        assert entry.wasted_energy_j > 0
        assert entry.energy_j > entry.wasted_energy_j  # host compute too

    def test_no_fallback_campaign_counts_failed(self):
        runner = CampaignRunner(fallback_enabled=False)
        result = runner.run([Scenario(FaultPlan.kernel_hang(3), seed=3)])
        assert result.failed
        assert result.availability == 0.0
        assert result.outcomes[0].error

    def test_metrics_and_render(self):
        result = CampaignRunner().run(build_campaign(3, seed=1))
        assert 0.0 <= result.fallback_rate <= 1.0
        assert result.retry_energy_overhead >= 0.0
        text = result.render()
        assert "availability" in text
        assert "clean" in text

    def test_campaign_emits_spans_and_counters(self):
        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            CampaignRunner().run(build_campaign(2, seed=1))
        lanes = {span.lane for span in hub.spans}
        assert "campaign" in lanes
        assert any(name.startswith("faults.outcome.")
                   for name in hub.counters)
        assert "faults.availability" in hub.counters


class TestErrorTypes:
    def test_new_errors_subclass_repro_error(self):
        assert issubclass(errors.TimeoutError, errors.ReproError)
        assert issubclass(FaultInjectionError, errors.ReproError)
        assert issubclass(DegradedExecutionError, errors.ReproError)

    def test_timeout_error_shadows_builtin_deliberately(self):
        assert errors.TimeoutError is not TimeoutError

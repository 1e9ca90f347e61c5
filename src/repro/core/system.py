"""The heterogeneous system facade.

:class:`HeterogeneousSystem` is the public entry point of the library:
an STM32-L476 host coupled to the PULP accelerator model over a (Q)SPI
link.  ``offload`` runs an OpenMP ``target`` region end to end —
*functionally* (real bytes travel through the wire protocol into the L2
model, the kernel computes, results come back and are verified) and
*analytically* (cycles, power and energy from the calibrated models).

The analytic chain has one owner: :meth:`HeterogeneousSystem.quote`
runs the program on the device OpenMP model, derives its activity and
solves the power envelope for the best accelerator operating point;
:meth:`HeterogeneousSystem.price` prices binary, boot, transfers and
compute at that point.  The single offload, the resilient driver, the
serving books, the sensor pipeline and Figure 5b all price through
this pair.

Work that depends only on the kernel — program, binary image, inputs,
outputs, OpenMP execution, the nominal operating point and the host
lowering — goes through the system's :class:`~repro.core.memo.WorkMemo`,
which a design-space sweep shares across every system it builds.  The
wire round trip, region placement and pricing run on every offload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import OffloadError
from repro.core.envelope import EnvelopePoint, PowerEnvelopeSolver
from repro.core.memo import WorkMemo
from repro.core.offload import OffloadCostModel, OffloadTiming
from repro.isa.or10n import Or10nTarget
from repro.isa.program import Program
from repro.kernels.base import Arrays, Kernel
from repro.link.protocol import encode_frame, decode_frames
from repro.link.spi import SpiLink, SpiMode
from repro.mcu.stm32l476 import Stm32L476
from repro.pulp.binary import KernelBinary
from repro.pulp.soc import PulpSoc
from repro.power.activity import ActivityProfile
from repro.runtime.host import MapClause, MapDirection, TargetRegion
from repro.runtime.omp import DeviceOpenMp, ParallelExecution
from repro.units import format_seconds, format_watts, mhz


@dataclass
class HostRun:
    """Baseline execution of a kernel on the host MCU."""

    frequency: float
    cycles: float
    time: float
    power: float

    @property
    def energy(self) -> float:
        """Energy of the host run."""
        return self.time * self.power


@dataclass(frozen=True)
class OffloadQuote:
    """A kernel program placed at its accelerator operating point.

    ``nominal`` is the point the envelope solver chose; ``envelope`` is
    the point the offload runs at — ``nominal`` itself, or ``nominal``
    drooped by a brownout.
    """

    program: Program
    execution: ParallelExecution
    activity: ActivityProfile
    nominal: EnvelopePoint
    envelope: EnvelopePoint

    @property
    def compute_time(self) -> float:
        """Seconds of one kernel run at the operating point."""
        return self.execution.wall_cycles / self.envelope.pulp_frequency


@dataclass
class OffloadResult:
    """Everything one offload produced.

    The degraded-mode fields are written by the resilient runtime
    (:mod:`repro.faults`): ``degraded`` marks a result computed by the
    OpenMP host fallback on the Cortex-M cost model after the recovery
    ladder was exhausted; ``recovery_actions`` lists the ladder steps
    taken (``re-arm``, ``reboot``, ``watchdog`` ...); ``fault_attempts``
    counts failed offload attempts; ``wasted_time_s`` /
    ``wasted_energy_j`` are the latency and energy of those failed
    attempts (retransmissions, watchdog waits, backoff) — already folded
    into ``timing.total_time`` and ``timing.energy``.
    """

    kernel_name: str
    outputs: Arrays
    verified: bool
    execution: ParallelExecution
    envelope: EnvelopePoint
    timing: OffloadTiming
    host_baseline: HostRun
    degraded: bool = False
    fallback_reason: Optional[str] = None
    recovery_actions: Tuple[str, ...] = ()
    fault_attempts: int = 0
    wasted_time_s: float = 0.0
    wasted_energy_j: float = 0.0

    @property
    def compute_speedup(self) -> float:
        """Pure accelerator-vs-host speedup (Figure 5a, no offload cost)."""
        if self.timing.compute_time == 0:
            return 0.0
        return self.host_baseline.time / self.timing.compute_time

    @property
    def effective_speedup(self) -> float:
        """Speedup including binary/data offload costs (Figure 5b view)."""
        per_iteration = self.timing.total_time / self.timing.iterations
        if per_iteration == 0:
            return 0.0
        return self.host_baseline.time / per_iteration

    @property
    def efficiency(self) -> float:
        """Fraction of the ideal speedup retained."""
        return self.timing.efficiency

    def metrics(self) -> dict:
        """Flat numeric metrics of this offload.

        The analysis-friendly projection of the result: one flat dict of
        JSON-safe scalars, consumed by the design-space exploration layer
        (:mod:`repro.dse`) and usable as a generic objective surface.
        """
        timing = self.timing
        return {
            "verified": self.verified,
            "compute_speedup": self.compute_speedup,
            "effective_speedup": self.effective_speedup,
            "efficiency": self.efficiency,
            "compute_cycles": self.execution.wall_cycles,
            "total_time_s": timing.total_time,
            "time_per_iteration_s": timing.total_time / timing.iterations,
            "energy_j": timing.energy.total_energy,
            "energy_per_iteration_j":
                timing.energy.total_energy / timing.iterations,
            "average_power_w": timing.average_power,
            "total_power_w": self.envelope.total_power,
            "pulp_frequency_hz": self.envelope.pulp_frequency,
            "pulp_voltage_v": self.envelope.pulp_voltage,
            "host_power_w": self.envelope.host_power,
            "host_baseline_time_s": self.host_baseline.time,
            "host_baseline_energy_j": self.host_baseline.energy,
            "degraded": self.degraded,
            "fault_attempts": self.fault_attempts,
            "wasted_time_s": self.wasted_time_s,
            "wasted_energy_j": self.wasted_energy_j,
        }

    def to_json_dict(self) -> dict:
        """Machine-readable summary (the ``--json`` surface)."""
        timing = self.timing
        return {
            "kernel": self.kernel_name,
            "verified": self.verified,
            "schedule": ("double-buffered" if timing.double_buffered
                         else "serial"),
            "iterations": timing.iterations,
            "envelope": {
                "host_frequency_hz": self.envelope.host_frequency,
                "host_power_w": self.envelope.host_power,
                "pulp_frequency_hz": self.envelope.pulp_frequency,
                "pulp_voltage_v": self.envelope.pulp_voltage,
                "pulp_power_w": self.envelope.pulp_power,
            },
            "timing_s": {
                "binary": timing.binary_time,
                "boot": timing.boot_time,
                "input_per_iteration": timing.input_time,
                "compute_per_iteration": timing.compute_time,
                "sync_per_iteration": timing.sync_time,
                "output_per_iteration": timing.output_time,
                "total": timing.total_time,
                "ideal": timing.ideal_time,
            },
            "bytes": {
                "binary": timing.binary_bytes,
                "input": timing.input_bytes,
                "output": timing.output_bytes,
            },
            "efficiency": self.efficiency,
            "compute_speedup": self.compute_speedup,
            "effective_speedup": self.effective_speedup,
            "host_baseline": {
                "frequency_hz": self.host_baseline.frequency,
                "cycles": self.host_baseline.cycles,
                "time_s": self.host_baseline.time,
                "power_w": self.host_baseline.power,
                "energy_j": self.host_baseline.energy,
            },
            "energy": self.timing.energy.to_dict(),
            "resilience": {
                "degraded": self.degraded,
                "fallback_reason": self.fallback_reason,
                "recovery_actions": list(self.recovery_actions),
                "fault_attempts": self.fault_attempts,
                "wasted_time_s": self.wasted_time_s,
                "wasted_energy_j": self.wasted_energy_j,
            },
        }

    def report(self) -> str:
        """Human-readable summary."""
        lines = [
            f"offload of {self.kernel_name!r} "
            f"({self.timing.iterations} iteration(s), "
            f"{'double-buffered' if self.timing.double_buffered else 'serial'})",
            f"  host @ {self.envelope.host_frequency / 1e6:.0f} MHz "
            f"({format_watts(self.envelope.host_power)}), "
            f"PULP @ {self.envelope.pulp_frequency / 1e6:.0f} MHz / "
            f"{self.envelope.pulp_voltage:.2f} V "
            f"({format_watts(self.envelope.pulp_power)})",
            f"  compute {format_seconds(self.timing.compute_time)}/iter, "
            f"offload total {format_seconds(self.timing.total_time)}, "
            f"efficiency {self.efficiency:.1%}",
            f"  speedup vs host: {self.compute_speedup:.1f}x compute, "
            f"{self.effective_speedup:.1f}x end-to-end",
            f"  outputs verified: {self.verified}",
        ]
        if self.degraded:
            lines.append(
                f"  DEGRADED: host fallback ({self.fallback_reason}) after "
                f"{self.fault_attempts} failed attempt(s), "
                f"{format_seconds(self.wasted_time_s)} / "
                f"{self.wasted_energy_j:.3g} J wasted")
        elif self.recovery_actions:
            lines.append(
                f"  recovered via {' -> '.join(self.recovery_actions)} "
                f"({self.fault_attempts} failed attempt(s), "
                f"{format_seconds(self.wasted_time_s)} wasted)")
        return "\n".join(lines)


def _frozen(arrays: Arrays) -> Arrays:
    """*arrays*, made read-only: memoized arrays are shared by every
    offload and result that uses them."""
    for array in arrays.values():
        array.setflags(write=False)
    return arrays


def _content_digest(arrays: Arrays) -> str:
    """SHA-1 of every array's name, dtype, shape and bytes."""
    digest = hashlib.sha1()
    for key in sorted(arrays):
        array = arrays[key]
        digest.update(f"{key}:{array.dtype.str}:{array.shape};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _kernel_inputs(kernel: Kernel, seed: int) -> Tuple[Arrays, bytes, str]:
    inputs = _frozen(kernel.generate_inputs(seed))
    return inputs, kernel.serialize_inputs(inputs), _content_digest(inputs)


def _kernel_outputs(kernel: Kernel, inputs: Arrays) -> Tuple[Arrays, bytes]:
    outputs = _frozen(kernel.compute(inputs))
    return outputs, kernel.serialize_outputs(outputs)


class HeterogeneousSystem:
    """STM32-L476 + PULP over (Q)SPI: the paper's system.

    *memo* is the :class:`~repro.core.memo.WorkMemo` this system's
    kernel work goes through; without one the system makes its own.
    Systems that share a memo must share the accelerator model (the
    default :class:`~repro.pulp.soc.PulpSoc`, as
    :func:`repro.dse.build_system` builds them): the keys name the
    kernel, program, cluster size, host device and budget, not the PULP
    power model.
    """

    def __init__(self, host: Optional[Stm32L476] = None,
                 soc: Optional[PulpSoc] = None,
                 link: Optional[SpiLink] = None,
                 threads: int = 4,
                 budget: Optional[float] = None,
                 memo: Optional[WorkMemo] = None):
        self.host = host if host is not None else Stm32L476()
        self.soc = soc if soc is not None else PulpSoc()
        self.link = link if link is not None else SpiLink(SpiMode.QUAD)
        self.target = Or10nTarget()
        self.omp = DeviceOpenMp(self.target, threads=threads)
        self.cost_model = OffloadCostModel(self.host, self.link,
                                           self.soc.power_model)
        self.envelope = self._solver(budget)
        self.memo = memo if memo is not None else WorkMemo()
        self._resident_binary: Optional[str] = None
        self._event_clock = 0.0

    def _next_event_time(self) -> float:
        """Monotonic timestamps for the GPIO event lines across offloads."""
        self._event_clock += 1e-6
        return self._event_clock

    def _solver(self, budget: Optional[float]) -> PowerEnvelopeSolver:
        kwargs = {} if budget is None else {"budget": budget}
        return PowerEnvelopeSolver(host_device=self.host.device,
                                   pulp_power=self.soc.power_model, **kwargs)

    # -- memoized work ------------------------------------------------------------

    def _program(self, kernel: Kernel) -> Program:
        return self.memo.get(("program", kernel.identity),
                             kernel.build_program)

    def _binary(self, program: Program) -> KernelBinary:
        return self.memo.get(("binary", program),
                             lambda: KernelBinary.from_program(program))

    # -- the pricer ---------------------------------------------------------------

    def quote(self, program: Program, host_frequency: float, *,
              name: str = "compute", budget: Optional[float] = None,
              droop: float = 1.0) -> OffloadQuote:
        """Place *program* at its best operating point.

        Executes the program on the device OpenMP model, derives its
        activity profile (labelled *name*) and solves the envelope at
        *host_frequency* — within *budget* watts instead of this
        system's own envelope when given.  A brownout *droop* below 1
        re-locks the FLL at that fraction of the solved clock, at the
        lowest voltage that sustains it.  Raises
        :class:`~repro.errors.OffloadError` when the host leaves the
        accelerator no power.
        """
        memo = self.memo
        threads = self.omp.threads
        execution = memo.get(("execution", program, threads),
                             lambda: self.omp.execute(program))
        activity = memo.get(("activity", program, threads, name),
                            lambda: execution.activity(name))
        solver = self.envelope if budget is None else self._solver(budget)
        nominal = memo.get(
            ("nominal", solver.host_device, solver.budget,
             solver.link_reserve, host_frequency, program, threads),
            lambda: solver.solve(host_frequency, activity))
        if not nominal.accelerator_usable:
            raise OffloadError(
                f"no accelerator power budget left with the host at "
                f"{host_frequency / 1e6:.0f} MHz")
        envelope = nominal
        if droop < 1.0:
            power_model = self.soc.power_model
            frequency = nominal.pulp_frequency * droop
            voltage = power_model.table.voltage_for(frequency)
            envelope = replace(
                nominal, pulp_frequency=frequency, pulp_voltage=voltage,
                pulp_power=power_model.total_power(frequency, voltage,
                                                   activity))
        return OffloadQuote(program=program, execution=execution,
                            activity=activity, nominal=nominal,
                            envelope=envelope)

    def price(self, quote: OffloadQuote, iterations: int = 1,
              double_buffered: bool = False,
              include_binary: bool = True) -> OffloadTiming:
        """Latency and energy of *iterations* runs of a quoted program.

        The binary is uploaded and booted first unless *include_binary*
        is false (it is already resident); inputs and outputs cross the
        link every iteration, serially or double-buffered.
        """
        program = quote.program
        point = quote.envelope
        return self.cost_model.offload_timing(
            binary_bytes=self._binary(program).image_bytes,
            input_bytes=program.input_bytes,
            output_bytes=program.output_bytes,
            compute_cycles=quote.execution.wall_cycles,
            pulp_frequency=point.pulp_frequency,
            pulp_voltage=point.pulp_voltage,
            activity=quote.activity,
            host_frequency=point.host_frequency,
            iterations=iterations,
            double_buffered=double_buffered,
            include_binary=include_binary,
        )

    # -- baseline -----------------------------------------------------------------

    def run_on_host(self, kernel: Kernel,
                    frequency: float = Stm32L476.BASELINE_FREQUENCY) -> HostRun:
        """Run the kernel on the host alone (the paper's baseline)."""
        program = self._program(kernel)
        device = self.host.device
        cycles = self.memo.get(("host_cycles", program, device),
                               lambda: device.lower(program).cycles)
        return HostRun(frequency=frequency, cycles=cycles,
                       time=cycles / frequency,
                       power=self.host.active_power(frequency))

    # -- the offload --------------------------------------------------------------

    def offload(self, kernel: Kernel, seed: int = 0,
                host_frequency: float = mhz(8), iterations: int = 1,
                double_buffered: bool = False) -> OffloadResult:
        """Offload *kernel* end to end and price it.

        The functional path marshals real bytes through the wire protocol
        into the accelerator's L2, runs the kernel, reads results back
        and verifies them against a direct computation.  The analytic
        path prices the same sequence with the calibrated models.

        The kernel's program, inputs and outputs come from :attr:`memo`
        and are computed once per memo; the wire round trip and its
        verification run on every call.  ``outputs`` of the result are
        read-only arrays shared with later offloads.
        """
        memo = self.memo
        identity = kernel.identity
        program = self._program(kernel)
        inputs, input_payload, digest = memo.get(
            ("inputs", identity, seed), lambda: _kernel_inputs(kernel, seed))
        if len(input_payload) != program.input_bytes:
            raise OffloadError(
                f"{kernel.name}: serialized input is {len(input_payload)} B "
                f"but the program declares {program.input_bytes} B")

        binary = self._binary(program)
        region = TargetRegion(binary=binary, maps=[
            MapClause("inputs", MapDirection.TO, data=input_payload),
            MapClause("outputs", MapDirection.FROM,
                      size=program.output_bytes),
        ])
        region.place(self.soc.l2)

        # ---- functional path: push frames through the protocol ----
        include_binary = self._resident_binary != binary.name
        pre_frames, post_frames = region.to_frames(
            include_binary=include_binary,
            image=memo.get(("image", binary), binary.to_bytes)
            if include_binary else None)
        self.soc.reset()
        if include_binary:
            self.soc.register_binary(binary, region.addresses["__binary__"])
            self._resident_binary = binary.name
        for frame in pre_frames:
            # Encode/decode round-trip: the exact bytes a QSPI slave sees.
            decoded, = decode_frames(encode_frame(frame))
            self.soc.handle_frame(decoded)
        self.soc.trigger_fetch_enable(time=self._next_event_time())
        outputs, output_payload = memo.get(
            ("outputs", identity, digest),
            lambda: _kernel_outputs(kernel, inputs))
        if len(output_payload) != program.output_bytes:
            raise OffloadError(
                f"{kernel.name}: serialized output is {len(output_payload)} B "
                f"but the program declares {program.output_bytes} B")
        self.soc.l2.write(region.addresses["outputs"], output_payload)
        self.soc.computation_done(time=self._next_event_time())
        read_back = b""
        for frame in post_frames:
            decoded, = decode_frames(encode_frame(frame))
            read_back += self.soc.handle_frame(decoded)
        verified = read_back == output_payload

        # ---- analytic path: cycles, envelope, offload costs ----
        quote = self.quote(program, host_frequency, name=kernel.name)
        timing = self.price(quote, iterations, double_buffered,
                            include_binary)
        return OffloadResult(
            kernel_name=kernel.name,
            outputs=dict(outputs),
            verified=verified,
            execution=quote.execution,
            envelope=quote.envelope,
            timing=timing,
            host_baseline=self.run_on_host(kernel),
        )

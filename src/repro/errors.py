"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.  Sub-hierarchies mirror
the subsystem structure (ISA, simulation engine, power model, link,
runtime, kernels).
"""

from __future__ import annotations

import builtins

#: The exit-code contract of every ``python -m repro`` command (the
#: table in ``docs/API.md``); 2 stays argparse's usage error.
EXIT_OK = 0
EXIT_ERROR = 1        #: bad input, or a ``lint`` ERROR finding
EXIT_GATE = 3         #: a gate breached or a run degraded
EXIT_FAILED = 4       #: a run failed (no result, fleet collapse)
EXIT_REGRESSION = 5   #: ``bench --check``/``--compare`` regression


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class IsaError(ReproError):
    """Problems in the virtual-ISA / program IR layer."""


class LoweringError(IsaError):
    """A program could not be lowered to a concrete target."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation engine."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked."""


class Interrupt(SimulationError):
    """Thrown into a process by :meth:`repro.sim.Process.interrupt`.

    Carries the interrupter's ``cause``.  A process that catches it can
    react (e.g. a node abandoning a service when its power budget is
    revoked); one that does not terminates with ``interrupted`` set.
    """

    def __init__(self, cause: object = None):
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


class PowerModelError(ReproError):
    """Errors in operating-point tables or power evaluation."""


class OperatingPointError(PowerModelError):
    """A requested voltage/frequency point is outside the modeled range."""


class BudgetError(PowerModelError):
    """A power budget cannot be met (e.g. baseline host exceeds it)."""


class TimeoutError(ReproError, builtins.TimeoutError):  # noqa: A001 — deliberate builtin shadow
    """An operation exceeded its modeled deadline.

    Raised by the resilient offload runtime when a per-operation wire
    budget is blown or the RUNNING-state watchdog trips (EOC never
    arrived).  Named after the builtin on purpose — and it *subclasses*
    the builtin too, so generic ``except TimeoutError:`` handlers catch
    it while ``except ReproError:`` keeps working at API boundaries.
    Import it qualified (``errors.TimeoutError``) or aliased to avoid
    shadowing.
    """


class FaultInjectionError(ReproError):
    """An injected fault fired and was surfaced to the caller.

    The fault-injection framework raises this at the hook points a real
    system would detect the failure (boot that never came up, STATUS
    replies that never parse).  The resilient driver converts it into a
    recovery-ladder escalation; seeing it escape means the fault was
    configured as unrecoverable or recovery is disabled.
    """


class DegradedExecutionError(ReproError):
    """Offload recovery was exhausted and host fallback is disabled.

    With fallback enabled the runtime would instead return a degraded
    :class:`~repro.core.system.OffloadResult` computed on the host
    (Cortex-M) cost model.
    """


class LinkError(ReproError):
    """Errors in the SPI/QSPI link or the offload wire protocol."""


class ProtocolError(LinkError):
    """Malformed or out-of-sequence offload protocol frames."""


class RuntimeModelError(ReproError):
    """Errors in the OpenMP host/device runtime models."""


class OffloadError(RuntimeModelError):
    """A target offload could not be completed."""


class KernelError(ReproError):
    """Errors in benchmark kernel construction or execution."""


class FixedPointError(ReproError):
    """Invalid fixed-point format or out-of-range conversion."""


class ObservabilityError(ReproError):
    """Errors in the telemetry hub, trace exporters, or analyzers."""


class BenchmarkError(ReproError):
    """A benchmark run, report, or baseline is invalid.

    Raised when a ``BENCH_<n>.json`` document fails schema validation,
    when a suite's deterministic fingerprint drifts between repeats of
    the same pinned workload, or when a comparison is asked of reports
    whose suites cannot be matched up.
    """

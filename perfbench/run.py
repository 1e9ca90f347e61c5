"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 20
    python3 perfbench/run.py --workload dse-sweep --seed 1 --seconds 20 \\
        --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a fixed number of rounds untraced, then set-up and the
same rounds again with every layer wrapped (see ``tracing.py``), checks that
both give the same digest of simulated statistics, and prints the per-layer
metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

# Set-up time starts here, before the library is imported.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread: a BLAS thread pool would compete with the measured thread
# on a host of few cores.  Set before numpy is imported.
for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_threads, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Work space of a run (result caches); removed when the run ends.
WORK = ROOT / ".perfbench-work"
#: Where traced runs write their spans.
OUT = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("serve-steady", "serve-chaos", "dse-sweep")

#: (name, unit) of every end-to-end metric an untraced run prints.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Set-up samples per run: this process plus fresh child processes
#: (imports are only cold in a new interpreter).
SETUP_CHILDREN = 6

#: Rounds of a traced run (each is run untraced, then traced).
TRACE_ROUNDS = {"serve-steady": 2, "serve-chaos": 2, "dse-sweep": 1}

#: Iterations of the fixed pure-Python calibration loop.
CALIBRATION_LOOP = 2_000_000


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit "
                             "(used for the child set-up samples)")
    parser.add_argument("--write-reference", action="store_true",
                        help="re-pin reference.json from this checkout")
    return parser.parse_args(argv)


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile (no interpolation)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def calibration_s() -> float:
    """Host time of a fixed pure-Python loop (recorded, never divided by)."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc = (acc + i * i) % 1000003
    return time.perf_counter() - started


def machine_record() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_s": round(calibration_s(), 4),
    }


def child_setup_samples(args) -> list:
    """Set-up seconds of fresh interpreters running the same set-up."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120,
            check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def run_rounds(workload, seconds: float) -> list:
    """Rounds until *seconds* of host time have passed (at least one)."""
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        gc.collect()
        rounds.append(workload.round(len(rounds)))
    return rounds


def tally(rounds) -> tuple:
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        for error in r.errors:
            print(f"FAILED: {error}", file=sys.stderr)
    return attempted, failed


def end_to_end(rounds, setup_samples) -> dict:
    """Medians over the whole run.

    A shared host has slow stretches of a few seconds.  The median of
    many operations spread over the run moves less with them than a mean
    or a best time does.
    """
    rates = [r.units / sum(r.samples_s) for r in rounds if r.samples_s]
    samples = [s for r in rounds for s in r.samples_s]
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": statistics.median(rates) if rates else 0.0,
        "op_ms.p50": statistics.median(samples) * 1e3 if samples else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(workload) -> tuple:
    """Untraced rounds, then set-up and the same rounds traced.

    Returns ``(attempted, failed, per-layer metrics)``.
    """
    import tracing
    import workloads

    def rounds(tracer=None):
        done = []
        for index in range(TRACE_ROUNDS[workload.name]):
            if tracer is not None:
                tracer.op_id = index
            gc.collect()
            done.append(workload.round(index))
        return done

    plain = rounds()
    tracer = tracing.Tracer()
    with tracer:
        workload.setup(workload.seed)
        traced = rounds(tracer)
    plain_digest = workloads.digest([r.stats for r in plain])
    traced_digest = workloads.digest([r.stats for r in traced])
    print(f"digest untraced {plain_digest} traced {traced_digest}")
    plain_s = sum(s for r in plain for s in r.samples_s)
    traced_s = sum(s for r in traced for s in r.samples_s)
    overhead = (traced_s / plain_s - 1.0) * 100.0 if plain_s else 0.0
    requests = sum(r.units for r in traced) \
        if workload.name.startswith("serve") else 0
    metrics = tracing.layer_metrics(tracer, requests, overhead)
    print(tracing.render_table(tracer))
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"trace-{workload.name}-seed{workload.seed}.json.gz"
    tracer.write(spans)
    print(f"spans: {len(tracer.span_start)} written to "
          f"{spans.relative_to(ROOT)}")
    attempted, failed = tally(plain + traced)
    attempted += 1
    if plain_digest != traced_digest:
        failed += 1
        print("FAILED: tracing changed the simulated statistics",
              file=sys.stderr)
    units = dict(tracing.LAYER_METRICS)
    return attempted, failed, {
        name: {"value": value, "unit": units[name]}
        for name, value in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    work = WORK / f"{args.workload}-{os.getpid()}"
    workload = workloads.make_workload(args.workload, ROOT, work)
    try:
        workload.setup(args.seed)
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.write_reference:
            return write_reference(workloads, workload)
        if args.trace:
            attempted, failed, metrics = traced_run(workload)
        else:
            # The reference round, untimed, also warms the process up.
            reference = workload.reference_round()
            rounds = run_rounds(workload, args.seconds)
            attempted, failed = tally(
                rounds + ([reference] if reference else []))
            print(f"digest {workloads.digest([r.stats for r in rounds])}")
            values = end_to_end(rounds,
                                [setup_s] + child_setup_samples(args))
            units = dict(END_TO_END)
            metrics = {name: {"value": values[name], "unit": units[name]}
                       for name, _ in END_TO_END}
            describe(workload, rounds, values)
    finally:
        workload.close()
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps({"machine": machine_record()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def describe(workload, rounds, values) -> None:
    """Human-readable summary, in the workload's own terms."""
    samples = sum(len(r.samples_s) for r in rounds)
    units = sum(r.units for r in rounds)
    print(f"{workload.name}: {len(rounds)} rounds, {samples} timed "
          f"operations, {units} {workload.unit}")
    print(f"  {workload.unit} per host second (median over rounds): "
          f"{values['ops_per_s']:.1f}")
    durations = [s * 1e3 for r in rounds for s in r.samples_s]
    if not durations:
        return
    print(f"  host ms per operation: p50 {values['op_ms.p50']:.3f}, "
          f"p95 {nearest_rank(durations, 95):.3f}, "
          f"max {max(durations):.3f} (n={samples})")
    print(f"  set-up {values['setup_s']:.3f} s, peak RSS "
          f"{values['peak_rss_mb']:.1f} MB")


def write_reference(workloads, workload) -> int:
    """Re-pin the workload's entry of reference.json."""
    path = workloads.REFERENCE_PATH
    pinned = json.loads(path.read_text()) if path.exists() else {}
    stats = workload.reference_stats()
    pinned[workload.name] = stats
    path.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

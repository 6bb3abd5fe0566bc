"""End-to-end CAFQA benchmark: time to checked results, plus a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload h2_pool --seed 0 --seconds 50 --trace 0

``--trace 0`` runs checked passes of the workload for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer split.  Both then run the workload's
pinned checks, if it has any at that seed.  The last stdout line is the
JSON result; the line before it is the environment block.  Details are in
README.md.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# Before numpy loads: h2_pool's two pool workers must not each start a
# BLAS thread pool on a two-core host.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Extra fresh-process set-ups per end-to-end run; setup_s is the median of
#: these and the run's own, scaled by the run's host speed.
SETUP_PROBES = 8

#: Passes per end-to-end run, at least.  More follow while they are expected
#: to end within ``--seconds``.  Each operation's time is the fastest of its
#: passes: a shared host's speed swings by up to ~1.8x within seconds, and
#: short operations repeated over the whole run each catch a fast moment.
MIN_PASSES = 2

#: The fastest time of :func:`calibrate` on the 2-vCPU VM the bounds were
#: set on, in a fast phase of its host.  End-to-end times are scaled by
#: this over the run's own fastest calibration (README.md, "Host speed").
CALIBRATION_REFERENCE_S = 17.0e-3

#: calibrate()'s arrays, made on its first call: a 32 MB vector, random
#: indices into it, and a 200k x 200k sparse matrix with 800k entries.
_calibration_data = None


def calibrate() -> float:
    """Seconds one fixed kernel takes that runs no repro code.

    It has a compute part (small dense products, a pure-Python loop) and a
    memory part (a random gather from a 32 MB vector, sparse products): the
    host's slow phases slow memory-bound work more than compute.
    """
    global _calibration_data
    import numpy
    import scipy.sparse

    if _calibration_data is None:
        rng = numpy.random.default_rng(0)
        size, entries = 200_000, 800_000
        sparse = scipy.sparse.csr_matrix(
            (rng.standard_normal(entries),
             (rng.integers(0, size, entries), rng.integers(0, size, entries))),
            shape=(size, size),
        )
        vector = rng.standard_normal(4_000_000)
        _calibration_data = (sparse, rng.standard_normal(size), vector,
                             rng.integers(0, vector.size, size))
    sparse, operand, vector, indices = _calibration_data
    matrix = numpy.eye(64) + numpy.full((64, 64), 1e-3)
    started = time.perf_counter()
    product = matrix
    for _ in range(40):
        product = numpy.tanh(product @ matrix)
    total = 0
    for i in range(60000):
        total += i % 7
    for _ in range(2):
        vector[indices].sum()
    for _ in range(3):
        sparse @ operand
    return time.perf_counter() - started


def _steal_ticks() -> int:
    with open("/proc/stat") as handle:
        return int(handle.readline().split()[8])


def host_snapshot() -> dict:
    return {"loadavg": list(os.getloadavg()), "steal_ticks": _steal_ticks()}


def _blas(config_of) -> str:
    try:
        blas = config_of(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except Exception as exc:  # noqa: BLE001 — version report only
        return f"unknown ({type(exc).__name__})"


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        git_sha = probe.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
    }


def setup(workload: str, seed: int):
    """Imports, input generation and warm-up; returns (operations, seconds)."""
    sys.path.insert(0, str(SRC))
    import workloads

    operations = workloads.WORKLOADS[workload](seed)
    workloads.warm_up()
    return operations, time.perf_counter() - _STARTED


def probe_setup(workload: str, seed: int) -> float:
    """setup_s of a fresh process running the same set-up."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def run_pass(operations, calibrations=None):
    """One checked pass; returns (wall seconds, outcomes).  With a list in
    ``calibrations``, :func:`calibrate` runs before each operation and its
    times are appended there."""
    from workloads import run_operation

    started = time.perf_counter()
    outcomes = []
    for operation in operations:
        if calibrations is not None:
            calibrations.append(calibrate())
        outcomes.append(run_operation(operation))
    return time.perf_counter() - started, outcomes


def _failures(outcomes, context: str, reference=None) -> int:
    """Failed operations of one pass: an error, or a trajectory (energy,
    evaluations) that differs from the same operation in ``reference``."""
    failed = 0
    for position, outcome in enumerate(outcomes):
        error = outcome.error
        if error is None and reference is not None:
            expected = reference[position]
            if (outcome.energy, outcome.evaluations) != (expected.energy, expected.evaluations):
                error = f"trajectory moved from {expected.energy!r}, {expected.evaluations}"
        if error is not None:
            failed += 1
            print(f"FAILED {context} {outcome.label}: {error}", file=sys.stderr)
    return failed


def measure(operations, seconds: float):
    """End-to-end metrics over at least MIN_PASSES passes (tracing off).

    Another pass starts while it is expected to end within ``seconds``.
    """
    # Pass 0 runs without calibration, so the peak read after it is the
    # program's alone; later passes repeat the same work.
    timed_start = time.perf_counter()
    passes = [run_pass(operations)]
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    calibrations = []
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - timed_start + passes[-1][0] <= seconds):
        passes.append(run_pass(operations, calibrations))
    attempted = failed = 0
    first = passes[0][1]
    for index, (_, outcomes) in enumerate(passes):
        attempted += len(outcomes)
        failed += _failures(outcomes, f"pass {index}", first if index else None)
    raw_wall_s = sum(
        min(outcomes[index].seconds for _, outcomes in passes)
        for index in range(len(first))
    )
    speed = CALIBRATION_REFERENCE_S / min(calibrations)
    wall_s = raw_wall_s * speed
    evaluations = sum(o.evaluations for o in first)
    metrics = {
        "wall_s": (wall_s, "s"),
        "evals_per_s": (evaluations / wall_s, "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        "improvement_over_ref": (sum(o.reference - o.energy for o in first), "energy"),
    }
    detail = {"passes": len(passes), "pass_wall_s": [wall for wall, _ in passes],
              "evaluations": evaluations, "raw_wall_s": raw_wall_s,
              "calibration_min_s": min(calibrations), "speed": speed}
    return metrics, attempted, failed, detail


def pinned(operations, traced: bool):
    """Run the pinned checks once, with the layer wrappers on if ``traced``;
    returns (attempted, failed).  Untimed, and their spans are dropped."""
    if not operations:
        return 0, 0
    from tracer import Tracer

    tracer = Tracer(OUT)
    if traced:
        tracer.install()
    try:
        _, outcomes = run_pass(operations)
    finally:
        tracer.uninstall()
    tracer.collect_workers()
    return len(outcomes), _failures(outcomes, "traced pinned" if traced else "pinned")


def trace(operations):
    """Per-layer metrics from one traced pass, against one untraced pass."""
    from tracer import UNATTRIBUTED, Tracer

    untraced_wall, untraced = run_pass(operations)
    tracer = Tracer(OUT)
    tracer.install()
    try:
        with tracer.span(UNATTRIBUTED):
            traced_wall, traced = run_pass(operations)
    finally:
        tracer.uninstall()
    tracer.collect_workers()

    failed = _failures(untraced, "untraced") + _failures(traced, "traced", untraced)
    summary = tracer.summary()
    evaluations = sum(o.evaluations for o in traced)
    summary["core.evaluations"] = evaluations
    summary["core.budget"] = sum(o.budget for o in traced)
    summary["stabilizer.points_per_eval"] = summary["stabilizer.points"] / max(evaluations, 1)
    summary["trace.overhead_s"] = traced_wall - untraced_wall
    metrics = {name: (value, _unit(name)) for name, value in summary.items()}
    detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}
    return metrics, len(untraced) + len(traced), failed, detail, tracer


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".share") or name.endswith("_per_eval"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("h2_pool", "molecule_slice", "xxz_chain_50"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time the set-up only and print it (used internally)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    host_start = host_snapshot()
    operations, setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment()
    tracer = None
    if args.trace:
        metrics, attempted, failed, detail, tracer = trace(operations)
    else:
        metrics, attempted, failed, detail = measure(operations, args.seconds)
        samples = [setup_s] + [probe_setup(args.workload, args.seed)
                               for _ in range(SETUP_PROBES)]
        metrics["setup_s"] = (statistics.median(samples) * detail["speed"], "s")
        detail["raw_setup_samples_s"] = samples
    import workloads

    checks = workloads.pinned_checks(args.workload, args.seed)
    for traced in (False, True) if args.trace else (False,):
        pinned_attempted, pinned_failed = pinned(checks, traced)
        attempted += pinned_attempted
        failed += pinned_failed
    detail["pinned_checks"] = [operation.label for operation in checks]
    env["host_start"] = host_start
    env["host_end"] = host_snapshot()
    env.update(workload=args.workload, seed=args.seed, trace=args.trace, **detail)
    if tracer is not None:
        tracer.write(
            OUT / f"trace-{args.workload}-seed{args.seed}.json",
            {"environment": env,
             "metrics": {name: value for name, (value, _) in metrics.items()}},
        )

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({"environment": env}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 — report, print no result, fail
        traceback.print_exc()
        sys.exit(3)

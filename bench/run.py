"""The quditstars benchmark: one workload per run, every output checked.

Run from the repository root:

    python3 bench/run.py --workload lowd-pipeline --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one client, ops back to back):

  lowd-pipeline   d = 2..10, a random state and gate program per op, through
                  every pipeline stage; per-call overhead dominates.
  highd-pipeline  the same op at d = 33, 101 and 301, half random states and
                  half planted constellations; root finding dominates and the
                  known large-d failures live here.
  cli-oneshot     one ``quditstars`` subprocess per op over all eight
                  subcommands; interpreter start and imports dominate.

BENCHMARK.json lists lowd-pipeline and cli-oneshot only.  highd-pipeline
runs by hand: its few long ops (about 100 a run) leave its timings spread
across runs of the same code by more than the benchmark's bounds on a
shared 2-core host, and the large-d failures also show on cli-oneshot's
d = 101 ops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced (each half at least one pass over the input
pool), prints the per-layer metrics and the tracing overhead, and writes
the spans to ``.bench_out/``.  Every run moves between the CPUs it may use
(see ``tracing.Cores``), and ``attempted`` and ``failed`` count distinct
inputs, which depend on the seed alone.  The library is imported
from ``src/`` of the working directory and nowhere else.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("lowd-pipeline", "highd-pipeline", "cli-oneshot")
# The tail quantile of each workload: fixed, so runs of different speed
# compare the same quantile, and chosen to leave at least 10 samples above
# it in a run of 40 s (about 20000, 150 and 50 ops at the time of writing).
# On highd-pipeline it falls among the d = 301 ops, the slowest third.
TAIL_QUANTILE = {"lowd-pipeline": 0.99, "highd-pipeline": 0.75, "cli-oneshot": 0.75}
# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 3
ACCURACY_CAP = 16.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "ok_ratio": "ratio", "accuracy_digits": "digits",
                    "peak_rss_mb": "MB"}

# The library functions timed from outside, and what is reported for each.
FUNCTIONS = (
    "majorana.state_to_polynomial", "majorana.find_roots", "majorana.constellation_to_state",
    "moebius.transform_constellation", "moebius.lift_to_unitary", "moebius.to_rotation",
    "gatescript.compile_source", "sphere.to_sphere", "formats.serialise", "formats.parse",
    "render.render_constellation_svg", "verify.run_suite",
)
FUNCTION_METRICS = (("calls", "count"), ("self_ms", "ms"), ("p50_us", "us"),
                    ("fail", "count"), ("fail_raised", "count"), ("fail_tol", "count"))


class SetupError(RuntimeError):
    """The working directory cannot run the benchmark."""


def per_layer_units(workload: str) -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order.

    The per-d figures of ``find_roots`` exist on highd-pipeline only.
    """
    from cli_oneshot import SUBCOMMANDS
    from pipeline import HIGHD_DIMS

    units = {f"{fn}.{suffix}": unit for fn in FUNCTIONS for suffix, unit in FUNCTION_METRICS}
    if workload == "highd-pipeline":
        for d in HIGHD_DIMS:
            units[f"majorana.find_roots.d{d}.p50_ms"] = "ms"
    units["majorana.find_roots.ok_ratio"] = "ratio"
    units["moebius.lift_to_unitary.ok_ratio"] = "ratio"
    if workload == "highd-pipeline":
        for d in HIGHD_DIMS:
            units[f"majorana.find_roots.vs_oracle.d{d}"] = "x"
    units["majorana.find_roots.vs_oracle.lowd"] = "x"
    for name in ("cli.interp_ms", "cli.import_ms", "cli.import.numpy_ms",
                 "cli.import.scipy_optimize_ms"):
        units[name] = "ms"
    for sub in SUBCOMMANDS:
        units[f"cli.{sub}.wall_ms"] = "ms"
        units[f"cli.{sub}.inproc_ms"] = "ms"
    units["trace.ops_per_s"] = "1/s"
    units["trace.untraced_ops_per_s"] = "1/s"
    units["trace.overhead_pct"] = "%"
    return units


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="The quditstars benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_library(root: Path):
    """Import ``quditstars`` from ``root/src`` only."""
    src = root / "src"
    if not (src / "quditstars" / "__init__.py").is_file():
        raise SetupError(f"no library sources under {src}")
    sys.path.insert(0, str(src))
    import quditstars

    if Path(quditstars.__file__).resolve().parent != (src / "quditstars").resolve():
        raise SetupError(f"quditstars imported from {quditstars.__file__}, not {src}")
    return quditstars


def _provenance(root: Path, args) -> dict:
    import numpy
    import scipy

    # The commit when the working directory is a git checkout's top level;
    # otherwise a digest of the library's sources identifies what ran.
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "quditstars").glob("*.py")):
        digest.update(path.read_bytes())
    commit = "src-sha256:" + digest.hexdigest()[:16]
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                                   capture_output=True, text=True, timeout=10,
                                   check=True).stdout.split()
        if Path(top).resolve() == root.resolve():
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count()}


def _import_wall(env: dict) -> float:
    """Wall seconds of a fresh interpreter importing quditstars."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import quditstars"], env=env,
                   capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


def _digits(error: float) -> float:
    """-log10(error) within [0, ACCURACY_CAP]."""
    if error <= 10.0 ** -ACCURACY_CAP:
        return ACCURACY_CAP
    return min(ACCURACY_CAP, max(0.0, -math.log10(error)))


def _accuracy_digits(tally) -> float:
    """Mean over distinct inputs of the digits of the worst scored check error.

    The worst error of the whole run is printed beside it; at large d it
    is about 1 (no digits at all), which would leave nothing to compare.
    """
    if not tally.op_worst:
        return 0.0
    return sum(_digits(e) for e in tally.op_worst) / len(tally.op_worst)


def end_to_end(run, seconds: float, env: dict, tail_q: float):
    """Set up SETUP_REPEATS times, then measure untraced."""
    from tracing import Cores, median, tail

    setups = []
    cores = Cores(0.0)     # each set-up on the next CPU
    for _ in range(SETUP_REPEATS):
        cores.step()
        t0 = time.perf_counter()
        _import_wall(env)
        run.setup()
        setups.append(time.perf_counter() - t0)
    cores.release()
    tally = run.measure(seconds)
    tail_s, beyond = tail(tally.latencies, tail_q)
    samples = len(tally.latencies)
    attempted = tally.attempted
    values = {
        "setup_s": median(setups),
        "ops_per_s": samples / sum(tally.latencies),
        "op_p50_ms": 1e3 * median(tally.latencies),
        "op_tail_ms": 1e3 * tail_s,
        "ok_ratio": 1.0 - tally.failed / attempted,
        "accuracy_digits": _accuracy_digits(tally),
        "peak_rss_mb": run.peak_rss_mb(),
    }
    notes = [f"samples {samples} over {attempted} distinct inputs",
             f"op_tail_ms is p{100 * tail_q:g}, {beyond} samples above it",
             f"fail_ratio {tally.failed / attempted:.6g} ({tally.failed}/{attempted})",
             f"worst check error {max(tally.op_worst, default=0.0):.3g} "
             f"({_digits(max(tally.op_worst, default=0.0)):.3g} digits)",
             f"setup_s runs {[round(s, 4) for s in setups]}"]
    return tally, values, notes


def per_layer(run, workload: str, seconds: float, trace_path: Path, info: dict):
    """Measure half the time untraced, half traced; per-layer figures."""
    from tracing import Tracer, median

    run.setup()
    untraced = run.measure(seconds / 2)
    tracer = Tracer()
    tally = run.measure(seconds / 2, tracer)
    tracer.write(trace_path, info)

    values = dict.fromkeys(per_layer_units(workload), 0.0)
    spans = tracer.by_name()
    for fn in FUNCTIONS:
        durations, selfs = spans.get(fn, ([], []))
        values[f"{fn}.calls"] = len(durations)
        values[f"{fn}.self_ms"] = sum(selfs) / 1e6
        values[f"{fn}.p50_us"] = median(durations) / 1e3
        values[f"{fn}.fail_raised"] = tally.raised[fn]
        values[f"{fn}.fail_tol"] = tally.out_of_tol[fn]
        values[f"{fn}.fail"] = tally.stage_failures(fn)
    for fn in ("majorana.find_roots", "moebius.lift_to_unitary"):
        calls = values[f"{fn}.calls"]
        values[f"{fn}.ok_ratio"] = 1.0 - values[f"{fn}.fail"] / calls if calls else 0.0
    values.update(run.layer_extras(tally))
    traced_rate = len(tally.latencies) / sum(tally.latencies)
    untraced_rate = len(untraced.latencies) / sum(untraced.latencies)
    values["trace.ops_per_s"] = traced_rate
    values["trace.untraced_ops_per_s"] = untraced_rate
    values["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    notes = [f"untraced ops {len(untraced.latencies)}, traced ops {len(tally.latencies)}",
             f"spans {len(tracer.spans)} written to {trace_path}"]
    return tally, values, notes


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # BLAS reads these once, when numpy is first imported below.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    root = Path.cwd()
    try:
        q = _import_library(root)
    except (SetupError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    from cli_oneshot import CliRun
    from pipeline import PipelineRun

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    info = _provenance(root, args)
    print("provenance " + json.dumps(info, sort_keys=True))
    if args.workload == "cli-oneshot":
        run = CliRun(root, args.seed, env)
    else:
        run = PipelineRun(q, args.workload, args.seed)
    try:
        if args.trace:
            out_dir = root / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            tally, values, notes = per_layer(run, args.workload, args.seconds, trace_path,
                                             info)
            units = per_layer_units(args.workload)
        else:
            tally, values, notes = end_to_end(run, args.seconds, env,
                                              TAIL_QUANTILE[args.workload])
            units = END_TO_END_UNITS
    finally:
        run.close()

    for line in notes:
        print(line)
    for name, count in sorted(tally.exceptions.items()):
        print(f"raised {name} x{count}")
    for name, count in sorted(tally.out_of_tol.items()):
        if count:
            print(f"out of tolerance {name} x{count}")
    for label in tally.gate_failures:
        print(f"GATED FAILURE {label}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    result = {"correct": not tally.gate_failures, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": float(values[name]), "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one momcube benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload reduce-d126 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: momcube is imported from
``src/`` next to this directory, never from an installed copy.  BLAS and
OpenMP are pinned to one thread before numpy loads.  The inputs come from
``--seed`` alone.  The same inputs are run pass after pass until
``--seconds`` have passed (at least three passes).  Before each pass the
set-up is timed again: importing momcube in a fresh interpreter, then
generating the inputs and writing the input files.  ``setup_s`` is the
median set-up.  ``wall_s`` is a median pass: each operation's median time
over the untraced passes, summed.  Counters that must repeat exactly
(eliminations, nodes, residuals, verdicts, output hashes) are compared
between passes and a difference makes the run incorrect.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, with the tracing overhead.
``--smoke`` shrinks every input so that a run takes about a second.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier lines name
every metric with its unit, plus ``failed_share``, and describe the
environment.  The full record (environment, every pass time, counters,
problems) and the spans of traced passes are written under ``.perfbench/``
at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Standard library only: numpy must not load before the thread pinning.
from layers import PER_LAYER, layer_metrics
from tracing import Tracer

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_PASSES = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import momcube, workloads; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_share": "share"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-roundtrip", "reduce-d126", "feasibility"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    return parser.parse_args(argv)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def environment(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(numpy),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "git_sha": _git_sha(),
        "platform": platform.platform(),
    }


def time_import() -> float:
    """Seconds to import momcube and the workloads in a fresh interpreter."""
    path = os.pathsep.join([str(SRC), str(HERE)])
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    return float(done.stdout)


def run_passes(workload, seed: int, workdir: Path, seconds: float, trace: bool):
    """Set-up and a pass, repeated until ``seconds`` are spent.

    Set-ups are spread over the run, like the passes, so that both sample
    the same stretches of a shared CPU's speed.  With tracing, untraced and
    traced passes alternate, untraced first.  Returns (set-up seconds,
    untraced results, [(traced result, spans)]).
    """
    setups, untraced, traced = [], [], []
    start = time.perf_counter()
    while True:
        import_s = time_import()
        started = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        setups.append(import_s + time.perf_counter() - started)
        tracer = Tracer(enabled=trace and len(untraced) > len(traced))
        with tracer.installed():
            result = workload.run_pass(inputs, tracer)
        if tracer.enabled:
            traced.append((result, tracer.spans))
        else:
            untraced.append(result)
        done = len(untraced) + len(traced)
        if done >= MIN_PASSES and time.perf_counter() - start >= seconds:
            return setups, untraced, traced


def median_pass(results) -> float:
    """Sum over operations of each one's median time across passes.

    On a shared box the CPU alternates between a fast and a slow speed
    every few seconds; taking medians per operation rather than per pass
    keeps a fast or slow stretch from moving a whole pass.
    """
    return sum(statistics.median(r.op_s[op] for r in results) for op in results[0].op_s)


def repeat_problems(results, per_layer) -> list[str]:
    """Counters that differ between passes over the same inputs."""
    problems = [
        f"pass {i} counters differ from pass 0"
        for i, r in enumerate(results) if r.counters != results[0].counters
    ]
    windows = {p["recomb.windows"] for p in per_layer}
    if len(windows) > 1:
        problems.append(f"recomb.windows differs between traced passes: {sorted(windows)}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_ENV:
        os.environ[var] = "1"
    if not (SRC / "momcube" / "__init__.py").is_file():
        print(f"perfbench: no momcube sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import momcube
    import workloads

    if Path(momcube.__file__).resolve().parent != SRC / "momcube":
        print(f"perfbench: momcube was imported from {momcube.__file__}", file=sys.stderr)
        return 2

    workload = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    env = environment(args)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups, untraced, traced = run_passes(
            workload, args.seed, workdir, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = untraced + [r for r, _ in traced]
    outcomes = [o for r in results for o in r.outcomes]
    attempted, failed = workloads.tally(outcomes)
    per_pass = [layer_metrics(spans, r.bytes_written) for r, spans in traced]
    problems = [f"{o.op}: {p}" for o in outcomes for p in o.problems]
    problems += repeat_problems(results, per_pass)
    failed_share = failed / attempted
    wall_s = median_pass(untraced)
    counters_sha256 = hashlib.sha256(
        json.dumps(results[0].counters, sort_keys=True).encode()
    ).hexdigest()

    if args.trace:
        values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        traced_wall = median_pass([r for r, _ in traced])
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = wall_s
        values["trace.overhead_share"] = traced_wall / wall_s - 1.0
        values["trace.spans"] = statistics.median(len(spans) for _, spans in traced)
        values["failed_share"] = failed_share
        units = PER_LAYER
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "success_share": (attempted - failed) / attempted,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env,
        "setup_s": setups,
        "untraced_op_s": [r.op_s for r in untraced],
        "traced_op_s": [r.op_s for r, _ in traced],
        "counters": results[0].counters,
        "counters_sha256": counters_sha256,
        "outcomes": {o.op: o.status for o in results[0].outcomes},
        "problems": problems,
        "metrics": metrics,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        (OUT / f"trace-{stem}.json").write_text(json.dumps([s for _, s in traced]) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for problem in problems[:20]:
        print(f"problem {problem}")
    print(f"passes untraced={len(untraced)} traced={len(traced)}")
    print(f"counters sha256 {counters_sha256}")
    print(f"failed_share = {failed_share!r} share ({failed} of {attempted} operations)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

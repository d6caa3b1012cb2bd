"""Record benchmark runs of this checkout, and optionally of a parent
checkout, in ``BENCH_<label>.json``.

    python3 tools/bench_record.py --label pr20 --parent ../parent \\
        --runs cli-roundtrip:51-60 --runs reduce-d126:1-3 --seconds 20

Each ``--runs WORKLOAD:SEEDS`` entry runs ``perfbench/run.py --trace 0``
of every checkout once per seed (seeds are ``A-B`` ranges or comma lists),
one run per process.  The change is the checkout this script lives in.
With ``--parent``, a seed's two runs form a pair, and the side that runs
first alternates from pair to pair, so that a slow or fast stretch of a
shared CPU does not always fall on the same side.

The file goes to the root of the change's checkout.  It holds the
machine (platform, CPU count and model, ``OPENBLAS_CORETYPE`` if set, and
the text of ``numpy.show_runtime()``, which names the SIMD extensions that
select the OpenBLAS kernel), each side's environment as run.py prints it
on its ``env`` line (versions, BLAS, git sha), the seeds, every run's
metrics and counter digest, and per side and workload the median and
quartiles of each end-to-end metric, plus the pairs the change wins.

Standard library only; ``numpy`` is only ever imported in a subprocess.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Keys of run.py's env line that describe the run, not the side.
RUN_KEYS = ("workload", "seed", "seconds", "trace", "smoke")


def parse_seeds(text: str) -> list[int]:
    """Seeds from "A-B" (inclusive) or "a,b,c"."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def parse_run_output(stdout: str) -> dict:
    """The env line, counter digest, correctness and metric values of one
    run.py run, from its standard output."""
    env = digest = None
    for line in stdout.splitlines():
        if line.startswith("env "):
            env = json.loads(line[len("env "):])
        elif line.startswith("counters sha256 "):
            digest = line.split()[-1]
    final = json.loads(stdout.strip().splitlines()[-1])
    return {
        "env": env,
        "counters_sha256": digest,
        "correct": final["correct"],
        "metrics": {name: m["value"] for name, m in final["metrics"].items()},
    }


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return parse_run_output(done.stdout)


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (inclusive method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: each side's median and quartiles of every end-to-end
    metric in ``better`` (name -> "lower" or "higher"), and, where both
    sides ran a seed, how many of those pairs the change wins (a tie is
    not a win)."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        entry = {}
        for side in dict.fromkeys(r["side"] for r in mine):
            values = {
                name: [r["metrics"][name] for r in mine if r["side"] == side]
                for name in better
            }
            entry[side] = {name: quartiles(v) for name, v in values.items() if v}
        by_seed = {(r["side"], r["seed"]): r["metrics"] for r in mine}
        seeds = [s for (side, s) in by_seed if side == "change" and ("parent", s) in by_seed]
        if seeds:
            wins = {}
            for name, direction in better.items():
                sign = 1.0 if direction == "lower" else -1.0
                won = sum(
                    sign * (by_seed[("parent", s)][name] - by_seed[("change", s)][name]) > 0.0
                    for s in seeds
                )
                wins[name] = {"wins": won, "pairs": len(seeds)}
            entry["change_wins"] = wins
        out[workload] = entry
    return out


def machine() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    runtime = subprocess.run(
        [sys.executable, "-c", "import numpy; numpy.show_runtime()"],
        capture_output=True, text=True,
    )
    return {
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "numpy_show_runtime": runtime.stdout,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--parent", type=Path, help="checkout to compare against")
    parser.add_argument("--runs", action="append", required=True, metavar="WORKLOAD:SEEDS")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    plan = []
    for spec in args.runs:
        workload, seeds = spec.split(":", 1)
        plan += [(workload, seed) for seed in parse_seeds(seeds)]

    runs, envs = [], {}
    for k, (workload, seed) in enumerate(plan):
        # The parent goes first in even pairs, the change in odd ones.
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for position, side in enumerate(s for s in order if s in sides):
            done = run_one(sides[side], workload, seed, args.seconds)
            env = done.pop("env")
            envs.setdefault(side, {key: v for key, v in env.items() if key not in RUN_KEYS})
            runs.append({"side": side, "workload": workload, "seed": seed,
                         "first": position == 0, **done})
            print(f"{workload} seed {seed} {side}: {done['metrics']}", file=sys.stderr)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    record = {
        "label": args.label,
        "machine": machine(),
        "environment": envs,
        "command": {"seconds": args.seconds, "trace": 0},
        "seeds": {w: [s for ww, s in plan if ww == w] for w in dict.fromkeys(w for w, _ in plan)},
        "runs": runs,
        "summary": summarize(runs, better),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

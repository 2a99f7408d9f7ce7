"""hartree-lab benchmark.

    python3 bench/run.py --workload {certify|solitons|landscape} --seed S \
        --seconds T --trace {0|1}

Run from the root of a source checkout; the program is imported from
src/.  With --trace 0 the run sets up several times (all but the last in
fresh processes) and takes the median, then repeats whole rounds of the
workload until T seconds have passed, checks every round's outputs, and
prints the end-to-end metrics.  With --trace 1 it runs the layer probe, sets up once,
runs one traced round, and prints the per-layer metrics.
The last line of standard output is the JSON result either way.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and every child, before numpy loads: the
# program's own 2-worker sector pool then stays within two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, cpu_seconds, peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "solitons", "landscape"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    return parser.parse_args(argv)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def setup_in_fresh_process(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        env=child_env(), capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_round(workload, tracer=None):
    """One round: wall and CPU seconds, attempted, failed, check failures."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    attempted, failed, outputs = workload.round(tracer)
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    return wall, cpu, attempted, failed, workload.check(outputs)


def measure(args, workload):
    setups = [setup_in_fresh_process(args) for _ in range(workload.setup_samples - 1)]
    setups.append(timed_setup(workload))
    walls, cpus, attempted, failed, problems = [], [], 0, 0, []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, cpu, a, f, p = run_round(workload)
        walls.append(wall)
        cpus.append(cpu)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    print(f"[bench] {args.workload}: {len(walls)} round(s), walls "
          f"{', '.join(f'{w:.3f}' for w in walls)} s; set-ups "
          f"{', '.join(f'{s:.3f}' for s in setups)} s")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, attempted, failed, problems


def measure_traced(args, workload, workdir):
    from layers import probe

    probe_tracer = Tracer()
    metrics, problems = probe(probe_tracer, workdir / "probe", child_env(), args.seed)
    workload.setup()
    tracer = Tracer()
    with tracer.patched(workload.boundaries):
        traced, _, attempted, failed, round_problems = run_round(workload, tracer)
    # the traced wall less the tracer's own time is the untraced wall
    untraced = traced - tracer.overhead
    metrics["trace.overhead_s"] = (tracer.overhead, "s")
    metrics["trace.accounted_share"] = (sum(tracer.self_time.values()) / untraced, "ratio")
    metrics["trace.absent_spans"] = (len(probe_tracer.absent) + len(tracer.absent), "count")
    print(f"[bench] {args.workload}: traced round {traced:.3f} s, tracing "
          f"{tracer.overhead:.3f} s; layer self times " + ", ".join(
              f"{k} {v:.3f}" for k, v in sorted(tracer.self_time.items())))
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"probe": probe_tracer.to_json(), "round": tracer.to_json(),
         "traced_wall_s": traced}, indent=1, default=float))
    return metrics, attempted, failed, problems + round_problems


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "hartree_lab" / "__init__.py").is_file():
        print(f"[bench] no hartree-lab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir, child_env())
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": timed_setup(workload)}))
            return 0
        if args.trace:
            metrics, attempted, failed, problems = measure_traced(args, workload, workdir)
        else:
            metrics, attempted, failed, problems = measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"[bench] CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

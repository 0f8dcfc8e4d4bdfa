"""hgssl benchmark: one workload, one data seed, one JSON result line.

  python3 benchmarks/run.py --workload noise-grid --seed 1 --seconds 10 --trace 0

Run it from anywhere; it uses the ``src/`` tree next to this directory.  The
measured grid runs in a child process of its own, and for ``ssl-cached``
another child primes the operator cache first, so peak RSS covers the
measured workload only.  Operator caches live in a per-run directory under
``.bench_work/`` that is removed at the end.  The full record (every sample,
the environment and, with ``--trace 1``, every span) is written to
``.bench_out/``.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Workloads, metrics and the layer table are described in README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Each child must end in time for the whole run to stay under three minutes.
PRIME_TIMEOUT_S = 75
MEASURE_TIMEOUT_S = 95


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def run_child(role, args, work, timeout, extra=()):
    out = work / f"{role}.out"
    command = [sys.executable, str(HERE / "harness.py"), role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--ops", str(work / "ops"), "--out", str(out), *extra]
    try:
        done = subprocess.run(command, stdout=sys.stderr, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"{role} process did not finish within {timeout} s")
    if done.returncode != 0:
        sys.exit(f"{role} process exited with code {done.returncode}")
    return out


def end_to_end(record):
    grids = record["grids"]
    first = grids[0]
    return {
        "grid_s": statistics.median(grid["grid_s"] for grid in grids),
        "setup_s": statistics.median(record["setup_s"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "acc_mean": first["acc_mean"],
        "acc_at_max_noise": first["acc_at_max_noise"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="synthetic data seed")
    parser.add_argument("--seconds", type=int, required=True,
                        help="keep repeating the grid until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hgssl" / "__init__.py").is_file() or not spec_path.is_file():
        sys.exit(f"no hgssl source tree or BENCHMARK.json under {ROOT}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if workload.cache == "warm":
            cold = run_child("prime", args, work, PRIME_TIMEOUT_S)
            extra += ["--reference", str(cold)]
        out = run_child("measure", args, work, MEASURE_TIMEOUT_S, extra)
        record = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there

    samples = record["grids"]
    correct = True
    if args.trace:
        traced = record["traced"]
        samples = samples + [traced["grid"]]
        measured = traced["metrics"]
        correct = traced["consistent"]
    else:
        measured = end_to_end(record)
    attempted = sum(grid["attempted"] for grid in samples)
    failed = sum(grid["failed"] for grid in samples)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        sys.exit(f"metrics not measured: {missing}")

    record.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, git_sha=git_sha())
    results = ROOT / ".bench_out"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {workload.name} seed {args.seed}: {len(record['grids'])} grid(s), "
          f"{len(record['setup_s'])} set-up(s), failed {failed} of {attempted} cells")
    print("environment " + json.dumps(dict(record["env"], git_sha=record["git_sha"])))
    metrics = {}
    for metric in wanted:
        value = measured[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {metric['name']:<34} {shown:>14} {metric['unit']}")
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

"""Child process of the benchmark: runs one workload's grids and checks them.

``run.py`` starts it, once per role, so that the measured process does
nothing but the measured workload (its peak RSS is a metric):

  prime    run the grid once on an empty operator cache directory, which
           fills it, and write the rows as CSV for the warm run to match.
  measure  run the grid until ``--seconds`` have passed (at least once),
           then extra timed set-ups, then with ``--trace 1`` one traced grid;
           write every sample, check and the environment as JSON.
"""

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hgssl  # noqa: E402
import hgssl.bench as bench  # noqa: E402
from tracing import Tracer, layer_metrics, spans_consistent  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cell_key(row):
    return (row.method, float(row.noise_level), int(row.seed))


def _result(row):
    """A row without its wall time: what must repeat exactly between runs."""
    return (row.dataset, row.accuracy, row.pca_used)


def run_grid(cfg, ops_dir):
    """One user-visible grid: ``run_experiment`` through both rendered tables."""
    start = time.perf_counter()
    report = bench.run_experiment(cfg, workers=1, ops_dir=ops_dir)
    csv_text = bench.emit_table(report.rows, "csv") if report.rows else ""
    text = bench.emit_table(report.rows, "text") if report.rows else ""
    return time.perf_counter() - start, report, csv_text, text


def bad_cells(cfg, report, csv_text, text, reference):
    """Cells that failed or whose output does not check out.

    The CSV must parse back into exactly the report's rows, one per cell,
    with accuracies in [0, 1]; the text grid must have one line per method;
    and when ``reference`` rows are given, every result must equal them.
    Rows for cells the config does not name count as bad cells too.
    """
    expected = {(m, float(level), int(s))
                for m in cfg.methods for level in cfg.noise_levels for s in cfg.seeds}
    bad = {(f.method, f.noise_level, f.seed) for f in report.failures}
    try:
        parsed = bench.parse_results_csv(csv_text)
    except ValueError:
        return expected
    keys = [_cell_key(row) for row in parsed]
    bad |= {key for key in keys if keys.count(key) != 1}
    bad |= expected.symmetric_difference(keys)
    for row, original in zip(parsed, report.rows):
        if row != original or not 0.0 <= row.accuracy <= 1.0:
            bad.add(_cell_key(row))
    if len(parsed) != len(report.rows):
        bad |= set(keys)
    if len(text.splitlines()) != 1 + len({row.method for row in parsed}):
        bad |= expected
    if reference is not None:
        ref = {_cell_key(row): _result(row) for row in reference}
        bad |= {_cell_key(row) for row in parsed if ref.get(_cell_key(row)) != _result(row)}
    return bad


def grid_sample(cfg, grid_s, report, bad):
    accuracies = [row.accuracy for row in report.rows]
    top = max(cfg.noise_levels)
    at_top = [row.accuracy for row in report.rows if row.noise_level == top]
    return {
        "grid_s": grid_s,
        "attempted": len(cfg.methods) * len(cfg.noise_levels) * len(cfg.seeds),
        "failed": len(bad),
        "acc_mean": statistics.fmean(accuracies) if accuracies else 0.0,
        "acc_at_max_noise": statistics.fmean(at_top) if at_top else 0.0,
    }


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None where it cannot be asked."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hgssl": str(Path(hgssl.__file__).resolve().parent.relative_to(ROOT)),
    }


def prime(args):
    cfg = WORKLOADS[args.workload].config(args.seed)
    _, report, csv_text, _ = run_grid(cfg, args.ops)
    if report.failures:
        sys.exit(f"priming run failed: {report.failures}")
    Path(args.out).write_text(csv_text)


def measure(args):
    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed)
    reference = None
    if args.reference:
        reference = bench.parse_results_csv(Path(args.reference).read_text())

    setups = []
    prepare = bench.prepare_experiment

    def timed_prepare(*a, **kw):
        start = time.perf_counter()
        try:
            return prepare(*a, **kw)
        finally:
            setups.append(time.perf_counter() - start)

    fresh = itertools.count()

    def ops_dir():
        if workload.cache == "none":
            return None
        if workload.cache == "warm":
            return args.ops
        return os.path.join(args.ops, f"cold-{next(fresh)}")

    bench.prepare_experiment = timed_prepare
    grids = []
    start = time.perf_counter()
    while not grids or time.perf_counter() - start < args.seconds:
        grid_s, report, csv_text, text = run_grid(cfg, ops_dir())
        bad = bad_cells(cfg, report, csv_text, text, reference)
        # Later grids of this run must repeat the first one's results.
        reference = reference if reference is not None else report.rows
        grids.append(grid_sample(cfg, grid_s, report, bad))
    while len(setups) < workload.setup_samples:
        bench.prepare_experiment(cfg, ops_dir=ops_dir())
    bench.prepare_experiment = prepare

    out = {"grids": grids, "setup_s": setups,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "env": environment()}
    if args.trace:
        tracer = Tracer()
        with tracer.installed(), tracer.span("bench.grid", "bench") as root:
            grid_s, report, csv_text, text = run_grid(cfg, ops_dir())
        bad = bad_cells(cfg, report, csv_text, text, reference)
        metrics = layer_metrics(tracer.spans, root)
        metrics["trace.overhead_s"] = root.seconds - statistics.median(
            grid["grid_s"] for grid in grids)
        out["traced"] = {"grid": grid_sample(cfg, grid_s, report, bad),
                         "metrics": metrics,
                         "consistent": spans_consistent(tracer.spans, root),
                         "spans": tracer.to_json()}
    Path(args.out).write_text(json.dumps(out))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("prime", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", required=True, help="operator cache directory")
    parser.add_argument("--reference", help="CSV whose results every grid must repeat")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    (prime if args.role == "prime" else measure)(args)


if __name__ == "__main__":
    main()

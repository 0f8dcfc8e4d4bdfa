"""Command-line entry point.

Subcommands:
  bench      run a full method x noise-level x seed grid from a config file
  run        run a single (dataset, method, noise, seed) cell
  build-ops  precompute propagation operators into a cache directory

Dataset files are looked up under ``--data-dir`` (or $HGSSL_DATA_DIR, default
``./data``); the flag wins over the environment variable, and an empty one is
a config error.  Exit code 0 means every cell succeeded.
"""

import argparse
import errno
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import bench as bench_mod
from . import config as config_mod
from .bench import (ExperimentConfig, build_operators, emit_table, operator_cache_key,
                    operator_cache_path, run_experiment)
from .errors import ConfigError, FormatError
from .network import TrainConfig
from .propagation import PropagationConfig


def _add_common(parser):
    parser.add_argument("--data-dir", default=None,
                        help="dataset directory (default: $HGSSL_DATA_DIR or ./data)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hgssl",
        description="Graph/hypergraph semi-supervised learning under label noise")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run the full benchmark grid")
    p_bench.add_argument("--config", required=True, help="benchmark config file")
    p_bench.add_argument("--out", default="results", help="output directory")
    p_bench.add_argument("--ops", default=None,
                         help="operator cache directory (load if present, else build and save)")
    p_bench.add_argument("--full", action="store_true",
                         help="ignore any configured subsampling and run full scale")
    _add_common(p_bench)

    p_run = sub.add_parser("run", help="run a single benchmark cell")
    p_run.add_argument("--dataset", required=True, choices=tuple(bench_mod.DATASET_FILES))
    p_run.add_argument("--method", required=True, choices=bench_mod.METHODS)
    p_run.add_argument("--noise", type=float, required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--pca-dims", type=config_mod.int_or_none,
                       default=argparse.SUPPRESS,
                       help="PCA dimensions or 'none' (default: the dataset's default)")
    p_run.add_argument("--k", type=int, default=ExperimentConfig.k)
    p_run.add_argument("--alpha", type=float, default=PropagationConfig.alpha)
    p_run.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_run.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    p_run.add_argument("--subsample", type=int, default=None,
                       help="stratified subsample size before running")
    _add_common(p_run)

    p_ops = sub.add_parser("build-ops", help="precompute and cache operators")
    p_ops.add_argument("--config", required=True)
    p_ops.add_argument("--out", default="ops", help="operator cache directory")
    _add_common(p_ops)
    return parser


def _report_failures(report) -> int:
    for failure in report.failures:
        print(f"FAILED cell method={failure.method} noise={failure.noise_level} "
              f"seed={failure.seed}: {failure.error}", file=sys.stderr)
    return 0 if report.ok else 1


def _usable_dirs(*paths) -> bool:
    """Whether every path given is a writable directory or can be made one.

    The first that is not is reported.  Nothing is created, so a grid that
    fails leaves no directory behind.
    """
    for path in filter(None, paths):
        absolute = Path(path).absolute()
        nearest = next(p for p in (absolute, *absolute.parents) if p.exists())
        if not nearest.is_dir():
            code = errno.ENOTDIR
        elif not os.access(nearest, os.W_OK | os.X_OK):
            code = errno.EACCES
        else:
            continue
        error = OSError(code, os.strerror(code), str(nearest))
        print(f"cannot create directory {path}: {error}", file=sys.stderr)
        return False
    return True


def _cmd_bench(args) -> int:
    cfg = config_mod.load_config(args.config)
    if args.full:
        cfg = replace(cfg, subsample_size=None)
    # Checked before the grid runs, so a bad path does not discard its results.
    if not _usable_dirs(args.out, args.ops):
        return 2
    report = run_experiment(cfg, data_dir=args.data_dir, ops_dir=args.ops)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if report.rows:
        (out_dir / f"{cfg.dataset}.csv").write_text(emit_table(report.rows, "csv"))
        text = emit_table(report.rows, "text")
        (out_dir / f"{cfg.dataset}.txt").write_text(text)
        sys.stdout.write(text)
    return _report_failures(report)


def _cmd_run(args) -> int:
    # --pca-dims is passed on only when given; ExperimentConfig owns the default.
    given = {"pca_dims": args.pca_dims} if "pca_dims" in vars(args) else {}
    cfg = ExperimentConfig(
        dataset=args.dataset,
        methods=(args.method,),
        noise_levels=(args.noise,),
        seeds=(args.seed,),
        k=args.k,
        train=TrainConfig(epochs=args.epochs, hidden=args.hidden),
        solver=PropagationConfig(alpha=args.alpha),
        subsample_size=args.subsample,
        **given,
    )
    report = run_experiment(cfg, data_dir=args.data_dir)
    if report.rows:
        sys.stdout.write(emit_table(report.rows, "csv"))
    return _report_failures(report)


def _cmd_build_ops(args) -> int:
    cfg = config_mod.load_config(args.config)
    # Checked before kNN and the operator builds, which a bad path would waste.
    if not _usable_dirs(args.out):
        return 2
    _, X = bench_mod.prepare_features(cfg, data_dir=args.data_dir)
    operators = build_operators(cfg, X, ops_dir=args.out)
    key = operator_cache_key(cfg, X)
    for name in sorted(operators):
        print(operator_cache_path(args.out, key, name))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "build-ops":
            return _cmd_build_ops(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"bad file: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())

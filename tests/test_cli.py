import numpy as np
import pytest

import hgssl.bench
import hgssl.cli
import hgssl.hypergraph
from hgssl.bench import ExperimentReport, SyntheticSpec, parse_results_csv
from hgssl.cli import main
from hgssl.datasets import ImageDataset, save_usps_dataset

TINY_CONFIG = """\
schema_version = 1

[dataset]
name = synthetic
n = 120
classes = 3
dim = 5
spread = 0.1
seed = 2

[experiment]
methods = hypergraph-ssl, graph-ssl
noise_levels = 0, 0.3
seeds = 0

[train]
epochs = 30
hidden = 8
"""


def test_run_single_cell(capsys):
    code = main(["run", "--dataset", "synthetic", "--method", "hgnn",
                 "--noise", "0", "--seed", "1", "--epochs", "40",
                 "--hidden", "8"])
    out = capsys.readouterr().out
    assert code == 0
    rows = parse_results_csv(out)
    assert len(rows) == 1
    assert rows[0].method == "hgnn"
    assert rows[0].noise_level == 0.0
    assert rows[0].seed == 1
    assert rows[0].accuracy >= 0.9


def test_bench_writes_tables(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out_dir = tmp_path / "results"
    code = main(["bench", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 0
    csv_path = out_dir / "synthetic.csv"
    txt_path = out_dir / "synthetic.txt"
    assert csv_path.exists() and txt_path.exists()
    rows = parse_results_csv(csv_path.read_text())
    assert len(rows) == 4  # 2 methods x 2 levels x 1 seed
    stdout = capsys.readouterr().out
    assert "method" in stdout and "hypergraph-ssl" in stdout


@pytest.mark.parametrize("flag", ["--out", "--ops"])
def test_bench_unusable_directory_exit_code(tmp_path, capsys, monkeypatch, flag):
    def not_reached(*args, **kwargs):
        raise AssertionError("the grid ran with an unusable directory")
    monkeypatch.setattr(hgssl.cli, "run_experiment", not_reached)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "results"
    args = ["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]
    assert main(args + [flag, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"cannot create directory {target}: ")
    assert f"Not a directory: '{blocker}'" in err
    assert not (tmp_path / "r").exists()


def test_build_ops_unusable_directory_exit_code(tmp_path, capsys, monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("the features were prepared for an unusable directory")
    monkeypatch.setattr(hgssl.bench, "prepare_features", not_reached)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "ops"
    assert main(["build-ops", "--config", str(cfg), "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"cannot create directory {target}: ")
    assert f"Not a directory: '{blocker}'" in err


def _results(path):
    return [(r.method, r.noise_level, r.seed, r.accuracy, r.pca_used)
            for r in parse_results_csv(path.read_text())]


def test_bench_failed_feature_solve_fails_only_proposed_cells(tmp_path, capsys):
    cfg = tmp_path / "starved.cfg"
    cfg.write_text(TINY_CONFIG.replace("hypergraph-ssl, graph-ssl", "gcn, hgnn-proposed")
                   + "\n[solver]\ntol = 1e-14\nmax_iter = 1\n")
    out_dir = tmp_path / "results"
    assert main(["bench", "--config", str(cfg), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 2
    for line, level in zip(lines, ("0.0", "0.3")):
        assert line.startswith(f"FAILED cell method=hgnn-proposed noise={level} seed=0: "
                               "SolverError: ")
    assert [row[:3] for row in _results(out_dir / "synthetic.csv")] \
        == [("gcn", 0.0, 0), ("gcn", 0.3, 0)]


def test_bench_full_ignores_subsample(tmp_path, capsys, monkeypatch):
    whole = tmp_path / "whole.cfg"
    whole.write_text(TINY_CONFIG)
    sub = tmp_path / "sub.cfg"
    sub.write_text(TINY_CONFIG.replace("seed = 2", "seed = 2\nsubsample_size = 30"))
    assert main(["bench", "--config", str(whole), "--out", str(tmp_path / "whole")]) == 0

    def no_subsample(*args, **kwargs):
        raise AssertionError("--full subsampled the dataset")
    monkeypatch.setattr(hgssl.bench, "stratified_subsample", no_subsample)
    assert main(["bench", "--config", str(sub), "--out", str(tmp_path / "full"),
                 "--full"]) == 0
    capsys.readouterr()
    assert _results(tmp_path / "full" / "synthetic.csv") \
        == _results(tmp_path / "whole" / "synthetic.csv")


@pytest.mark.parametrize("dataset, flags, pca_dims, synthetic", [
    ("usps", [], 50, None),
    ("fashion", [], 300, None),
    ("fashion", ["--pca-dims", "none"], None, None),
    ("mnist", ["--pca-dims", "20"], 20, None),
    ("synthetic", [], None, SyntheticSpec()),
])
def test_run_resolves_like_the_config(monkeypatch, dataset, flags, pca_dims, synthetic):
    seen = []

    def record(cfg, **kwargs):
        seen.append(cfg)
        return ExperimentReport(rows=[], failures=[])
    monkeypatch.setattr(hgssl.cli, "run_experiment", record)
    assert main(["run", "--dataset", dataset, "--method", "gcn", "--noise", "0",
                 "--seed", "0", *flags]) == 0
    [cfg] = seen
    assert (cfg.pca_dims, cfg.synthetic) == (pca_dims, synthetic)


def test_bench_reuses_operator_cache(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    ops = tmp_path / "ops"
    first = tmp_path / "r1"
    second = tmp_path / "r2"
    assert main(["bench", "--config", str(cfg), "--out", str(first),
                 "--ops", str(ops)]) == 0
    assert list(ops.glob("*.hgop"))
    assert main(["bench", "--config", str(cfg), "--out", str(second),
                 "--ops", str(ops)]) == 0
    capsys.readouterr()
    a = parse_results_csv((first / "synthetic.csv").read_text())
    b = parse_results_csv((second / "synthetic.csv").read_text())
    assert [(r.method, r.noise_level, r.seed, r.accuracy) for r in a] \
        == [(r.method, r.noise_level, r.seed, r.accuracy) for r in b]


def test_build_ops_precomputes_cache(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    ops = tmp_path / "ops"
    code = main(["build-ops", "--config", str(cfg), "--out", str(ops)])
    out = capsys.readouterr().out
    assert code == 0
    printed = [line for line in out.strip().splitlines() if line]
    assert printed
    files = sorted(str(p) for p in ops.glob("*.hgop"))
    assert sorted(printed) == files
    names = "".join(files)
    assert "hg_sym" in names and "graph" in names


def test_bad_cache_file_exit_code(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    ops = tmp_path / "ops"
    assert main(["build-ops", "--config", str(cfg), "--out", str(ops)]) == 0
    [graph] = ops.glob("*_graph.hgop")
    [hg_sym] = ops.glob("*_hg_sym.hgop")
    graph_bytes = graph.read_bytes()
    graph.write_bytes(hg_sym.read_bytes())
    hg_sym.write_bytes(graph_bytes)
    capsys.readouterr()
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r"),
                 "--ops", str(ops)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("bad file: ") and ".hgop: holds a" in err
    assert not (tmp_path / "r").exists()


def test_one_class_dataset_exit_code(tmp_path, capsys, monkeypatch):
    def no_knn(*args, **kwargs):
        raise AssertionError("kNN ran on a malformed dataset")
    monkeypatch.setattr(hgssl.hypergraph, "knn_indices", no_knn)
    (tmp_path / "zip.train").write_text("0 0.0 0.5\n0 1.0 0.5\n")
    (tmp_path / "zip.test").write_text("0 0.5 0.5\n")
    cfg = tmp_path / "usps.cfg"
    cfg.write_text("schema_version = 1\n[dataset]\nname = usps\ntrain_path = zip.train\n"
                   "test_path = zip.test\n[experiment]\npca_dims = none\n")
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("bad file: ") and "hold 1 class between them" in err
    assert not (tmp_path / "r").exists()


def test_malformed_usps_label_exit_code(tmp_path, capsys):
    (tmp_path / "zip.train").write_text("0 0.0 0.5\n1.5 1.0 0.5\n")
    (tmp_path / "zip.test").write_text("1 0.5 0.5\n")
    cfg = tmp_path / "usps.cfg"
    cfg.write_text("schema_version = 1\n[dataset]\nname = usps\ntrain_path = zip.train\n"
                   "test_path = zip.test\n[experiment]\npca_dims = none\n")
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err == f"bad file: {tmp_path / 'zip.train'}:2: label '1.5' is not an integer\n"
    assert not (tmp_path / "r").exists()


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("schema_version = 1\n[dataset]\nname = usps\nwat = 1\n")
    assert main(["bench", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "broken.cfg:4" in err


@pytest.mark.parametrize("old, new, message", [
    ("epochs = 30", "epochs = 0", "epochs must be a positive integer"),
    ("hidden = 8", "hidden = 8\n[solver]\ntol = 0", "tol must be positive"),
    ("classes = 3", "classes = 1", "classes must be at least 2"),
    ("spread = 0.1", "spread = 0", "spread must be positive"),
    ("spread = 0.1", "spread = inf", "spread must be positive and finite, got inf"),
    ("hidden = 8", "hidden = 8\n[solver]\ntol = 1", "tol must be positive and below 1, got 1.0"),
    ("hidden = 8", "hidden = 8\nseed = 3", "unknown key 'seed' in [train]"),
    ("hidden = 8", "hidden = 8\nadam_beta1 = 1", "unknown key 'adam_beta1' in [train]"),
], ids=["train-epochs", "solver-tol", "dataset-classes", "dataset-spread",
        "dataset-spread-inf", "solver-tol-1", "train-seed", "train-adam_beta1"])
def test_bad_config_value_exit_code(tmp_path, capsys, monkeypatch, old, new, message):
    def no_data(*args, **kwargs):
        raise AssertionError("data loaded before the config was checked")
    monkeypatch.setattr(hgssl.bench, "load_dataset", no_data)
    text = TINY_CONFIG.replace(old, new)
    line = text.splitlines().index(new.splitlines()[-1]) + 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert f"bad.cfg:{line}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("old, new, message", [
    ("seed = 2", "seed = 2\nsubsample_size = 121",
     "subsample_size must be at most the dataset's 120 points, got 121"),
    ("seeds = 0", "seeds = 0\npca_dims = 6",
     "pca_dims must be at most min(n - 1, m) = 5 for 120 points of 5 features, got 6"),
    ("seeds = 0", "seeds = 0\nk = 120", "k must be less than the 120 points, got 120"),
    ("seed = 2\n\n[experiment]", "seed = 2\nsubsample_size = 30\n\n[experiment]\nk = 30",
     "k must be less than the 30 points, got 30"),
], ids=["subsample_size", "pca_dims", "k", "k-after-subsample"])
def test_data_dependent_value_exit_code(tmp_path, capsys, old, new, message):
    text = TINY_CONFIG.replace(old, new)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["bench", "run"])
def test_subsample_with_an_empty_split_exit_code(tmp_path, capsys, monkeypatch, command):
    # 3 of 300 points are training points, so 40 draw round(0.4) = 0 of them.
    rng = np.random.default_rng(4)
    ds = ImageDataset(rng.random((300, 4)), np.arange(300) % 3,
                      np.arange(3), np.arange(3, 300), 3)
    (tmp_path / "usps").mkdir()
    save_usps_dataset(ds, tmp_path / "usps" / "zip.train", tmp_path / "usps" / "zip.test")

    def not_reached(*args, **kwargs):
        raise AssertionError("PCA or kNN ran on an empty split")
    monkeypatch.setattr(hgssl.bench, "pca_fit", not_reached)
    monkeypatch.setattr(hgssl.hypergraph, "knn_indices", not_reached)
    if command == "bench":
        cfg = tmp_path / "usps.cfg"
        cfg.write_text("schema_version = 1\n[dataset]\nname = usps\nsubsample_size = 40\n"
                       "[experiment]\npca_dims = none\n")
        args = ["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]
    else:
        args = ["run", "--dataset", "usps", "--method", "graph-ssl", "--noise", "0",
                "--seed", "0", "--subsample", "40", "--pca-dims", "none"]
    assert main(args + ["--data-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "config error: subsample_size 40 draws 0 train and 40 test points" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flags, env, source", [
    (["--data-dir", ""], "elsewhere", "data_dir (--data-dir)"),
    ([], "", "$HGSSL_DATA_DIR"),
], ids=["flag", "env"])
def test_empty_data_dir_exit_code(tmp_path, capsys, monkeypatch, flags, env, source):
    # The working directory holds a USPS layout, which an empty data directory
    # would otherwise read.
    rng = np.random.default_rng(5)
    ds = ImageDataset(rng.random((30, 4)), np.arange(30) % 3, np.arange(15),
                      np.arange(15, 30), 3)
    (tmp_path / "usps").mkdir()
    save_usps_dataset(ds, tmp_path / "usps" / "zip.train", tmp_path / "usps" / "zip.test")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HGSSL_DATA_DIR", env)
    assert main(["run", "--dataset", "usps", "--method", "graph-ssl", "--noise", "0",
                 "--seed", "0", "--pca-dims", "none", *flags]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {source} is empty; ")


@pytest.mark.parametrize("command, message", [
    ("bench", "subsample_size 8 keeps no row of class ids [6, 7, 8, 9]"),
    ("run", "subsample_size 2 keeps no row of class ids [1, 2]"),
], ids=["bench", "run"])
def test_subsample_that_loses_a_class_exit_code(tmp_path, capsys, command, message):
    # Noise injection would otherwise draw labels from the classes left empty.
    if command == "bench":
        cfg = tmp_path / "lost.cfg"
        cfg.write_text(TINY_CONFIG.replace("classes = 3", "classes = 10")
                       .replace("n = 120", "n = 300").replace("seed = 2", "seed = 1")
                       .replace("seeds = 0", "seeds = 0\nk = 2")
                       .replace("[experiment]", "subsample_size = 8\n\n[experiment]"))
        args = ["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]
    else:
        args = ["run", "--dataset", "synthetic", "--method", "graph-ssl", "--noise", "0.45",
                "--seed", "0", "--subsample", "2", "--k", "1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flag, value, named", [
    ("--pca-dims", "abc", "--pca-dims"),
    ("--noise", "1.5", "noise"),
    ("--epochs", "0", "epochs"),
    ("--pca-dims", "0", "pca_dims"),
    ("--k", "0", "k must be a positive integer"),
    ("--alpha", "1.5", "alpha must lie strictly inside (0, 1)"),
    ("--hidden", "0", "hidden must be a positive integer"),
    ("--subsample", "0", "subsample_size must be a positive integer"),
    ("--k", "400", "k must be less than the 300 points, got 400"),
])
def test_run_bad_value_exit_code(capsys, flag, value, named):
    args = ["run", "--dataset", "synthetic", "--method", "hgnn",
            "--noise", "0", "--seed", "0", flag, value]
    assert main(args) == 2
    assert named in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["bench", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_unknown_flag_usage_error(capsys):
    assert main(["run", "--frobnicate"]) != 0


def test_removed_no_centroid_flag_usage_error(capsys):
    assert main(["run", "--dataset", "synthetic", "--method", "hgnn", "--noise", "0",
                 "--seed", "0", "--no-centroid"]) == 2
    assert "unrecognized arguments: --no-centroid" in capsys.readouterr().err


def test_removed_normalization_flag_usage_error(capsys):
    assert main(["run", "--dataset", "synthetic", "--method", "hgnn", "--noise", "0",
                 "--seed", "0", "--normalization", "sym"]) == 2
    assert "unrecognized arguments: --normalization sym" in capsys.readouterr().err


def test_unknown_method_usage_error(capsys):
    code = main(["run", "--dataset", "synthetic", "--method", "oracle",
                 "--noise", "0", "--seed", "0"])
    assert code != 0

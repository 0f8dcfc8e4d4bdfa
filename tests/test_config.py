from pathlib import Path

import pytest

from hgssl.config import load_config, parse_config
from hgssl.errors import ConfigError

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))

GOOD = """\
schema_version = 1

[dataset]
name = synthetic
n = 120
classes = 3
dim = 5
spread = 0.1
seed = 1

[experiment]
methods = hypergraph-ssl, gcn
noise_levels = 0, 0.45
seeds = 0, 1
k = 4
alpha = 0.9

[train]
epochs = 30
hidden = 16

[solver]
tol = 1e-8
"""


class TestParsing:
    def test_good_config(self):
        cfg = parse_config(GOOD)
        assert cfg.dataset == "synthetic"
        assert cfg.synthetic.n == 120
        assert cfg.methods == ("hypergraph-ssl", "gcn")
        assert cfg.noise_levels == (0.0, 0.45)
        assert cfg.seeds == (0, 1)
        assert cfg.k == 4
        assert cfg.solver.alpha == 0.9
        assert cfg.train.epochs == 30
        assert cfg.train.hidden == 16
        assert cfg.solver.tol == 1e-8
        assert cfg.solver.max_iter == 1000  # default
        assert cfg.pca_dims is None  # synthetic default

    def test_defaults_per_dataset(self):
        text = "schema_version = 1\n[dataset]\nname = usps\n"
        assert parse_config(text).pca_dims == 50
        text = "schema_version = 1\n[dataset]\nname = fashion\n"
        assert parse_config(text).pca_dims == 300
        text = "schema_version = 1\n[dataset]\nname = mnist\n[experiment]\npca_dims = none\n"
        assert parse_config(text).pca_dims is None

    def test_comments_and_blank_lines(self):
        text = "# top comment\nschema_version = 1\n\n; another\n[dataset]\nname = usps\n"
        assert parse_config(text).dataset == "usps"

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(GOOD)
        assert load_config(path).dataset == "synthetic"

    def test_load_anchors_relative_paths_at_the_file(self, tmp_path, monkeypatch):
        (tmp_path / "configs").mkdir()
        (tmp_path / "configs" / "usps.cfg").write_text(
            "schema_version = 1\n[dataset]\nname = usps\n"
            "train_path = ../data/zip.train\ntest_path = /abs/zip.test\n")
        want = (tmp_path / "data" / "zip.train").resolve()
        monkeypatch.chdir(tmp_path)
        for path in (tmp_path / "configs" / "usps.cfg", "configs/usps.cfg"):
            paths = load_config(path).paths
            assert Path(paths["train_path"]).resolve() == want
            assert paths["test_path"] == "/abs/zip.test"
        # parse_config has no file to anchor at: the text's paths are kept.
        text = (tmp_path / "configs" / "usps.cfg").read_text()
        assert parse_config(text).paths["train_path"] == "../data/zip.train"

@pytest.mark.parametrize("path", CONFIGS, ids=[path.name for path in CONFIGS])
def test_shipped_config_loads(path):
    # Reading a config checks every key and value; no data is loaded.
    assert load_config(path).dataset == path.stem.split("-")[0]


class TestLinePreciseErrors:
    def test_unknown_key_reports_line(self):
        text = "schema_version = 1\n[dataset]\nname = usps\nbogus = 3\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text, path="x.cfg")
        assert info.value.line == 4
        assert "bogus" in str(info.value)
        assert "x.cfg:4" in str(info.value)

    @pytest.mark.parametrize("section, filler, key, value", [
        ("experiment", "k = 3", "include_centroid", "true"),
        ("experiment", "k = 3", "normalization", "sym"),
        ("train", "epochs = 5", "adam_beta1", "0.9"),
        ("train", "epochs = 5", "learning_rate", "0.01"),
        ("train", "epochs = 5", "weight_decay", "0.0005"),
    ])
    def test_removed_key_reports_line(self, section, filler, key, value):
        # Settings that became constants are unknown keys, not ignored ones.
        text = (f"schema_version = 1\n[dataset]\nname = synthetic\n"
                f"[{section}]\n{filler}\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[{section}\\]") as info:
            parse_config(text, path="x.cfg")
        assert info.value.line == 6
        assert "x.cfg:6" in str(info.value)

    def test_bad_integer_reports_line(self):
        text = "schema_version = 1\n[dataset]\nname = synthetic\nn = twelve\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == 4

    def test_unknown_section_reports_line(self):
        text = "schema_version = 1\n[dataset]\nname = usps\n\n[extras]\nfoo = 1\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == 5

    def test_malformed_line(self):
        text = "schema_version = 1\n[dataset]\nname = usps\njust words\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == 4

    def test_duplicate_key(self):
        text = "schema_version = 1\n[dataset]\nname = usps\nname = mnist\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == 4

    def test_bad_method_reports_line(self):
        text = ("schema_version = 1\n[dataset]\nname = usps\n"
                "[experiment]\nmethods = hgnn, mystery\n")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == 5
        assert "mystery" in str(info.value)

    def test_noise_level_out_of_range(self):
        text = ("schema_version = 1\n[dataset]\nname = usps\n"
                "[experiment]\nnoise_levels = 0, 1.5\n")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == 5


class TestSchemaRules:
    def test_missing_schema_version(self):
        with pytest.raises(ConfigError) as info:
            parse_config("[dataset]\nname = usps\n")
        assert "schema_version" in str(info.value)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError):
            parse_config("schema_version = 2\n[dataset]\nname = usps\n")

    def test_missing_dataset_section(self):
        with pytest.raises(ConfigError):
            parse_config("schema_version = 1\n")

    def test_dataset_without_name_reports_its_header(self):
        with pytest.raises(ConfigError) as info:
            parse_config("schema_version = 1\n\n[dataset]\nn = 5\n", path="x.cfg")
        assert str(info.value) == "x.cfg:3: missing 'name' in [dataset]"

    def test_bad_dataset_name(self):
        with pytest.raises(ConfigError):
            parse_config("schema_version = 1\n[dataset]\nname = cifar\n")

    def test_nonpositive_pca_dims(self):
        with pytest.raises(ConfigError, match="pca_dims"):
            parse_config("schema_version = 1\n[dataset]\nname = usps\n"
                         "[experiment]\npca_dims = 0\n")

    @pytest.mark.parametrize("section, key, value, field", [
        ("experiment", "pca_dims", "0", "pca_dims"),
        ("experiment", "k", "0", "k"),
        ("experiment", "alpha", "1.5", "alpha"),
        ("experiment", "alpha", "0", "alpha"),
        ("dataset", "subsample_size", "0", "subsample_size"),
        ("solver", "tol", "0", "tol"),
        ("solver", "tol", "1", "tol"),
        ("solver", "max_iter", "0", "max_iter"),
        ("train", "epochs", "0", "epochs"),
        ("train", "hidden", "0", "hidden"),
        ("dataset", "classes", "1", "classes"),
        ("dataset", "n", "2", "n"),
        ("dataset", "dim", "0", "dim"),
        ("dataset", "spread", "0", "spread"),
        ("dataset", "spread", "inf", "spread"),
        ("dataset", "seed", "-1", "seed"),
        ("dataset", "subsample_seed", "-1", "subsample_seed"),
        ("experiment", "seeds", "0, -1", "seeds"),
        ("experiment", "seeds", "1, 0, 1", "seeds"),
        ("experiment", "methods", "graph-ssl, graph-ssl", "methods"),
        ("experiment", "noise_levels", "0, 0.3, 0.30", "noise_levels"),
    ])
    def test_bad_value_reports_line(self, section, key, value, field):
        # Filler keys keep each bad key off its section's first line.
        train_filler = "hidden = 8\n" if key == "epochs" else "epochs = 5\n"
        body = {"dataset": "name = synthetic\n",
                "experiment": "# filler\n",
                "train": train_filler, "solver": ""}
        body[section] += f"{key} = {value}\n"
        text = "schema_version = 1\n" + "".join(
            f"[{name}]\n{lines}" for name, lines in body.items())
        want = text.splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ConfigError, match=field) as info:
            parse_config(text, path="x.cfg")
        assert info.value.line == want
        assert f"x.cfg:{want}: {field}" in str(info.value)
        assert info.value.field == field

    def test_explicit_paths_collected(self):
        text = ("schema_version = 1\n[dataset]\nname = usps\n"
                "train_path = /tmp/zip.train\ntest_path = /tmp/zip.test\n")
        cfg = parse_config(text)
        assert cfg.paths == {"train_path": "/tmp/zip.train",
                             "test_path": "/tmp/zip.test"}

"""Config-reader fuzzing: every drawn document parses or raises ConfigError.

The README's schema block is checked against the same key list.
"""

import re
from pathlib import Path

from hgssl.bench import ExperimentConfig
from hgssl.config import parse_config
from hgssl.errors import ConfigError
from strategies import PROPERTY  # first: skips without hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st

# Per section and key: a valid value and an out-of-range one (None where the
# key has no range rule).
SCHEMA = {
    "dataset": {
        "n": ("300", "1"), "classes": ("3", "1"), "dim": ("4", "0"),
        "spread": ("0.5", "0"), "seed": ("1", "-1"),
        "subsample_size": ("100", "0"), "subsample_seed": ("0", "-1"),
    },
    "experiment": {
        "methods": ("gcn, hgnn", "gcn, magic"), "noise_levels": ("0, 0.3", "0, 1.5"),
        "seeds": ("0, 1", "0, -1"), "pca_dims": ("none", "0"), "k": ("5", "0"),
        "alpha": ("0.9", "1.5"), "normalization": ("rw", "both"),
    },
    "train": {
        "hidden": ("16", "0"), "learning_rate": ("0.01", "-1"), "epochs": ("30", "0"),
        "weight_decay": ("0.0005", None),
    },
    "solver": {"tol": ("1e-8", "0"), "max_iter": ("500", "0")},
}
README = Path(__file__).resolve().parent.parent / "README.md"
SYNTHETIC_KEYS = ("n", "classes", "dim", "spread", "seed")
STRAY_LINES = ("", "# comment", "; comment", "just words", "bogus = 1", "= 3",
               "[extras]", "[dataset]", "[", "seed = 3")
NON_NUMERIC = ("abc", "", "nan", "1,,2", "0x10", "+-1", "1e999", "none", "true")
# Line-breaking characters would change the document's layout, not a value.
FREE_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                    max_size=8)


@st.composite
def documents(draw):
    """(text, {key: [lines setting it]}, whether every value is valid)."""
    name = draw(st.sampled_from(("synthetic", "usps", "mnist", "cifar")))
    lines = ["schema_version = 1"]
    valid = name != "cifar"
    for section, keys in SCHEMA.items():
        if section != "dataset" and not draw(st.booleans()):
            continue
        lines.append(f"[{section}]")
        if section == "dataset":
            lines.append(f"name = {name}")
        for key in draw(st.lists(st.sampled_from(sorted(keys)), unique=True)):
            good, bad = keys[key]
            # Weighted toward range errors, which only surface once every
            # value before them in the document has parsed.
            kind = draw(st.sampled_from(("valid", "valid", "range", "range",
                                         "non-numeric", "text")))
            if kind == "range" and bad is not None:
                value = bad
            elif kind == "non-numeric":
                value = draw(st.sampled_from(NON_NUMERIC))
            elif kind == "text":
                value = draw(FREE_TEXT)
            else:
                value = good
            if value != good or (key in SYNTHETIC_KEYS and name != "synthetic"):
                valid = False
            lines.append(f"{key} = {value}")
    for position, stray in draw(st.lists(st.tuples(st.integers(0, len(lines)),
                                                   st.sampled_from(STRAY_LINES)),
                                         max_size=2)):
        lines.insert(position, stray)
        valid = valid and (stray == "" or stray.startswith(("#", ";")))
    key_lines = {}
    for number, line in enumerate(lines, start=1):
        key, sep, _ = line.partition("=")
        if sep and not line.startswith("["):
            key_lines.setdefault(key.strip(), []).append(number)
    return "\n".join(lines) + "\n", key_lines, valid


@settings(PROPERTY, max_examples=300)
@given(doc=documents())
def test_parses_or_raises_config_error_at_the_key(doc):
    text, key_lines, valid = doc
    try:
        cfg = parse_config(text, path="f.cfg")
    except ConfigError as exc:
        assert not valid, f"valid document rejected: {exc}"
        if exc.field in key_lines:
            assert exc.line in key_lines[exc.field]
            assert str(exc).startswith(f"f.cfg:{exc.line}: ")
    else:
        assert isinstance(cfg, ExperimentConfig)


def test_readme_schema_block_parses_and_names_every_key():
    [block] = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    # Inline comments are documentation; the reader takes only full-line ones.
    text = "\n".join(re.sub(r"\s+#.*", "", line) for line in block.splitlines())
    assert isinstance(parse_config(text, path="README.md"), ExperimentConfig)
    missing = [key for keys in SCHEMA.values() for key in keys
               if not re.search(rf"\b{key}\b", block)]
    assert not missing, f"README schema block does not document {missing}"

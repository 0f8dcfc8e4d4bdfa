"""Benchmark config files: a small key/value format with line-precise errors.

Layout: full-line comments start with ``#`` or ``;``, ``[section]`` headers
group ``key = value`` pairs, and a ``schema_version = 1`` assignment must
appear before the first section.  The full schema (sections, keys, types,
defaults) is documented in the README; unknown sections or keys are rejected
with the offending line number.
"""

from dataclasses import fields, replace

from .bench import (DATASET_FILES, DEFAULT_PCA_DIMS, METHODS, ExperimentConfig,
                    SyntheticSpec)
from .errors import ConfigError
from .network import TrainConfig


def parse_config_text(text, path="<config>"):
    """Parse the raw document into {section: {key: (value, line)}}.

    Keys before the first section header land in section ``""``.  Syntax
    problems raise :class:`ConfigError` carrying the line number.
    """
    sections = {"": {}}
    section = ""
    header_lines = {"": 0}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError("malformed section header", path, lineno)
            section = line[1:-1].strip()
            if section in sections:
                raise ConfigError(f"duplicate section [{section}]", path, lineno)
            sections[section] = {}
            header_lines[section] = lineno
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", path, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", path, lineno)
        if key in sections[section]:
            raise ConfigError(f"duplicate key {key!r}", path, lineno)
        sections[section][key] = (value, lineno)
    return sections, header_lines


def _boolean(text):
    value = text.lower()
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ValueError(text)


def _int_or_none(text):
    return None if text.lower() == "none" else int(text)


def _tuple_of(parse):
    return lambda text: tuple(parse(part) for part in text.split(","))


def _one_of(options):
    def parse(text):
        if text not in options:
            raise ValueError(text)
        return text
    return parse, "one of " + ", ".join(options)


# Value kinds: (parser raising ValueError, what the error says was expected).
_STRING = (str, "a string")
_INT = (int, "an integer")
_REAL = (float, "a number")
_BOOL = (_boolean, "true/false")
_INT_OR_NONE = (_int_or_none, "an integer or none")
_REALS = (_tuple_of(float), "comma-separated numbers")
_INTS = (_tuple_of(int), "comma-separated integers")
_NAMES = (_tuple_of(str.strip), "comma-separated names")


def _numeric_kinds(cls):
    """Kinds for a dataclass of numbers, one key per field."""
    return {f.name: (_REAL if f.type is float else _INT) for f in fields(cls)}


class _SectionReader:
    """Typed access to one parsed section, tracking consumed keys."""

    def __init__(self, path, name, entries):
        self.path = path
        self.name = name
        self.entries = entries
        self.seen = set()

    def error(self, key, message):
        entry = self.entries.get(key)
        line = entry[1] if entry else None
        raise ConfigError(message, self.path, line)

    def get(self, key, kind=_STRING):
        """The parsed value of ``key``, or None when the section does not set it."""
        self.seen.add(key)
        entry = self.entries.get(key)
        if entry is None:
            return None
        parse, expected = kind
        try:
            return parse(entry[0])
        except ValueError:
            self.error(key, f"expected {expected} for {key!r}, got {entry[0]!r}")

    def collect(self, kinds, prefix=""):
        """{prefix + key: value} for each key of ``kinds`` that the section sets."""
        return {prefix + key: self.get(key, kind)
                for key, kind in kinds.items() if key in self.entries}

    def reject_unknown(self):
        for key, (_, lineno) in self.entries.items():
            if key not in self.seen:
                where = f"[{self.name}]" if self.name else "the document root"
                raise ConfigError(f"unknown key {key!r} in {where}", self.path, lineno)


def load_config(path) -> ExperimentConfig:
    """Read and validate a benchmark config file into an ExperimentConfig."""
    with open(path, "r") as fh:
        text = fh.read()
    return parse_config(text, path=str(path))


def parse_config(text, path="<config>") -> ExperimentConfig:
    sections, header_lines = parse_config_text(text, path)
    known = {"", "dataset", "experiment", "train", "solver"}
    for name in sections:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]", path, header_lines[name])

    root = _SectionReader(path, "", sections.get("", {}))
    version = root.get("schema_version", _INT)
    if version is None:
        raise ConfigError("missing required 'schema_version = 1' before any section", path, None)
    if version != 1:
        root.error("schema_version", f"unsupported schema_version {version}")
    root.reject_unknown()

    if "dataset" not in sections:
        raise ConfigError("missing required [dataset] section", path, None)
    ds = _SectionReader(path, "dataset", sections["dataset"])
    name = ds.get("name", _one_of(tuple(DATASET_FILES)))
    if name is None:
        raise ConfigError("missing 'name' in [dataset]", path, header_lines["dataset"])
    # Only keys the file sets are passed on; ExperimentConfig owns the defaults.
    kwargs = ds.collect({"subsample_size": _INT_OR_NONE, "subsample_seed": _INT})
    paths = ds.collect(dict.fromkeys(DATASET_FILES[name], _STRING))
    if paths:
        kwargs["paths"] = paths
    if name == "synthetic":
        kwargs["synthetic"] = SyntheticSpec(**ds.collect(_numeric_kinds(SyntheticSpec)))
    ds.reject_unknown()

    ex = _SectionReader(path, "experiment", sections.get("experiment", {}))
    kwargs.update(ex.collect({
        "methods": _NAMES, "noise_levels": _REALS, "seeds": _INTS,
        "pca_dims": _INT_OR_NONE, "k": _INT, "alpha": _REAL,
        "normalization": _one_of(("sym", "rw")), "include_centroid": _BOOL}))
    # ExperimentConfig checks these too; here the error carries the line.
    for method in kwargs.get("methods", ()):
        if method not in METHODS:
            ex.error("methods", f"unknown method {method!r}; known: {', '.join(METHODS)}")
    for level in kwargs.get("noise_levels", ()):
        if not (0.0 <= level < 1.0):
            ex.error("noise_levels", f"noise level {level} outside [0, 1)")
    kwargs.setdefault("pca_dims", DEFAULT_PCA_DIMS[name])
    ex.reject_unknown()

    tr = _SectionReader(path, "train", sections.get("train", {}))
    train = tr.collect(_numeric_kinds(TrainConfig))
    tr.reject_unknown()
    if train:
        try:
            kwargs["train"] = TrainConfig(**train)
        except ValueError as exc:
            raise ConfigError(str(exc), path, header_lines.get("train")) from exc

    so = _SectionReader(path, "solver", sections.get("solver", {}))
    kwargs.update(so.collect({"tol": _REAL, "max_iter": _INT}, prefix="solver_"))
    so.reject_unknown()

    try:
        return ExperimentConfig(dataset=name, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), path, None) from exc


def strip_subsample(cfg: ExperimentConfig) -> ExperimentConfig:
    """Full-scale profile: ignore any configured subsampling."""
    return replace(cfg, subsample_size=None)

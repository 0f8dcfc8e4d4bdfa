"""Benchmark config files: a small key/value format with line-precise errors.

Layout: full-line comments start with ``#`` or ``;``, ``[section]`` headers
group ``key = value`` pairs, and a ``schema_version = 1`` assignment must
appear before the first section.  The full schema (sections, keys, types,
defaults) is documented in the README.  Unknown sections or keys, and values
that a config class's rules reject, are reported with the offending line.
"""

from dataclasses import fields, replace
from pathlib import Path

from .bench import DATASET_FILES, ExperimentConfig, SyntheticSpec
from .errors import ConfigError
from .network import TrainConfig
from .propagation import PropagationConfig


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


def int_or_none(text):
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
_INT_OR_NONE = (int_or_none, "an integer or none")
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

    def line(self, key):
        entry = self.entries.get(key)
        return entry[1] if entry else None

    def error(self, key, message):
        raise ConfigError(message, self.path, self.line(key), key)

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

    def collect(self, kinds):
        """{key: value} for each key of ``kinds`` that the section sets."""
        return {key: self.get(key, kind) for key, kind in kinds.items()
                if key in self.entries}

    def reject_unknown(self):
        for key in self.entries:
            if key not in self.seen:
                where = f"[{self.name}]" if self.name else "the document root"
                self.error(key, f"unknown key {key!r} in {where}")


def _build(cls, parts, **base):
    """``cls`` from ``base`` overridden by the keys each (reader, kinds) part sets.

    Only keys the file sets are passed on, so ``cls`` owns the defaults and
    the value rules.  A field named by its ConfigError is a key of one of the
    parts (keys are unique across them), and the error is re-raised at the
    line that set it.
    """
    lines = {}
    for reader, kinds in parts:
        values = reader.collect(kinds)
        base.update(values)
        lines.update((key, reader.line(key)) for key in values)
    try:
        return cls(**base)
    except ConfigError as exc:
        raise ConfigError(exc.reason, parts[0][0].path, lines.get(exc.field),
                          exc.field) from exc


def load_config(path) -> ExperimentConfig:
    """Read and validate a benchmark config file into an ExperimentConfig.

    Relative dataset paths are resolved against the file's directory.
    """
    with open(path, "r") as fh:
        text = fh.read()
    cfg = parse_config(text, path=str(path))
    base = Path(path).parent
    anchored = {key: value if Path(value).is_absolute() else str(base / value)
                for key, value in cfg.paths.items()}
    return replace(cfg, paths=anchored)


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
    ds, ex, tr, so = (_SectionReader(path, section, sections.get(section, {}))
                      for section in ("dataset", "experiment", "train", "solver"))
    name = ds.get("name", _one_of(tuple(DATASET_FILES)))
    if name is None:
        raise ConfigError("missing 'name' in [dataset]", path, header_lines["dataset"])

    synthetic = None
    if name == "synthetic":
        synthetic = _build(SyntheticSpec, [(ds, _numeric_kinds(SyntheticSpec))])
    train = _build(TrainConfig, [(tr, _numeric_kinds(TrainConfig))])
    solver = _build(PropagationConfig,
                    [(ex, {"alpha": _REAL}), (so, {"tol": _REAL, "max_iter": _INT})])
    cfg = _build(
        ExperimentConfig,
        [(ds, {"subsample_size": _INT_OR_NONE, "subsample_seed": _INT}),
         (ex, {"methods": _NAMES, "noise_levels": _REALS, "seeds": _INTS,
               "pca_dims": _INT_OR_NONE, "k": _INT})],
        dataset=name, paths=ds.collect(dict.fromkeys(DATASET_FILES[name], _STRING)),
        synthetic=synthetic, train=train, solver=solver)
    for section in (ds, ex, tr, so):
        section.reject_unknown()
    return cfg

"""Exception types shared across the package."""

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class FormatError(ValueError):
    """A file does not conform to its declared on-disk format."""


class NumericalError(ArithmeticError):
    """A non-finite value appeared where finite arithmetic was required."""


# How many failing columns a SolverError message lists.
_SHOWN_COLUMNS = 5


class SolverError(NumericalError):
    """An iterative solve broke down or failed to reach its tolerance.

    ``columns`` holds the indices of the right-hand-side columns at fault,
    and the message lists the first few.  ``reason`` is the message without
    that list, so a caller that solves a slice can renumber the columns.
    """

    def __init__(self, message, residual=None, columns=()):
        self.reason = message
        self.residual = residual
        self.columns = tuple(int(j) for j in columns)
        if self.columns:
            shown = ", ".join(map(str, self.columns[:_SHOWN_COLUMNS]))
            more = ", ..." if len(self.columns) > _SHOWN_COLUMNS else ""
            message = f"{message}; column{'s' if len(self.columns) > 1 else ''} {shown}{more}"
        super().__init__(message)


class DegenerateStructureError(ValueError):
    """A graph or hypergraph has a zero degree where positivity is required."""


class ConfigError(ValueError):
    """A benchmark setting is invalid; carries the file, line and field when known.

    ``reason`` is the message without the ``path:line:`` prefix and ``field``
    names the config field (or file key) at fault, so a config reader can
    attach the line that set it.
    """

    def __init__(self, message, path=None, line=None, field=None):
        self.reason = message
        self.field = field
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
        if line is not None:
            prefix += f"{line}:"
        if prefix:
            message = f"{prefix} {message}"
        super().__init__(message)
        self.path = path
        self.line = line


def _require(ok: bool, field_name: str, message: str):
    """The one way a config class states a rule: raise ConfigError naming the field."""
    if not ok:
        raise ConfigError(message, field=field_name)


def _require_int(value, field_name: str, low: int, rule: str):
    """The one integer rule: a Python or numpy integer (not a bool) of at least ``low``."""
    _require(isinstance(value, (int, np.integer)) and not isinstance(value, bool)
             and value >= low, field_name, f"{field_name} must be {rule}, got {value!r}")

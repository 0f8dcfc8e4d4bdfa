"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class FormatError(ValueError):
    """A file does not conform to its declared on-disk format."""


class NumericalError(ArithmeticError):
    """A non-finite value appeared where finite arithmetic was required."""


class SolverError(NumericalError):
    """An iterative solve failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


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

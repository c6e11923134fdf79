"""Exception types shared across the package."""


class AdamlsError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(AdamlsError, ValueError):
    """A domain invariant or operation precondition was violated."""


class ProfileLoadError(AdamlsError, ValueError):
    """A profile CSV was rejected; the message cites the offending row."""


class JoinError(AdamlsError, ValueError):
    """Profiles lack one shared image order, or labels do not fit the join."""


class RuleError(AdamlsError, ValueError):
    """An adaptation-rule matrix is missing, incomplete, or corrupt."""


class ExecutionError(AdamlsError, RuntimeError):
    """A planned adaptation could not be carried out (e.g. unknown model)."""


class ConfigError(AdamlsError, ValueError):
    """An experiment or simulation configuration was rejected."""

"""Exception types raised by the simulator."""


class Su11Error(Exception):
    """Base of every typed error: exit 1 in the CLI, an error cell in a sweep."""


class DomainError(Su11Error, ValueError):
    """A parameter is outside its physical domain (e.g. transmission > 1)."""


class UndefinedVisibilityError(Su11Error, ValueError):
    """Visibility is undefined: zero total flux or vanishing interference term."""


class StationaryPointError(Su11Error, ValueError):
    """Phase working point sits on an interference extremum (zero slope)."""


class TruncationError(Su11Error, RuntimeError):
    """Fock-space cutoff exhausted: tail population too large even at max cutoff."""

"""Exception types, one per exit code of the CLI.  A check of a caller's
argument raises ValueError; a check of a computation on data raises
EivregError."""


class ConfigError(ValueError):
    """A configuration document, option or input file is invalid (exit 2)."""


class EivregError(Exception):
    """A numerical failure of a computation on data (exit 3)."""

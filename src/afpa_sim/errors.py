"""Common base of the errors the package raises on bad input or failed solves."""


class AfpaSimError(Exception):
    """Base of every afpa_sim error; the CLI reports it as one line and exit 2."""
